//! The complete multi-task, single-minded mechanism: greedy winner
//! determination plus the per-iteration critical-bid reward scheme.

use std::collections::BTreeMap;

use crate::error::Result;
use crate::indexed::{ClearContext, PreparedRound, Record};
use crate::mechanism::{validate_alpha, Allocation, RewardScheme, WinnerDetermination};
use crate::multi_task::reward::critical_contributions_parallel;
use crate::multi_task::{critical_pos, GreedyWinnerDetermination};
use crate::types::{Pos, TypeProfile, UserId};

/// The paper's multi-task, single-minded mechanism (Algorithms 4 + 5).
///
/// * Winner determination greedily selects the user with the best
///   contribution–cost ratio until every task's requirement is covered —
///   an `H(γ)`-approximation of the optimal social cost (Theorem 5),
///   monotone in declared contributions (Lemma 2).
/// * Rewards are execution contingent around the winner's critical PoS:
///   `(1-p̄_i)·α + c_i` if she completed *any* of her tasks,
///   `-p̄_i·α + c_i` if she completed none, giving expected utility
///   `(e^{-q̄_i} - e^{-Σ_j q_i^j})·α` and making truthful reporting a
///   dominant strategy in the contribution dimension (Theorem 4).
///
/// # Examples
///
/// ```
/// use mcs_core::prelude::*;
/// use mcs_core::types::Task;
///
/// let tasks = vec![
///     Task::with_requirement(TaskId::new(0), 0.6)?,
///     Task::with_requirement(TaskId::new(1), 0.7)?,
/// ];
/// let users = vec![
///     UserType::builder(UserId::new(0))
///         .cost(Cost::new(3.0)?)
///         .task(TaskId::new(0), Pos::new(0.5)?)
///         .task(TaskId::new(1), Pos::new(0.6)?)
///         .build()?,
///     UserType::builder(UserId::new(1))
///         .cost(Cost::new(2.0)?)
///         .task(TaskId::new(0), Pos::new(0.4)?)
///         .task(TaskId::new(1), Pos::new(0.5)?)
///         .build()?,
/// ];
/// let profile = TypeProfile::new(users, tasks)?;
/// let mechanism = MultiTaskMechanism::new(10.0)?;
/// let allocation = mechanism.select_winners(&profile)?;
/// assert!(!allocation.is_empty());
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTaskMechanism {
    winner_determination: GreedyWinnerDetermination,
    alpha: f64,
    payment_threads: usize,
}

impl MultiTaskMechanism {
    /// Creates the mechanism with reward scaling factor `α`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::McsError::InvalidAlpha`] on out-of-range `α`.
    pub fn new(alpha: f64) -> Result<Self> {
        Ok(MultiTaskMechanism {
            winner_determination: GreedyWinnerDetermination::new(),
            alpha: validate_alpha(alpha)?,
            payment_threads: 1,
        })
    }

    /// Sets how many OS threads [`AllocatedRound::criticals`] fans
    /// winners out over (clamped to at least 1).
    ///
    /// The result is bitwise identical for every thread count; this knob
    /// only trades wall-clock time for cores.
    #[must_use]
    pub fn with_payment_threads(mut self, threads: usize) -> Self {
        self.payment_threads = threads.max(1);
        self
    }

    /// The configured payment fan-out width.
    pub fn payment_threads(&self) -> usize {
        self.payment_threads
    }

    /// The underlying winner-determination algorithm.
    pub fn winner_determination(&self) -> &GreedyWinnerDetermination {
        &self.winner_determination
    }

    /// Winner determination through a reusable [`ClearContext`]: the
    /// context's persistent index is delta-patched to `profile` (instead
    /// of re-flattened) and its heap seeds drive one greedy run. The
    /// winners are bitwise identical to
    /// [`WinnerDetermination::select_winners`]; the returned handle
    /// prices exactly those winners on the same prepared index via
    /// [`AllocatedRound::criticals`], so a round costs one prepare and one
    /// base run.
    ///
    /// # Errors
    ///
    /// [`crate::McsError::Infeasible`] if the users cannot cover some task.
    pub fn allocate_with<'c>(
        &self,
        context: &'c mut ClearContext,
        profile: &TypeProfile,
    ) -> Result<AllocatedRound<'c>> {
        let (prepared, allocation) =
            self.winner_determination
                .prepare_and_run(context, profile, Record::Full)?;
        Ok(AllocatedRound {
            prepared,
            allocation,
            payment_threads: self.payment_threads,
        })
    }
}

/// A round allocated by [`MultiTaskMechanism::allocate_with`]: the
/// winners of its one greedy run, still holding the [`ClearContext`]
/// borrows that run used.
#[derive(Debug)]
pub struct AllocatedRound<'c> {
    prepared: PreparedRound<'c>,
    allocation: Allocation,
    payment_threads: usize,
}

impl AllocatedRound<'_> {
    /// The winning users.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The winning users, releasing the context.
    pub fn into_allocation(self) -> Allocation {
        self.allocation
    }

    /// Every winner's critical PoS `p̄_i`, computed on the round's prepared
    /// index, heap seeds, and workspace pool, with the per-winner
    /// bisections fanned out over
    /// [`MultiTaskMechanism::payment_threads`] threads.
    ///
    /// A winner whose θ₋ᵢ run the context's last sync left as it was
    /// keeps the critical bid the previous round on this context priced
    /// for her; the others are searched (DESIGN.md §12, "Across rounds").
    /// Values are bitwise identical to the per-user
    /// [`RewardScheme::critical_pos`] and identical for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Any error of a winner's critical-bid search; when several winners
    /// fail, the error for the smallest winner id is returned.
    pub fn criticals(&mut self) -> Result<BTreeMap<UserId, Pos>> {
        let winners: Vec<UserId> = self.allocation.winners().collect();
        let criticals =
            critical_contributions_parallel(&mut self.prepared, &winners, self.payment_threads);
        winners
            .into_iter()
            .zip(criticals)
            .map(|(winner, critical)| Ok((winner, critical?.pos())))
            .collect()
    }
}

impl WinnerDetermination for MultiTaskMechanism {
    fn select_winners(&self, profile: &TypeProfile) -> Result<Allocation> {
        self.winner_determination.select_winners(profile)
    }
}

impl RewardScheme for MultiTaskMechanism {
    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn critical_pos(
        &self,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
    ) -> Result<Pos> {
        critical_pos(&self.winner_determination, profile, allocation, user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cost, Task, TaskId, UserType};

    fn task(id: u32, req: f64) -> Task {
        Task::with_requirement(TaskId::new(id), req).unwrap()
    }

    fn user(id: u32, cost: f64, tasks: &[(u32, f64)]) -> UserType {
        let mut b = UserType::builder(UserId::new(id)).cost(Cost::new(cost).unwrap());
        for &(t, p) in tasks {
            b = b.task(TaskId::new(t), Pos::new(p).unwrap());
        }
        b.build().unwrap()
    }

    fn five_user_profile() -> TypeProfile {
        TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
                user(4, 2.5, &[(0, 0.4), (2, 0.4)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap()
    }

    /// Expected utility of `user` with true type from `truth`, given the
    /// declared profile `declared` and realized `allocation`.
    fn expected_utility(
        mechanism: &MultiTaskMechanism,
        declared: &TypeProfile,
        truth: &TypeProfile,
        allocation: &crate::mechanism::Allocation,
        user: UserId,
    ) -> f64 {
        if !allocation.contains(user) {
            return 0.0;
        }
        let success = mechanism.reward(declared, allocation, user, true).unwrap();
        let failure = mechanism.reward(declared, allocation, user, false).unwrap();
        let true_type = truth.user(user).unwrap();
        let p_any = true_type.any_task_pos().value();
        p_any * success + (1.0 - p_any) * failure - true_type.cost().value()
    }

    #[test]
    fn winners_have_nonnegative_expected_utility() {
        let profile = five_user_profile();
        let mechanism = MultiTaskMechanism::new(10.0).unwrap();
        let allocation = mechanism.select_winners(&profile).unwrap();
        assert!(!allocation.is_empty());
        for winner in allocation.winners() {
            let u = expected_utility(&mechanism, &profile, &profile, &allocation, winner);
            assert!(
                u >= -1e-9,
                "winner {winner} has negative expected utility {u}"
            );
        }
    }

    #[test]
    fn expected_utility_matches_closed_form() {
        // u_i = (e^{-q̄_i} - e^{-Σ q_i^j}) α   (paper Equation (6))
        let profile = five_user_profile();
        let alpha = 10.0;
        let mechanism = MultiTaskMechanism::new(alpha).unwrap();
        let allocation = mechanism.select_winners(&profile).unwrap();
        for winner in allocation.winners() {
            let direct = expected_utility(&mechanism, &profile, &profile, &allocation, winner);
            let critical = mechanism
                .critical_pos(&profile, &allocation, winner)
                .unwrap();
            let total = profile.user(winner).unwrap().total_contribution();
            let closed =
                ((-critical.contribution().value()).exp() - (-total.value()).exp()) * alpha;
            assert!(
                (direct - closed).abs() < 1e-9,
                "direct {direct} vs closed form {closed} for {winner}"
            );
        }
    }

    #[test]
    fn scaling_down_contributions_never_helps() {
        // Understating loses the auction or keeps utility unchanged;
        // overstating can win but yields negative expected utility.
        let truth = five_user_profile();
        let mechanism = MultiTaskMechanism::new(10.0).unwrap();
        let truthful_allocation = mechanism.select_winners(&truth).unwrap();
        for target in truth.user_ids() {
            let truthful_utility =
                expected_utility(&mechanism, &truth, &truth, &truthful_allocation, target);
            for factor in [0.0, 0.2, 0.5, 0.8, 1.2, 2.0, 5.0] {
                let lie = truth
                    .user(target)
                    .unwrap()
                    .with_scaled_contributions(factor);
                let declared = truth.with_user_type(lie).unwrap();
                let allocation = match mechanism.select_winners(&declared) {
                    Ok(a) => a,
                    Err(_) => continue, // deviation broke feasibility: utility 0
                };
                let lied_utility =
                    expected_utility(&mechanism, &declared, &truth, &allocation, target);
                assert!(
                    lied_utility <= truthful_utility + 1e-6,
                    "user {target} gains by scaling contributions ×{factor}: \
                     {lied_utility} > {truthful_utility}"
                );
            }
        }
    }

    #[test]
    fn success_minus_failure_equals_alpha() {
        let profile = five_user_profile();
        let alpha = 4.0;
        let mechanism = MultiTaskMechanism::new(alpha).unwrap();
        let allocation = mechanism.select_winners(&profile).unwrap();
        let winner = allocation.winners().next().unwrap();
        let success = mechanism
            .reward(&profile, &allocation, winner, true)
            .unwrap();
        let failure = mechanism
            .reward(&profile, &allocation, winner, false)
            .unwrap();
        assert!((success - failure - alpha).abs() < 1e-9);
    }

    #[test]
    fn alpha_is_validated() {
        assert!(MultiTaskMechanism::new(f64::NAN).is_err());
        assert!(MultiTaskMechanism::new(-2.0).is_err());
        assert_eq!(MultiTaskMechanism::new(10.0).unwrap().alpha(), 10.0);
    }

    #[test]
    fn batch_critical_pos_matches_per_user_path_for_any_thread_count() {
        let profile = five_user_profile();
        let mechanism = MultiTaskMechanism::new(10.0).unwrap();
        let allocation = mechanism.select_winners(&profile).unwrap();
        let mut context = ClearContext::new();
        let mut round = mechanism.allocate_with(&mut context, &profile).unwrap();
        assert_eq!(*round.allocation(), allocation);
        let sequential = round.criticals().unwrap();
        assert_eq!(sequential.len(), allocation.winner_count());
        for (&winner, &critical) in &sequential {
            let single = mechanism
                .critical_pos(&profile, &allocation, winner)
                .unwrap();
            assert_eq!(critical.value().to_bits(), single.value().to_bits());
        }
        for threads in [2, 4, 8] {
            let parallel = mechanism.clone().with_payment_threads(threads);
            let mut context = ClearContext::new();
            let mut round = parallel.allocate_with(&mut context, &profile).unwrap();
            assert_eq!(
                round.criticals().unwrap(),
                sequential,
                "{threads} threads diverged"
            );
        }
    }

    #[test]
    fn payment_threads_clamp_to_at_least_one() {
        let mechanism = MultiTaskMechanism::new(1.0)
            .unwrap()
            .with_payment_threads(0);
        assert_eq!(mechanism.payment_threads(), 1);
    }
}
