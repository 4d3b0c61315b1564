//! FPTAS winner determination for the single-task setting
//! (paper Algorithm 2).
//!
//! The single-task problem is a minimum knapsack: choose the cheapest user
//! set whose contributions reach the task's requirement `Q`. The FPTAS
//! sorts users by cost, and for every prefix length `k` solves a scaled
//! subproblem with `μ_k = ε·c_k / k`; the cheapest (by *actual* cost)
//! feasible answer over all subproblems is returned.
//!
//! Two deliberate deviations from the paper's pseudocode, both needed to
//! make its own theorems hold simultaneously:
//!
//! * **Cross-subproblem comparison uses actual cost** (the paper's line 9
//!   compares `C̄·μ_k`). Comparing in the scaled domain can return a set
//!   whose actual cost is unboundedly bad when one subproblem's `μ` is
//!   huge; the approximation proof (Theorem 2) itself assumes the
//!   actual-cost comparison (`c(I*) ≤ c(Ī^k)` for every `k`).
//! * **Per-level tie-breaking favours lower actual cost** (see
//!   [`DpTable`](crate::knapsack::DpTable)); together with contribution
//!   saturation this makes every subproblem's answer cost weakly
//!   *decrease* when a selected user raises her declared PoS, which is
//!   what makes the whole algorithm monotone (Lemma 1) and the critical
//!   bid well defined.
//!
//! The algorithm itself lives in [`AllocatedRound`], which prepares a
//! round once so that the critical-bid probes can rerun it in place.

use crate::error::{McsError, Result};
use crate::mechanism::{Allocation, WinnerDetermination};
use crate::single_task::AllocatedRound;
use crate::types::TypeProfile;

/// The `(1+ε)`-approximate single-task winner-determination algorithm.
///
/// # Examples
///
/// ```
/// use mcs_core::mechanism::WinnerDetermination;
/// use mcs_core::single_task::FptasWinnerDetermination;
/// use mcs_core::types::{Pos, TypeProfile, UserId, UserType};
///
/// let users = vec![
///     UserType::single(UserId::new(0), 3.0, 0.7)?,
///     UserType::single(UserId::new(1), 2.0, 0.7)?,
///     UserType::single(UserId::new(2), 1.0, 0.5)?,
///     UserType::single(UserId::new(3), 4.0, 0.8)?,
/// ];
/// let profile = TypeProfile::single_task(Pos::new(0.9)?, users)?;
/// let wd = FptasWinnerDetermination::new(0.1)?;
/// let allocation = wd.select_winners(&profile)?;
/// // Two optima tie at social cost 5: {0,1} (0.91) and {2,3} (exactly 0.9).
/// assert_eq!(allocation.social_cost(&profile)?.value(), 5.0);
/// assert_eq!(allocation.winner_count(), 2);
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FptasWinnerDetermination {
    epsilon: f64,
}

impl FptasWinnerDetermination {
    /// Creates the algorithm with approximation parameter `ε`; the returned
    /// allocation costs at most `(1+ε)` times the optimum (Theorem 2).
    ///
    /// # Errors
    ///
    /// Returns [`McsError::InvalidEpsilon`] unless `ε` is a finite positive
    /// number.
    pub fn new(epsilon: f64) -> Result<Self> {
        if epsilon.is_finite() && epsilon > 0.0 {
            Ok(FptasWinnerDetermination { epsilon })
        } else {
            Err(McsError::InvalidEpsilon { value: epsilon })
        }
    }

    /// The approximation parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl WinnerDetermination for FptasWinnerDetermination {
    fn select_winners(&self, profile: &TypeProfile) -> Result<Allocation> {
        Ok(AllocatedRound::new(self.epsilon, profile)?.into_allocation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Contribution, Cost, Pos, UserId, UserType};

    fn profile(requirement: f64, users: &[(f64, f64)]) -> TypeProfile {
        let users = users
            .iter()
            .enumerate()
            .map(|(i, &(cost, pos))| UserType::single(UserId::new(i as u32), cost, pos).unwrap())
            .collect();
        TypeProfile::single_task(Pos::new(requirement).unwrap(), users).unwrap()
    }

    #[test]
    fn paper_counterexample_instance() {
        // Users (3,0.7), (2,0.7), (1,0.5), (4,0.8); requirement 0.9.
        // Two optima tie at cost 5: {0,1} covers 1−0.3² = 0.91 and {2,3}
        // covers exactly 1−0.5·0.2 = 0.9.
        let p = profile(0.9, &[(3.0, 0.7), (2.0, 0.7), (1.0, 0.5), (4.0, 0.8)]);
        let wd = FptasWinnerDetermination::new(0.05).unwrap();
        let allocation = wd.select_winners(&p).unwrap();
        assert_eq!(allocation.social_cost(&p).unwrap().value(), 5.0);
        assert_eq!(allocation.winner_count(), 2);
    }

    #[test]
    fn infeasible_instance_is_reported() {
        let p = profile(0.99, &[(1.0, 0.1), (1.0, 0.1)]);
        let wd = FptasWinnerDetermination::new(0.5).unwrap();
        assert!(matches!(
            wd.select_winners(&p),
            Err(McsError::Infeasible { .. })
        ));
    }

    #[test]
    fn zero_requirement_selects_nobody() {
        let p = profile(0.0, &[(1.0, 0.5)]);
        let wd = FptasWinnerDetermination::new(0.5).unwrap();
        assert!(wd.select_winners(&p).unwrap().is_empty());
    }

    #[test]
    fn multi_task_profile_is_rejected() {
        use crate::types::{Task, TaskId};
        let users = vec![UserType::builder(UserId::new(0))
            .cost(Cost::new(1.0).unwrap())
            .task(TaskId::new(0), Pos::new(0.5).unwrap())
            .task(TaskId::new(1), Pos::new(0.5).unwrap())
            .build()
            .unwrap()];
        let tasks = vec![
            Task::with_requirement(TaskId::new(0), 0.4).unwrap(),
            Task::with_requirement(TaskId::new(1), 0.4).unwrap(),
        ];
        let p = TypeProfile::new(users, tasks).unwrap();
        let wd = FptasWinnerDetermination::new(0.5).unwrap();
        assert!(matches!(
            wd.select_winners(&p),
            Err(McsError::NotSingleTask { tasks: 2 })
        ));
    }

    #[test]
    fn zero_contribution_users_never_win() {
        let p = profile(0.5, &[(0.1, 0.0), (5.0, 0.9)]);
        let wd = FptasWinnerDetermination::new(0.5).unwrap();
        let allocation = wd.select_winners(&p).unwrap();
        assert!(!allocation.contains(UserId::new(0)));
        assert!(allocation.contains(UserId::new(1)));
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        assert!(FptasWinnerDetermination::new(0.0).is_err());
        assert!(FptasWinnerDetermination::new(-1.0).is_err());
        assert!(FptasWinnerDetermination::new(f64::NAN).is_err());
        assert!(FptasWinnerDetermination::new(0.5).is_ok());
    }

    #[test]
    fn single_cheap_covering_user_beats_expensive_pairs() {
        let p = profile(0.6, &[(10.0, 0.4), (10.0, 0.4), (3.0, 0.7)]);
        let wd = FptasWinnerDetermination::new(0.1).unwrap();
        let allocation = wd.select_winners(&p).unwrap();
        let ids: Vec<UserId> = allocation.winners().collect();
        assert_eq!(ids, vec![UserId::new(2)]);
    }

    #[test]
    fn monotone_in_declared_pos() {
        // A winner who raises her PoS stays a winner (Lemma 1), across a
        // grid of instances.
        let instances = vec![
            profile(0.9, &[(3.0, 0.7), (2.0, 0.7), (1.0, 0.5), (4.0, 0.8)]),
            profile(
                0.8,
                &[(1.0, 0.3), (1.5, 0.35), (2.0, 0.5), (2.5, 0.6), (1.2, 0.25)],
            ),
            profile(0.7, &[(5.0, 0.6), (5.0, 0.6), (5.0, 0.6)]),
        ];
        let wd = FptasWinnerDetermination::new(0.3).unwrap();
        for p in instances {
            let allocation = wd.select_winners(&p).unwrap();
            for winner in allocation.winners() {
                let user = p.user(winner).unwrap();
                let truthful = user.pos_for(crate::types::TaskId::new(0)).unwrap().value();
                for raised in [truthful + 0.01, truthful + 0.1, 0.95] {
                    if raised >= 1.0 {
                        continue;
                    }
                    let lie = user
                        .with_pos(crate::types::TaskId::new(0), Pos::new(raised).unwrap())
                        .unwrap();
                    let deviated = p.with_user_type(lie).unwrap();
                    let new_allocation = wd.select_winners(&deviated).unwrap();
                    assert!(
                        new_allocation.contains(winner),
                        "{winner} lost by raising PoS {truthful} -> {raised}"
                    );
                }
            }
        }
    }

    #[test]
    fn approximation_ratio_holds_against_brute_force() {
        // Exhaustive optimum over all subsets for small n; FPTAS within 1+ε.
        let instances = vec![
            (
                0.85,
                vec![(4.0, 0.5), (3.0, 0.4), (2.0, 0.3), (5.0, 0.7), (1.0, 0.15)],
            ),
            (0.9, vec![(3.0, 0.7), (2.0, 0.7), (1.0, 0.5), (4.0, 0.8)]),
            (
                0.75,
                vec![
                    (2.0, 0.2),
                    (2.0, 0.25),
                    (2.0, 0.3),
                    (2.0, 0.35),
                    (2.0, 0.4),
                    (2.0, 0.45),
                ],
            ),
        ];
        for epsilon in [0.1, 0.5, 1.0] {
            let wd = FptasWinnerDetermination::new(epsilon).unwrap();
            for (req, users) in &instances {
                let p = profile(*req, users);
                let allocation = wd.select_winners(&p).unwrap();
                let got = allocation.social_cost(&p).unwrap().value();
                let opt = brute_force_cost(&p);
                assert!(
                    got <= (1.0 + epsilon) * opt + 1e-9,
                    "ratio violated: got {got}, opt {opt}, eps {epsilon}"
                );
            }
        }
    }

    fn brute_force_cost(profile: &TypeProfile) -> f64 {
        let requirement = profile.the_task().unwrap().requirement_contribution();
        let users = profile.users();
        let n = users.len();
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << n) {
            let mut q = Contribution::ZERO;
            let mut cost = 0.0;
            for (i, user) in users.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    q += user.contribution_for(crate::types::TaskId::new(0));
                    cost += user.cost().value();
                }
            }
            if q.meets(requirement) && cost < best {
                best = cost;
            }
        }
        best
    }
}
