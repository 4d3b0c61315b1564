//! The pre-optimization reference implementations of the multi-task
//! greedy (Algorithm 4) and the robust critical-bid search.
//!
//! These are the original, straightforward scan-based versions: every
//! greedy iteration rescans all users against a [`TypeProfile`], and every
//! bisection probe clones the profile with a scaled declaration. They are
//! kept — unoptimized, by design — as the ground truth for the
//! differential proptest suites (`tests/engine_equivalence.rs`), which
//! require the indexed lazy-greedy engine in [`crate::indexed`] to be
//! *bitwise* identical, and as the "before" side of the
//! `payment_scaling` benchmark.

use crate::error::{McsError, Result};
use crate::mechanism::{Allocation, BISECTION_STEPS};
use crate::multi_task::{GreedyIteration, GreedyRun};
use crate::types::{Contribution, Cost, TaskId, TypeProfile, UserId, UserType};

/// Reference greedy, recording every iteration; fails on infeasible
/// instances.
///
/// # Errors
///
/// Returns [`McsError::Infeasible`] naming the first uncovered task.
pub fn run(profile: &TypeProfile) -> Result<GreedyRun> {
    let run = run_to_exhaustion(profile);
    match run.uncovered_task() {
        Some(task) => Err(McsError::Infeasible { task }),
        None => Ok(run),
    }
}

/// Reference greedy via a full per-iteration rescan of all users, exactly
/// as the paper states Algorithm 4. Never fails: infeasible instances
/// record as many iterations as possible and mark the first uncovered
/// task.
pub fn run_to_exhaustion(profile: &TypeProfile) -> GreedyRun {
    let mut residual = Residuals::new(profile);
    let mut selected: Vec<bool> = vec![false; profile.user_count()];
    let mut iterations = Vec::new();
    let mut uncovered = None;

    while let Some(task) = residual.first_unmet() {
        let best = profile
            .users()
            .iter()
            .enumerate()
            .filter(|&(idx, _)| !selected[idx])
            .map(|(idx, user)| (idx, user, residual.capped_contribution(user)))
            .filter(|(_, _, capped)| !capped.is_zero())
            .max_by(|a, b| {
                ratio_order(a.2, a.1.cost(), b.2, b.1.cost())
                    // Deterministic tie-break: smaller user id wins.
                    .then(b.1.id().cmp(&a.1.id()))
            });
        let Some((idx, user, capped)) = best else {
            uncovered = Some(task);
            break;
        };
        selected[idx] = true;
        iterations.push(GreedyIteration {
            user: user.id(),
            cost: user.cost(),
            capped_contribution: capped,
            residual_before: residual.snapshot(),
        });
        residual.subtract(user);
    }

    GreedyRun::from_parts(iterations, uncovered)
}

/// Reference winner determination: [`run`] reduced to its allocation.
///
/// # Errors
///
/// Same as [`run`].
pub fn select_winners(profile: &TypeProfile) -> Result<Allocation> {
    Ok(run(profile)?.allocation())
}

/// Reference robust critical bid: a plain bisection over uniform scalings
/// of the winner's declared contribution vector, each probe cloning the
/// profile and re-running the reference greedy from scratch.
///
/// # Errors
///
/// * [`McsError::NotAWinner`] if `user` does not win as declared.
/// * [`McsError::CriticalProbeFailed`] wrapping any non-[`McsError::Infeasible`]
///   error raised inside a probe (infeasibility just means "loses").
pub fn critical_contribution(profile: &TypeProfile, user: UserId) -> Result<Contribution> {
    let current = select_winners(profile)?;
    if !current.contains(user) {
        return Err(McsError::NotAWinner { user });
    }
    let declared_total = profile.user(user)?.total_contribution();
    if declared_total.is_zero() {
        // A zero-contribution winner can only be a degenerate monopoly;
        // her critical bid is zero.
        return Ok(Contribution::ZERO);
    }

    let wins_at = |scale: f64| -> Result<bool> {
        let probe = || -> Result<bool> {
            let scaled = profile.user(user)?.with_scaled_contributions(scale);
            match select_winners(&profile.with_user_type(scaled)?) {
                Ok(outcome) => Ok(outcome.contains(user)),
                // Scaling down so far that the instance becomes infeasible
                // certainly does not win.
                Err(McsError::Infeasible { .. }) => Ok(false),
                Err(other) => Err(other),
            }
        };
        probe().map_err(|source| McsError::CriticalProbeFailed {
            user,
            source: Box::new(source),
        })
    };

    // She wins at her declaration (scale 1); zero contribution never wins.
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    debug_assert!(wins_at(1.0)?, "winner determination is not deterministic");
    for _ in 0..BISECTION_STEPS {
        let mid = 0.5 * (lo + hi);
        if wins_at(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Contribution::new(hi * declared_total.value())
}

/// Compares two contribution–cost ratios `a_q/a_c` vs `b_q/b_c` by
/// cross-multiplication, so zero costs order correctly (a free contributor
/// has an infinite ratio).
fn ratio_order(a_q: Contribution, a_c: Cost, b_q: Contribution, b_c: Cost) -> std::cmp::Ordering {
    let left = a_q.value() * b_c.value();
    let right = b_q.value() * a_c.value();
    left.partial_cmp(&right).expect("finite ratio products")
}

/// Residual contribution requirements `Q̄` during a greedy run.
#[derive(Debug, Clone)]
pub(crate) struct Residuals {
    /// `(task, residual requirement)` for every task, in publication order.
    pub(crate) entries: Vec<(TaskId, Contribution)>,
}

impl Residuals {
    fn new(profile: &TypeProfile) -> Self {
        Residuals {
            entries: profile
                .tasks()
                .iter()
                .map(|t| (t.id(), t.requirement_contribution()))
                .collect(),
        }
    }

    /// The first task whose residual requirement is still positive.
    fn first_unmet(&self) -> Option<TaskId> {
        self.entries
            .iter()
            .find(|(_, residual)| !residual.is_zero())
            .map(|&(task, _)| task)
    }

    /// `Σ_{j ∈ S_i} min(q_i^j, Q̄_j)` — the user's marginal value.
    pub(crate) fn capped_contribution(&self, user: &UserType) -> Contribution {
        self.entries
            .iter()
            .map(|&(task, residual)| user.contribution_for(task).min(residual))
            .sum()
    }

    /// Applies a selected user: `Q̄_j ← max(0, Q̄_j − q_i^j)`.
    pub(crate) fn subtract(&mut self, user: &UserType) {
        for (task, residual) in &mut self.entries {
            *residual = *residual - user.contribution_for(*task);
        }
    }

    fn snapshot(&self) -> Vec<(TaskId, Contribution)> {
        self.entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Pos, Task};

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

    #[test]
    fn reference_greedy_selects_by_ratio() {
        let profile = TypeProfile::new(
            vec![user(0, 4.0, &[(0, 0.5)]), user(1, 1.0, &[(0, 0.5)])],
            vec![task(0, 0.4)],
        )
        .unwrap();
        let allocation = select_winners(&profile).unwrap();
        assert_eq!(
            allocation.winners().collect::<Vec<_>>(),
            vec![UserId::new(1)]
        );
    }

    #[test]
    fn reference_critical_matches_rival_capped_contribution() {
        let profile = TypeProfile::new(
            vec![user(0, 2.0, &[(0, 0.8)]), user(1, 2.0, &[(0, 0.7)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let expected = Pos::new(0.5).unwrap().contribution();
        let critical = critical_contribution(&profile, UserId::new(0)).unwrap();
        assert!((critical.value() - expected.value()).abs() < 1e-9);
    }

    #[test]
    fn reference_critical_rejects_losers() {
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.9)]), user(1, 50.0, &[(0, 0.9)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        assert_eq!(
            critical_contribution(&profile, UserId::new(1)).unwrap_err(),
            McsError::NotAWinner {
                user: UserId::new(1)
            }
        );
    }
}
