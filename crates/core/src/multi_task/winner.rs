//! Greedy winner determination for the multi-task, single-minded setting
//! (paper Algorithm 4).
//!
//! The problem is a submodular set cover: pick the cheapest user set whose
//! per-task contributions cover every requirement. The greedy rule
//! repeatedly selects the user maximizing the *contribution–cost ratio*
//! `(Σ_j min(q_i^j, Q̄_j)) / c_i`, where `Q̄_j` is the residual requirement
//! of task `j`, then subtracts her contributions from the residuals. The
//! result is an `H(γ)`-approximation (Theorem 5) and the rule is monotone
//! in declared contributions (Lemma 2).
//!
//! The implementation runs on the dense CELF-style lazy-greedy engine in
//! [`crate::indexed`]: instead of rescanning every user each iteration it
//! keeps a max-heap of stale ratio upper bounds and refreshes only what it
//! pops. Selections, capped contributions, and residual snapshots are
//! bitwise identical to the straightforward scan
//! ([`crate::multi_task::reference`]); the proptest suites in
//! `tests/engine_equivalence.rs` enforce that claim.

use serde::{Deserialize, Serialize};

use crate::error::{McsError, Result};
use crate::indexed::{
    ClearContext, IndexedProfile, PreparedRound, Record, RunOptions, RunView, Workspace,
};
use crate::mechanism::{Allocation, WinnerDetermination};
use crate::types::{Contribution, Cost, TaskId, TypeProfile, UserId};

/// The greedy submodular-set-cover winner-determination algorithm.
///
/// # Examples
///
/// ```
/// use mcs_core::mechanism::WinnerDetermination;
/// use mcs_core::multi_task::GreedyWinnerDetermination;
/// use mcs_core::types::{Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
///
/// let tasks = vec![
///     Task::with_requirement(TaskId::new(0), 0.6)?,
///     Task::with_requirement(TaskId::new(1), 0.6)?,
/// ];
/// let users = vec![
///     // Covers both tasks cheaply.
///     UserType::builder(UserId::new(0))
///         .cost(Cost::new(2.0)?)
///         .task(TaskId::new(0), Pos::new(0.7)?)
///         .task(TaskId::new(1), Pos::new(0.7)?)
///         .build()?,
///     // Covers one task at the same cost.
///     UserType::builder(UserId::new(1))
///         .cost(Cost::new(2.0)?)
///         .task(TaskId::new(0), Pos::new(0.7)?)
///         .build()?,
/// ];
/// let profile = TypeProfile::new(users, tasks)?;
/// let allocation = GreedyWinnerDetermination::new().select_winners(&profile)?;
/// // The two-task user has double the ratio and suffices alone.
/// assert_eq!(allocation.winners().collect::<Vec<_>>(), vec![UserId::new(0)]);
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GreedyWinnerDetermination {}

impl GreedyWinnerDetermination {
    /// Creates the algorithm (it is parameter-free).
    pub fn new() -> Self {
        GreedyWinnerDetermination {}
    }

    /// Runs the greedy allocation and records every iteration — the raw
    /// material for the reward scheme (Algorithm 5 reruns this on
    /// `θ_{-i}` and inspects each iteration).
    ///
    /// # Errors
    ///
    /// Returns [`McsError::Infeasible`] if the users cannot cover some
    /// task's requirement (the run stops and reports the task).
    pub fn run(&self, profile: &TypeProfile) -> Result<GreedyRun> {
        let run = self.run_to_exhaustion(profile);
        match run.uncovered_task() {
            Some(task) => Err(McsError::Infeasible { task }),
            None => Ok(run),
        }
    }

    /// Like [`GreedyWinnerDetermination::run`] but never fails on
    /// infeasible instances: it records as many useful iterations as
    /// possible and marks the first task left uncovered. The reward scheme
    /// uses this on `θ_{-i}` instances, which may well be infeasible
    /// without user `i`.
    pub fn run_to_exhaustion(&self, profile: &TypeProfile) -> GreedyRun {
        let indexed = IndexedProfile::from_profile(profile);
        let mut workspace = Workspace::new();
        let run = indexed.run_in(&mut workspace, RunOptions::default(), Record::Full);
        materialize(profile, &indexed, run)
    }

    /// Syncs `context` to `profile` and runs the base greedy on it once,
    /// recorded at the `record` level — the one prepare-and-run body
    /// behind [`WinnerDetermination::select_winners`] (selection only),
    /// the per-user critical-bid searches, and
    /// [`crate::multi_task::MultiTaskMechanism::allocate_with`] (both
    /// [`Record::Full`], so each winner's exclusion run resumes from it).
    /// The prepared borrows come back with the winners so a caller can
    /// price them on the same index.
    ///
    /// # Errors
    ///
    /// [`McsError::Infeasible`] if the users cannot cover some task.
    pub(crate) fn prepare_and_run<'c>(
        &self,
        context: &'c mut ClearContext,
        profile: &TypeProfile,
        record: Record,
    ) -> Result<(PreparedRound<'c>, Allocation)> {
        let prepared = context.prepare(profile, record);
        let run = prepared.recorded;
        if let Some(task) = run.uncovered() {
            return Err(McsError::Infeasible {
                task: prepared.index.task_id(task),
            });
        }
        let allocation = run
            .selection()
            .iter()
            .map(|&position| prepared.index.user_id(position))
            .collect();
        Ok((prepared, allocation))
    }
}

impl WinnerDetermination for GreedyWinnerDetermination {
    fn select_winners(&self, profile: &TypeProfile) -> Result<Allocation> {
        let (_, allocation) =
            self.prepare_and_run(&mut ClearContext::new(), profile, Record::Selection)?;
        Ok(allocation)
    }
}

/// Converts a dense run (recorded in [`Record::Full`] mode) back into the
/// id-keyed [`GreedyRun`] the public API exposes.
fn materialize(profile: &TypeProfile, indexed: &IndexedProfile, run: RunView<'_>) -> GreedyRun {
    let iterations = run
        .selection
        .iter()
        .enumerate()
        .map(|(iteration, &position)| {
            let user = &profile.users()[position];
            GreedyIteration {
                user: user.id(),
                cost: user.cost(),
                capped_contribution: Contribution::new(run.capped[iteration])
                    .expect("capped contribution is a finite non-negative sum"),
                residual_before: run
                    .snapshot(iteration)
                    .iter()
                    .enumerate()
                    .map(|(task, &residual)| {
                        (
                            indexed.task_id(task),
                            Contribution::new(residual)
                                .expect("residuals stay finite and non-negative"),
                        )
                    })
                    .collect(),
            }
        })
        .collect();
    GreedyRun {
        iterations,
        uncovered: run.uncovered.map(|task| indexed.task_id(task)),
    }
}

/// One iteration of the greedy loop.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyIteration {
    /// The user selected in this iteration.
    pub user: UserId,
    /// Her cost `c_k`.
    pub cost: Cost,
    /// Her capped contribution `Σ_j min(q_k^j, Q̄_j)` at iteration start.
    pub capped_contribution: Contribution,
    /// The residual requirements `Q̄` at iteration start.
    pub residual_before: Vec<(TaskId, Contribution)>,
}

/// A recorded greedy allocation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyRun {
    iterations: Vec<GreedyIteration>,
    uncovered: Option<TaskId>,
}

impl GreedyRun {
    /// Assembles a run from its parts (crate-internal: the reference
    /// implementation builds runs too).
    pub(crate) fn from_parts(iterations: Vec<GreedyIteration>, uncovered: Option<TaskId>) -> Self {
        GreedyRun {
            iterations,
            uncovered,
        }
    }

    /// The iterations in selection order.
    pub fn iterations(&self) -> &[GreedyIteration] {
        &self.iterations
    }

    /// The selected user set.
    pub fn allocation(&self) -> Allocation {
        self.iterations.iter().map(|it| it.user).collect()
    }

    /// The first task whose requirement the run could not cover, if the
    /// instance was infeasible for the participating users.
    pub fn uncovered_task(&self) -> Option<TaskId> {
        self.uncovered
    }

    /// Whether every task's requirement was covered.
    pub fn is_complete(&self) -> bool {
        self.uncovered.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_task::reference::Residuals;
    use crate::types::{Pos, Task, UserType};

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
    fn selects_by_contribution_cost_ratio() {
        let profile = TypeProfile::new(
            vec![
                user(0, 4.0, &[(0, 0.5)]),
                user(1, 1.0, &[(0, 0.5)]), // same contribution, cheaper
            ],
            vec![task(0, 0.4)],
        )
        .unwrap();
        let allocation = GreedyWinnerDetermination::new()
            .select_winners(&profile)
            .unwrap();
        assert_eq!(
            allocation.winners().collect::<Vec<_>>(),
            vec![UserId::new(1)]
        );
    }

    #[test]
    fn capping_prevents_overshoot_from_dominating() {
        // User 0 has a huge contribution on task 0 only; the cap at Q̄_0
        // means user 1's spread across both tasks wins.
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.999)]),
                user(1, 2.0, &[(0, 0.5), (1, 0.5)]),
            ],
            vec![task(0, 0.4), task(1, 0.4)],
        )
        .unwrap();
        let run = GreedyWinnerDetermination::new().run(&profile).unwrap();
        assert_eq!(run.iterations()[0].user, UserId::new(1));
        // And user 1 alone covers both (q = 0.693 ≥ Q = 0.51), so the run
        // stops after one iteration.
        assert_eq!(run.iterations().len(), 1);
    }

    #[test]
    fn infeasible_instance_reports_first_uncovered_task() {
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.9)])],
            vec![task(0, 0.5), task(1, 0.5)],
        )
        .unwrap();
        let err = GreedyWinnerDetermination::new()
            .select_winners(&profile)
            .unwrap_err();
        assert_eq!(
            err,
            McsError::Infeasible {
                task: TaskId::new(1)
            }
        );
    }

    #[test]
    fn zero_requirements_select_nobody() {
        let profile =
            TypeProfile::new(vec![user(0, 1.0, &[(0, 0.9)])], vec![task(0, 0.0)]).unwrap();
        let allocation = GreedyWinnerDetermination::new()
            .select_winners(&profile)
            .unwrap();
        assert!(allocation.is_empty());
    }

    #[test]
    fn run_records_residuals_and_caps() {
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.5)]), user(1, 1.0, &[(0, 0.5)])],
            vec![task(0, 0.7)],
        )
        .unwrap();
        let run = GreedyWinnerDetermination::new().run(&profile).unwrap();
        assert_eq!(run.iterations().len(), 2);
        let q = Pos::new(0.5).unwrap().contribution();
        let requirement = Pos::new(0.7).unwrap().contribution();
        let first = &run.iterations()[0];
        assert_eq!(first.residual_before[0].1, requirement);
        assert_eq!(first.capped_contribution, q.min(requirement));
        let second = &run.iterations()[1];
        let residual = requirement - q;
        assert!((second.residual_before[0].1.value() - residual.value()).abs() < 1e-12);
        assert_eq!(second.capped_contribution, q.min(residual));
    }

    #[test]
    fn free_users_have_infinite_ratio() {
        let profile = TypeProfile::new(
            vec![user(0, 0.0, &[(0, 0.3)]), user(1, 1.0, &[(0, 0.9)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let run = GreedyWinnerDetermination::new().run(&profile).unwrap();
        assert_eq!(run.iterations()[0].user, UserId::new(0));
    }

    #[test]
    fn ratio_ties_break_to_smaller_id() {
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.5)]), user(1, 1.0, &[(0, 0.5)])],
            vec![task(0, 0.4)],
        )
        .unwrap();
        let allocation = GreedyWinnerDetermination::new()
            .select_winners(&profile)
            .unwrap();
        assert_eq!(
            allocation.winners().collect::<Vec<_>>(),
            vec![UserId::new(0)]
        );
    }

    #[test]
    fn monotone_in_declared_contribution() {
        // Lemma 2: a winner raising any of her PoS values stays a winner.
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.15)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        for winner in allocation.winners() {
            let original = profile.user(winner).unwrap().clone();
            for (task_id, pos) in original.tasks() {
                for bump in [0.05, 0.2, 0.4] {
                    let raised = (pos.value() + bump).min(0.99);
                    let lie = original
                        .with_pos(task_id, Pos::new(raised).unwrap())
                        .unwrap();
                    let deviated = profile.with_user_type(lie).unwrap();
                    let outcome = wd.select_winners(&deviated).unwrap();
                    assert!(
                        outcome.contains(winner),
                        "{winner} lost by raising {task_id} to {raised}"
                    );
                }
            }
        }
    }

    #[test]
    fn selection_order_is_descending_ratio_of_marginals() {
        // Every recorded iteration's chosen ratio is at least any other
        // remaining user's ratio at that point (sanity of the argmax).
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
            ],
            vec![task(0, 0.4), task(1, 0.6), task(2, 0.5)],
        )
        .unwrap();
        let run = GreedyWinnerDetermination::new().run(&profile).unwrap();
        let mut chosen: Vec<UserId> = Vec::new();
        for iteration in run.iterations() {
            let mut residual = Residuals {
                entries: iteration.residual_before.clone(),
            };
            let selected_ratio = iteration.capped_contribution.value() / iteration.cost.value();
            for candidate in profile.users() {
                if chosen.contains(&candidate.id()) || candidate.id() == iteration.user {
                    continue;
                }
                let ratio =
                    residual.capped_contribution(candidate).value() / candidate.cost().value();
                assert!(
                    selected_ratio >= ratio - 1e-12,
                    "greedy skipped a better candidate"
                );
            }
            residual.subtract(profile.user(iteration.user).unwrap());
            chosen.push(iteration.user);
        }
    }

    #[test]
    fn lazy_and_reference_greedy_agree_on_a_fixed_instance() {
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap();
        let lazy = GreedyWinnerDetermination::new().run_to_exhaustion(&profile);
        let reference = crate::multi_task::reference::run_to_exhaustion(&profile);
        assert_eq!(lazy, reference);
    }
}
