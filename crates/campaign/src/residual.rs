//! Residual-requirement tracking: how much of each task's quality
//! target is still uncovered after the executions that actually
//! happened.
//!
//! The paper's quality constraint is multiplicative —
//! `Π (1 − p_i) ≤ 1 − Q_j` — which the codebase carries in the additive
//! log domain as [`Contribution`] (`q = −ln(1 − p)`). That makes the
//! residual after a round a plain subtraction: for task `j` with
//! requirement `Q_j` and successful winners `S`,
//!
//! ```text
//! Q_j' = Q_j − Σ_{i ∈ S} q_i^j
//! ```
//!
//! clamped at zero. Only *successful* executions count — a winner who
//! completed none of her tasks contributed nothing, which is exactly
//! the coverage gap residual re-auction rounds exist to close. Because
//! coverage only ever accumulates, the residual is monotonically
//! non-increasing across rounds; the harness oracles assert this, the
//! tracker guarantees it by construction.
//!
//! The tracker only folds outcomes into residuals. The residual round
//! itself — which tasks to republish, at what requirement, and which
//! bids still apply — is the platform's one residual-round rule
//! ([`residual_tasks`](mcs_platform::batch::residual_tasks) and
//! [`restrict_bids`](mcs_platform::batch::restrict_bids)), shared with
//! the cluster's straddler phase.

use std::collections::BTreeMap;

use mcs_core::types::{Contribution, Task, TaskId};

/// Per-task residual requirements across a campaign's rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualTracker {
    residual: BTreeMap<TaskId, Contribution>,
}

impl ResidualTracker {
    /// A tracker with every task's residual at its full requirement.
    pub fn new(tasks: &[Task]) -> Self {
        let residual = tasks
            .iter()
            .map(|task| (task.id(), task.requirement_contribution()))
            .collect();
        ResidualTracker { residual }
    }

    /// Credits a successful execution: `user`'s declared contribution
    /// `q` toward `task` is subtracted from the task's residual
    /// (saturating at zero). Unknown tasks are ignored.
    pub fn absorb(&mut self, task: TaskId, contribution: Contribution) {
        if let Some(residual) = self.residual.get_mut(&task) {
            *residual = *residual - contribution;
        }
    }

    /// The task's current residual (zero for unknown tasks).
    pub fn residual(&self, task: TaskId) -> Contribution {
        self.residual
            .get(&task)
            .copied()
            .unwrap_or(Contribution::ZERO)
    }

    /// Every task's residual, in task-id order.
    pub fn residuals(&self) -> &BTreeMap<TaskId, Contribution> {
        &self.residual
    }

    /// Sum of all residuals — the campaign's remaining coverage debt.
    pub fn total_residual(&self) -> Contribution {
        self.residual.values().copied().sum()
    }

    /// Whether every task's residual has reached zero.
    pub fn is_covered(&self) -> bool {
        self.residual.values().all(|r| r.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::types::Pos;
    use mcs_platform::batch::residual_tasks;

    /// The tracker's residual round task list, as the runner builds it.
    fn uncovered_tasks(tracker: &ResidualTracker) -> Vec<Task> {
        residual_tasks(tracker.residuals().clone())
    }

    fn tasks() -> [Task; 2] {
        [
            Task::new(TaskId::new(0), Pos::new(0.9).unwrap()),
            Task::new(TaskId::new(1), Pos::new(0.5).unwrap()),
        ]
    }

    fn tracker() -> ResidualTracker {
        ResidualTracker::new(&tasks())
    }

    #[test]
    fn starts_at_full_requirements_and_absorbs_down() {
        let mut tracker = tracker();
        assert!(!tracker.is_covered());
        let before = tracker.residual(TaskId::new(0));
        tracker.absorb(TaskId::new(0), Pos::new(0.5).unwrap().contribution());
        let after = tracker.residual(TaskId::new(0));
        assert!(after.value() < before.value());
        assert_eq!(
            tracker.residual(TaskId::new(1)),
            tasks()[1].requirement_contribution()
        );
    }

    #[test]
    fn saturates_at_zero_and_reports_coverage() {
        let mut tracker = tracker();
        let big = Pos::new(0.999_999).unwrap().contribution();
        tracker.absorb(TaskId::new(0), big);
        tracker.absorb(TaskId::new(0), big);
        tracker.absorb(TaskId::new(1), big);
        assert!(tracker.residual(TaskId::new(0)).is_zero());
        assert!(tracker.is_covered());
        assert!(uncovered_tasks(&tracker).is_empty());
        assert!(tracker.total_residual().is_zero());
    }

    #[test]
    fn uncovered_tasks_carry_the_residual_requirement() {
        let mut tracker = tracker();
        tracker.absorb(TaskId::new(1), Pos::new(0.999_999).unwrap().contribution());
        let open = uncovered_tasks(&tracker);
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].id(), TaskId::new(0));
        let republished = open[0].requirement_contribution();
        assert!((republished.value() - tracker.residual(TaskId::new(0)).value()).abs() < 1e-9);
    }

    #[test]
    fn unknown_tasks_are_inert() {
        let mut tracker = tracker();
        tracker.absorb(TaskId::new(99), Pos::new(0.5).unwrap().contribution());
        assert_eq!(tracker.residual(TaskId::new(99)), Contribution::ZERO);
        let [a, b] = tasks();
        assert_eq!(
            tracker.total_residual(),
            a.requirement_contribution() + b.requirement_contribution()
        );
    }
}
