//! Round batching: turning the bid stream into closed auction rounds.
//!
//! The [`Batcher`] owns the intake queue for the round currently being
//! filled and closes it into an immutable [`Round`] when the
//! [`BatchPolicy`](crate::config::BatchPolicy) says so: the round reached
//! its bid capacity, or its tick budget elapsed with at least one bid.
//! Between rounds the published task list can change
//! ([`Batcher::publish`]).
//!
//! Coverage is additive (`q = −ln(1 − p)`), so a round covering what
//! earlier winners left is the same auction over the residual
//! requirements `Q_j' = Q_j − Σ q`. [`residual_tasks`] and
//! [`restrict_bids`] are the one rule that builds such a round; the
//! cluster's straddler phase and the campaign's re-auctions share it.

use std::collections::BTreeSet;
use std::fmt;

use mcs_core::types::{Contribution, Task, TaskId, TypeProfile};
use serde::{Deserialize, Serialize};

use crate::config::BatchPolicy;
use crate::ingest::{Bid, IngestError, IngestQueue};

/// Monotone identifier of a closed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RoundId(pub u64);

impl std::fmt::Display for RoundId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A closed round: a validated auction instance awaiting clearing.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// The round's identifier (assigned in closing order).
    pub id: RoundId,
    /// The declared type profile built from the round's accepted bids.
    pub profile: TypeProfile,
}

impl BatchPolicy {
    /// Rounds close only on [`Batcher::flush`]: no bid count and no
    /// tick budget closes one. For drivers that close every round
    /// themselves, such as campaign runners and cluster node shards.
    pub const FLUSH_ONLY: BatchPolicy = BatchPolicy {
        max_bids: usize::MAX,
        max_ticks: u32::MAX,
    };
}

/// Why [`Batcher::publish`] refused a new task list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The open round holds this many bids, validated against the
    /// current task list; close it first.
    OpenRoundHoldsBids(usize),
    /// A round must publish at least one task.
    NoTasks,
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::OpenRoundHoldsBids(bids) => write!(f, "the open round holds {bids} bids"),
            PublishError::NoTasks => write!(f, "a round must publish at least one task"),
        }
    }
}

impl std::error::Error for PublishError {}

/// The republish half of the residual-round rule: every task at its
/// residual requirement `(id, Q_j')`, in the given order, with the
/// tasks left at zero dropped. Empty exactly when every residual is
/// zero.
pub fn residual_tasks(residuals: impl IntoIterator<Item = (TaskId, Contribution)>) -> Vec<Task> {
    residuals
        .into_iter()
        .filter(|(_, left)| !left.is_zero())
        .map(|(id, left)| Task::new(id, left.pos()))
        .collect()
}

/// The restrict half of the residual-round rule: each bid keeps only
/// its declarations on the `open` tasks, and bids left with none are
/// dropped. Order is kept, and every kept `(task, PoS)` pair is
/// untouched.
pub fn restrict_bids(bids: &mut Vec<Bid>, open: &[Task]) {
    let open: BTreeSet<u32> = open.iter().map(|task| task.id().index() as u32).collect();
    bids.retain_mut(|bid| {
        bid.tasks.retain(|(task, _)| open.contains(task));
        !bid.tasks.is_empty()
    });
}

/// Accumulates validated bids and closes rounds per the batch policy.
#[derive(Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    tasks: Vec<Task>,
    queue: IngestQueue,
    next_id: u64,
    ticks_open: u32,
}

impl Batcher {
    /// Creates a batcher for rounds publishing `tasks`.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty — a round must publish something.
    pub fn new(policy: BatchPolicy, tasks: Vec<Task>) -> Self {
        let mut batcher = Batcher {
            policy,
            tasks: Vec::new(),
            queue: IngestQueue::new([]),
            next_id: 0,
            ticks_open: 0,
        };
        batcher
            .publish(tasks)
            .unwrap_or_else(|error| panic!("{error}"));
        batcher
    }

    /// The tasks the open round publishes.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Replaces the published task list for the open round and every
    /// later one. Closed rounds keep the profile they closed with.
    ///
    /// # Errors
    ///
    /// [`PublishError::OpenRoundHoldsBids`] while the open round holds
    /// bids (they were validated against the old list), and
    /// [`PublishError::NoTasks`] for an empty list. The batcher is
    /// unchanged on error.
    pub fn publish(&mut self, tasks: Vec<Task>) -> Result<(), PublishError> {
        if !self.queue.is_empty() {
            return Err(PublishError::OpenRoundHoldsBids(self.queue.len()));
        }
        if tasks.is_empty() {
            return Err(PublishError::NoTasks);
        }
        self.queue = IngestQueue::new(tasks.iter().map(Task::id));
        self.tasks = tasks;
        Ok(())
    }

    /// The id the next closed round will receive.
    pub fn next_round_id(&self) -> u64 {
        self.next_id
    }

    /// Fast-forwards the round-id sequence so the next closed round
    /// receives `next_id` — used when rebuilding an engine from a
    /// checkpoint, so ids stay monotone across the rebuild.
    ///
    /// # Panics
    ///
    /// Panics if this would move the sequence backwards (ids must never
    /// repeat).
    pub fn resume_at(&mut self, next_id: u64) {
        assert!(
            next_id >= self.next_id,
            "round ids are monotone: cannot resume at {next_id} after {}",
            self.next_id
        );
        self.next_id = next_id;
    }

    /// Bids accepted into the round currently being filled.
    pub fn pending_bids(&self) -> usize {
        self.queue.len()
    }

    /// Submits a bid to the current round. Returns the closed round if
    /// this bid filled it to `max_bids`.
    ///
    /// # Close precedence
    ///
    /// When a capacity close and a tick-budget close land on the same
    /// tick — the queue reaches `max_bids` while `ticks_open` sits at
    /// `max_ticks − 1` — the **capacity close wins**: `submit` closes
    /// the round immediately and resets the tick clock, so the
    /// following [`Batcher::tick`] sees an empty queue and neither
    /// double-closes this round nor starts the new round with a stale
    /// tick count. Exactly one close per round, always.
    ///
    /// # Errors
    ///
    /// Propagates [`IngestError`] for malformed or duplicate bids; the
    /// round keeps filling.
    pub fn submit(&mut self, bid: &Bid) -> Result<Option<Round>, IngestError> {
        self.queue.push(bid)?;
        if self.queue.len() >= self.policy.max_bids {
            return Ok(self.close());
        }
        Ok(None)
    }

    /// Advances the tick clock, closing a non-empty round whose tick
    /// budget has elapsed.
    pub fn tick(&mut self) -> Option<Round> {
        if self.queue.is_empty() {
            self.ticks_open = 0;
            return None;
        }
        self.ticks_open += 1;
        if self.ticks_open >= self.policy.max_ticks {
            return self.close();
        }
        None
    }

    /// Force-closes the current round regardless of policy (e.g. at
    /// shutdown). Returns `None` when no bids are pending.
    pub fn flush(&mut self) -> Option<Round> {
        self.close()
    }

    fn close(&mut self) -> Option<Round> {
        // Resetting the tick clock here (not at the call sites) is what
        // makes the capacity-vs-tick-budget race single-close: whichever
        // path closes first leaves the other with an empty queue and a
        // fresh clock.
        self.ticks_open = 0;
        if self.queue.is_empty() {
            return None;
        }
        let users = self.queue.drain();
        let profile = TypeProfile::new(users, self.tasks.clone())
            .expect("validated bids form a well-formed profile");
        let id = RoundId(self.next_id);
        self.next_id += 1;
        Some(Round { id, profile })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::types::TaskId;

    fn batcher(max_bids: usize, max_ticks: u32) -> Batcher {
        Batcher::new(
            BatchPolicy {
                max_bids,
                max_ticks,
            },
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
        )
    }

    fn bid(user: u32) -> Bid {
        Bid {
            user,
            cost: 2.0,
            tasks: vec![(0, 0.5)],
        }
    }

    #[test]
    fn closes_on_bid_capacity() {
        let mut b = batcher(2, 100);
        assert!(b.submit(&bid(0)).unwrap().is_none());
        let round = b
            .submit(&bid(1))
            .unwrap()
            .expect("round closes at capacity");
        assert_eq!(round.id, RoundId(0));
        assert_eq!(round.profile.user_count(), 2);
        // The next round gets the next id.
        b.submit(&bid(0)).unwrap();
        b.submit(&bid(1)).unwrap();
        assert_eq!(b.flush(), None); // already closed by capacity
    }

    #[test]
    fn closes_on_tick_budget() {
        let mut b = batcher(100, 3);
        assert_eq!(b.tick(), None); // empty rounds never close
        b.submit(&bid(0)).unwrap();
        assert!(b.tick().is_none());
        assert!(b.tick().is_none());
        let round = b.tick().expect("tick budget elapsed");
        assert_eq!(round.profile.user_count(), 1);
        assert_eq!(b.tick(), None);
    }

    /// Pinned regression for the close-precedence edge: the round
    /// reaches bid capacity on the very tick its tick budget would also
    /// have expired. The capacity close must win, the round must close
    /// exactly once, and the next round's tick clock must start fresh.
    #[test]
    fn capacity_close_beats_tick_budget_close_on_the_same_tick() {
        let mut b = batcher(3, 2);
        // Fill to capacity − 1 and burn the budget to max_ticks − 1.
        b.submit(&bid(0)).unwrap();
        b.submit(&bid(1)).unwrap();
        assert!(b.tick().is_none()); // ticks_open = 1 = max_ticks − 1

        // The capacity bid lands on the same tick the budget would
        // expire: submit closes the round (capacity precedence).
        let round = b.submit(&bid(2)).unwrap().expect("capacity close");
        assert_eq!(round.id, RoundId(0));
        assert_eq!(round.profile.user_count(), 3);
        // The tick that would have budget-closed the round finds an
        // empty queue: no double close, and it resets nothing stale.
        assert_eq!(b.tick(), None);
        assert_eq!(b.pending_bids(), 0);
        // The next round starts with a *fresh* tick clock: it needs the
        // full budget again, not the leftover from before the close.
        b.submit(&bid(7)).unwrap();
        assert!(b.tick().is_none()); // 1 of 2
        let second = b.tick().expect("full budget elapsed");
        assert_eq!(second.id, RoundId(1));
        assert_eq!(second.profile.user_count(), 1);
    }

    #[test]
    fn resume_at_continues_the_id_sequence() {
        let mut b = batcher(1, 100);
        assert_eq!(b.next_round_id(), 0);
        b.resume_at(7);
        let round = b.submit(&bid(0)).unwrap().unwrap();
        assert_eq!(round.id, RoundId(7));
        assert_eq!(b.next_round_id(), 8);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn resume_at_rejects_going_backwards() {
        let mut b = batcher(1, 100);
        b.resume_at(5);
        b.resume_at(3);
    }

    #[test]
    fn residual_rule_drops_covered_tasks_and_emptied_bids() {
        use mcs_core::types::Pos;
        let q = |pos: f64| Pos::new(pos).unwrap().contribution();
        let residuals = [
            (TaskId::new(2), q(0.5)),
            (TaskId::new(0), Contribution::ZERO),
            (TaskId::new(1), q(0.3)),
        ];
        let open = residual_tasks(residuals);
        // Input order kept, the covered task dropped, requirements
        // republished from the residual contribution.
        let ids: Vec<TaskId> = open.iter().map(Task::id).collect();
        assert_eq!(ids, [TaskId::new(2), TaskId::new(1)]);
        assert_eq!(
            open[0].requirement_contribution(),
            q(0.5).pos().contribution()
        );
        assert!(residual_tasks([(TaskId::new(0), Contribution::ZERO)]).is_empty());

        let bid = |user: u32, tasks: &[(u32, f64)]| Bid {
            user,
            cost: 1.0,
            tasks: tasks.to_vec(),
        };
        let mut bids = vec![
            bid(5, &[(0, 0.4), (1, 0.25), (2, 0.5)]),
            bid(3, &[(0, 0.4)]),
            bid(9, &[(2, 0.125)]),
        ];
        restrict_bids(&mut bids, &open);
        assert_eq!(
            bids,
            vec![bid(5, &[(1, 0.25), (2, 0.5)]), bid(9, &[(2, 0.125)])]
        );
    }

    #[test]
    fn flush_closes_partial_rounds_and_ids_are_monotone() {
        let mut b = batcher(100, 100);
        b.submit(&bid(0)).unwrap();
        let first = b.flush().unwrap();
        b.submit(&bid(5)).unwrap();
        let second = b.flush().unwrap();
        assert!(first.id < second.id);
        assert_eq!(b.flush(), None);
    }
}
