//! Bid intake: validation and per-round deduplication.
//!
//! The engine receives raw, untrusted [`Bid`]s from the outside world.
//! [`Bid::check`] is the one bid rule: it rejects a malformed bid with a
//! typed [`IngestError`] instead of letting invalid values reach winner
//! determination. [`IngestQueue`] applies it against the round's published
//! tasks and turns admitted bids into
//! [`UserType`](mcs_core::types::UserType)s for the round currently being
//! filled; the cluster's router applies the same rule against its
//! topology. Checking a bid allocates nothing, and admitting one allocates
//! only its `UserType`.

use std::collections::HashSet;
use std::fmt;

use mcs_core::types::{Cost, Pos, TaskId, UserId, UserType};
use serde::{Deserialize, Serialize};

/// A raw sealed bid as submitted by a user: her declared type
/// `θ_i = (S_i, c_i, {p_i^j})` in wire form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bid {
    /// The bidding user.
    pub user: u32,
    /// Declared cost `c_i`.
    pub cost: f64,
    /// Declared task set with per-task PoS: `(task id, p_i^j)` pairs.
    pub tasks: Vec<(u32, f64)>,
}

/// Why a bid was rejected at intake.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The declared cost is negative, NaN, or infinite.
    InvalidCost {
        /// The offending value.
        value: f64,
    },
    /// A declared PoS is outside `[0, 1)`.
    InvalidPos {
        /// The task the PoS was declared for.
        task: u32,
        /// The offending value.
        value: f64,
    },
    /// The bid declares no tasks at all.
    EmptyTaskSet,
    /// The bid references a task the platform has not published.
    UnknownTask {
        /// The undeclared task.
        task: u32,
    },
    /// The same task appears twice in one bid.
    DuplicateTask {
        /// The repeated task.
        task: u32,
    },
    /// This user already has a bid in the current round.
    DuplicateUser {
        /// The repeated user.
        user: u32,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::InvalidCost { value } => {
                write!(
                    f,
                    "declared cost {value} is not a finite non-negative number"
                )
            }
            IngestError::InvalidPos { task, value } => {
                write!(f, "declared PoS {value} for task t{task} is not in [0, 1)")
            }
            IngestError::EmptyTaskSet => write!(f, "bid declares no tasks"),
            IngestError::UnknownTask { task } => {
                write!(f, "task t{task} is not published this round")
            }
            IngestError::DuplicateTask { task } => {
                write!(f, "task t{task} appears twice in one bid")
            }
            IngestError::DuplicateUser { user } => {
                write!(f, "user u{user} already bid in this round")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl Bid {
    /// The one bid rule, checked in this order: a non-empty task set, a
    /// valid cost, then for each declared task in turn that `known(task)`
    /// holds, that the task is not declared twice, and that its PoS is
    /// valid. A user's duplicate bid is the caller's to reject, before this
    /// check: the engine dedups within one round, the cluster's router
    /// across the whole cluster.
    ///
    /// Allocation-free. A repeated task is found on the bid's own list, at
    /// O(1) per task while the list ascends (the usual shape of a bid) and
    /// by a scan of the earlier tasks after.
    ///
    /// # Errors
    ///
    /// The first rule the bid breaks.
    pub fn check(&self, mut known: impl FnMut(u32) -> bool) -> Result<(), IngestError> {
        if self.tasks.is_empty() {
            return Err(IngestError::EmptyTaskSet);
        }
        if Cost::new(self.cost).is_err() {
            return Err(IngestError::InvalidCost { value: self.cost });
        }
        let mut ascending = true;
        for (k, &(task, pos)) in self.tasks.iter().enumerate() {
            if !known(task) {
                return Err(IngestError::UnknownTask { task });
            }
            // A task above every earlier one repeats none of them.
            ascending &= k == 0 || self.tasks[k - 1].0 < task;
            if !ascending && self.tasks[..k].iter().any(|&(earlier, _)| earlier == task) {
                return Err(IngestError::DuplicateTask { task });
            }
            if Pos::new(pos).is_err() {
                return Err(IngestError::InvalidPos { task, value: pos });
            }
        }
        Ok(())
    }
}

/// Validates bids against the round's published task list and accumulates
/// them, deduplicating user ids within the round.
#[derive(Debug)]
pub struct IngestQueue {
    /// Published task ids, ascending.
    published: Box<[u32]>,
    /// Users with a bid in the open round; cleared, not freed, between
    /// rounds.
    seen: HashSet<u32>,
    accepted: Vec<UserType>,
}

impl IngestQueue {
    /// Creates a queue for a round publishing `tasks`.
    pub fn new<I: IntoIterator<Item = TaskId>>(tasks: I) -> Self {
        let mut published: Vec<u32> = tasks.into_iter().map(|task| task.index() as u32).collect();
        published.sort_unstable();
        published.dedup();
        IngestQueue {
            published: published.into_boxed_slice(),
            seen: HashSet::new(),
            accepted: Vec::new(),
        }
    }

    /// Whether the round publishes `task`.
    fn publishes(&self, task: u32) -> bool {
        let Some(&first) = self.published.first() else {
            return false;
        };
        // Published ids are usually consecutive, which puts `task` at
        // `task - first`: one probe before the search.
        let guess = task.wrapping_sub(first) as usize;
        self.published.get(guess) == Some(&task) || self.published.binary_search(&task).is_ok()
    }

    /// How many bids have been accepted into the current round.
    pub fn len(&self) -> usize {
        self.accepted.len()
    }

    /// Whether no bid has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.accepted.is_empty()
    }

    /// Validates `bid` and, if well-formed, admits it to the round.
    ///
    /// # Errors
    ///
    /// A typed [`IngestError`]; the queue is unchanged on rejection.
    pub fn push(&mut self, bid: &Bid) -> Result<(), IngestError> {
        if self.seen.contains(&bid.user) {
            return Err(IngestError::DuplicateUser { user: bid.user });
        }
        bid.check(|task| self.publishes(task))?;
        let valid = "a checked bid holds valid values";
        let user = UserType::builder(UserId::new(bid.user))
            .cost(Cost::new(bid.cost).expect(valid))
            .tasks(
                bid.tasks
                    .iter()
                    .map(|&(task, pos)| (TaskId::new(task), Pos::new(pos).expect(valid))),
            )
            .build()
            .expect(valid);
        self.seen.insert(bid.user);
        self.accepted.push(user);
        Ok(())
    }

    /// Takes the accepted bids and resets the queue for the next round,
    /// sized for as many bids as this one took.
    pub fn drain(&mut self) -> Vec<UserType> {
        self.seen.clear();
        let next = Vec::with_capacity(self.accepted.len());
        std::mem::replace(&mut self.accepted, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> IngestQueue {
        IngestQueue::new([TaskId::new(0), TaskId::new(1)])
    }

    fn bid(user: u32) -> Bid {
        Bid {
            user,
            cost: 2.0,
            tasks: vec![(0, 0.5)],
        }
    }

    #[test]
    fn accepts_well_formed_bids() {
        let mut q = queue();
        q.push(&bid(0)).unwrap();
        q.push(&bid(1)).unwrap();
        assert_eq!(q.len(), 2);
        let users = q.drain();
        assert_eq!(users.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn rejects_duplicate_users_within_a_round() {
        let mut q = queue();
        q.push(&bid(0)).unwrap();
        assert_eq!(q.push(&bid(0)), Err(IngestError::DuplicateUser { user: 0 }));
        // After the round closes the same user may bid again.
        q.drain();
        q.push(&bid(0)).unwrap();
    }

    #[test]
    fn rejects_malformed_bids_with_typed_errors() {
        let mut q = queue();
        let mut b = bid(0);
        b.cost = -1.0;
        assert!(matches!(q.push(&b), Err(IngestError::InvalidCost { .. })));
        b = bid(0);
        b.tasks = vec![(0, 1.0)];
        assert!(matches!(q.push(&b), Err(IngestError::InvalidPos { .. })));
        b = bid(0);
        b.tasks = vec![(7, 0.5)];
        assert_eq!(q.push(&b), Err(IngestError::UnknownTask { task: 7 }));
        b = bid(0);
        b.tasks = vec![(0, 0.5), (0, 0.6)];
        assert_eq!(q.push(&b), Err(IngestError::DuplicateTask { task: 0 }));
        b = bid(0);
        b.tasks.clear();
        assert_eq!(q.push(&b), Err(IngestError::EmptyTaskSet));
        // Nothing slipped through.
        assert!(q.is_empty());
    }
}
