//! User types: the (declared or true) private information of a bidder.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{McsError, Result};
use crate::types::{Contribution, Cost, Pos, TaskId, UserId};

/// A user's *type* in the mechanism-design sense:
/// `θ_i = (S_i, c_i, {p_i^j | j ∈ S_i})`.
///
/// The task set `S_i` and per-task PoS values are stored together as one
/// slice of `(task, PoS)` pairs, strictly ascending by [`TaskId`]; the task
/// set is exactly the slice's ids. Lookups binary-search it, and iteration
/// runs in ascending task id, so every sum over the tasks adds in one fixed
/// order. A user costs one allocation.
/// The cost `c_i` is the total cost of performing *all* tasks in `S_i`
/// (users are single-minded in the multi-task model: they perform either
/// their whole task set or nothing).
///
/// A `UserType` can represent either a *true* type or a *declared* bid — the
/// auction code takes both and never assumes they coincide. Its JSON form
/// keeps the task set as an object keyed by task id.
///
/// # Examples
///
/// ```
/// use mcs_core::types::{Cost, Pos, TaskId, UserId, UserType};
///
/// let user = UserType::builder(UserId::new(0))
///     .cost(Cost::new(15.0)?)
///     .task(TaskId::new(0), Pos::new(0.3)?)
///     .task(TaskId::new(1), Pos::new(0.1)?)
///     .build()?;
/// assert_eq!(user.task_count(), 2);
/// assert_eq!(user.pos_for(TaskId::new(0)), Some(Pos::new(0.3)?));
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(into = "UserRepr", try_from = "UserRepr")]
pub struct UserType {
    id: UserId,
    cost: Cost,
    tasks: Box<[(TaskId, Pos)]>,
}

/// Serialized form of [`UserType`]: the task set as a map from task id to
/// PoS. A map read from JSON lists its keys in any order and may repeat
/// one; the map sorts them and keeps a repeated key's last value, and
/// converting keeps that.
#[derive(Serialize, Deserialize)]
struct UserRepr {
    id: UserId,
    cost: Cost,
    tasks: BTreeMap<TaskId, Pos>,
}

impl From<UserType> for UserRepr {
    fn from(user: UserType) -> Self {
        UserRepr {
            id: user.id,
            cost: user.cost,
            tasks: user.tasks.iter().copied().collect(),
        }
    }
}

impl From<UserRepr> for UserType {
    fn from(repr: UserRepr) -> Self {
        UserType {
            id: repr.id,
            cost: repr.cost,
            tasks: repr.tasks.into_iter().collect(),
        }
    }
}

impl UserType {
    /// Starts building a user type for the given id.
    pub fn builder(id: UserId) -> UserTypeBuilder {
        UserTypeBuilder {
            id,
            cost: Cost::ZERO,
            tasks: Vec::new(),
        }
    }

    /// Creates a single-task user type — the common case in the paper's
    /// single-task model, where the (only) task is implied.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`Cost::new`] and [`Pos::new`].
    pub fn single(id: UserId, cost: f64, pos: f64) -> Result<Self> {
        UserType::builder(id)
            .cost(Cost::new(cost)?)
            .tasks([(TaskId::new(0), Pos::new(pos)?)])
            .build()
    }

    /// The user identifier.
    pub fn id(&self) -> UserId {
        self.id
    }

    /// The total cost `c_i` of performing the whole task set.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// The number of tasks in the user's task set `|S_i|`.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Iterates over the task set `S_i` in ascending task-id order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks.iter().map(|&(task, _)| task)
    }

    /// Iterates over `(task, PoS)` pairs in ascending task-id order.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, Pos)> + '_ {
        self.tasks.iter().copied()
    }

    /// Where `task` sits in the id-sorted task slice.
    fn slot(&self, task: TaskId) -> Option<usize> {
        self.tasks.binary_search_by_key(&task, |&(id, _)| id).ok()
    }

    /// Whether `task` belongs to the user's task set.
    pub fn covers(&self, task: TaskId) -> bool {
        self.slot(task).is_some()
    }

    /// The user's PoS `p_i^j` for `task`, or `None` if the task is not in
    /// her task set.
    pub fn pos_for(&self, task: TaskId) -> Option<Pos> {
        self.slot(task).map(|slot| self.tasks[slot].1)
    }

    /// The user's contribution `q_i^j = -ln(1 - p_i^j)` for `task`, or
    /// [`Contribution::ZERO`] if the task is not in her task set.
    pub fn contribution_for(&self, task: TaskId) -> Contribution {
        self.pos_for(task)
            .map(Pos::contribution)
            .unwrap_or(Contribution::ZERO)
    }

    /// The probability that the user completes *at least one* of her tasks:
    /// `1 - Π_{j ∈ S_i} (1 - p_i^j)`.
    ///
    /// This is the success event of the multi-task execution-contingent
    /// reward scheme (paper Equation (6)).
    pub fn any_task_pos(&self) -> Pos {
        self.total_contribution().pos()
    }

    /// The total declared contribution `Σ_{j ∈ S_i} q_i^j`.
    pub fn total_contribution(&self) -> Contribution {
        self.tasks.iter().map(|(_, pos)| pos.contribution()).sum()
    }

    /// Returns a copy of this type with the PoS for `task` replaced —
    /// the elementary strategic deviation in the PoS dimension.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::UnknownTask`] if `task` is not in the task set
    /// (misreporting a *task set* is modelled separately; see the paper's
    /// Theorem 4 argument reducing task-set lies to contribution lies).
    pub fn with_pos(&self, task: TaskId, pos: Pos) -> Result<Self> {
        let slot = self.slot(task).ok_or(McsError::UnknownTask {
            user: self.id,
            task,
        })?;
        let mut clone = self.clone();
        clone.tasks[slot].1 = pos;
        Ok(clone)
    }

    /// Returns a copy with every task's contribution scaled by `factor`
    /// (in the log domain), saturating each resulting PoS below 1.
    ///
    /// Scaling all contributions uniformly is the canonical single-parameter
    /// deviation used by the strategy-proofness checkers: `factor > 1`
    /// exaggerates, `factor < 1` understates.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn with_scaled_contributions(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        let mut clone = self.clone();
        for (_, pos) in clone.tasks.iter_mut() {
            let scaled = pos.contribution().value() * factor;
            *pos = Contribution::new(scaled)
                .map(Contribution::pos)
                .unwrap_or(Pos::MAX);
        }
        clone
    }
}

/// Builder for [`UserType`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct UserTypeBuilder {
    id: UserId,
    cost: Cost,
    /// Pairs in the order they were added; `build` sorts them.
    tasks: Vec<(TaskId, Pos)>,
}

impl UserTypeBuilder {
    /// Sets the total cost `c_i`.
    pub fn cost(mut self, cost: Cost) -> Self {
        self.cost = cost;
        self
    }

    /// Adds task `task` with PoS `pos` to the task set.
    ///
    /// Adding the same task twice keeps the latest PoS.
    pub fn task(mut self, task: TaskId, pos: Pos) -> Self {
        self.tasks.push((task, pos));
        self
    }

    /// Adds many `(task, pos)` pairs. An iterator that knows its length
    /// fills an exactly sized buffer, which [`UserTypeBuilder::build`]
    /// keeps as the user's task slice: such a user costs one allocation.
    pub fn tasks<I: IntoIterator<Item = (TaskId, Pos)>>(mut self, tasks: I) -> Self {
        let tasks = tasks.into_iter();
        self.tasks.reserve_exact(tasks.size_hint().0);
        self.tasks.extend(tasks);
        self
    }

    /// Finalizes the user type.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::EmptyTaskSet`] if no task was added.
    pub fn build(self) -> Result<UserType> {
        let mut tasks = self.tasks;
        if tasks.is_empty() {
            return Err(McsError::EmptyTaskSet { user: self.id });
        }
        if !tasks.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            // Stable, so a repeated task's declarations stay in the order
            // they were added, and the dedup keeps the latest PoS.
            tasks.sort_by_key(|&(task, _)| task);
            tasks.dedup_by(|later, kept| {
                let repeat = later.0 == kept.0;
                if repeat {
                    kept.1 = later.1;
                }
                repeat
            });
        }
        Ok(UserType {
            id: self.id,
            cost: self.cost,
            tasks: tasks.into_boxed_slice(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_task_user() -> UserType {
        UserType::builder(UserId::new(1))
            .cost(Cost::new(10.0).unwrap())
            .task(TaskId::new(0), Pos::new(0.5).unwrap())
            .task(TaskId::new(1), Pos::new(0.2).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_empty_task_set() {
        let err = UserType::builder(UserId::new(0)).build().unwrap_err();
        assert_eq!(
            err,
            McsError::EmptyTaskSet {
                user: UserId::new(0)
            }
        );
    }

    #[test]
    fn accessors_expose_type_components() {
        let user = two_task_user();
        assert_eq!(user.id(), UserId::new(1));
        assert_eq!(user.cost().value(), 10.0);
        assert_eq!(user.task_count(), 2);
        assert!(user.covers(TaskId::new(0)));
        assert!(!user.covers(TaskId::new(2)));
        assert_eq!(user.pos_for(TaskId::new(1)).unwrap().value(), 0.2);
        assert_eq!(user.pos_for(TaskId::new(9)), None);
    }

    #[test]
    fn contribution_for_missing_task_is_zero() {
        let user = two_task_user();
        assert_eq!(user.contribution_for(TaskId::new(7)), Contribution::ZERO);
        assert!(user.contribution_for(TaskId::new(0)).value() > 0.0);
    }

    #[test]
    fn any_task_pos_is_one_minus_product_of_failures() {
        let user = two_task_user();
        // 1 - (1-0.5)(1-0.2) = 0.6
        assert!((user.any_task_pos().value() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn single_constructor_uses_task_zero() {
        let user = UserType::single(UserId::new(4), 3.0, 0.7).unwrap();
        assert_eq!(user.task_count(), 1);
        assert!(user.covers(TaskId::new(0)));
        assert_eq!(user.cost().value(), 3.0);
    }

    #[test]
    fn with_pos_replaces_one_task() {
        let user = two_task_user();
        let deviated = user
            .with_pos(TaskId::new(0), Pos::new(0.9).unwrap())
            .unwrap();
        assert_eq!(deviated.pos_for(TaskId::new(0)).unwrap().value(), 0.9);
        assert_eq!(deviated.pos_for(TaskId::new(1)).unwrap().value(), 0.2);
        assert!(user.with_pos(TaskId::new(5), Pos::ZERO).is_err());
    }

    #[test]
    fn scaled_contributions_scale_in_log_domain() {
        let user = two_task_user();
        let doubled = user.with_scaled_contributions(2.0);
        for (task, pos) in user.tasks() {
            let expect = pos.contribution().value() * 2.0;
            let got = doubled.contribution_for(task).value();
            assert!((expect - got).abs() < 1e-12);
        }
        let zeroed = user.with_scaled_contributions(0.0);
        assert_eq!(zeroed.total_contribution(), Contribution::ZERO);
    }

    #[test]
    fn serde_round_trip() {
        let user = two_task_user();
        let json = serde_json::to_string(&user).unwrap();
        let back: UserType = serde_json::from_str(&json).unwrap();
        assert_eq!(user, back);
    }

    #[test]
    fn json_keeps_its_map_shape() {
        let user = UserType::builder(UserId::new(7))
            .cost(Cost::new(12.5).unwrap())
            .task(TaskId::new(9), Pos::new(0.25).unwrap())
            .task(TaskId::new(2), Pos::new(0.1).unwrap())
            .task(TaskId::new(40), Pos::new(0.875).unwrap())
            .build()
            .unwrap();
        let json = r#"{"id":7,"cost":12.5,"tasks":{"2":0.1,"9":0.25,"40":0.875}}"#;
        assert_eq!(serde_json::to_string(&user).unwrap(), json);
        assert_eq!(serde_json::from_str::<UserType>(json).unwrap(), user);
    }

    #[test]
    fn json_map_keys_sort_and_the_last_repeat_wins() {
        let read = |json: &str| -> Vec<(usize, f64)> {
            let user: UserType = serde_json::from_str(json).unwrap();
            user.tasks().map(|(t, p)| (t.index(), p.value())).collect()
        };
        assert_eq!(
            read(r#"{"id":3,"cost":4.0,"tasks":{"5":0.5,"1":0.25,"3":0.125}}"#),
            [(1, 0.25), (3, 0.125), (5, 0.5)]
        );
        assert_eq!(
            read(r#"{"id":3,"cost":4.0,"tasks":{"5":0.5,"1":0.25,"5":0.75,"1":0.0}}"#),
            [(1, 0.0), (5, 0.75)]
        );
        // An empty map reads as an empty task set, as it always has.
        assert_eq!(read(r#"{"id":3,"cost":4.0,"tasks":{}}"#), []);
    }

    #[test]
    fn builder_keeps_the_latest_pos_of_a_repeated_task() {
        let p = |v: f64| Pos::new(v).unwrap();
        let user = UserType::builder(UserId::new(0))
            .task(TaskId::new(4), p(0.1))
            .task(TaskId::new(1), p(0.2))
            .tasks([(TaskId::new(4), p(0.3)), (TaskId::new(1), p(0.4))])
            .task(TaskId::new(4), p(0.5))
            .build()
            .unwrap();
        let tasks: Vec<(TaskId, Pos)> = user.tasks().collect();
        assert_eq!(tasks, [(TaskId::new(1), p(0.4)), (TaskId::new(4), p(0.5))]);
        assert!(!user.covers(TaskId::new(2)));
        assert_eq!(user.pos_for(TaskId::new(4)), Some(p(0.5)));
    }

    #[test]
    fn tasks_iterate_in_id_order() {
        let user = UserType::builder(UserId::new(0))
            .cost(Cost::ZERO)
            .task(TaskId::new(5), Pos::new(0.1).unwrap())
            .task(TaskId::new(2), Pos::new(0.2).unwrap())
            .build()
            .unwrap();
        let ids: Vec<TaskId> = user.task_ids().collect();
        assert_eq!(ids, vec![TaskId::new(2), TaskId::new(5)]);
    }
}
