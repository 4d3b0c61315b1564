//! Type profiles: a validated auction instance (users + tasks).

use serde::{Deserialize, Serialize};

use crate::error::{McsError, Result};
use crate::types::order::IdOrder;
use crate::types::{Contribution, Pos, Task, TaskId, UserId, UserType};

/// A complete auction instance: the platform's tasks and all users' (true or
/// declared) types `θ = (θ_1, …, θ_n)`.
///
/// Construction validates the instance once — unique ids, non-empty sides,
/// every declared task known to the platform — so the mechanism code can
/// assume well-formedness (C-VALIDATE pushed to the boundary). Users and
/// tasks keep the order they were given in; lookups by id binary-search
/// them, directly when their ids ascend and through a sorted list of
/// positions otherwise.
///
/// # Examples
///
/// ```
/// use mcs_core::types::{Pos, TypeProfile, UserType, UserId};
///
/// // The VCG counterexample from the paper (§III-A): four single-task users.
/// let users = vec![
///     UserType::single(UserId::new(0), 3.0, 0.7)?,
///     UserType::single(UserId::new(1), 2.0, 0.7)?,
///     UserType::single(UserId::new(2), 1.0, 0.5)?,
///     UserType::single(UserId::new(3), 4.0, 0.8)?,
/// ];
/// let profile = TypeProfile::single_task(Pos::new(0.9)?, users)?;
/// assert_eq!(profile.user_count(), 4);
/// assert!(profile.is_single_task());
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(into = "ProfileRepr")]
pub struct TypeProfile {
    users: Vec<UserType>,
    tasks: Vec<Task>,
    user_order: IdOrder,
    task_order: IdOrder,
}

/// Serialized form of [`TypeProfile`]; deserialization re-validates through
/// [`TypeProfile::new`].
#[derive(Serialize, Deserialize)]
struct ProfileRepr {
    users: Vec<UserType>,
    tasks: Vec<Task>,
}

impl From<TypeProfile> for ProfileRepr {
    fn from(profile: TypeProfile) -> Self {
        ProfileRepr {
            users: profile.users,
            tasks: profile.tasks,
        }
    }
}

impl<'de> Deserialize<'de> for TypeProfile {
    fn deserialize<D>(deserializer: D) -> std::result::Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        let repr = ProfileRepr::deserialize(deserializer)?;
        TypeProfile::new(repr.users, repr.tasks).map_err(serde::de::Error::custom)
    }
}

impl TypeProfile {
    /// Creates a validated profile from users and tasks.
    ///
    /// # Errors
    ///
    /// * [`McsError::EmptyUsers`] / [`McsError::EmptyTasks`] on empty sides.
    /// * [`McsError::DuplicateUser`] / [`McsError::DuplicateTask`] on
    ///   repeated ids.
    /// * [`McsError::UnknownTask`] if a user declares a task the platform
    ///   did not publish.
    pub fn new(users: Vec<UserType>, tasks: Vec<Task>) -> Result<Self> {
        if users.is_empty() {
            return Err(McsError::EmptyUsers);
        }
        if tasks.is_empty() {
            return Err(McsError::EmptyTasks);
        }
        let task_key = |i: usize| tasks[i].id().index();
        let task_order = IdOrder::new(tasks.len(), task_key);
        if let Some(repeat) = task_order.first_repeat(task_key) {
            return Err(McsError::DuplicateTask {
                task: tasks[repeat].id(),
            });
        }
        let user_key = |i: usize| users[i].id().index();
        let user_order = IdOrder::new(users.len(), user_key);
        // The first offending user in declaration order: every user before
        // the first repeated id is checked for unknown tasks, and that
        // repeat itself is reported as a duplicate before its tasks are.
        let repeat = user_order.first_repeat(user_key);
        for user in &users[..repeat.unwrap_or(users.len())] {
            for task in user.task_ids() {
                if task_order
                    .find(tasks.len(), task.index(), task_key)
                    .is_none()
                {
                    return Err(McsError::UnknownTask {
                        user: user.id(),
                        task,
                    });
                }
            }
        }
        if let Some(repeat) = repeat {
            return Err(McsError::DuplicateUser {
                user: users[repeat].id(),
            });
        }
        Ok(TypeProfile {
            users,
            tasks,
            user_order,
            task_order,
        })
    }

    /// Creates a single-task profile: one task with id 0 and the given PoS
    /// requirement.
    ///
    /// # Errors
    ///
    /// Same as [`TypeProfile::new`].
    pub fn single_task(requirement: Pos, users: Vec<UserType>) -> Result<Self> {
        TypeProfile::new(users, vec![Task::new(TaskId::new(0), requirement)])
    }

    /// All users in declaration order.
    pub fn users(&self) -> &[UserType] {
        &self.users
    }

    /// All tasks in publication order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The number of users `n`.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The number of tasks `t`.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the profile is a single-task instance.
    pub fn is_single_task(&self) -> bool {
        self.tasks.len() == 1
    }

    /// Looks up a user by id.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::NoSuchUser`] for unknown ids.
    pub fn user(&self, id: UserId) -> Result<&UserType> {
        self.user_position(id)
            .map(|position| &self.users[position])
            .ok_or(McsError::NoSuchUser { user: id })
    }

    /// The declaration-order position of user `id`.
    fn user_position(&self, id: UserId) -> Option<usize> {
        let users = &self.users;
        self.user_order
            .find(users.len(), id.index(), |i| users[i].id().index())
    }

    /// The publication-order position of task `id`, if the profile
    /// publishes it.
    pub(crate) fn task_position(&self, id: TaskId) -> Option<usize> {
        let tasks = &self.tasks;
        self.task_order
            .find(tasks.len(), id.index(), |i| tasks[i].id().index())
    }

    /// Looks up a task by id.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::NoSuchTask`] for unknown ids.
    pub fn task(&self, id: TaskId) -> Result<&Task> {
        self.task_position(id)
            .map(|position| &self.tasks[position])
            .ok_or(McsError::NoSuchTask { task: id })
    }

    /// The unique task of a single-task profile.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::NotSingleTask`] on multi-task profiles.
    pub fn the_task(&self) -> Result<&Task> {
        if self.is_single_task() {
            Ok(&self.tasks[0])
        } else {
            Err(McsError::NotSingleTask {
                tasks: self.tasks.len(),
            })
        }
    }

    /// The total contribution all users together can supply towards `task`.
    pub fn total_contribution(&self, task: TaskId) -> Contribution {
        self.users.iter().map(|u| u.contribution_for(task)).sum()
    }

    /// Checks that recruiting *all* users would satisfy every task's PoS
    /// requirement.
    ///
    /// Winner-determination algorithms call this up-front so that an
    /// infeasible instance produces a clean error instead of a wrong answer.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::Infeasible`] naming the first uncoverable task.
    pub fn check_feasible(&self) -> Result<()> {
        for task in &self.tasks {
            let supply = self.total_contribution(task.id());
            if !supply.meets(task.requirement_contribution()) {
                return Err(McsError::Infeasible { task: task.id() });
            }
        }
        Ok(())
    }

    /// Returns a copy of the profile with one user's declaration replaced.
    ///
    /// This is how strategic deviations are expressed: swap user `i`'s true
    /// type `θ_i` for a declared type `θ̄_i`, keeping `θ_{-i}` fixed.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::NoSuchUser`] if the replacement's id does not
    /// belong to the profile, and propagates validation errors if the
    /// replacement declares unknown tasks.
    pub fn with_user_type(&self, replacement: UserType) -> Result<Self> {
        let idx = self
            .user_position(replacement.id())
            .ok_or(McsError::NoSuchUser {
                user: replacement.id(),
            })?;
        for task in replacement.task_ids() {
            if self.task_position(task).is_none() {
                return Err(McsError::UnknownTask {
                    user: replacement.id(),
                    task,
                });
            }
        }
        let mut users = self.users.clone();
        users[idx] = replacement;
        TypeProfile::new(users, self.tasks.clone())
    }

    /// Returns a copy of the profile with one user removed — the `θ_{-i}`
    /// instance the reward schemes re-run the allocation on.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::NoSuchUser`] for unknown ids, or
    /// [`McsError::EmptyUsers`] if the removed user was the only one.
    pub fn without_user(&self, id: UserId) -> Result<Self> {
        if self.user_position(id).is_none() {
            return Err(McsError::NoSuchUser { user: id });
        }
        let users: Vec<UserType> = self
            .users
            .iter()
            .filter(|u| u.id() != id)
            .cloned()
            .collect();
        TypeProfile::new(users, self.tasks.clone())
    }

    /// Iterates over user ids in declaration order.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        self.users.iter().map(UserType::id)
    }

    /// Iterates over task ids in publication order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks.iter().map(Task::id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Cost;

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
    fn rejects_empty_sides() {
        assert_eq!(
            TypeProfile::new(vec![], vec![task(0, 0.5)]).unwrap_err(),
            McsError::EmptyUsers
        );
        assert_eq!(
            TypeProfile::new(vec![user(0, 1.0, &[(0, 0.5)])], vec![]).unwrap_err(),
            McsError::EmptyTasks
        );
    }

    #[test]
    fn rejects_duplicate_ids() {
        let users = vec![user(0, 1.0, &[(0, 0.5)]), user(0, 2.0, &[(0, 0.5)])];
        assert_eq!(
            TypeProfile::new(users, vec![task(0, 0.5)]).unwrap_err(),
            McsError::DuplicateUser {
                user: UserId::new(0)
            }
        );
        let tasks = vec![task(0, 0.5), task(0, 0.6)];
        assert_eq!(
            TypeProfile::new(vec![user(0, 1.0, &[(0, 0.5)])], tasks).unwrap_err(),
            McsError::DuplicateTask {
                task: TaskId::new(0)
            }
        );
    }

    #[test]
    fn rejects_unknown_task_declaration() {
        let users = vec![user(0, 1.0, &[(0, 0.5), (9, 0.2)])];
        assert_eq!(
            TypeProfile::new(users, vec![task(0, 0.5)]).unwrap_err(),
            McsError::UnknownTask {
                user: UserId::new(0),
                task: TaskId::new(9)
            }
        );
    }

    #[test]
    fn lookups_work() {
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.5)]), user(1, 2.0, &[(1, 0.3)])],
            vec![task(0, 0.5), task(1, 0.7)],
        )
        .unwrap();
        assert_eq!(profile.user(UserId::new(1)).unwrap().cost().value(), 2.0);
        assert!(profile.user(UserId::new(7)).is_err());
        assert_eq!(
            profile.task(TaskId::new(1)).unwrap().requirement().value(),
            0.7
        );
        assert!(profile.task(TaskId::new(7)).is_err());
    }

    #[test]
    fn feasibility_check_detects_undersupply() {
        // One user with PoS 0.5 cannot cover a 0.9 requirement.
        let profile =
            TypeProfile::single_task(Pos::new(0.9).unwrap(), vec![user(0, 1.0, &[(0, 0.5)])])
                .unwrap();
        assert_eq!(
            profile.check_feasible().unwrap_err(),
            McsError::Infeasible {
                task: TaskId::new(0)
            }
        );
        // Four such users can: 1 - 0.5^4 = 0.9375 ≥ 0.9.
        let users = (0..4).map(|i| user(i, 1.0, &[(0, 0.5)])).collect();
        let profile = TypeProfile::single_task(Pos::new(0.9).unwrap(), users).unwrap();
        assert!(profile.check_feasible().is_ok());
    }

    #[test]
    fn with_user_type_swaps_one_declaration() {
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.5)]), user(1, 2.0, &[(0, 0.3)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let lie = user(1, 2.0, &[(0, 0.9)]);
        let deviated = profile.with_user_type(lie).unwrap();
        assert_eq!(
            deviated
                .user(UserId::new(1))
                .unwrap()
                .pos_for(TaskId::new(0))
                .unwrap()
                .value(),
            0.9
        );
        // Original untouched.
        assert_eq!(
            profile
                .user(UserId::new(1))
                .unwrap()
                .pos_for(TaskId::new(0))
                .unwrap()
                .value(),
            0.3
        );
        // Unknown id rejected.
        assert!(profile.with_user_type(user(9, 1.0, &[(0, 0.1)])).is_err());
    }

    #[test]
    fn without_user_removes_exactly_one() {
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.5)]), user(1, 2.0, &[(0, 0.3)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let reduced = profile.without_user(UserId::new(0)).unwrap();
        assert_eq!(reduced.user_count(), 1);
        assert!(reduced.user(UserId::new(0)).is_err());
        // Removing the last user fails cleanly.
        assert_eq!(
            reduced.without_user(UserId::new(1)).unwrap_err(),
            McsError::EmptyUsers
        );
    }

    #[test]
    fn total_contribution_sums_over_users() {
        let users = vec![user(0, 1.0, &[(0, 0.5)]), user(1, 1.0, &[(0, 0.5)])];
        let profile = TypeProfile::single_task(Pos::new(0.6).unwrap(), users).unwrap();
        let total = profile.total_contribution(TaskId::new(0));
        assert!((total.value() - 2.0 * -(0.5f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn the_task_requires_single_task_profile() {
        let single =
            TypeProfile::single_task(Pos::new(0.5).unwrap(), vec![user(0, 1.0, &[(0, 0.5)])])
                .unwrap();
        assert!(single.the_task().is_ok());
        let multi = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.5), (1, 0.5)])],
            vec![task(0, 0.5), task(1, 0.5)],
        )
        .unwrap();
        assert_eq!(
            multi.the_task().unwrap_err(),
            McsError::NotSingleTask { tasks: 2 }
        );
    }
}
