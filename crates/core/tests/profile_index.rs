//! `TypeProfile`'s id indexes against the B-tree validation they replaced
//! and against linear scans.
//!
//! Users and tasks arrive shuffled, ascending or consecutive, with and
//! without repeated ids and undeclared tasks. `TypeProfile::new` must
//! return exactly the error the B-tree algorithm returned — the first
//! offending user in declaration order, a repeated id before an unknown
//! task — and every lookup must agree with a scan of the declarations.

use std::collections::BTreeMap;

use mcs_core::types::{Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
use mcs_core::McsError;
use proptest::prelude::*;

/// `TypeProfile::new`'s validation as it was written with B-tree maps.
fn reference_check(users: &[UserType], tasks: &[Task]) -> Result<(), McsError> {
    if users.is_empty() {
        return Err(McsError::EmptyUsers);
    }
    if tasks.is_empty() {
        return Err(McsError::EmptyTasks);
    }
    let mut task_index = BTreeMap::new();
    for (idx, task) in tasks.iter().enumerate() {
        if task_index.insert(task.id(), idx).is_some() {
            return Err(McsError::DuplicateTask { task: task.id() });
        }
    }
    let mut user_index = BTreeMap::new();
    for (idx, user) in users.iter().enumerate() {
        if user_index.insert(user.id(), idx).is_some() {
            return Err(McsError::DuplicateUser { user: user.id() });
        }
        for task in user.task_ids() {
            if !task_index.contains_key(&task) {
                return Err(McsError::UnknownTask {
                    user: user.id(),
                    task,
                });
            }
        }
    }
    Ok(())
}

/// How a side's ids are drawn.
fn arrange(ids: Vec<u32>, keys: Vec<u64>, flavor: u8) -> Vec<u32> {
    match flavor {
        // As drawn: repeats likely, any order.
        0 => ids,
        // Distinct, shuffled by the random keys.
        1 => {
            let mut distinct: Vec<u32> = (0..ids.len() as u32).map(|i| 2 * i + 1).collect();
            let mut keyed: Vec<(u64, u32)> = keys.into_iter().zip(distinct.drain(..)).collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, id)| id).collect()
        }
        // Distinct and ascending, with gaps.
        2 => (0..ids.len() as u32).map(|i| 3 * i).collect(),
        // Consecutive from 0.
        _ => (0..ids.len() as u32).collect(),
    }
}

fn user(id: u32, cost: f64, tasks: &[(u32, f64)]) -> UserType {
    UserType::builder(UserId::new(id))
        .cost(Cost::new(cost).unwrap())
        .tasks(
            tasks
                .iter()
                .map(|&(task, pos)| (TaskId::new(task), Pos::new(pos).unwrap())),
        )
        .build()
        .unwrap()
}

/// An arbitrary instance: a published task list, and users with
/// non-empty task sets drawn from it, one declaration in eight an
/// unpublished task.
fn instance() -> impl Strategy<Value = (Vec<UserType>, Vec<Task>)> {
    let users = proptest::collection::vec(
        (
            0u32..12,
            any::<u64>(),
            1.0..20.0f64,
            proptest::collection::vec((0u32..8, 0u8..8, 0.0..0.9f64), 1..4),
        ),
        0..10,
    );
    let tasks = proptest::collection::vec((0u32..12, any::<u64>(), 0.1..0.9f64), 0..7);
    (users, tasks, 0u8..4, 0u8..4).prop_map(|(users, tasks, user_flavor, task_flavor)| {
        let user_ids = arrange(
            users.iter().map(|u| u.0).collect(),
            users.iter().map(|u| u.1).collect(),
            user_flavor,
        );
        let task_ids = arrange(
            tasks.iter().map(|t| t.0).collect(),
            tasks.iter().map(|t| t.1).collect(),
            task_flavor,
        );
        let users = users
            .iter()
            .zip(user_ids)
            .map(|(&(_, _, cost, ref declared), id)| {
                let declared: Vec<(u32, f64)> = declared
                    .iter()
                    .map(|&(pick, unknown, pos)| match task_ids.get(pick as usize) {
                        Some(&task) if unknown != 0 => (task, pos),
                        _ => (20 + pick, pos),
                    })
                    .collect();
                user(id, cost, &declared)
            })
            .collect();
        let tasks = tasks
            .iter()
            .zip(task_ids)
            .map(|(&(_, _, requirement), id)| {
                Task::with_requirement(TaskId::new(id), requirement).unwrap()
            })
            .collect();
        (users, tasks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn new_returns_the_reference_error(instance in instance()) {
        let (users, tasks) = instance;
        let built = TypeProfile::new(users.clone(), tasks.clone()).err();
        prop_assert_eq!(built, reference_check(&users, &tasks).err());
    }

    #[test]
    fn lookups_agree_with_linear_scans(instance in instance(), probe in 0u32..40) {
        let (users, tasks) = instance;
        let Ok(profile) = TypeProfile::new(users.clone(), tasks.clone()) else {
            return Ok(());
        };
        for id in 0..40 {
            let scan = users.iter().find(|u| u.id() == UserId::new(id));
            prop_assert_eq!(profile.user(UserId::new(id)).ok(), scan);
            let scan = tasks.iter().find(|t| t.id() == TaskId::new(id));
            prop_assert_eq!(profile.task(TaskId::new(id)).ok(), scan);
        }

        // Swapping one declaration: an unknown id, an undeclared task, or
        // a clean replacement in place.
        let replacement = user(probe % 12, 7.5, &[(probe % 16, 0.25)]);
        let expected = match users.iter().position(|u| u.id() == replacement.id()) {
            None => Err(McsError::NoSuchUser { user: replacement.id() }),
            Some(_) if !tasks.iter().any(|t| t.id() == TaskId::new(probe % 16)) => {
                Err(McsError::UnknownTask { user: replacement.id(), task: TaskId::new(probe % 16) })
            }
            Some(idx) => {
                let mut swapped = users.clone();
                swapped[idx] = replacement.clone();
                Ok(swapped)
            }
        };
        let got = profile.with_user_type(replacement).map(|p| p.users().to_vec());
        prop_assert_eq!(got, expected);

        // Removing one user.
        let gone = UserId::new(probe % 12);
        let kept: Vec<UserType> = users.iter().filter(|u| u.id() != gone).cloned().collect();
        let expected = if kept.len() == users.len() {
            Err(McsError::NoSuchUser { user: gone })
        } else if kept.is_empty() {
            Err(McsError::EmptyUsers)
        } else {
            Ok(kept)
        };
        let got = profile.without_user(gone).map(|p| p.users().to_vec());
        prop_assert_eq!(got, expected);
    }
}
