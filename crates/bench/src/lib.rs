//! Shared fixtures for the Criterion benches: one lazily-built data set
//! and deterministic instance generators, so every bench target measures
//! algorithms rather than setup.

use std::sync::OnceLock;

use mcs_core::types::{Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
use mcs_sim::config::{DatasetParams, SimParams};
use mcs_sim::population::{Dataset, Population, PopulationBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shared reduced data set (1000 taxis, 480 slots), built once per
/// bench process.
pub fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| Dataset::build(DatasetParams::small()))
}

/// A pipeline-generated single-task instance with `n` users.
///
/// # Panics
///
/// Panics if the data set cannot supply `n` candidates (it can, for the
/// bench sizes used).
pub fn single_task_population(n: usize, seed: u64) -> Population {
    let ds = dataset();
    let task = ds
        .single_task_location(n + 20)
        .expect("data set supplies candidates");
    PopulationBuilder::new(ds, SimParams::default())
        .single_task(task, n, &mut StdRng::seed_from_u64(seed))
        .expect("population builds")
}

/// A pipeline-generated multi-task instance with `t` tasks and `n` users.
///
/// # Panics
///
/// Panics if the data set cannot supply `n` candidates.
pub fn multi_task_population(t: usize, n: usize, seed: u64) -> Population {
    PopulationBuilder::new(dataset(), SimParams::default())
        .multi_task(t, n, &mut StdRng::seed_from_u64(seed))
        .expect("population builds")
}

/// A purely synthetic single-task profile (no mobility pipeline): costs
/// `N(15, 5)`-like uniform, PoS `U(0.05, 0.45)`; cheap to generate at any
/// size, used for asymptotic-scaling benches.
pub fn synthetic_single_task(n: usize, requirement: f64, seed: u64) -> TypeProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let users: Vec<UserType> = (0..n)
        .map(|i| {
            UserType::single(
                UserId::new(i as u32),
                rng.gen_range(5.0..25.0),
                rng.gen_range(0.05..0.45),
            )
            .expect("valid synthetic user")
        })
        .collect();
    TypeProfile::single_task(Pos::new(requirement).expect("valid requirement"), users)
        .expect("valid synthetic profile")
}

/// A purely synthetic multi-task profile with dense-ish coverage.
pub fn synthetic_multi_task(n: usize, t: usize, requirement: f64, seed: u64) -> TypeProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let tasks: Vec<Task> = (0..t)
        .map(|j| {
            Task::with_requirement(TaskId::new(j as u32), requirement).expect("valid requirement")
        })
        .collect();
    let users: Vec<UserType> = (0..n)
        .map(|i| {
            let mut builder = UserType::builder(UserId::new(i as u32))
                .cost(Cost::new(rng.gen_range(5.0..25.0)).expect("valid cost"));
            let size = rng.gen_range((t / 3).max(1)..=(2 * t / 3).max(1));
            let mut ids: Vec<u32> = (0..t as u32).collect();
            for _ in 0..size {
                let pick = rng.gen_range(0..ids.len());
                builder = builder.task(
                    TaskId::new(ids.swap_remove(pick)),
                    Pos::new(rng.gen_range(0.05..0.45)).expect("valid PoS"),
                );
            }
            builder.build().expect("non-empty task set")
        })
        .collect();
    TypeProfile::new(users, tasks).expect("valid synthetic profile")
}

/// `profile` after some of its users re-bid in place: each user whose
/// position `rebids` picks takes her row in `redrawn` (a profile of the
/// same users and tasks, such as [`synthetic_multi_task`] at another
/// seed); every other row stays as it was.
pub fn rebid(
    profile: &TypeProfile,
    redrawn: &TypeProfile,
    rebids: impl Fn(usize) -> bool,
) -> TypeProfile {
    let users = profile
        .users()
        .iter()
        .zip(redrawn.users())
        .enumerate()
        .map(|(i, (kept, churned))| if rebids(i) { churned } else { kept }.clone())
        .collect();
    TypeProfile::new(users, profile.tasks().to_vec()).expect("re-bids keep the profile valid")
}
