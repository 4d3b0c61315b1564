//! Differential proptest suites: the indexed lazy-greedy engine and the
//! warm-started, parallel payment path must be **bitwise identical** to
//! the straightforward reference implementations in
//! `mcs_core::multi_task::reference` — not approximately equal. Any
//! divergence breaks the platform's determinism contract (payments must
//! not depend on thread counts or on which code path served a round).

use mcs_core::indexed::ClearContext;
use mcs_core::mechanism::{RewardScheme, WinnerDetermination};
use mcs_core::multi_task::{
    critical_contribution, reference, GreedyWinnerDetermination, MultiTaskMechanism,
};
use mcs_core::types::{Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
use mcs_core::McsError;
use proptest::prelude::*;

/// Random multi-task profiles: 2–4 tasks, 3–12 single-minded users, with
/// duplicate task declarations folded by the builder. Roughly half the
/// instances are infeasible, exercising the exhaustion path too.
fn multi_task_profile() -> impl Strategy<Value = TypeProfile> {
    let task_req = 0.3..0.8f64;
    let user = (
        0.0..20.0f64,
        proptest::collection::vec((0u32..4, 0.05..0.6f64), 1..4),
    );
    (
        proptest::collection::vec(task_req, 2..4),
        proptest::collection::vec(user, 3..13),
    )
        .prop_map(|(reqs, users)| {
            let t = reqs.len() as u32;
            let tasks: Vec<Task> = reqs
                .into_iter()
                .enumerate()
                .map(|(j, r)| Task::with_requirement(TaskId::new(j as u32), r).unwrap())
                .collect();
            let users: Vec<UserType> = users
                .into_iter()
                .enumerate()
                .map(|(i, (cost, entries))| {
                    let mut b =
                        UserType::builder(UserId::new(i as u32)).cost(Cost::new(cost).unwrap());
                    for (task, pos) in entries {
                        b = b.task(TaskId::new(task % t), Pos::new(pos).unwrap());
                    }
                    b.build().unwrap()
                })
                .collect();
            TypeProfile::new(users, tasks).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tentpole equivalence #1: the lazy-greedy engine reproduces the
    /// reference scan greedy bit for bit — same winners, same iteration
    /// order, same capped contributions, same residual snapshots, same
    /// uncovered task on infeasible instances.
    #[test]
    fn lazy_greedy_run_is_bitwise_equal_to_reference(profile in multi_task_profile()) {
        let lazy = GreedyWinnerDetermination::new().run_to_exhaustion(&profile);
        let scan = reference::run_to_exhaustion(&profile);
        prop_assert_eq!(lazy, scan);
    }

    /// Tentpole equivalence #2: the warm-started, substitution-based
    /// bisection returns the same critical contribution as the cloning
    /// reference bisection — bitwise — and fails with the same error for
    /// the same users.
    #[test]
    fn fast_critical_bid_is_bitwise_equal_to_reference(profile in multi_task_profile()) {
        let wd = GreedyWinnerDetermination::new();
        for user in profile.user_ids() {
            let fast = critical_contribution(&wd, &profile, user);
            let slow = reference::critical_contribution(&profile, user);
            match (fast, slow) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.value().to_bits(), b.value().to_bits()),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (fast, slow) => {
                    return Err(TestCaseError::fail(format!(
                        "outcome shape diverges for {user}: fast {fast:?}, reference {slow:?}"
                    )))
                }
            }
        }
    }

    /// Tentpole equivalence #3: batch payments through the allocated-round
    /// handle are identical for 1, 2, 4, and 8 threads, and identical to
    /// the per-user sequential path — the platform's determinism contract
    /// for the payment fan-out knob. The handle's winners are the
    /// context-free allocation.
    #[test]
    fn parallel_payments_equal_sequential_for_any_thread_count(profile in multi_task_profile()) {
        let mechanism = MultiTaskMechanism::new(10.0).unwrap();
        let allocation = match mechanism.select_winners(&profile) {
            Ok(allocation) => allocation,
            Err(McsError::Infeasible { .. }) => return Ok(()),
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other}"))),
        };
        let mut context = ClearContext::new();
        let round = mechanism.allocate_with(&mut context, &profile).unwrap();
        prop_assert_eq!(round.allocation(), &allocation);
        let sequential = round.criticals().unwrap();
        prop_assert_eq!(sequential.len(), allocation.winner_count());
        for (&winner, critical) in &sequential {
            let single = mechanism.critical_pos(&profile, &allocation, winner).unwrap();
            prop_assert_eq!(critical.value().to_bits(), single.value().to_bits());
        }
        for threads in [2usize, 4, 8] {
            let parallel = mechanism.clone().with_payment_threads(threads);
            let mut context = ClearContext::new();
            let round = parallel.allocate_with(&mut context, &profile).unwrap();
            prop_assert_eq!(&round.criticals().unwrap(), &sequential);
        }
    }
}

#[test]
fn unknown_users_get_the_same_error_from_both_paths() {
    let users = vec![UserType::builder(UserId::new(0))
        .cost(Cost::new(1.0).unwrap())
        .task(TaskId::new(0), Pos::new(0.8).unwrap())
        .build()
        .unwrap()];
    let tasks = vec![Task::with_requirement(TaskId::new(0), 0.5).unwrap()];
    let profile = TypeProfile::new(users, tasks).unwrap();
    let wd = GreedyWinnerDetermination::new();
    let ghost = UserId::new(42);
    assert_eq!(
        critical_contribution(&wd, &profile, ghost).unwrap_err(),
        reference::critical_contribution(&profile, ghost).unwrap_err(),
    );
}
