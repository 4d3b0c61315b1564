//! Differential proptest suites: the indexed lazy-greedy engine and the
//! warm-started, parallel payment path must be **bitwise identical** to
//! the straightforward reference implementations in
//! `mcs_core::multi_task::reference` — not approximately equal. Any
//! divergence breaks the platform's determinism contract (payments must
//! not depend on thread counts or on which code path served a round).

use mcs_core::indexed::{
    ClearContext, IndexedProfile, ProfCounters, Record, RecordedRun, RunOptions, Workspace,
};
use mcs_core::mechanism::{RewardScheme, WinnerDetermination};
use mcs_core::multi_task::{
    critical_contribution, reference, GreedyWinnerDetermination, MultiTaskMechanism,
};
use mcs_core::types::{Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
use mcs_core::McsError;
use proptest::prelude::*;

/// Builds a profile from per-task PoS requirements and
/// `(cost, [(task, PoS)])` users; task indices wrap modulo the task
/// count, and duplicate task declarations fold in the builder.
fn build_profile(reqs: Vec<f64>, users: Vec<(f64, Vec<(u32, f64)>)>) -> TypeProfile {
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
            let mut b = UserType::builder(UserId::new(i as u32)).cost(Cost::new(cost).unwrap());
            for (task, pos) in entries {
                b = b.task(TaskId::new(task % t), Pos::new(pos).unwrap());
            }
            b.build().unwrap()
        })
        .collect();
    TypeProfile::new(users, tasks).unwrap()
}

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
        .prop_map(|(reqs, users)| build_profile(reqs, users))
}

/// Dust-heavy profiles: requirements of 1.5–4 ×1e-9 and three quarters of
/// the entries at 0.3–1.0 ×1e-9 PoS, at or below the contribution
/// tolerance, the rest 0.05–0.6. Selecting a probed winner here often
/// leaves rivals whose capped sums fall to the tolerance, so "selected"
/// does not imply "wins" and the base-run certificate must decline.
fn dust_profile() -> impl Strategy<Value = TypeProfile> {
    let entry = (0u32..4, 0u32..4, 0.0..1.0f64).prop_map(|(task, kind, u)| {
        let pos = if kind < 3 {
            (0.3 + 0.7 * u) * 1e-9
        } else {
            0.05 + 0.55 * u
        };
        (task, pos)
    });
    let user = (0.0..20.0f64, proptest::collection::vec(entry, 1..4));
    (
        proptest::collection::vec(1.5e-9..4e-9f64, 2..4),
        proptest::collection::vec(user, 3..13),
    )
        .prop_map(|(reqs, users)| build_profile(reqs, users))
}

/// Tie-heavy profiles: 3–8 tasks and 20–200 users whose costs and PoS
/// come from small sets, so exact ratio ties are common and the 4-ary
/// lazy-greedy heap is several levels deep.
fn tie_heavy_profile() -> impl Strategy<Value = TypeProfile> {
    let pick = |values: &'static [f64]| (0..values.len()).prop_map(move |i| values[i]);
    let user = (
        pick(&[1.0, 2.0, 3.0, 4.0]),
        proptest::collection::vec((0u32..8, pick(&[0.1, 0.2, 0.3, 0.4])), 1..5),
    );
    (
        proptest::collection::vec(pick(&[0.5, 0.7, 0.9]), 3..9),
        proptest::collection::vec(user, 20..201),
    )
        .prop_map(|(reqs, users)| build_profile(reqs, users))
}

/// Every user's exclusion run resumed from the recorded allocation run
/// equals the run replayed from step 0 by a full candidate scan, bit for
/// bit: the same picks, capped values, residual snapshots, winner mask
/// and uncovered task. Winners resume at their pick step; users the run
/// never picked resume after its last step.
fn assert_resumed_runs_match_replayed(profile: &TypeProfile) -> Result<(), TestCaseError> {
    let index = IndexedProfile::from_profile(profile);
    let seeds = index.heap_seeds();
    let mut recorded = RecordedRun::new();
    index.record_in(&mut Workspace::new(), &seeds, Record::Full, &mut recorded);
    let (mut resumed_ws, mut replayed_ws) = (Workspace::new(), Workspace::new());
    for position in 0..index.user_count() {
        let resumed = index.resume_in(&mut resumed_ws, &seeds, &recorded, position);
        let replayed = index.run_in(
            &mut replayed_ws,
            RunOptions {
                excluded: Some(position),
                ..RunOptions::default()
            },
            Record::Full,
        );
        prop_assert_eq!(resumed, replayed);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(resumed.capped), bits(replayed.capped));
        prop_assert_eq!(bits(resumed.snapshots), bits(replayed.snapshots));
    }
    Ok(())
}

/// Every user's fast critical bid equals the reference bisection's,
/// bitwise, and the two fail with the same error for the same users.
fn assert_critical_bids_match_reference(profile: &TypeProfile) -> Result<(), TestCaseError> {
    let wd = GreedyWinnerDetermination::new();
    for user in profile.user_ids() {
        let fast = critical_contribution(&wd, profile, user);
        let slow = reference::critical_contribution(profile, user);
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
    Ok(())
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
    /// bisection, with most probes decided from the base run, returns the
    /// same critical contribution as the cloning reference bisection —
    /// bitwise — and fails with the same error for the same users.
    #[test]
    fn fast_critical_bid_is_bitwise_equal_to_reference(profile in multi_task_profile()) {
        assert_critical_bids_match_reference(&profile)?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Resuming equals replaying on the random multi-task profiles,
    /// feasible and infeasible alike.
    #[test]
    fn resumed_exclusion_runs_equal_replayed_ones(profile in multi_task_profile()) {
        assert_resumed_runs_match_replayed(&profile)?;
    }

    /// Resuming equals replaying on dust, where candidates leave the heap
    /// at the tolerance and their logged drops must stay dropped.
    #[test]
    fn resumed_exclusion_runs_equal_replayed_ones_on_dust(profile in dust_profile()) {
        assert_resumed_runs_match_replayed(&profile)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Resuming equals replaying under exact ratio ties in deep heaps,
    /// where only the id tie-break orders the candidates.
    #[test]
    fn resumed_exclusion_runs_equal_replayed_ones_under_ties(profile in tie_heavy_profile()) {
        assert_resumed_runs_match_replayed(&profile)?;
    }

    /// The payments of tie-heavy rounds match the reference bitwise.
    #[test]
    fn fast_critical_bid_is_bitwise_equal_to_reference_under_ties(profile in tie_heavy_profile()) {
        assert_critical_bids_match_reference(&profile)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Equivalence #2 on dust: the coverage certificate must decline
    /// whenever the covering entries are at or below the tolerance, or a
    /// certified win would shift the critical bid.
    #[test]
    fn fast_critical_bid_is_bitwise_equal_to_reference_on_dust(profile in dust_profile()) {
        assert_critical_bids_match_reference(&profile)?;
    }
}

/// The probes of `winner`, the only winner of `profile`, cleared through
/// an allocated round: her critical PoS bits and the round's drained
/// kernel counters.
fn sole_winner_probes(profile: &TypeProfile, winner: UserId) -> (u64, ProfCounters) {
    let mechanism = MultiTaskMechanism::new(10.0).unwrap();
    let mut context = ClearContext::new();
    let criticals = mechanism
        .allocate_with(&mut context, profile)
        .unwrap()
        .criticals()
        .unwrap();
    assert_eq!(criticals.keys().copied().collect::<Vec<_>>(), [winner]);
    (criticals[&winner].value().to_bits(), context.take_prof())
}

/// Asserts `winner`'s fast critical bid, alone and through the round,
/// equals the reference bitwise.
fn assert_matches_reference(profile: &TypeProfile, winner: UserId, round_bits: u64) {
    let slow = reference::critical_contribution(profile, winner).unwrap();
    let fast = critical_contribution(&GreedyWinnerDetermination::new(), profile, winner).unwrap();
    assert_eq!(fast.value().to_bits(), slow.value().to_bits());
    assert_eq!(round_bits, slow.pos().value().to_bits());
}

#[test]
fn free_winner_probes_are_all_decided_from_the_base_run() {
    // A free winner beats every costly rival, so each probe either
    // selects her at the first base step (and the rivals' overshooting
    // entries certify the win) or drops her below the tolerance (a loss).
    // Her Algorithm-5 bound is 0 and skips nothing, so the base run must
    // be built for her all the same.
    let profile = build_profile(
        vec![0.6, 0.7],
        vec![
            (3.0, vec![(0, 0.45), (1, 0.35)]),
            (0.0, vec![(0, 0.75), (1, 0.8)]),
            (2.0, vec![(0, 0.55), (1, 0.3)]),
            (4.0, vec![(1, 0.65)]),
            (1.5, vec![(0, 0.25), (1, 0.4)]),
            (5.0, vec![(0, 0.7), (1, 0.6)]),
        ],
    );
    let free = UserId::new(1);
    let (bits, prof) = sole_winner_probes(&profile, free);
    assert_matches_reference(&profile, free, bits);
    assert_eq!(prof.probes_requested, 60, "one bisection: {prof:?}");
    assert_eq!(prof.probes_run, 0, "{prof:?}");
    assert!(prof.is_conserved(), "{prof:?}");
}

#[test]
fn dust_rivals_make_the_certificate_fall_back_to_the_real_probe() {
    // Requirements of 2.5e-9 per task; u0 covers both alone, u1–u3 hold
    // 0.9e-9 on each. Once a scaled-down u0 is selected, every rival's
    // capped sum drops to ≤ 1e-9 and the probe ends infeasible, so
    // "selected" is not "wins": the certificate must decline and the
    // real probe must run. Certifying anyway prices u0 at ~1.8e-9
    // instead of the true ~1.649e-8.
    let pos = |contribution: f64| -(-contribution).exp_m1();
    let profile = build_profile(
        vec![pos(2.5e-9), pos(2.5e-9)],
        vec![
            (1.0, vec![(0, 0.067), (1, 0.5)]),
            (1.0, vec![(0, pos(0.9e-9)), (1, pos(0.9e-9))]),
            (1.0, vec![(0, pos(0.9e-9)), (1, pos(0.9e-9))]),
            (1.0, vec![(0, pos(0.9e-9)), (1, pos(0.9e-9))]),
        ],
    );
    let winner = UserId::new(0);
    let (bits, prof) = sole_winner_probes(&profile, winner);
    assert_matches_reference(&profile, winner, bits);
    assert!(prof.probes_run > 0, "{prof:?}");
    assert!(prof.is_conserved(), "{prof:?}");
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
