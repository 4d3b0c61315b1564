//! Differential proptest suites: the indexed lazy-greedy engine and the
//! warm-started, parallel payment path must be **bitwise identical** to
//! the straightforward reference implementations in
//! `mcs_core::multi_task::reference` — not approximately equal. Any
//! divergence breaks the platform's determinism contract (payments must
//! not depend on thread counts or on which code path served a round).

use std::ops::Range;

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
    multi_task_raw().prop_map(|(reqs, users)| build_profile(reqs, users))
}

/// Per-task PoS requirements and `(cost, [(task, PoS)])` users, the
/// input [`build_profile`] takes.
type RawProfile = (Vec<f64>, Vec<(f64, Vec<(u32, f64)>)>);

fn multi_task_raw() -> impl Strategy<Value = RawProfile> {
    let task_req = 0.3..0.8f64;
    let user = (
        0.0..20.0f64,
        proptest::collection::vec((0u32..4, 0.05..0.6f64), 1..4),
    );
    (
        proptest::collection::vec(task_req, 2..4),
        proptest::collection::vec(user, 3..13),
    )
}

/// Dust-heavy profiles: requirements of 1.5–4 ×1e-9 and three quarters of
/// the entries at 0.3–1.0 ×1e-9 PoS, at or below the contribution
/// tolerance, the rest 0.05–0.6. Selecting a probed winner here often
/// leaves rivals whose capped sums fall to the tolerance, so "selected"
/// does not imply "wins" and the base-run certificate must decline.
fn dust_profile() -> impl Strategy<Value = TypeProfile> {
    dust_raw().prop_map(|(reqs, users)| build_profile(reqs, users))
}

fn dust_raw() -> impl Strategy<Value = RawProfile> {
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
}

/// Fallback-heavy profiles: dust requirements of 1.5–4 ×1e-9 over 2–3
/// tasks, one or two users with real PoS (0.05–0.6) who win, and 3–8
/// rivals holding 0.3–1.0 ×1e-9 on every task. A winner's θ₋ᵢ run then
/// covers with dust, her certificate declines, and her probes fall back
/// to the real greedy.
fn fallback_raw() -> impl Strategy<Value = RawProfile> {
    let strong = (
        0.5..20.0f64,
        proptest::collection::vec((0u32..3, 0.05..0.6f64), 1..4),
    );
    let dust = (0.5..20.0f64, proptest::collection::vec(0.3..1.0f64, 3..4));
    (
        proptest::collection::vec(1.5e-9..4e-9f64, 2..4),
        proptest::collection::vec(strong, 1..3),
        proptest::collection::vec(dust, 3..9),
    )
        .prop_map(|(reqs, strong, dust)| {
            let rivals = dust.into_iter().map(|(cost, entries)| {
                let entries = (0u32..).zip(entries).map(|(task, u)| (task, u * 1e-9));
                (cost, entries.collect())
            });
            (reqs, strong.into_iter().chain(rivals).collect())
        })
}

/// Tie-heavy profiles: 3–8 tasks and 20–200 users whose costs and PoS
/// come from small sets, so exact ratio ties are common and the 4-ary
/// lazy-greedy heap is several levels deep.
fn tie_heavy_profile() -> impl Strategy<Value = TypeProfile> {
    tie_heavy_raw().prop_map(|(reqs, users)| build_profile(reqs, users))
}

fn tie_heavy_raw() -> impl Strategy<Value = RawProfile> {
    let pick = |values: &'static [f64]| (0..values.len()).prop_map(move |i| values[i]);
    let user = (
        pick(&[1.0, 2.0, 3.0, 4.0]),
        proptest::collection::vec((0u32..8, pick(&[0.1, 0.2, 0.3, 0.4])), 1..5),
    );
    (
        proptest::collection::vec(pick(&[0.5, 0.7, 0.9]), 3..9),
        proptest::collection::vec(user, 20..201),
    )
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
        let mut round = mechanism.allocate_with(&mut context, &profile).unwrap();
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
            let mut round = parallel.allocate_with(&mut context, &profile).unwrap();
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

/// One bidder as `(id, cost, [(task, PoS)])`.
type Bidder = (u32, f64, Vec<(u32, f64)>);

/// A population re-bidding round after round: per-task requirements and
/// users in declaration order.
#[derive(Debug, Clone)]
struct Churned {
    reqs: Vec<f64>,
    users: Vec<Bidder>,
}

/// One churn op: a kind in `0..20` and two selectors.
type ChurnOp = (u8, usize, usize);

impl Churned {
    fn new((reqs, users): RawProfile) -> Self {
        let t = reqs.len() as u32;
        let users = users
            .into_iter()
            .enumerate()
            .map(|(i, (cost, entries))| {
                let entries = entries.into_iter().map(|(task, pos)| (task % t, pos));
                (i as u32, cost, entries.collect())
            })
            .collect();
        Churned { reqs, users }
    }

    fn profile(&self) -> TypeProfile {
        let tasks = self
            .reqs
            .iter()
            .enumerate()
            .map(|(j, &r)| Task::with_requirement(TaskId::new(j as u32), r).unwrap())
            .collect();
        let users = self
            .users
            .iter()
            .map(|(id, cost, entries)| {
                let mut b = UserType::builder(UserId::new(*id)).cost(Cost::new(*cost).unwrap());
                for &(task, pos) in entries {
                    b = b.task(TaskId::new(task), Pos::new(pos).unwrap());
                }
                b.build().unwrap()
            })
            .collect();
        TypeProfile::new(users, tasks).unwrap()
    }

    /// Applies one op. Costs and PoS are borrowed from other users, so a
    /// tie-heavy or dust population stays one: a patched cost or PoS
    /// (half the ops), a reshaped task set, an appended user (now and
    /// then a costly one covering every task), and now and then a lowered
    /// requirement or two users trading places (which re-flattens the
    /// index).
    fn apply(&mut self, (kind, a, b): ChurnOp) {
        let (n, t) = (self.users.len(), self.reqs.len() as u32);
        let (u, v) = (a % n, b % n);
        let shifted = |entries: &[(u32, f64)], by: usize| -> Vec<(u32, f64)> {
            let by = by as u32 % t;
            entries
                .iter()
                .map(|&(task, pos)| ((task + by) % t, pos))
                .collect()
        };
        match kind {
            0..=4 => self.users[u].1 = self.users[v].1,
            5..=9 => {
                let pos = self.users[v].2[b % self.users[v].2.len()].1;
                let k = a % self.users[u].2.len();
                self.users[u].2[k].1 = pos;
            }
            10..=13 => self.users[u].2 = shifted(&self.users[v].2, a),
            14..=15 => {
                let id = self.users.iter().map(|user| user.0).max().unwrap() + 1;
                let entries = shifted(&self.users[v].2, b);
                self.users.push((id, self.users[u].1, entries));
            }
            16 => {
                // A costly coverer: she loses every step of every run
                // that has a cheaper candidate left, but can complete a
                // probe the rivals cannot, so a bid decided by a
                // fallback probe must not carry over.
                let id = self.users.iter().map(|user| user.0).max().unwrap() + 1;
                let entries = (0..t).map(|task| (task, 0.5)).collect();
                self.users.push((id, 1e4, entries));
            }
            17..=18 => self.reqs[a % t as usize] *= 0.9,
            _ => self.users.swap(u, v),
        }
    }
}

/// A round cleared on `context`: its winners and, when `price`, each
/// winner's critical PoS bits.
type Cleared = Result<(Vec<UserId>, Vec<(UserId, u64)>), McsError>;

fn clear_on(
    mechanism: &MultiTaskMechanism,
    context: &mut ClearContext,
    profile: &TypeProfile,
    price: bool,
) -> Cleared {
    let mut round = mechanism.allocate_with(context, profile)?;
    let winners = round.allocation().winners().collect();
    let mut criticals = Vec::new();
    if price {
        for (winner, pos) in round.criticals()? {
            criticals.push((winner, pos.value().to_bits()));
        }
    }
    Ok((winners, criticals))
}

/// Clears `rounds` churned rounds of `base` on two persistent contexts,
/// at 1 and at 3 payment threads, and checks every round against a fresh
/// context bit for bit. A round's flag of 0 allocates without pricing,
/// so the next round must not carry over a set older than one sync.
/// Returns the critical bids the persistent contexts carried over.
fn assert_churned_rounds_match_fresh(
    base: RawProfile,
    rounds: Vec<(Vec<ChurnOp>, u8)>,
) -> Result<u64, TestCaseError> {
    let mechanism = MultiTaskMechanism::new(10.0).unwrap();
    let mut state = Churned::new(base);
    let mut contexts = [(1, ClearContext::new()), (3, ClearContext::new())];
    let mut reused = 0;
    for (round, (ops, flag)) in rounds.into_iter().enumerate() {
        if round > 0 {
            for op in ops {
                state.apply(op);
            }
        }
        let profile = state.profile();
        let price = flag != 0;
        let fresh = clear_on(&mechanism, &mut ClearContext::new(), &profile, price);
        for (threads, context) in &mut contexts {
            let mechanism = mechanism.clone().with_payment_threads(*threads);
            let carried = clear_on(&mechanism, context, &profile, price);
            prop_assert!(
                carried == fresh,
                "round {round} at {threads} threads: persistent {carried:?}, fresh {fresh:?}"
            );
            let prof = context.take_prof();
            prop_assert!(prof.is_conserved(), "{prof:?}");
            reused += prof.criticals_reused;
        }
    }
    Ok(reused)
}

/// Runs `cases` cases of churned rounds over the populations `base`
/// draws, with churn ops of the given `kinds`, from a stream seeded by
/// `label`, and checks that some bid was carried over.
fn churned_suite(
    label: &str,
    base: impl Strategy<Value = RawProfile>,
    kinds: Range<u8>,
    cases: u32,
) {
    let op = (kinds, 0usize..1024, 0usize..1024);
    let rounds = proptest::collection::vec((proptest::collection::vec(op, 0..4), 0u8..4), 3..7);
    let cases_of = (base, rounds);
    let mut rng = proptest::test_runner::TestRng::deterministic(label);
    let mut reused = 0;
    for case in 0..cases {
        let (base, rounds) = Strategy::generate(&cases_of, &mut rng);
        match assert_churned_rounds_match_fresh(base, rounds) {
            Ok(carried) => reused += carried,
            Err(error) => panic!("{label} failed on case {}/{cases}: {error}", case + 1),
        }
    }
    assert!(reused > 0, "{label}: no critical bid was carried over");
}

/// Cross-round equivalence: critical bids carried over from the previous
/// round on a persistent context equal a fresh context's bit for bit,
/// after patched costs and PoS, reshaped task sets, appended users,
/// requirement changes, re-flattening reorders and rounds left unpriced,
/// on the multi-task, tie-heavy, dust and fallback-heavy populations.
/// Each population must carry some bids over, or it would check only the
/// full search.
#[test]
fn carried_critical_bids_equal_fresh_ones_across_churned_rounds() {
    churned_suite("churned-multi-task", multi_task_raw(), 0..20, 256);
    churned_suite("churned-tie-heavy", tie_heavy_raw(), 0..20, 64);
    churned_suite("churned-dust", dust_raw(), 0..20, 512);
    // Appends only, a third of them costly coverers: few enough changed
    // rows that a bid decided by a fallback probe would carry over, and
    // the coverer is what moves it.
    churned_suite("churned-fallback", fallback_raw(), 14..17, 1024);
}

#[test]
fn a_bid_decided_by_a_fallback_probe_is_searched_again() {
    // The dust instance above: u0's probes fall back to the real greedy,
    // whose outcome no θ₋₀ step records. A costly coverer appended next
    // round loses every step of u0's θ₋₀ run, yet completes the probes
    // that left task 0 to the dust rivals, so u0's critical bid drops.
    // Carrying it over would keep the old one.
    let pos = |contribution: f64| -(-contribution).exp_m1();
    let mut state = Churned::new((
        vec![pos(2.5e-9), pos(2.5e-9)],
        vec![
            (1.0, vec![(0, 0.067), (1, 0.5)]),
            (1.0, vec![(0, pos(0.9e-9)), (1, pos(0.9e-9))]),
            (1.0, vec![(0, pos(0.9e-9)), (1, pos(0.9e-9))]),
            (1.0, vec![(0, pos(0.9e-9)), (1, pos(0.9e-9))]),
        ],
    ));
    let mechanism = MultiTaskMechanism::new(10.0).unwrap();
    let mut context = ClearContext::new();
    // The second clear finds the index unchanged, so its bids are kept.
    clear_on(&mechanism, &mut context, &state.profile(), true).unwrap();
    let before = clear_on(&mechanism, &mut context, &state.profile(), true).unwrap();
    context.take_prof();
    state.apply((16, 0, 0));
    let profile = state.profile();
    let carried = clear_on(&mechanism, &mut context, &profile, true).unwrap();
    let fresh = clear_on(&mechanism, &mut ClearContext::new(), &profile, true).unwrap();
    assert_eq!(carried, fresh);
    assert_ne!(carried.1, before.1, "the coverer moves u0's critical bid");
    assert_eq!(context.take_prof().criticals_reused, 0);
}
