//! Chaos acceptance tests over `[chaos]` scenarios: cross-worker
//! determinism of the whole outcome, all-stage fault coverage with pinned
//! plans, quarantine isolation (a panicking round must not perturb any
//! other round), report flips, shedding determinism under both policies,
//! the closed loop under chaos, and the pinned CI matrices.

use mcs_harness::prelude::*;
use mcs_harness::scenario::load;
use mcs_platform::batch::RoundId;
use mcs_platform::config::{SeededUniform, ShedPolicy};
use mcs_platform::degrade::RoundError;

fn corpus(name: &str) -> Scenario {
    load(name).unwrap_or_else(|error| panic!("corpus scenario {name}: {error}"))
}

/// Corpus scenario `name` with its `[chaos]` plan replaced by `plan`,
/// listed round by round, draining every four rounds.
fn listed(name: &str, plan: &[(u64, Fault)]) -> Scenario {
    let mut rounds = FaultPlan::new();
    for &(round, fault) in plan {
        rounds.schedule(round, fault);
    }
    let mut scenario = corpus(name);
    scenario.chaos = Some(ChaosSpec {
        intensity: None,
        rounds,
        drain_every: 4,
    });
    scenario
}

fn run(scenario: &Scenario) -> ScenarioOutcome {
    run_at(scenario, None, None)
}

fn run_at(
    scenario: &Scenario,
    workers: Option<usize>,
    payment_threads: Option<usize>,
) -> ScenarioOutcome {
    let options = RunOptions {
        workers,
        payment_threads,
        ..RunOptions::default()
    };
    let outcome = run_scenario_with(scenario, &options)
        .unwrap_or_else(|error| panic!("{}: {error}", scenario.name));
    assert!(
        outcome.is_clean(),
        "{} ({workers:?}w/{payment_threads:?}p): {:?} {:?}",
        scenario.name,
        outcome.drive.violations,
        outcome.campaign_violations
    );
    outcome
}

#[test]
fn campaigns_are_bitwise_identical_across_worker_and_payment_thread_counts() {
    for name in ["chaos-single-task", "chaos-multi-task"] {
        let scenario = corpus(name);
        let reference = run(&scenario);
        assert!(
            !reference.drive.post_mortems.is_empty(),
            "{name}: the plan must quarantine something"
        );
        for (workers, payment_threads) in [(1, 1), (4, 2), (3, 5)] {
            let outcome = run_at(&scenario, Some(workers), Some(payment_threads));
            assert_eq!(
                outcome.fingerprint(),
                reference.fingerprint(),
                "{name} workers={workers} payment_threads={payment_threads}"
            );
            // Not just the digest: the full observable outcome — every
            // result, settlement, quarantine record and logical-clock
            // post-mortem — matches bitwise.
            assert_eq!(outcome, reference, "{name} workers={workers}");
        }
    }
}

/// A round that panics in one shard worker must not perturb results,
/// metrics, or settlement of any other round (pinned seed).
#[test]
fn a_panicking_round_perturbs_nothing_else() {
    let clean = run(&listed("chaos-single-task", &[]));
    let faulted = run(&listed("chaos-single-task", &[(5, Fault::ShardPanic)]));
    let quarantine = &faulted.drive.quarantine;

    // No batch faults, so logical round 5 is engine round r5.
    let victim = RoundId(5);
    assert!(clean.drive.results.contains_key(&victim));
    assert!(!faulted.drive.results.contains_key(&victim));
    assert_eq!(quarantine.len(), 1);
    assert_eq!(quarantine[0].id, victim);
    assert!(matches!(
        &quarantine[0].error,
        RoundError::Panicked { message } if message.contains(CHAOS_PREFIX)
    ));

    // Every other round is bitwise untouched: results, settlements,
    // payouts.
    for (id, round) in &clean.drive.results {
        if *id == victim {
            continue;
        }
        assert_eq!(faulted.drive.results.get(id), Some(round), "{id} drifted");
        assert_eq!(
            faulted.drive.settlements.get(id),
            clean.drive.settlements.get(id),
            "{id} settlement drifted"
        );
    }
    assert_eq!(faulted.drive.results.len(), clean.drive.results.len() - 1);

    // The ledger differs by exactly the victim round's settlement.
    let victim_total = clean.drive.settlements[&victim].total;
    let delta = clean.payment_total - faulted.payment_total;
    assert!(
        (delta - victim_total).abs() < 1e-9,
        "ledger delta {delta} != victim settlement {victim_total}"
    );
}

/// One pinned plan exercising every fault stage: all eight ingest
/// rejections, batch splits and reorders, shard panics and infeasible
/// rounds, settle-stage flips and a mid-run rebuild.
const ALL_STAGES: [(u64, Fault); 14] = [
    (0, Fault::NanCostBid),
    (1, Fault::NegativeCostBid),
    (2, Fault::OutOfRangePosBid),
    (3, Fault::EmptyTaskSetBid),
    (4, Fault::UnknownTaskBid),
    (5, Fault::DuplicateTaskBid),
    (6, Fault::DuplicateUserBid),
    (7, Fault::OversizedBid),
    (8, Fault::InfeasibleRound),
    (9, Fault::ShardPanic),
    (10, Fault::FlipReports),
    (11, Fault::ReorderPending),
    (12, Fault::DelayedTicks(5)),
    (13, Fault::DropAndRebuild),
];

/// Everything the all-stage plan must produce, with every invariant
/// intact (the run is clean).
fn assert_all_stages_survived(outcome: &ScenarioOutcome) {
    let drive = &outcome.drive;
    // Each of the eight malformed bids was rejected with a typed error,
    // verified identical on the engine and the mirror.
    assert_eq!(drive.rejections, 8);
    // Both quarantine flavours appeared: the injected worker panic and
    // the engineered infeasible round.
    assert!(drive
        .quarantine
        .iter()
        .any(|q| matches!(&q.error, RoundError::Panicked { message }
            if message.contains(CHAOS_PREFIX))));
    assert!(drive
        .quarantine
        .iter()
        .any(|q| matches!(q.error, RoundError::Infeasible { .. })));
    // The checkpoint/drop/rebuild cycle ran.
    assert_eq!(drive.rebuilds, 1);
    // Shard, settle, and batch faults all armed onto concrete rounds.
    assert!(drive.faults_armed >= 3);
    // Zero silent drops is implied by is_clean(), but make the coverage
    // arithmetic explicit: every closed round is accounted for.
    assert_eq!(
        drive.rounds_closed as usize,
        drive.results.len() + drive.quarantine.len()
    );
    // Every quarantine left a complete post-mortem of its whole round.
    assert_eq!(drive.post_mortems.len(), drive.quarantine.len());
    for (record, pm) in drive.quarantine.iter().zip(&drive.post_mortems) {
        assert_eq!(pm.round, record.id.0);
        assert!(pm.complete, "{}", pm.to_json());
        assert_eq!(pm.bids.len(), record.bidders);
    }
}

#[test]
fn pinned_all_stage_campaign_survives_with_invariants_intact() {
    assert_all_stages_survived(&run(&listed("chaos-single-task", &ALL_STAGES)));
}

/// The same pinned plan over the multi-task mechanism family. Admission
/// control is switched off so no malformed bid is shed before it can be
/// rejected.
#[test]
fn pinned_all_stage_campaign_runs_clean_multi_task() {
    let mut scenario = listed("chaos-multi-task", &ALL_STAGES);
    scenario.admission = None;
    assert_all_stages_survived(&run(&scenario));
}

/// Flipped reports change payouts but never break settlement/result
/// consistency — and only the flipped round moves.
#[test]
fn flipped_reports_move_only_their_own_round() {
    let clean = run(&listed("chaos-single-task", &[]));
    let flipped = run(&listed("chaos-single-task", &[(4, Fault::FlipReports)]));

    let victim = RoundId(4);
    let (clean, flipped) = (&clean.drive.results, &flipped.drive.results);
    assert!(!clean[&victim].reports.is_empty());
    for (user, &report) in &clean[&victim].reports {
        assert_eq!(flipped[&victim].reports[user], !report);
    }
    for (id, round) in clean {
        if *id != victim {
            assert_eq!(flipped.get(id), Some(round));
        }
    }
}

/// With admission control engaged and every round overloaded, the whole
/// outcome — including the shed, partial-clear, and backlog counters —
/// stays bitwise identical across worker counts 1/2/8 and payment-thread
/// counts 1/4, for both shedding policies.
#[test]
fn shedding_campaigns_are_bitwise_identical_across_thread_counts() {
    let soak = corpus("overload-soak");
    let tail_drop = soak.admission.expect("the soak runs admission control");
    assert_eq!(tail_drop.policy, ShedPolicy::TailDrop);
    let policies = [
        ShedPolicy::TailDrop,
        ShedPolicy::SeededUniform(SeededUniform {
            seed: 77,
            rate: 0.4,
        }),
    ];
    for policy in policies {
        let mut scenario = soak.clone();
        scenario.admission = Some(mcs_platform::config::AdmissionConfig {
            policy,
            ..tail_drop
        });
        let reference = run(&scenario);
        let drive = &reference.drive;
        assert!(drive.sheds > 0, "{policy:?} shed nothing under overload");
        assert!(
            drive.partial_rounds > 0,
            "{policy:?}: no round tripped the clearing budget"
        );
        assert!(drive.max_backlog <= tail_drop.high_watermark || policy != ShedPolicy::TailDrop);

        for workers in [1usize, 2, 8] {
            for payment_threads in [1usize, 4] {
                let outcome = run_at(&scenario, Some(workers), Some(payment_threads));
                assert_eq!(
                    outcome.fingerprint(),
                    reference.fingerprint(),
                    "{policy:?} workers={workers} payment_threads={payment_threads}"
                );
                assert_eq!(outcome, reference);
            }
        }
    }
}

/// The closed loop under chaos: the campaign scenario's flipped, reordered
/// and panicked rounds land, and the closed-loop oracles still hold
/// (`run` asserts them) at every worker count.
#[test]
fn a_chaos_campaign_passes_the_closed_loop_oracles() {
    let scenario = corpus("chaos-campaign");
    let outcome = run(&scenario);
    assert!(
        outcome.quarantined >= 1,
        "the round-3 shard panic must land"
    );
    let mut calm = scenario.clone();
    calm.chaos = None;
    let calm = run(&calm);
    assert_ne!(calm.fingerprint(), outcome.fingerprint());
    // The termination oracle lets a campaign stop before its budget only
    // on full coverage: the residual re-auctions close what chaos opened.
    let budget = scenario
        .campaign
        .as_ref()
        .expect("campaign mode")
        .max_rounds;
    assert!(calm.rounds_cleared < outcome.rounds_cleared);
    assert!(
        outcome.rounds_cleared < budget,
        "chaos left the tasks uncovered"
    );
    for (workers, payment_threads) in [(1, 1), (8, 4)] {
        let other = run_at(&scenario, Some(workers), Some(payment_threads));
        assert_eq!(other.fingerprint(), outcome.fingerprint());
    }
}

/// The chaos matrix — both engine chaos scenarios at their own seed and
/// re-seeded at 7 and 42, as `scripts/ci.sh` runs them — pinned by the
/// drive fingerprint, which also covers every quarantine record and the
/// shed, partial-clear, backlog and rebuild counters. The corpus
/// baselines pin the scenario fingerprint of the own-seed runs only.
#[test]
fn ci_smoke_matrix_fingerprints_are_pinned() {
    let pinned = [
        ("chaos-single-task", 1u64, 0x438b_8768_b981_5d3eu64),
        ("chaos-single-task", 7, 0xb71f_f504_1550_a0c9),
        ("chaos-single-task", 42, 0xafd3_9d5b_c28f_6dfe),
        ("chaos-multi-task", 1, 0x94a9_6ae9_5ad4_9e96),
        ("chaos-multi-task", 7, 0x1d10_ab85_703d_8f17),
        ("chaos-multi-task", 42, 0x61fc_baf2_cc2d_571b),
    ];
    for (name, seed, expected) in pinned {
        let mut scenario = corpus(name);
        scenario.seed = seed;
        let fingerprint = run(&scenario).drive.fingerprint();
        assert_eq!(
            fingerprint, expected,
            "{name} seed={seed}: {fingerprint:#018x}"
        );
    }
}

/// The overload soak the CI corpus tier runs: its pinned baseline and
/// drive fingerprint hold, and the overload they pin is real — bids
/// shed, every round partially cleared, the backlog at most the
/// watermark.
#[test]
fn ci_smoke_soak_fingerprint_is_pinned() {
    let scenario = corpus("overload-soak");
    let outcome = run(&scenario);
    let pinned = scenario.baseline.expect("the soak ships a baseline");
    pinned
        .check(&scenario.name, &outcome.baseline())
        .unwrap_or_else(|error| panic!("{error}"));
    let drive = &outcome.drive;
    assert_eq!(
        drive.fingerprint(),
        0x3135_e490_c503_c30b,
        "{:#018x}",
        drive.fingerprint()
    );
    let watermark = scenario.admission.expect("admission").high_watermark;
    assert!(drive.sheds > 0);
    assert_eq!(drive.partial_rounds, scenario.rounds);
    assert!(drive.deferred > 0);
    assert!(drive.max_backlog <= watermark);
}
