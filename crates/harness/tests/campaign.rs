//! Campaign acceptance tests: cross-worker determinism, all-stage fault
//! coverage with pinned plans, and quarantine isolation (a panicking
//! round must not perturb any other round).

use mcs_harness::prelude::*;
use mcs_platform::batch::RoundId;
use mcs_platform::degrade::RoundError;

fn config(seed: u64, rounds: u64, tasks: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        rounds,
        task_count: tasks,
        ..CampaignConfig::default()
    }
}

#[test]
fn campaigns_are_bitwise_identical_across_worker_and_payment_thread_counts() {
    for tasks in [1, 3] {
        let plan = FaultPlan::generate(11, 24, 0.5);
        let base = config(11, 24, tasks);
        let reference = run_campaign(&base, &plan);
        for (workers, payment_threads) in [(1, 1), (4, 2), (3, 5)] {
            let variant = CampaignConfig {
                workers,
                payment_threads,
                ..base.clone()
            };
            let outcome = run_campaign(&variant, &plan);
            assert_eq!(
                outcome.fingerprint(),
                reference.fingerprint(),
                "tasks={tasks} workers={workers} payment_threads={payment_threads}"
            );
            // Not just the digest: the full observable outcome, including
            // the quarantine log, matches bitwise.
            assert_eq!(outcome, reference);
            assert_eq!(outcome.quarantine_log(), reference.quarantine_log());
        }
    }
}

/// Satellite: a round that panics in one shard worker must not perturb
/// results, metrics, or settlement of any other round (pinned seed).
#[test]
fn a_panicking_round_perturbs_nothing_else() {
    let base = config(23, 12, 1);
    let clean = run_campaign(&base, &FaultPlan::new());
    let mut plan = FaultPlan::new();
    plan.schedule(5, Fault::ShardPanic);
    let faulted = run_campaign(&base, &plan);

    assert!(clean.is_clean(), "{:?}", clean.violations);
    assert!(faulted.is_clean(), "{:?}", faulted.violations);

    // No batch faults, so logical round 5 is engine round r5.
    let victim = RoundId(5);
    assert!(clean.results.contains_key(&victim));
    assert!(!faulted.results.contains_key(&victim));
    assert_eq!(faulted.quarantine.len(), 1);
    assert_eq!(faulted.quarantine[0].id, victim);
    assert!(matches!(
        &faulted.quarantine[0].error,
        RoundError::Panicked { message } if message.contains(CHAOS_PREFIX)
    ));

    // Every other round is bitwise untouched: results, settlements,
    // payouts.
    for (id, round) in &clean.results {
        if *id == victim {
            continue;
        }
        assert_eq!(faulted.results.get(id), Some(round), "{id} drifted");
        assert_eq!(
            faulted.settlements.get(id),
            clean.settlements.get(id),
            "{id} settlement drifted"
        );
    }
    assert_eq!(faulted.results.len(), clean.results.len() - 1);

    // The ledger differs by exactly the victim round's settlement.
    let victim_total = clean.settlements[&victim].total;
    assert!(
        ((clean.total_paid - faulted.total_paid) - victim_total).abs() < 1e-9,
        "ledger delta {} != victim settlement {victim_total}",
        clean.total_paid - faulted.total_paid
    );
}

/// A pinned plan exercising every fault stage in one campaign: all eight
/// ingest rejections, batch splits and reorders, shard panics and
/// infeasible rounds, settle-stage flips and a mid-stream rebuild — with
/// every invariant intact.
#[test]
fn pinned_all_stage_campaign_survives_with_invariants_intact() {
    let mut plan = FaultPlan::new();
    plan.schedule(0, Fault::NanCostBid)
        .schedule(1, Fault::NegativeCostBid)
        .schedule(2, Fault::OutOfRangePosBid)
        .schedule(3, Fault::EmptyTaskSetBid)
        .schedule(4, Fault::UnknownTaskBid)
        .schedule(5, Fault::DuplicateTaskBid)
        .schedule(6, Fault::DuplicateUserBid)
        .schedule(7, Fault::OversizedBid)
        // Shard/settle faults come before DelayedTicks: once a round is
        // split by ticks, leftover bids cascade into later rounds, so an
        // InfeasibleRound's lone weak bid would merge with strong
        // leftovers and close feasible.
        .schedule(8, Fault::InfeasibleRound)
        .schedule(9, Fault::ShardPanic)
        .schedule(10, Fault::FlipReports)
        .schedule(11, Fault::ReorderPending)
        .schedule(12, Fault::DelayedTicks(5))
        .schedule(13, Fault::DropAndRebuild);

    let outcome = run_campaign(&config(3, 16, 1), &plan);
    assert!(outcome.is_clean(), "{:?}", outcome.violations);

    // Each of the eight malformed bids was rejected with a typed error,
    // verified identical on the engine and the mirror.
    assert_eq!(outcome.rejections, 8);
    // Both quarantine flavours appeared: the injected worker panic and
    // the engineered infeasible round.
    assert!(outcome
        .quarantine
        .iter()
        .any(|q| matches!(&q.error, RoundError::Panicked { message }
            if message.contains(CHAOS_PREFIX))));
    assert!(outcome
        .quarantine
        .iter()
        .any(|q| matches!(q.error, RoundError::Infeasible { .. })));
    // The checkpoint/drop/rebuild cycle ran.
    assert_eq!(outcome.rebuilds, 1);
    // Shard, settle, and batch faults all armed onto concrete rounds.
    assert!(outcome.faults_armed >= 3);
    // Zero silent drops is implied by is_clean(), but make the coverage
    // arithmetic explicit: every closed round is accounted for.
    assert_eq!(
        outcome.rounds_closed as usize,
        outcome.results.len() + outcome.quarantine.len()
    );
}

/// The same pinned plan over the multi-task mechanism family.
#[test]
fn pinned_all_stage_campaign_runs_clean_multi_task() {
    let mut plan = FaultPlan::new();
    plan.schedule(1, Fault::DuplicateUserBid)
        .schedule(3, Fault::ShardPanic)
        .schedule(5, Fault::InfeasibleRound)
        .schedule(6, Fault::FlipReports)
        .schedule(8, Fault::DelayedTicks(4))
        .schedule(9, Fault::DropAndRebuild);
    let outcome = run_campaign(&config(17, 12, 3), &plan);
    assert!(outcome.is_clean(), "{:?}", outcome.violations);
    assert_eq!(outcome.rebuilds, 1);
    assert!(outcome.quarantine.len() >= 2);
}

/// Flipped reports change payouts but never break settlement/result
/// consistency — and only the flipped round moves.
#[test]
fn flipped_reports_move_only_their_own_round() {
    let base = config(31, 10, 1);
    let clean = run_campaign(&base, &FaultPlan::new());
    let mut plan = FaultPlan::new();
    plan.schedule(4, Fault::FlipReports);
    let flipped = run_campaign(&base, &plan);
    assert!(flipped.is_clean(), "{:?}", flipped.violations);

    let victim = RoundId(4);
    for (user, &report) in &clean.results[&victim].reports {
        assert_eq!(flipped.results[&victim].reports[user], !report);
    }
    for (id, round) in &clean.results {
        if *id != victim {
            assert_eq!(flipped.results.get(id), Some(round));
        }
    }
}

/// Satellite of the overload work: with admission control engaged and
/// every round oversubscribed, campaign fingerprints — including the
/// shed, partial-clear, and backlog counters — stay bitwise identical
/// across worker counts 1/2/8 and payment-thread counts 1/4, for both
/// shedding policies.
#[test]
fn shedding_campaigns_are_bitwise_identical_across_thread_counts() {
    use mcs_platform::config::{AdmissionConfig, SeededUniform, ShedPolicy};

    let policies = [
        ShedPolicy::TailDrop,
        ShedPolicy::SeededUniform(SeededUniform {
            seed: 77,
            rate: 0.4,
        }),
    ];
    for policy in policies {
        let mut plan = FaultPlan::new();
        for round in 0..12 {
            plan.schedule(round, Fault::Oversubscribe(4));
        }
        let mut base = config(19, 12, 1);
        base.bids_per_round = 6;
        base.admission = AdmissionConfig {
            high_watermark: 12,
            low_watermark: 6,
            policy,
            clear_budget: 5,
        };
        let reference = run_campaign(&base, &plan);
        assert!(
            reference.is_clean(),
            "{policy:?}: {:?}",
            reference.violations
        );
        assert!(reference.sheds > 0, "{policy:?} shed nothing at 4x load");
        assert!(
            reference.partial_rounds > 0,
            "{policy:?}: no round tripped the clearing budget"
        );
        assert!(reference.max_backlog <= 12 || !matches!(policy, ShedPolicy::TailDrop));

        for workers in [1usize, 2, 8] {
            for payment_threads in [1usize, 4] {
                let variant = CampaignConfig {
                    workers,
                    payment_threads,
                    ..base.clone()
                };
                let outcome = run_campaign(&variant, &plan);
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

/// The `mcs-fuzz --ci-smoke` matrix, built exactly as the binary builds
/// it, pinned to the fingerprints it has always printed. Nothing else
/// pins a chaos campaign to a value: every other check compares runs
/// against each other.
#[test]
fn ci_smoke_matrix_fingerprints_are_pinned() {
    let pinned = [
        (1u64, 1usize, 0x6f90_f438_c407_d652u64),
        (1, 3, 0xf3bd_b7d4_55e5_1d1c),
        (7, 1, 0xec32_69cb_aa7a_955b),
        (7, 3, 0xa52b_3494_259d_70d8),
        (42, 1, 0x0b5f_3991_498b_1330),
        (42, 3, 0x31a9_5559_6358_d6ed),
    ];
    for (seed, tasks, expected) in pinned {
        let config = CampaignConfig {
            seed,
            rounds: 40,
            bids_per_round: 8,
            task_count: tasks,
            workers: 1,
            payment_threads: 1,
            drain_every: 4,
            ..CampaignConfig::default()
        };
        let plan = FaultPlan::generate(seed, config.rounds, 0.35);
        let outcome = run_campaign(&config, &plan);
        assert!(
            outcome.is_clean(),
            "seed={seed} tasks={tasks}: {:?}",
            outcome.violations
        );
        assert_eq!(
            outcome.fingerprint(),
            expected,
            "seed={seed} tasks={tasks}: {:016x}",
            outcome.fingerprint()
        );
    }
}

/// The `mcs-fuzz --soak --ci-smoke` campaign, built exactly as the
/// binary builds it: 16 rounds each 10× oversubscribed against
/// tail-drop admission with a clearing budget of 6.
#[test]
fn ci_smoke_soak_fingerprint_is_pinned() {
    use mcs_platform::config::{AdmissionConfig, ShedPolicy};

    let mut config = CampaignConfig {
        seed: 1,
        rounds: 16,
        ..CampaignConfig::default()
    };
    config.admission = AdmissionConfig {
        high_watermark: 4 * config.bids_per_round,
        low_watermark: 2 * config.bids_per_round,
        policy: ShedPolicy::TailDrop,
        clear_budget: config.bids_per_round.saturating_sub(2).max(2),
    };
    let mut plan = FaultPlan::new();
    for round in 0..config.rounds {
        plan.schedule(round, Fault::Oversubscribe(10));
    }
    let outcome = run_campaign(&config, &plan);
    assert!(outcome.is_clean(), "{:?}", outcome.violations);
    assert_eq!(
        outcome.fingerprint(),
        0x9ccf_8e96_9f26_a2d2,
        "{:016x}",
        outcome.fingerprint()
    );
}
