//! Engine acceptance tests: worker-count-independent determinism,
//! degrade isolation, settlement invariants, and the metrics snapshot.

use mcs_core::types::{Task, TaskId, UserId};
use mcs_platform::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: usize = 120;
const BIDS_PER_ROUND: usize = 8;

/// A deterministic synthetic bid stream: `ROUNDS` rounds of
/// `BIDS_PER_ROUND` bids each, always feasible for a 0.8 requirement.
fn bid_stream(seed: u64) -> Vec<Vec<Bid>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ROUNDS)
        .map(|_| {
            (0..BIDS_PER_ROUND)
                .map(|user| Bid {
                    user: user as u32,
                    cost: rng.gen_range(1.0..5.0),
                    tasks: vec![(0, rng.gen_range(0.3..0.8))],
                })
                .collect()
        })
        .collect()
}

fn engine_with_workers(workers: usize, seed: u64) -> Engine {
    let mut config = EngineConfig::default()
        .with_workers(workers)
        .with_seed(seed);
    config.batch.max_bids = BIDS_PER_ROUND;
    Engine::new(
        config,
        vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
    )
}

fn run(mut engine: Engine, stream: &[Vec<Bid>]) -> Engine {
    for round in stream {
        for bid in round {
            engine.submit(bid).unwrap();
        }
    }
    engine.flush();
    engine.drain();
    engine
}

#[test]
fn hundred_rounds_identical_across_worker_counts() {
    let stream = bid_stream(42);
    let single = run(engine_with_workers(1, 7), &stream);
    let sharded = run(engine_with_workers(4, 7), &stream);

    assert!(
        single.results().len() >= 100,
        "expected ≥100 cleared rounds"
    );
    assert_eq!(single.results(), sharded.results());
    assert_eq!(single.settlements(), sharded.settlements());
    assert_eq!(single.ledger(), sharded.ledger());
    assert!(single.quarantine().is_empty());
}

#[test]
fn same_seed_same_outcome_across_runs() {
    let stream = bid_stream(9);
    let first = run(engine_with_workers(2, 13), &stream);
    let second = run(engine_with_workers(2, 13), &stream);
    assert_eq!(first.results(), second.results());
    assert_eq!(first.ledger(), second.ledger());

    // A different engine seed changes the execution draws.
    let reseeded = run(engine_with_workers(2, 14), &stream);
    let reports_differ = first
        .results()
        .iter()
        .any(|(id, round)| reseeded.results()[id].reports != round.reports);
    assert!(reports_differ, "execution draws should follow the seed");
}

#[test]
fn faulty_and_infeasible_rounds_are_isolated() {
    let stream = bid_stream(5);
    // Round 1 will panic inside the worker; the pool must survive it.
    let mut config = EngineConfig::default().with_workers(4).with_seed(3);
    config.batch.max_bids = BIDS_PER_ROUND;
    let mut engine = Engine::with_injector(
        config,
        vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
        std::sync::Arc::new(PanicRounds::new([RoundId(1)])),
    );
    for round in stream.iter().take(20) {
        for bid in round {
            engine.submit(bid).unwrap();
        }
    }
    // Plus one deliberately infeasible round: a single weak bidder who
    // cannot reach the 0.8 requirement alone.
    engine
        .submit(&Bid {
            user: 0,
            cost: 1.0,
            tasks: vec![(0, 0.2)],
        })
        .unwrap();
    engine.flush();

    // Silence the injected panic's default hook output for this drain.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let cleared = engine.drain();
    std::panic::set_hook(hook);

    assert_eq!(cleared, 19, "all healthy rounds cleared");
    assert_eq!(engine.quarantine().len(), 2);
    let panicked = engine
        .quarantine()
        .iter()
        .find(|q| q.id == RoundId(1))
        .expect("faulty round quarantined");
    assert!(matches!(&panicked.error, RoundError::Panicked { message }
        if message.contains("injected fault")));
    let infeasible = engine
        .quarantine()
        .iter()
        .find(|q| q.id == RoundId(20))
        .expect("infeasible round quarantined");
    assert!(matches!(infeasible.error, RoundError::Infeasible { .. }));
    assert_eq!(infeasible.bidders, 1);

    // The engine keeps serving after the bad rounds.
    for bid in &stream[0] {
        engine.submit(bid).unwrap();
    }
    engine.flush();
    assert_eq!(engine.drain(), 1);
    assert_eq!(engine.results().len(), 20);
}

#[test]
fn settlement_pays_success_strictly_more_than_failure() {
    let engine = run(engine_with_workers(3, 21), &bid_stream(17)[..30]);
    assert!(!engine.results().is_empty());
    for round in engine.results().values() {
        for quote in round.quotes.values() {
            assert!(
                quote.success > quote.failure,
                "success {} must exceed failure {}",
                quote.success,
                quote.failure
            );
        }
    }
}

#[test]
fn ledger_balances_equal_sum_of_round_payouts() {
    let engine = run(engine_with_workers(4, 2), &bid_stream(8)[..40]);
    let mut expected: std::collections::BTreeMap<UserId, f64> = Default::default();
    let mut expected_total = 0.0;
    for settlement in engine.settlements().values() {
        for (&user, &payout) in &settlement.payouts {
            *expected.entry(user).or_insert(0.0) += payout;
        }
        expected_total += settlement.total;
    }
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        engine.ledger().balances().keys().collect::<Vec<_>>()
    );
    for (user, &sum) in &expected {
        let balance = engine.ledger().balance(*user);
        assert!(
            (balance - sum).abs() < 1e-9,
            "user {user}: ledger {balance} != summed payouts {sum}"
        );
    }
    assert!((engine.ledger().total_paid() - expected_total).abs() < 1e-9);
}

#[test]
fn metrics_snapshot_reports_every_stage() {
    let stream = bid_stream(33);
    let mut engine = engine_with_workers(4, 1);
    for round in stream.iter().take(25) {
        for bid in round {
            engine.submit(bid).unwrap();
        }
        engine.tick();
    }
    // One malformed bid for the rejection counter.
    assert!(engine
        .submit(&Bid {
            user: 0,
            cost: f64::NAN,
            tasks: vec![(0, 0.5)],
        })
        .is_err());
    engine.flush();
    engine.drain();

    let json = engine.metrics_json();
    let snapshot: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snapshot, engine.metrics().snapshot());

    assert_eq!(snapshot.bids_received, 25 * BIDS_PER_ROUND as u64 + 1);
    assert_eq!(snapshot.bids_rejected, 1);
    assert_eq!(snapshot.rounds_closed, 25);
    assert_eq!(snapshot.rounds_cleared, 25);
    assert_eq!(snapshot.rounds_degraded, 0);
    assert!(snapshot.winners_selected > 0);

    assert_eq!(snapshot.stages.len(), 7);
    for stage in &snapshot.stages {
        if stage.stage == "shed" {
            // Admission control is disabled here, so the shed stage
            // must stay untouched.
            assert_eq!(stage.count, 0);
            continue;
        }
        assert!(
            stage.count > 0,
            "stage {} recorded no latency samples",
            stage.stage
        );
        assert!(stage.min_ns <= stage.max_ns);
        assert!(stage.p50_ns <= stage.p99_ns);
        assert!(stage.mean_ns > 0.0);
    }
    let shard = snapshot.stages.iter().find(|s| s.stage == "shard").unwrap();
    assert_eq!(shard.count, 25);
    let settle = snapshot
        .stages
        .iter()
        .find(|s| s.stage == "settle")
        .unwrap();
    assert_eq!(settle.count, 25);
}

#[test]
fn multi_task_rounds_clear_end_to_end() {
    let tasks: Vec<Task> = (0..3)
        .map(|i| Task::with_requirement(TaskId::new(i), 0.6).unwrap())
        .collect();
    let mut config = EngineConfig::default().with_workers(2).with_seed(4);
    config.batch.max_bids = 6;
    let mut engine = Engine::new(config, tasks);
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..5 {
        for user in 0..6u32 {
            let tasks: Vec<(u32, f64)> = (0..3).map(|t| (t, rng.gen_range(0.3..0.7))).collect();
            engine
                .submit(&Bid {
                    user,
                    cost: rng.gen_range(1.0..4.0),
                    tasks,
                })
                .unwrap();
        }
    }
    assert_eq!(engine.drain(), 5);
    for round in engine.results().values() {
        assert!(!round.allocation.is_empty());
        for quote in round.quotes.values() {
            assert!(quote.success > quote.failure);
        }
    }
}

#[test]
fn too_fine_an_epsilon_quarantines_rounds_as_typed_errors() {
    // ε = 1e-9 asked the single-task FPTAS for a 40 GB table and aborted
    // the process; ε = 1e-100 overflowed its level arithmetic and
    // panicked. Both are now typed mechanism errors, refused before any
    // DP runs, and the engine quarantines the rounds and keeps serving.
    let mut rng = StdRng::seed_from_u64(5);
    let rounds: Vec<Vec<Bid>> = (0..2)
        .map(|_| {
            (0..24)
                .map(|user| Bid {
                    user,
                    cost: rng.gen_range(1.0..5.0),
                    tasks: vec![(0, rng.gen_range(0.3..0.8))],
                })
                .collect()
        })
        .collect();
    for epsilon in [1e-9, 1e-100] {
        let mut config = EngineConfig::default().with_workers(2).with_seed(3);
        config.batch.max_bids = 24;
        config.epsilon = epsilon;
        let engine = run(
            Engine::new(
                config,
                vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
            ),
            &rounds,
        );
        assert!(engine.results().is_empty(), "ε = {epsilon}");
        assert_eq!(engine.quarantine().len(), 2, "ε = {epsilon}");
        for quarantined in engine.quarantine() {
            assert!(
                matches!(&quarantined.error, RoundError::Mechanism { message }
                    if message.contains("DP levels")),
                "ε = {epsilon}: {:?}",
                quarantined.error
            );
        }
    }
}
