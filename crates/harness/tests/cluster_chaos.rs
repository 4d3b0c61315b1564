//! Pinned-seed chaos regressions for the three cluster faults.
//!
//! Every campaign here is a pure function of a pinned corpus scenario
//! (fixed seed, fixed bid stream) plus a fixed fault schedule, so a
//! failure reproduces exactly. The contract under attack is the
//! cluster's one theorem: a fault either leaves the outcome bitwise
//! identical to the fault-free run (node loss → failover, duplicate
//! delivery → dedup) or quarantines the round with a typed error and a
//! complete post-mortem (partition) — never a silently divergent
//! outcome.

use mcs_harness::prelude::*;
use mcs_harness::scenario::load;

const BANDS: u32 = 6;
const NODES: u32 = 3;

fn scenario(name: &str) -> Scenario {
    load(name).unwrap_or_else(|error| panic!("corpus scenario {name}: {error}"))
}

/// A `(nodes, bands, node)` deployment where some node hosts at least
/// two active regions, so losing its primary mid-round forces the
/// failover to happen *within* the round, between two Clear calls.
fn mid_round_target(scenario: &Scenario) -> Option<(u32, u32, u32)> {
    for bands in [4u32, 6, 8] {
        for nodes in [2u32, 3] {
            let topology = scenario_topology(scenario, bands);
            let mut per_node = std::collections::BTreeMap::new();
            for region in topology.active_regions() {
                *per_node
                    .entry(topology.node_of_region(region, nodes))
                    .or_insert(0u32) += 1;
            }
            if let Some((&node, _)) = per_node.iter().find(|(_, &count)| count >= 2) {
                return Some((nodes, bands, node));
            }
        }
    }
    None
}

#[test]
fn node_loss_promotes_the_follower_and_keeps_the_fingerprint() {
    for name in ["calm-baseline", "diurnal-weather"] {
        let scenario = scenario(name);
        let baseline = run_cluster_scenario(&scenario, NODES, BANDS, &FaultPlan::new())
            .expect("fault-free run");
        let target = busy_node(&scenario, NODES, BANDS);
        let mut plan = FaultPlan::new();
        plan.schedule(1, Fault::NodeLoss(target));
        let run = run_cluster_scenario(&scenario, NODES, BANDS, &plan).expect("chaos run");
        assert_eq!(
            run.promoted_nodes(),
            vec![target],
            "{name}: losing node {target}'s primary must promote its follower"
        );
        assert_eq!(
            run.fingerprint, baseline.fingerprint,
            "{name}: failover must not move a single outcome bit"
        );
        assert_eq!(run.outcome.results, baseline.outcome.results);
        assert_eq!(run.outcome.settlements, baseline.outcome.settlements);
        assert_eq!(
            run.outcome.ledger.balances(),
            baseline.outcome.ledger.balances()
        );
        assert_eq!(run.quarantined_rounds(), baseline.quarantined_rounds());
    }
}

#[test]
fn node_loss_mid_round_fails_over_between_clears() {
    // diurnal-weather publishes three tasks, so some deployment packs
    // two active regions onto one node; losing that node's primary
    // after its first Clear forces a same-round promotion.
    let scenario = scenario("diurnal-weather");
    let (nodes, bands, target) =
        mid_round_target(&scenario).expect("some deployment packs two active regions on one node");
    let baseline =
        run_cluster_scenario(&scenario, nodes, bands, &FaultPlan::new()).expect("fault-free run");
    let mut plan = FaultPlan::new();
    plan.schedule(1, Fault::NodeLoss(target));
    let run = run_cluster_scenario(&scenario, nodes, bands, &plan).expect("chaos run");
    assert_eq!(
        run.reports[1].promoted,
        vec![target],
        "the follower must take over within the fault round itself"
    );
    assert!(!run.reports[1].quarantined);
    assert_eq!(run.fingerprint, baseline.fingerprint);
}

#[test]
fn partition_quarantines_with_a_typed_complete_post_mortem() {
    let scenario = scenario("calm-baseline");
    let baseline =
        run_cluster_scenario(&scenario, NODES, BANDS, &FaultPlan::new()).expect("fault-free run");
    let target = busy_node(&scenario, NODES, BANDS);
    let mut plan = FaultPlan::new();
    plan.schedule(1, Fault::NetPartition(target));
    let run = run_cluster_scenario(&scenario, NODES, BANDS, &plan).expect("chaos run");

    assert_eq!(
        run.quarantined_rounds(),
        1,
        "exactly the fault round quarantines"
    );
    assert!(run.reports[1].quarantined);
    assert!(
        run.reports[1].cleared_shards.is_empty(),
        "nothing settles in a quarantined round"
    );
    let quarantine = run
        .outcome
        .quarantines
        .iter()
        .find(|q| q.round == 1)
        .expect("round 1 carries a quarantine record");
    // The post-mortem is complete: typed cause, the dark node, what was
    // unreachable, what was discarded, and the full bid accounting.
    for field in [
        "\"cause\":\"partition\"",
        "\"node\":",
        "\"unreached_regions\"",
        "\"discarded_regions\"",
        "\"accepted_bids\"",
        "\"rejected_bids\"",
        "\"straddlers\"",
    ] {
        assert!(
            quarantine.post_mortem.contains(field),
            "post-mortem missing {field}: {}",
            quarantine.post_mortem
        );
    }
    // The partition heals after its round: every other round still
    // matches the fault-free run's clears, and the ledger only misses
    // the quarantined round's settlements.
    for (round, report) in run.reports.iter().enumerate() {
        if round != 1 {
            assert_eq!(
                report.cleared_shards, baseline.reports[round].cleared_shards,
                "round {round} must clear exactly as the fault-free run"
            );
        }
    }
    assert!(run.outcome.results.keys().all(|&(round, _)| round != 1));
}

#[test]
fn duplicate_delivery_is_deduplicated_bitwise() {
    for name in ["calm-baseline", "flash-crowd"] {
        let scenario = scenario(name);
        let baseline = run_cluster_scenario(&scenario, NODES, BANDS, &FaultPlan::new())
            .expect("fault-free run");
        let mut plan = FaultPlan::new();
        plan.schedule(0, Fault::DuplicateDelivery);
        plan.schedule(1, Fault::DuplicateDelivery);
        plan.schedule(3, Fault::DuplicateDelivery);
        let run = run_cluster_scenario(&scenario, NODES, BANDS, &plan).expect("chaos run");
        assert_eq!(
            run.fingerprint, baseline.fingerprint,
            "{name}: redelivered Clears must hit the idempotency cache"
        );
        assert_eq!(run.outcome.results, baseline.outcome.results);
        assert_eq!(run.outcome.settlements, baseline.outcome.settlements);
        assert_eq!(run.quarantined_rounds(), 0);
        assert!(run.promoted_nodes().is_empty());
    }
}

#[test]
fn every_corpus_scenario_survives_the_pinned_chaos_battery() {
    // One sweep across the whole corpus: each scenario, each fault, the
    // same pinned schedule — the cluster-mode CI tier in miniature.
    for path in mcs_harness::scenario::corpus_paths().expect("scenarios/ exists") {
        let scenario = load(&path.display().to_string()).expect("corpus scenario loads");
        let baseline = run_cluster_scenario(&scenario, NODES, BANDS, &FaultPlan::new())
            .unwrap_or_else(|error| panic!("{}: {error}", scenario.name));
        let target = busy_node(&scenario, NODES, BANDS);

        let mut loss = FaultPlan::new();
        loss.schedule(1, Fault::NodeLoss(target));
        let run = run_cluster_scenario(&scenario, NODES, BANDS, &loss)
            .unwrap_or_else(|error| panic!("{}: {error}", scenario.name));
        assert_eq!(
            run.fingerprint, baseline.fingerprint,
            "{}: node loss",
            scenario.name
        );
        assert_eq!(
            run.promoted_nodes(),
            vec![target],
            "{}: promotion",
            scenario.name
        );

        let mut partition = FaultPlan::new();
        partition.schedule(2, Fault::NetPartition(target));
        let run = run_cluster_scenario(&scenario, NODES, BANDS, &partition)
            .unwrap_or_else(|error| panic!("{}: {error}", scenario.name));
        assert_eq!(run.quarantined_rounds(), 1, "{}: partition", scenario.name);

        let mut duplicate = FaultPlan::new();
        duplicate.schedule(0, Fault::DuplicateDelivery);
        let run = run_cluster_scenario(&scenario, NODES, BANDS, &duplicate)
            .unwrap_or_else(|error| panic!("{}: {error}", scenario.name));
        assert_eq!(
            run.fingerprint, baseline.fingerprint,
            "{}: duplicate",
            scenario.name
        );
    }
}

/// The 1-node, 6-band fault-free fingerprint of every corpus scenario,
/// pinned. Every other cluster check compares deployments against each
/// other; this one holds them all to a value.
#[test]
fn corpus_cluster_fingerprints_are_pinned() {
    let pinned = [
        ("calm-baseline", 0x66e3_7f89_ce76_1ab1u64),
        ("campaign-monsoon", 0xb7b2_02f9_64dc_71fb),
        ("chaos-campaign", 0x2c03_9a51_294b_2efb),
        ("chaos-multi-task", 0x41af_57ae_2a9a_d513),
        ("chaos-single-task", 0xc6f5_7ca9_8723_c7fe),
        ("diurnal-weather", 0x4231_421f_f2bc_4cee),
        ("flash-crowd", 0x3f86_3553_d997_5a61),
        ("overload-soak", 0x12a7_cfde_f892_d932),
        ("strategic-siege", 0xf096_80b3_c95d_d3f4),
    ];
    for (name, expected) in pinned {
        let run = run_cluster_scenario(&scenario(name), 1, BANDS, &FaultPlan::new())
            .unwrap_or_else(|error| panic!("{name}: {error}"));
        assert_eq!(
            run.fingerprint, expected,
            "{name}: {:016x}",
            run.fingerprint
        );
    }
}
