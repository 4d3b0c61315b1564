//! Trace round-trip regression: a recorded scenario run replays
//! bit-exactly through a fresh engine — same fingerprint, same
//! economics snapshot — and a corrupted trace produces a typed loader
//! error, never a panic.

use mcs_harness::scenario::{replay_scenario, run_scenario, Scenario, ScenarioError};
use mcs_obs::replay::ReplayLog;

/// A 20-round platform scenario with weather and admission pressure, so
/// the trace exercises sheds, quarantines, and shocked redraws — not
/// just the happy path.
fn twenty_rounds() -> Scenario {
    Scenario::from_toml_str(
        r#"
[scenario]
schema = 1
name = "replay-regression"
version = 1
seed = 2024
rounds = 20

[tasks]
count = 2
requirement = 0.65

[population]
users = 14
cost_min = 0.9
cost_max = 3.2
pos_min = 0.4
pos_max = 0.85

[arrival]
base = 7.0
amplitude = 0.4
period = 10
bursts = 2
burst_mass = 12
burst_width = 2

[shocks]
grid_width = 6
grid_height = 6
count = 3
multiplier_min = 0.35
multiplier_max = 0.85
duration_min = 2
duration_max = 6
region_width = 3
region_height = 3

[admission]
high_watermark = 10
low_watermark = 5
policy = "tail-drop"
clear_budget = 8
"#,
    )
    .expect("fixture parses")
}

#[test]
fn a_recorded_run_replays_bitwise_identically() {
    let scenario = twenty_rounds();
    let recorded = run_scenario(&scenario).expect("records");
    assert!(recorded.is_clean(), "{:?}", recorded.drive.violations);
    assert_eq!(recorded.rounds_cleared, 20);
    assert!(recorded.sheds > 0, "fixture should exercise shedding");

    // Serialize through the wire format, as mcs-fuzz --record-trace
    // does, then replay from the decoded bytes.
    let bytes = recorded.log.to_bytes();
    let log = ReplayLog::from_bytes(&bytes).expect("round-trips");
    assert_eq!(log, recorded.log);

    let replayed = replay_scenario(&scenario, &log).expect("replays");
    assert_eq!(recorded.fingerprint(), replayed.fingerprint());
    assert_eq!(recorded.baseline(), replayed.baseline());
    assert_eq!(recorded.drive.results, replayed.drive.results);
    assert_eq!(recorded.drive.settlements, replayed.drive.settlements);
    assert_eq!(recorded.balances, replayed.balances);
    assert_eq!(
        recorded.drive.economics, replayed.drive.economics,
        "economics snapshots must be bitwise identical"
    );
}

#[test]
fn corrupting_any_byte_yields_a_typed_error_not_a_panic() {
    let scenario = twenty_rounds();
    let recorded = run_scenario(&scenario).expect("records");
    let bytes = recorded.log.to_bytes();

    // Sweep flips across the whole trace — header, ops, checksum — at a
    // stride, plus the final byte. Every corruption must surface as a
    // typed decode or replay error.
    let mut positions: Vec<usize> = (0..bytes.len()).step_by(97).collect();
    positions.push(bytes.len() - 1);
    for position in positions {
        let mut corrupt = bytes.clone();
        corrupt[position] ^= 0xFF;
        match ReplayLog::from_bytes(&corrupt) {
            Err(_) => {} // typed ReplayError — exactly what we want
            Ok(log) => panic!(
                "flipping byte {position} still decoded a {}-op log",
                log.ops.len()
            ),
        }
    }
}

#[test]
fn foreign_and_misshapen_logs_are_refused() {
    let scenario = twenty_rounds();
    let recorded = run_scenario(&scenario).expect("records");

    // Wrong seed: the log belongs to another scenario.
    let mut foreign = recorded.log.clone();
    foreign.seed ^= 1;
    match replay_scenario(&scenario, &foreign) {
        Err(ScenarioError::Trace { .. }) => {}
        other => panic!("foreign log accepted: {other:?}"),
    }

    // Truncated mid-round: the shape check must catch it.
    let mut truncated = recorded.log.clone();
    truncated.ops.truncate(truncated.ops.len() - 1);
    match replay_scenario(&scenario, &truncated) {
        Err(ScenarioError::Trace { .. }) => {}
        other => panic!("truncated log accepted: {other:?}"),
    }
}

#[test]
fn chaos_and_campaign_scenarios_refuse_replay_with_a_typed_error() {
    // Rebuilds and armed faults are not drive operations, and a campaign
    // runner owns its engine: neither kind of log could replay.
    for name in ["chaos-single-task", "chaos-campaign"] {
        let scenario = mcs_harness::scenario::load(name).expect("corpus scenario loads");
        assert!(matches!(
            scenario.traceable(),
            Err(ScenarioError::Trace { .. })
        ));
        let recorded = run_scenario(&scenario).expect("runs");
        match replay_scenario(&scenario, &recorded.log) {
            Err(ScenarioError::Trace { message }) => assert!(message.contains(name), "{message}"),
            other => panic!("{name}: replay accepted: {other:?}"),
        }
    }
}
