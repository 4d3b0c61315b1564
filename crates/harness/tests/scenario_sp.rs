//! Online strategy-proofness regression: strategic bidders replay the
//! misreport factor grid live against the engine, in lockstep with a
//! truthful twin, at ε ∈ {0.5, 0.1, 0.01}. Zero deviations may profit —
//! and the oracle's teeth are proven by feeding it a deliberately
//! sweetened quote and watching it trip.

use mcs_harness::scenario::{check_online_sp, deviation_gain, load, Scenario};

#[test]
fn the_shipped_siege_scenario_finds_no_profitable_deviation() {
    let scenario = load("strategic-siege").expect("corpus scenario loads");
    let strategy = scenario.strategy.as_ref().expect("siege has strategists");
    assert_eq!(
        strategy.epsilons,
        vec![0.5, 0.1, 0.01],
        "the pinned epsilon ladder is part of the regression"
    );
    let report = check_online_sp(&scenario, 1e-6).expect("twins run");
    assert_eq!(
        report.checked, scenario.rounds,
        "exactly one deviation must be played per round"
    );
    for violation in &report.violations {
        eprintln!("SP VIOLATION: {violation}");
    }
    assert!(report.is_clean(), "a live deviation profited");
    assert!(
        report.truthful.is_clean(),
        "{:?}",
        report.truthful.drive.violations
    );
    assert!(
        report.deviating.is_clean(),
        "{:?}",
        report.deviating.drive.violations
    );
    // The twins share arrivals and execution draws, so the *truthful*
    // twin's fingerprint must match a plain run of the same scenario.
    assert_eq!(
        report.truthful.fingerprint(),
        mcs_harness::scenario::run_scenario(&scenario)
            .expect("runs")
            .fingerprint()
    );
}

#[test]
fn shocked_worlds_do_not_confuse_the_oracle() {
    // Same sweep, but with regional weather layered on: shocks hit
    // truthful and deviating twins identically, so strategy-proofness
    // must still hold at the bidders' *believed* types.
    let scenario = Scenario::from_toml_str(
        r#"
[scenario]
schema = 1
name = "sp-under-weather"
version = 1
seed = 4242
rounds = 12

[tasks]
count = 2
requirement = 0.6

[population]
users = 16
cost_min = 0.8
cost_max = 3.0
pos_min = 0.4
pos_max = 0.85

[arrival]
base = 8.0
amplitude = 0.3
period = 6

[shocks]
grid_width = 6
grid_height = 6
count = 4
multiplier_min = 0.3
multiplier_max = 0.8
duration_min = 2
duration_max = 5
region_width = 3
region_height = 3

[strategy]
epsilons = [0.5, 0.1, 0.01]
deviators = 3
"#,
    )
    .expect("fixture parses");
    let report = check_online_sp(&scenario, 1e-6).expect("twins run");
    assert_eq!(report.checked, 12);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn the_assertion_demonstrably_trips_on_a_broken_quote() {
    // Mutation check: the SP verdict is a pure function of the two
    // issued quotes. If a (hypothetically broken) engine ever paid a
    // deviator more than her truthful twin, the oracle MUST fire.
    let truthful = Some((11.0, 1.0));
    let sweetened = Some((11.5, 1.5)); // +0.5 on both branches
    let tripped = deviation_gain(truthful, sweetened, 0.6, 2.0, 1e-6);
    let (truthful_eu, deviating_eu) = tripped.expect("sweetened quote must trip the oracle");
    assert!((deviating_eu - truthful_eu - 0.5).abs() < 1e-12);

    // Winning from nothing at a cost-covering quote must trip too.
    assert!(deviation_gain(None, Some((30.0, 10.0)), 0.5, 2.0, 1e-6).is_some());

    // And the identical quote never trips — the no-false-positive side.
    assert!(deviation_gain(truthful, truthful, 0.6, 2.0, 1e-6).is_none());
}
