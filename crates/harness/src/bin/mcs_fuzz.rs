//! `mcs-fuzz` — the scenario corpus, chaos included, against the auction
//! platform.
//!
//! Runs corpus scenarios — named, pinned-seed worlds under `scenarios/`:
//! diurnal and bursty arrivals, regional PoS shocks, strategic bidders,
//! admission control, closed-loop campaigns, and `[chaos]` fault plans —
//! through a real engine, oracle-checks every surviving round against the
//! paper's economic invariants, and holds each run to its pinned
//! `[baseline]`. Exits non-zero on any violation, so it slots straight
//! into CI.
//!
//! ```text
//! mcs-fuzz [--scenario NAME|PATH|all] [--seed S] [--verify-determinism]
//!          [--record-trace FILE] [--replay-trace FILE] [--print-baseline]
//!          [--cluster] [--nodes N] [--bands B]
//! ```
//!
//! * `--scenario` a corpus name, a `.toml` path, or `all` for the whole
//!   corpus (default `all`). Each scenario runs through the scenario
//!   driver and is checked against its pinned `[baseline]` (missing
//!   baseline = failure); scenarios with a `[strategy]` section also run
//!   the online SP twin sweep.
//! * `--seed` re-seeds every scenario run for exploration: arrivals,
//!   draws, shocks, execution draws and a drawn `[chaos]` plan follow the
//!   new seed. The pinned baseline belongs to the scenario's own seed, so
//!   it is skipped, and the run says so.
//! * `--verify-determinism` re-runs each scenario at several worker ×
//!   payment-thread combinations (kernel profiling on) and requires
//!   identical fingerprints and totals
//! * `--record-trace FILE` write the run's checksummed drive log
//! * `--replay-trace FILE` replay a recorded log instead of generating
//!   bids; the outcome must still match the pinned baseline bitwise
//! * `--print-baseline` print the observed `[baseline]` block (for
//!   pinning new or re-versioned scenarios) instead of enforcing one
//! * `--cluster` deployment mode: runs the `--scenario` target through
//!   `mcs-cluster` deployments and requires (a) 1-node and
//!   `--nodes`-node loopback runs to produce bitwise-identical
//!   fingerprints, (b) the in-process `mcs_cluster::ground_truth` to
//!   agree, and (c) the three cluster chaos campaigns to hold: node
//!   loss fails over with an unchanged fingerprint, partition
//!   quarantines the round with a complete post-mortem, duplicate
//!   delivery is absorbed bit for bit. Add `--verify-determinism` to
//!   widen the node matrix and run the loopback-vs-TCP transport
//!   equivalence check over real ephemeral-port sockets.
//! * `--nodes` cluster node count for `--cluster` (default 3)
//! * `--bands` region bands (= shards) for `--cluster` (default 6, at most 8)
//!
//! Bad input exits 2 before anything runs: an unknown flag, an
//! unparsable value, more `--bands` than the cluster grid has columns, or
//! `--record-trace` / `--replay-trace` with `--scenario all` or with a
//! scenario that records no replayable trace (campaign mode, `[chaos]`).
//!
//! A failing run is reproduced by re-running with the same `--scenario`
//! and `--seed`; the fingerprint printed must match bitwise.

use std::process::ExitCode;
use std::time::Instant;

use mcs_cluster::ground_truth;
use mcs_harness::cluster::GRID_WIDTH;
use mcs_harness::prelude::*;
use mcs_harness::scenario::ScenarioMode;
use mcs_obs::replay::ReplayLog;

struct Options {
    scenario: String,
    seed: Option<u64>,
    verify_determinism: bool,
    record_trace: Option<String>,
    replay_trace: Option<String>,
    print_baseline: bool,
    cluster: bool,
    nodes: u32,
    bands: u32,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut options = Options {
            scenario: "all".to_string(),
            seed: None,
            verify_determinism: false,
            record_trace: None,
            replay_trace: None,
            print_baseline: false,
            cluster: false,
            nodes: 3,
            bands: 6,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value =
                |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
            match arg.as_str() {
                "--scenario" => options.scenario = value("--scenario")?,
                "--seed" => options.seed = Some(parse(&value("--seed")?)?),
                "--verify-determinism" => options.verify_determinism = true,
                "--record-trace" => options.record_trace = Some(value("--record-trace")?),
                "--replay-trace" => options.replay_trace = Some(value("--replay-trace")?),
                "--print-baseline" => options.print_baseline = true,
                "--cluster" => options.cluster = true,
                "--nodes" => options.nodes = parse(&value("--nodes")?)?,
                "--bands" => options.bands = parse(&value("--bands")?)?,
                "--help" | "-h" => {
                    return Err("usage: mcs-fuzz [--scenario NAME|PATH|all] [--seed S] \
                         [--verify-determinism] [--record-trace FILE] [--replay-trace FILE] \
                         [--print-baseline] [--cluster] [--nodes N] [--bands B]"
                        .to_string())
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if options.bands > GRID_WIDTH {
            return Err(format!(
                "--bands expects at most {GRID_WIDTH} (the cluster grid's width), got {}",
                options.bands
            ));
        }
        if options.record_trace.is_some() || options.replay_trace.is_some() {
            if options.scenario == "all" {
                return Err(
                    "--record-trace and --replay-trace take one scenario, not --scenario all"
                        .to_string(),
                );
            }
            mcs_harness::scenario::load(&options.scenario)
                .and_then(|scenario| scenario.traceable())
                .map_err(|error| format!("--record-trace / --replay-trace: {error}"))?;
        }
        Ok(options)
    }
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("could not parse {text:?}"))
}

/// Prints a mode's closing line and maps its verdict to the exit code.
fn verdict(ok: bool, mode: &str, success: &str) -> ExitCode {
    if ok {
        println!("{mode}: {success}");
        ExitCode::SUCCESS
    } else {
        eprintln!("{mode}: FAILED");
        ExitCode::FAILURE
    }
}

/// Re-runs a workload at each `(workers, payment_threads)` cell. `run`
/// returns the cell's fingerprint, or what else broke; every cell must
/// reproduce `reference`. Returns whether all of them did.
fn sweep(
    cells: &[(usize, usize)],
    reference: u64,
    mut run: impl FnMut(usize, usize) -> Result<u64, String>,
) -> bool {
    let mut ok = true;
    for &(workers, payment_threads) in cells {
        let problem = match run(workers, payment_threads) {
            Ok(fingerprint) if fingerprint == reference => continue,
            Ok(fingerprint) => {
                format!("fingerprint {fingerprint:016x} != reference {reference:016x}")
            }
            Err(problem) => problem,
        };
        eprintln!(
            "  DETERMINISM BROKEN: workers={workers} payment_threads={payment_threads} {problem}"
        );
        ok = false;
    }
    ok
}

/// Runs a scenario, or replays the drive log recorded at `replay`.
fn scenario_outcome(scenario: &Scenario, replay: Option<&str>) -> Result<ScenarioOutcome, String> {
    let Some(path) = replay else {
        return run_scenario(scenario).map_err(|error| format!("run failed: {error}"));
    };
    let bytes = std::fs::read(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    let log =
        ReplayLog::from_bytes(&bytes).map_err(|error| format!("corrupt trace {path}: {error}"))?;
    replay_scenario(scenario, &log).map_err(|error| format!("replay failed: {error}"))
}

/// Runs one corpus scenario end to end: drive (or replay a recorded
/// trace), enforce the pinned baseline, optionally sweep the
/// determinism matrix, and — when the scenario schedules strategic
/// bidders — run the online strategy-proofness twins. Returns whether
/// everything held.
fn run_scenario_cli(scenario: &Scenario, options: &Options) -> bool {
    let start = Instant::now();
    let outcome = match scenario_outcome(scenario, options.replay_trace.as_deref()) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("scenario[{}]: {error}", scenario.name);
            return false;
        }
    };
    println!(
        "scenario[{} v{}]: {} rounds cleared · {} submitted, {} admitted, {} shed, \
         {} rejected, {} quarantined · paid {:.3} · fingerprint {:016x} · {:.2?}",
        scenario.name,
        scenario.version,
        outcome.rounds_cleared,
        outcome.bids_submitted,
        outcome.admitted,
        outcome.sheds,
        outcome.rejections,
        outcome.quarantined,
        outcome.payment_total,
        outcome.fingerprint(),
        start.elapsed()
    );
    if scenario.mode == ScenarioMode::Platform {
        let drive = &outcome.drive;
        println!(
            "  drive: {} faults armed, {} rebuilds, {} partial rounds deferring {} bidders, \
             max backlog {} · drive fingerprint {:016x}",
            drive.faults_armed,
            drive.rebuilds,
            drive.partial_rounds,
            drive.deferred,
            drive.max_backlog,
            drive.fingerprint()
        );
    }
    let mut ok = outcome.is_clean();
    for violation in &outcome.drive.violations {
        eprintln!("  VIOLATION: {violation}");
    }
    for violation in &outcome.campaign_violations {
        eprintln!("  VIOLATION: {violation}");
    }

    if let Some(path) = &options.record_trace {
        if let Err(error) = std::fs::write(path, outcome.log.to_bytes()) {
            eprintln!("  TRACE: cannot write {path}: {error}");
            ok = false;
        } else {
            println!(
                "  trace: {} ops ({} submits) recorded to {path}",
                outcome.log.ops.len(),
                outcome.log.submit_count()
            );
        }
    }

    if options.print_baseline {
        println!("{}", outcome.baseline().to_toml());
        return ok;
    }
    match (&scenario.baseline, options.seed) {
        (_, Some(seed)) => println!("  baseline: re-seeded to {seed}, pinned baseline skipped"),
        (Some(pinned), None) => {
            if let Err(error) = pinned.check(&scenario.name, &outcome.baseline()) {
                eprintln!("  BASELINE: {error}");
                ok = false;
            }
        }
        (None, None) => {
            eprintln!(
                "  BASELINE: scenario {:?} has no pinned [baseline]; run \
                 `mcs-fuzz --scenario {} --print-baseline` and commit the block",
                scenario.name, scenario.name
            );
            ok = false;
        }
    }

    if options.verify_determinism {
        let cells = [(1, 1), (2, 4), (8, 1), (8, 4)];
        ok &= sweep(&cells, outcome.fingerprint(), |workers, payment_threads| {
            let options = RunOptions {
                workers: Some(workers),
                payment_threads: Some(payment_threads),
                deviate: false,
                profiling: true,
            };
            let variant = run_scenario_with(scenario, &options)
                .map_err(|error| format!("variant run failed: {error}"))?;
            // Fingerprints alone once hid a profiled-cell gap: every
            // sweep cell must ALSO reproduce the pinned totals bit for
            // bit, profiling on or off.
            if variant.payment_total.to_bits() != outcome.payment_total.to_bits() {
                return Err(format!(
                    "payment total {:?} != reference {:?}",
                    variant.payment_total, outcome.payment_total
                ));
            }
            if let Some(pinned) = &scenario.baseline {
                pinned
                    .check(&scenario.name, &variant.baseline())
                    .map_err(|error| format!("baseline: {error}"))?;
            }
            // The drive fingerprint also covers every quarantine record
            // and the partial-clear, backlog and rebuild counters.
            let (drive, reference) = (variant.drive.fingerprint(), outcome.drive.fingerprint());
            if drive != reference {
                return Err(format!(
                    "drive fingerprint {drive:016x} != reference {reference:016x}"
                ));
            }
            Ok(variant.fingerprint())
        });
    }

    if scenario.strategy.is_some() && options.replay_trace.is_none() {
        match check_online_sp(scenario, 1e-6) {
            Ok(report) => {
                println!(
                    "  online SP: {} deviations played, {} profitable",
                    report.checked,
                    report.violations.len()
                );
                for violation in &report.violations {
                    eprintln!("  SP VIOLATION: {violation}");
                }
                if !report.is_clean() || !report.deviating.is_clean() {
                    ok = false;
                }
            }
            Err(error) => {
                eprintln!("  SP: twin sweep failed: {error}");
                ok = false;
            }
        }
    }
    ok
}

/// Resolves `--scenario` — a corpus name, a `.toml` path, or `all` — and
/// runs `each` on every scenario it names, re-seeded by `--seed` (which
/// drops the pinned baseline: it belongs to the scenario's own seed).
/// Returns how many scenarios ran and whether every one loaded and held;
/// an empty corpus fails.
fn for_each_scenario(
    mode: &str,
    options: &Options,
    mut each: impl FnMut(&Scenario) -> bool,
) -> (usize, bool) {
    let target = options.scenario.as_str();
    let targets: Vec<String> = if target == "all" {
        match mcs_harness::scenario::corpus_paths() {
            Ok(paths) => paths
                .iter()
                .map(|path| path.display().to_string())
                .collect(),
            Err(error) => {
                eprintln!("{mode}: {error}");
                return (0, false);
            }
        }
    } else {
        vec![target.to_string()]
    };
    if targets.is_empty() {
        eprintln!("{mode}: corpus is empty");
        return (0, false);
    }
    let (mut ran, mut ok) = (0, true);
    for target in &targets {
        match mcs_harness::scenario::load(target) {
            Ok(mut scenario) => {
                if let Some(seed) = options.seed {
                    scenario.seed = seed;
                    scenario.baseline = None;
                }
                ran += 1;
                ok &= each(&scenario);
            }
            Err(error) => {
                eprintln!("{mode}[{target}]: {error}");
                ok = false;
            }
        }
    }
    (ran, ok)
}

/// One cluster chaos campaign: the claim it upholds, its fault schedule,
/// and the check of the claim on the run.
type ChaosCase<'a> = (String, &'a [(u64, Fault)], &'a dyn Fn(&ClusterRun) -> bool);

/// Runs one scenario through the full cluster battery: 1-node vs N-node
/// equivalence, the mirror oracle, the three chaos campaigns, and (with
/// `--verify-determinism`) a wider node matrix plus loopback-vs-TCP
/// transport equivalence. Returns whether everything held.
fn run_cluster_cli(scenario: &Scenario, options: &Options) -> bool {
    let (nodes, bands) = (options.nodes.max(1), options.bands.max(1));
    let start = Instant::now();
    let run = |nodes: u32, plan: &FaultPlan| run_cluster_scenario(scenario, nodes, bands, plan);
    let fault_free = FaultPlan::new();
    let (single, deployed) = match (run(1, &fault_free), run(nodes, &fault_free)) {
        (Ok(single), Ok(deployed)) => (single.fingerprint, deployed.fingerprint),
        (Err(error), _) | (_, Err(error)) => {
            eprintln!("cluster[{}]: fault-free run failed: {error}", scenario.name);
            return false;
        }
    };
    println!(
        "cluster[{} v{}]: {} rounds · {bands} bands · 1-node {single:016x} vs {nodes}-node \
         {deployed:016x} · {:.2?}",
        scenario.name,
        scenario.version,
        scenario.rounds,
        start.elapsed()
    );

    // Every other fault-free deployment, and the in-process mirror, must
    // reproduce the 1-node run bitwise.
    let mirror = ground_truth(
        &scenario_topology(scenario, bands),
        scenario_params(scenario),
        &scenario_rounds(scenario),
    )
    .fingerprint();
    let mut equivalent = vec![
        (format!("{nodes}-node"), Ok(deployed)),
        ("mirror".to_string(), Ok(mirror)),
    ];
    if options.verify_determinism {
        for other in [2u32, 4, 8].into_iter().filter(|&other| other != nodes) {
            let fingerprint = run(other, &fault_free).map(|run| run.fingerprint);
            equivalent.push((format!("{other}-node"), fingerprint));
        }
        let tcp = run_cluster_scenario_tcp(scenario, nodes, bands).map(|run| run.fingerprint);
        equivalent.push(("TCP".to_string(), tcp));
    }
    let mut ok = true;
    for (deployment, fingerprint) in equivalent {
        match fingerprint {
            Ok(fingerprint) if fingerprint == single => {}
            Ok(fingerprint) => {
                eprintln!(
                    "  EQUIVALENCE BROKEN: {deployment} fingerprint {fingerprint:016x} \
                     != 1-node {single:016x}"
                );
                ok = false;
            }
            Err(error) => {
                eprintln!("  EQUIVALENCE: {deployment} run failed: {error}");
                ok = false;
            }
        }
    }

    // Chaos: node loss must fail over with an unchanged fingerprint, a
    // partition must quarantine its round with a typed post-mortem (never
    // silently diverge), and duplicate delivery must be absorbed by the
    // idempotency cache.
    let target = busy_node(scenario, nodes, bands);
    let battery: [ChaosCase; 3] = [
        (
            format!("node loss: node {target} promoted its follower, fingerprint unchanged"),
            &[(1, Fault::NodeLoss(target))],
            &|run| run.promoted_nodes().contains(&target) && run.fingerprint == single,
        ),
        (
            "partition: round 1 quarantined with a typed post-mortem".to_string(),
            &[(1, Fault::NetPartition(target))],
            &|run| {
                run.outcome
                    .quarantines
                    .iter()
                    .any(|q| q.round == 1 && q.post_mortem.contains("\"cause\":\"partition\""))
            },
        ),
        (
            "duplicate delivery: absorbed, fingerprint unchanged".to_string(),
            &[(0, Fault::DuplicateDelivery), (2, Fault::DuplicateDelivery)],
            &|run| run.fingerprint == single,
        ),
    ];
    for (claim, schedule, holds) in battery {
        let mut plan = FaultPlan::new();
        for &(round, fault) in schedule {
            plan.schedule(round, fault);
        }
        match run(nodes, &plan) {
            Ok(run) if holds(&run) => println!("  {claim}"),
            Ok(run) => {
                eprintln!(
                    "  CHAOS BROKEN: expected {claim}; got fingerprint {:016x}, promoted {:?}, \
                     {} round(s) quarantined",
                    run.fingerprint,
                    run.promoted_nodes(),
                    run.quarantined_rounds()
                );
                ok = false;
            }
            Err(error) => {
                eprintln!("  CHAOS: {claim}: campaign failed: {error}");
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let options = match Options::parse() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    // Deployment mode: every scenario `--scenario` names through the
    // cluster battery. Corpus mode: through the scenario driver.
    if options.cluster {
        let (ran, ok) = for_each_scenario("cluster", &options, |scenario| {
            run_cluster_cli(scenario, &options)
        });
        let success =
            format!("{ran} scenarios deployment-invariant, chaos survived, mirrors agree");
        return verdict(ok, "cluster", &success);
    }
    let (_, ok) = for_each_scenario("scenario", &options, |scenario| {
        run_scenario_cli(scenario, &options)
    });
    verdict(
        ok,
        "scenario",
        "corpus clean, baselines pinned, mechanism truthful",
    )
}
