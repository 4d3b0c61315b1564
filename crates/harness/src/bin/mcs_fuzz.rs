//! `mcs-fuzz` — seeded chaos campaigns against the auction platform.
//!
//! Synthesizes a faulted bid stream from a seed, drives it through a real
//! engine, and oracle-checks every surviving round against the paper's
//! economic invariants. Exits non-zero on any violation, so it slots
//! straight into CI.
//!
//! ```text
//! mcs-fuzz [--seed S] [--rounds N] [--faults F] [--tasks T] [--bids B]
//!          [--workers W] [--payment-threads P] [--drain-every D]
//!          [--verify-determinism] [--ci-smoke] [--soak] [--campaign]
//!          [--scenario NAME|PATH|all] [--record-trace FILE]
//!          [--replay-trace FILE] [--print-baseline]
//!          [--cluster] [--nodes N] [--bands B]
//! ```
//!
//! * `--seed`    campaign seed: bid stream, fault plan, execution draws (default 1)
//! * `--rounds`  logical rounds to synthesize (default 60)
//! * `--faults`  fault intensity: per-round fault probability in [0, 1] (default 0.35)
//! * `--tasks`   published tasks per round; 1 = FPTAS, >1 = greedy (default 1)
//! * `--bids`    well-formed bids per round (default 8)
//! * `--workers` shard workers (default 4)
//! * `--payment-threads` per-round payment fan-out (default 1)
//! * `--drain-every`     drain cadence in logical rounds (default 4)
//! * `--verify-determinism` re-run at several worker/payment-thread
//!   combinations and require identical fingerprints
//! * `--ci-smoke` run the fixed CI campaign matrix (<30 s) and exit
//!   non-zero on any violation or fingerprint mismatch
//! * `--soak` sustained-overload mode: every logical round arrives 10×
//!   oversubscribed against tail-drop admission and a clearing budget.
//!   Asserts the memory proxies stay bounded (backlog never exceeds the
//!   high watermark, the trace ring never wraps), that sheds happen and
//!   are fully accounted, that over-budget rounds partially clear, and
//!   that fingerprints stay bitwise identical across worker counts.
//!   Combine with `--ci-smoke` for the shortened CI variant.
//! * `--campaign` closed-loop mode: drives seeded *auction* campaigns
//!   (`mcs-campaign` residual re-auction loops) across a matrix of
//!   execution-failure rates, with and without chaos faults (report
//!   flips, shard panics, queue reorders) layered on top, and asserts
//!   the closed-loop oracles — residual monotonicity, termination,
//!   calibration sanity, payout conservation — plus bitwise fingerprint
//!   determinism across worker/payment-thread counts. Combine with
//!   `--ci-smoke` for the shortened CI variant.
//! * `--scenario` corpus mode: runs a named scenario from `scenarios/`
//!   (or a `.toml` path, or `all` for the whole corpus) through the
//!   scenario driver — diurnal/bursty arrivals, regional PoS shocks,
//!   strategic populations — and checks the outcome against the
//!   scenario's pinned `[baseline]` (missing baseline = failure).
//!   Scenarios with a `[strategy]` section also run the online SP twin
//!   sweep. Add `--verify-determinism` for the worker × payment-thread
//!   fingerprint matrix.
//! * `--cluster` deployment mode: runs every pinned corpus scenario
//!   through `mcs-cluster` deployments and requires (a) 1-node and
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
//! * `--record-trace FILE` write the run's checksummed drive log
//! * `--replay-trace FILE` replay a recorded log instead of generating
//!   bids; the outcome must still match the pinned baseline bitwise
//! * `--print-baseline` print the observed `[baseline]` block (for
//!   pinning new or re-versioned scenarios) instead of enforcing one
//!
//! Bad input — an unknown flag, an unparsable value, `--tasks 0` or
//! `--bids 0`, more `--bands` than the cluster grid has columns, or
//! `--record-trace` / `--replay-trace` with `--scenario all` — exits 2.
//!
//! A failing campaign is reproduced by re-running with the same `--seed`,
//! `--rounds`, `--faults`, and `--tasks`; the fingerprint printed at the
//! end must match bitwise.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mcs_campaign::prelude::{CampaignRunner, SyntheticBidSource};
use mcs_cluster::ground_truth;
use mcs_core::types::{Task, TaskId};
use mcs_harness::cluster::GRID_WIDTH;
use mcs_harness::prelude::*;
use mcs_obs::replay::ReplayLog;
use mcs_platform::batch::RoundId;
use mcs_platform::config::{AdmissionConfig, EngineConfig, ShedPolicy};

// mcs-campaign's config — aliased because the chaos harness already
// says `CampaignConfig` for a *fault* campaign.
use mcs_campaign::prelude::CampaignConfig as LoopConfig;

struct Options {
    /// `--seed`, `--rounds`, `--tasks`, `--bids`, `--workers`,
    /// `--payment-threads` and `--drain-every`.
    campaign: CampaignConfig,
    faults: f64,
    verify_determinism: bool,
    ci_smoke: bool,
    soak: bool,
    campaign_loop: bool,
    scenario: Option<String>,
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
            campaign: CampaignConfig {
                seed: 1,
                rounds: 60,
                ..CampaignConfig::default()
            },
            faults: 0.35,
            verify_determinism: false,
            ci_smoke: false,
            soak: false,
            campaign_loop: false,
            scenario: None,
            record_trace: None,
            replay_trace: None,
            print_baseline: false,
            cluster: false,
            nodes: 3,
            bands: 6,
        };
        let campaign = &mut options.campaign;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value =
                |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
            match arg.as_str() {
                "--seed" => campaign.seed = parse(&value("--seed")?)?,
                "--rounds" => campaign.rounds = parse(&value("--rounds")?)?,
                "--faults" => options.faults = parse(&value("--faults")?)?,
                "--tasks" => campaign.task_count = parse(&value("--tasks")?)?,
                "--bids" => campaign.bids_per_round = parse(&value("--bids")?)?,
                "--workers" => campaign.workers = parse(&value("--workers")?)?,
                "--payment-threads" => {
                    campaign.payment_threads = parse(&value("--payment-threads")?)?
                }
                "--drain-every" => campaign.drain_every = parse(&value("--drain-every")?)?,
                "--verify-determinism" => options.verify_determinism = true,
                "--ci-smoke" => options.ci_smoke = true,
                "--soak" => options.soak = true,
                "--campaign" => options.campaign_loop = true,
                "--scenario" => options.scenario = Some(value("--scenario")?),
                "--record-trace" => options.record_trace = Some(value("--record-trace")?),
                "--replay-trace" => options.replay_trace = Some(value("--replay-trace")?),
                "--print-baseline" => options.print_baseline = true,
                "--cluster" => options.cluster = true,
                "--nodes" => options.nodes = parse(&value("--nodes")?)?,
                "--bands" => options.bands = parse(&value("--bands")?)?,
                "--help" | "-h" => {
                    return Err("usage: mcs-fuzz [--seed S] [--rounds N] [--faults F] \
                         [--tasks T] [--bids B] [--workers W] [--payment-threads P] \
                         [--drain-every D] [--verify-determinism] [--ci-smoke] [--soak] \
                         [--campaign] [--scenario NAME|PATH|all] [--record-trace FILE] \
                         [--replay-trace FILE] [--print-baseline] \
                         [--cluster] [--nodes N] [--bands B]"
                        .to_string())
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !(0.0..=1.0).contains(&options.faults) {
            return Err(format!(
                "--faults expects a probability in [0, 1], got {}",
                options.faults
            ));
        }
        if options.campaign.task_count == 0 || options.campaign.bids_per_round == 0 {
            return Err("--tasks and --bids expect at least 1".to_string());
        }
        if options.bands > GRID_WIDTH {
            return Err(format!(
                "--bands expects at most {GRID_WIDTH} (the cluster grid's width), got {}",
                options.bands
            ));
        }
        if options.scenario.as_deref() == Some("all")
            && (options.record_trace.is_some() || options.replay_trace.is_some())
        {
            return Err(
                "--record-trace and --replay-trace take one scenario, not --scenario all"
                    .to_string(),
            );
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

/// Runs one campaign, prints its summary, and checks it: clean, inside
/// the observability contract, and (with `determinism`) bitwise
/// identical across worker/payment-thread combinations. Returns the
/// outcome and whether all of that held.
///
/// The observability contract: the flight recorder stays inside its
/// fixed allocation and never wraps, so no round's evidence is lost.
/// (The drive itself checks every quarantine's post-mortem complete.)
fn run_one(
    config: &CampaignConfig,
    plan: &FaultPlan,
    label: &str,
    determinism: bool,
) -> (CampaignOutcome, bool) {
    let start = Instant::now();
    let outcome = run_campaign(config, plan);
    println!(
        "{label}: seed {} · {} logical rounds · {} faults planned · \
         {} cleared, {} quarantined, {} bids rejected, {} shed, {} rebuilds · \
         fingerprint {:016x} · {:.2?}",
        config.seed,
        config.rounds,
        plan.fault_count(),
        outcome.results.len(),
        outcome.quarantine.len(),
        outcome.rejections,
        outcome.sheds,
        outcome.rebuilds,
        outcome.fingerprint(),
        start.elapsed()
    );
    println!(
        "  trace: {} events into a {}-slot ring (wrapped: {}) · {} post-mortems",
        outcome.trace_events,
        outcome.trace_capacity,
        outcome.trace_wrapped,
        outcome.post_mortems.len(),
    );
    for violation in &outcome.violations {
        eprintln!("  VIOLATION: {violation}");
    }
    let mut ok = outcome.is_clean();
    let configured = config.engine_config(plan).trace.capacity;
    if outcome.trace_capacity != configured {
        eprintln!(
            "  OBSERVABILITY: ring capacity {} != configured {configured}",
            outcome.trace_capacity
        );
        ok = false;
    }
    if outcome.trace_wrapped {
        eprintln!(
            "  OBSERVABILITY: ring wrapped ({} events into {} slots) — undersized",
            outcome.trace_events, outcome.trace_capacity
        );
        ok = false;
    }
    if determinism {
        let cells = [(1, 1), (2, 3), (8, 2)];
        ok &= sweep(&cells, outcome.fingerprint(), |workers, payment_threads| {
            let variant = CampaignConfig {
                workers,
                payment_threads,
                ..config.clone()
            };
            Ok(run_campaign(&variant, plan).fingerprint())
        });
    }
    (outcome, ok)
}

/// Sustained-overload soak: every logical round arrives 10×
/// oversubscribed against tail-drop admission with a clearing budget two
/// bids under round capacity, so both sheds and deadline-aware partial
/// clears fire continuously. Asserts the conservation oracle held (the
/// campaign is clean), that the memory proxies stayed bounded — backlog
/// never above the high watermark, trace ring never wrapped — and that
/// fingerprints are bitwise identical across worker counts with
/// shedding engaged.
fn soak(options: &Options) -> ExitCode {
    const FACTOR: u32 = 10;
    let mut config = options.campaign.clone();
    if options.ci_smoke {
        config.rounds = 16;
    }
    config.admission = AdmissionConfig {
        high_watermark: 4 * config.bids_per_round,
        low_watermark: 2 * config.bids_per_round,
        policy: ShedPolicy::TailDrop,
        clear_budget: config.bids_per_round.saturating_sub(2).max(2),
    };
    let mut plan = FaultPlan::new();
    for round in 0..config.rounds {
        plan.schedule(round, Fault::Oversubscribe(FACTOR));
    }

    let (outcome, mut ok) = run_one(&config, &plan, "soak", true);
    println!(
        "  overload: {} shed, max backlog {} (watermark {}), \
         {} partial rounds deferring {} bidders",
        outcome.sheds,
        outcome.max_backlog,
        config.admission.high_watermark,
        outcome.partial_rounds,
        outcome.deferred,
    );
    if outcome.sheds == 0 {
        eprintln!("  SOAK: {FACTOR}x oversubscription shed no bids");
        ok = false;
    }
    if outcome.max_backlog > config.admission.high_watermark {
        eprintln!(
            "  SOAK: backlog reached {} — tail-drop must bound it at {}",
            outcome.max_backlog, config.admission.high_watermark
        );
        ok = false;
    }
    if outcome.partial_rounds == 0 {
        eprintln!("  SOAK: no round exceeded the clearing budget");
        ok = false;
    }
    verdict(
        ok,
        "soak",
        "overload stayed bounded, accounted, and deterministic",
    )
}

/// The published task set every closed-loop fuzz campaign pursues.
fn loop_config(seed: u64, failure_rate: f64) -> LoopConfig {
    let tasks = vec![
        Task::with_requirement(TaskId::new(0), 0.95).unwrap(),
        Task::with_requirement(TaskId::new(1), 0.9).unwrap(),
        Task::with_requirement(TaskId::new(2), 0.85).unwrap(),
    ];
    let mut config = LoopConfig::new(EngineConfig::default().with_seed(seed), tasks, 24);
    config.failure_rate = failure_rate;
    config.failure_seed = seed ^ 0xFA11_FA11;
    config
}

/// A campaign runner, optionally with chaos faults layered over the
/// execution-failure stream. One campaign round is exactly one engine
/// round and a fresh run's ids start at 0, so the chaos rounds can be
/// armed up front.
fn loop_runner(config: LoopConfig, chaos: bool) -> CampaignRunner {
    if chaos {
        let injector = Arc::new(PlanInjector::new());
        injector.arm_flip(RoundId(1));
        injector.arm_reorder(RoundId(2));
        injector.arm_panic(RoundId(3));
        CampaignRunner::with_injector(config, injector)
    } else {
        CampaignRunner::new(config)
    }
}

/// Runs one closed-loop campaign, oracle-checks it, and verifies its
/// fingerprint is bitwise identical across worker/payment-thread
/// combinations. Returns whether everything held.
fn run_closed_loop(seed: u64, failure_rate: f64, chaos: bool) -> bool {
    const BIDDERS: u32 = 12;
    let start = Instant::now();
    let config = loop_config(seed, failure_rate);
    let budget = config.round_budget();
    let runner = loop_runner(config, chaos);
    let mut source = SyntheticBidSource::new(seed, BIDDERS);
    let report = runner.run(&mut source);
    let violations = check_campaign(&report, budget);
    println!(
        "campaign[seed={seed} rate={failure_rate} chaos={chaos}]: \
         {} rounds · covered {} · paid {:.3} · {} bids gated · \
         fingerprint {:016x} · {:.2?}",
        report.rounds_run(),
        report.covered,
        report.total_paid,
        report.rounds.iter().map(|r| r.bids_gated).sum::<usize>(),
        report.fingerprint(),
        start.elapsed()
    );
    let mut ok = violations.is_empty();
    for violation in &violations {
        eprintln!("  VIOLATION: {violation}");
    }
    if !chaos && !report.covered {
        eprintln!("  CAMPAIGN: residual re-auctions failed to reach coverage in {budget} rounds");
        ok = false;
    }
    let deterministic = sweep(
        &[(1, 1), (2, 3), (8, 2)],
        report.fingerprint(),
        |workers, payment_threads| {
            let mut variant = loop_config(seed, failure_rate);
            variant.engine = variant
                .engine
                .with_workers(workers)
                .with_payment_threads(payment_threads);
            let mut source = SyntheticBidSource::new(seed, BIDDERS);
            Ok(loop_runner(variant, chaos).run(&mut source).fingerprint())
        },
    );
    ok && deterministic
}

/// Closed-loop mode: a seeds × failure-rates × chaos matrix of auction
/// campaigns, each oracle-checked and determinism-verified.
fn closed_loop_fuzz(options: &Options) -> ExitCode {
    silence_injected_panics();
    let seeds: &[u64] = if options.ci_smoke {
        &[1, 7]
    } else {
        &[1, 7, 42, 99, 123]
    };
    let mut ok = true;
    for &seed in seeds {
        for rate in [0.0, 0.3, 0.6] {
            for chaos in [false, true] {
                ok &= run_closed_loop(seed, rate, chaos);
            }
        }
    }
    verdict(
        ok,
        "campaign",
        "every closed loop covered, clean, and deterministic",
    )
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
    let mut ok = outcome.is_clean();
    for violation in &outcome.violations {
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
    match &scenario.baseline {
        Some(pinned) => {
            if let Err(error) = pinned.check(&scenario.name, &outcome.baseline()) {
                eprintln!("  BASELINE: {error}");
                ok = false;
            }
        }
        None => {
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

/// Resolves `target` — a corpus name, a `.toml` path, or `all` — and runs
/// `each` on every scenario it names. Returns how many scenarios ran and
/// whether every one loaded and held; an empty corpus fails.
fn for_each_scenario(
    mode: &str,
    target: &str,
    mut each: impl FnMut(&Scenario) -> bool,
) -> (usize, bool) {
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
            Ok(scenario) => {
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

/// The fixed CI smoke matrix: a few seeds over both mechanism families,
/// each verified clean and bitwise identical across worker counts.
fn ci_smoke() -> ExitCode {
    let mut ok = true;
    for seed in [1u64, 7, 42] {
        for tasks in [1usize, 3] {
            let config = CampaignConfig {
                seed,
                rounds: 40,
                task_count: tasks,
                workers: 1,
                ..CampaignConfig::default()
            };
            let plan = FaultPlan::generate(seed, config.rounds, 0.35);
            let label = format!("smoke[seed={seed} tasks={tasks}]");
            ok &= run_one(&config, &plan, &label, true).1;
        }
    }
    verdict(ok, "ci-smoke", "all campaigns clean and deterministic")
}

fn main() -> ExitCode {
    let options = match Options::parse() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    // Deployment mode: the whole pinned corpus through the cluster
    // battery. Corpus mode: every scenario `--scenario` names.
    if options.cluster {
        let (ran, ok) = for_each_scenario("cluster", "all", |scenario| {
            run_cluster_cli(scenario, &options)
        });
        let success =
            format!("{ran} scenarios deployment-invariant, chaos survived, mirrors agree");
        return verdict(ok, "cluster", &success);
    }
    if let Some(target) = &options.scenario {
        let (_, ok) = for_each_scenario("scenario", target, |scenario| {
            run_scenario_cli(scenario, &options)
        });
        let success = "corpus clean, baselines pinned, mechanism truthful";
        return verdict(ok, "scenario", success);
    }
    if options.campaign_loop {
        return closed_loop_fuzz(&options);
    }
    if options.soak {
        return soak(&options);
    }
    if options.ci_smoke {
        return ci_smoke();
    }

    let config = &options.campaign;
    let plan = FaultPlan::generate(config.seed, config.rounds, options.faults);
    if run_one(config, &plan, "campaign", options.verify_determinism).1 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
