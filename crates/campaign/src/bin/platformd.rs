//! `platformd` — a load driver for the auction-serving engine and the
//! closed-loop campaign runner.
//!
//! In its default mode, synthesizes bid streams from `mcs-sim`'s
//! taxi-fleet population generator, pushes them through the engine, and
//! prints throughput plus the metrics snapshot. With `--campaign`, runs
//! a closed-loop campaign instead: outcome feedback, calibrated-PoS
//! admission gating, and residual re-auction until full coverage or the
//! budget runs out.
//!
//! With `--nodes N`, stands up an in-process geo-sharded cluster
//! instead: the city grid is split into vertical bands, tasks pin to
//! band regions, each round is routed, two-phase cleared, and settled by
//! the `mcs-cluster` coordinator over a loopback transport spanning `N`
//! nodes (each with a replicated follower). The run prints throughput
//! plus the deployment-invariant cluster fingerprint — the same seed at
//! `--nodes 1` and `--nodes 8` must print the same fingerprint.
//!
//! ```text
//! platformd [--rounds N] [--users N] [--workers N] [--seed S]
//!           [--multi TASKS] [--payment-threads N] [--paper]
//!           [--metrics-addr ADDR] [--snapshot-every ROUNDS]
//!           [--trace-capacity EVENTS] [--hold-ms MS]
//!           [--admission-high BIDS] [--admission-low BIDS]
//!           [--shed-policy tail-drop|seeded-uniform] [--shed-rate P]
//!           [--clear-budget BIDS] [--profile]
//!           [--slo-budget FILE] [--slo-baseline FILE]
//!           [--campaign] [--campaign-rounds N] [--campaign-deadline N]
//!           [--calibration off|history|mobility] [--failure-rate P]
//!           [--nodes N] [--bands N]
//! ```
//!
//! * `--rounds`  rounds to synthesize (default 200)
//! * `--users`   bidders per round (default 30)
//! * `--workers` shard workers (default 4)
//! * `--seed`    engine + stream seed (default 1)
//! * `--multi`   publish TASKS tasks per round instead of one
//! * `--payment-threads` threads per round for multi-task payments (default 1)
//! * `--paper`   use the test-scale data set instead of the reduced one
//! * `--metrics-addr` serve live telemetry over HTTP at ADDR (e.g.
//!   `127.0.0.1:9100`): `/metrics` is Prometheus text, `/metrics.json`
//!   the JSON snapshot
//! * `--snapshot-every` drain and print a compact metrics snapshot every
//!   ROUNDS synthesized rounds instead of only at exit
//! * `--trace-capacity` flight-recorder ring size in events (default
//!   16384; 0 disables tracing)
//! * `--hold-ms` keep the process (and the metrics endpoint) alive MS
//!   milliseconds after the run, so scrapers can read the final state
//! * `--admission-high` backlog (bids) at which load shedding engages
//!   (default 0 = admission control disabled)
//! * `--admission-low` backlog at which shedding disengages (default
//!   half of `--admission-high`)
//! * `--shed-policy` `tail-drop` (default) or `seeded-uniform`
//! * `--shed-rate` drop probability for `seeded-uniform` (default 0.5;
//!   the coin is seeded from `--seed`)
//! * `--clear-budget` per-round clearing budget in bids; larger rounds
//!   clear partially and quarantine the remainder (default 0 =
//!   unlimited)
//! * `--profile` drain the clearing kernel's profiling counters (heap
//!   pops, probes saved, index reuse, arena bytes) into `/metrics`;
//!   outcomes are bitwise identical either way
//! * `--slo-budget` open-loop only: load a JSON [`SloBudget`] and serve
//!   a live verdict at `/slo` (plus `/healthz`); breaches are recorded
//!   as trace events and printed at exit, and never alter clearing
//! * `--slo-baseline` pinned [`SloBaseline`] JSON for the drift budgets
//!   (overpayment ratio, coverage slack); without it drift budgets are
//!   skipped
//! * `--campaign` run one closed-loop campaign instead of the open-loop
//!   round stream; `--multi` (default 5 tasks) sizes the published task
//!   set, `--metrics-addr` serves `mcs_campaign_*` telemetry
//! * `--campaign-rounds` campaign round budget, initial + residual
//!   (default 16)
//! * `--campaign-deadline` optional slot deadline; each round consumes
//!   one slot, 0 disables (default 0)
//! * `--calibration` PoS calibration mode: `off`, `history` (default),
//!   or `mobility` (history blended with Markov-model visit predictions
//!   from the dataset)
//! * `--failure-rate` injected execution-failure probability (default 0)
//! * `--nodes` run the round stream through an `mcs-cluster` loopback
//!   deployment of N nodes instead of a single engine; prints per-node
//!   throughput and the deployment-invariant fingerprint (0 = off)
//! * `--bands` vertical grid bands (= region shards) for `--nodes`
//!   (default 8, the grid width)

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use mcs_campaign::prelude::*;
use mcs_cluster::{Cluster, ClusterConfig, ClusterParams, TaskSite, Topology};
use mcs_core::types::{Task, TaskId, UserId};
use mcs_mobility::grid::{Cell, CityGrid};
use mcs_mobility::serve::VisitOracle;
use mcs_obs::{merge_shard_traces, MetricsSource};
use mcs_platform::prelude::*;
use mcs_sim::config::{DatasetParams, SimParams};
use mcs_sim::population::{Dataset, Population, PopulationBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Options {
    rounds: usize,
    users: usize,
    workers: usize,
    seed: u64,
    multi: Option<usize>,
    payment_threads: usize,
    paper: bool,
    metrics_addr: Option<String>,
    snapshot_every: usize,
    trace_capacity: usize,
    hold_ms: u64,
    admission_high: usize,
    admission_low: Option<usize>,
    shed_policy: String,
    shed_rate: f64,
    clear_budget: usize,
    profile: bool,
    slo_budget: Option<String>,
    slo_baseline: Option<String>,
    campaign: bool,
    campaign_rounds: u64,
    campaign_deadline: u64,
    calibration: String,
    failure_rate: f64,
    nodes: u32,
    bands: usize,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut options = Options {
            rounds: 200,
            users: 30,
            workers: 4,
            seed: 1,
            multi: None,
            payment_threads: 1,
            paper: false,
            metrics_addr: None,
            snapshot_every: 0,
            trace_capacity: TraceConfig::default().capacity,
            hold_ms: 0,
            admission_high: 0,
            admission_low: None,
            shed_policy: "tail-drop".to_string(),
            shed_rate: 0.5,
            clear_budget: 0,
            profile: false,
            slo_budget: None,
            slo_baseline: None,
            campaign: false,
            campaign_rounds: 16,
            campaign_deadline: 0,
            calibration: "history".to_string(),
            failure_rate: 0.0,
            nodes: 0,
            bands: 8,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value =
                |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
            match arg.as_str() {
                "--rounds" => options.rounds = parse(&value("--rounds")?)?,
                "--users" => options.users = parse(&value("--users")?)?,
                "--workers" => options.workers = parse(&value("--workers")?)?,
                "--seed" => options.seed = parse(&value("--seed")?)?,
                "--multi" => options.multi = Some(parse(&value("--multi")?)?),
                "--payment-threads" => {
                    options.payment_threads = parse(&value("--payment-threads")?)?
                }
                "--paper" => options.paper = true,
                "--metrics-addr" => options.metrics_addr = Some(value("--metrics-addr")?),
                "--snapshot-every" => options.snapshot_every = parse(&value("--snapshot-every")?)?,
                "--trace-capacity" => options.trace_capacity = parse(&value("--trace-capacity")?)?,
                "--hold-ms" => options.hold_ms = parse(&value("--hold-ms")?)?,
                "--admission-high" => options.admission_high = parse(&value("--admission-high")?)?,
                "--admission-low" => {
                    options.admission_low = Some(parse(&value("--admission-low")?)?)
                }
                "--shed-policy" => options.shed_policy = value("--shed-policy")?,
                "--shed-rate" => options.shed_rate = parse(&value("--shed-rate")?)?,
                "--clear-budget" => options.clear_budget = parse(&value("--clear-budget")?)?,
                "--profile" => options.profile = true,
                "--slo-budget" => options.slo_budget = Some(value("--slo-budget")?),
                "--slo-baseline" => options.slo_baseline = Some(value("--slo-baseline")?),
                "--campaign" => options.campaign = true,
                "--campaign-rounds" => {
                    options.campaign_rounds = parse(&value("--campaign-rounds")?)?
                }
                "--campaign-deadline" => {
                    options.campaign_deadline = parse(&value("--campaign-deadline")?)?
                }
                "--calibration" => options.calibration = value("--calibration")?,
                "--failure-rate" => options.failure_rate = parse(&value("--failure-rate")?)?,
                "--nodes" => options.nodes = parse(&value("--nodes")?)?,
                "--bands" => options.bands = parse(&value("--bands")?)?,
                "--help" | "-h" => {
                    return Err("usage: platformd [--rounds N] [--users N] [--workers N] \
                         [--seed S] [--multi TASKS] [--payment-threads N] [--paper] \
                         [--metrics-addr ADDR] [--snapshot-every ROUNDS] \
                         [--trace-capacity EVENTS] [--hold-ms MS] \
                         [--admission-high BIDS] [--admission-low BIDS] \
                         [--shed-policy tail-drop|seeded-uniform] [--shed-rate P] \
                         [--clear-budget BIDS] [--profile] [--slo-budget FILE] \
                         [--slo-baseline FILE] [--campaign] [--campaign-rounds N] \
                         [--campaign-deadline N] [--calibration off|history|mobility] \
                         [--failure-rate P] [--nodes N] [--bands N]"
                        .to_string())
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(options)
    }

    /// The admission configuration the flags describe; the seeded coin
    /// reuses `--seed` so one flag pins the whole run.
    fn admission(&self) -> Result<AdmissionConfig, String> {
        let policy = match self.shed_policy.as_str() {
            "tail-drop" => ShedPolicy::TailDrop,
            "seeded-uniform" => ShedPolicy::SeededUniform(SeededUniform {
                seed: self.seed,
                rate: self.shed_rate,
            }),
            other => {
                return Err(format!(
                    "unknown shed policy {other:?} (expected tail-drop or seeded-uniform)"
                ))
            }
        };
        Ok(AdmissionConfig {
            high_watermark: self.admission_high,
            low_watermark: self.admission_low.unwrap_or(self.admission_high / 2),
            policy,
            clear_budget: self.clear_budget,
        })
    }

    fn engine_config(&self, sim: &SimParams) -> Result<EngineConfig, String> {
        let mut config = EngineConfig::default()
            .with_workers(self.workers)
            .with_seed(self.seed)
            .with_payment_threads(self.payment_threads)
            .with_admission(self.admission()?)
            .with_profiling(self.profile);
        config.batch.max_bids = self.users;
        config.alpha = sim.alpha;
        config.epsilon = sim.epsilon;
        config.trace.capacity = self.trace_capacity;
        Ok(config)
    }

    fn dataset_params(&self) -> DatasetParams {
        // A reduced fleet keeps the default run under a few seconds;
        // --paper switches to the scale the test suite uses.
        if self.paper {
            DatasetParams::small()
        } else {
            DatasetParams {
                taxi_count: 400,
                slots: 240,
                evaluation_slots: 24,
                ..DatasetParams::default()
            }
        }
    }
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("could not parse {text:?}"))
}

/// Loads the `--slo-budget` / `--slo-baseline` JSON pair, if given.
fn load_slo(options: &Options) -> Result<Option<(SloBudget, Option<SloBaseline>)>, String> {
    let Some(path) = &options.slo_budget else {
        if options.slo_baseline.is_some() {
            return Err("--slo-baseline needs --slo-budget".to_string());
        }
        return Ok(None);
    };
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    let budget: SloBudget =
        serde_json::from_str(&text).map_err(|error| format!("{path}: {error}"))?;
    let baseline = match &options.slo_baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|error| format!("cannot read {path}: {error}"))?;
            Some(serde_json::from_str(&text).map_err(|error| format!("{path}: {error}"))?)
        }
        None => None,
    };
    Ok(Some((budget, baseline)))
}

/// A fixed dataset-derived population re-bidding every campaign round.
/// Stable user identities across rounds are what make success history
/// (and therefore calibration) meaningful.
#[derive(Debug)]
struct PopulationBidSource {
    population: Population,
}

impl BidSource for PopulationBidSource {
    fn bids(&mut self, _round_index: u64, tasks: &[Task]) -> Vec<Bid> {
        let open: std::collections::BTreeSet<u32> =
            tasks.iter().map(|task| task.id().index() as u32).collect();
        self.population
            .profile
            .users()
            .iter()
            .filter_map(|user| {
                let tasks: Vec<(u32, f64)> = user
                    .tasks()
                    .filter(|(task, _)| open.contains(&(task.index() as u32)))
                    .map(|(task, pos)| (task.index() as u32, pos.value()))
                    .collect();
                (!tasks.is_empty()).then(|| Bid {
                    user: user.id().index() as u32,
                    cost: user.cost().value(),
                    tasks,
                })
            })
            .collect()
    }
}

/// Per-user any-task visit probabilities from the dataset's Markov
/// models, via the serving-path oracle.
fn mobility_evidence(
    dataset: &Dataset,
    population: &Population,
    task_count: usize,
) -> BTreeMap<UserId, f64> {
    let locations = dataset.campaign_locations(task_count);
    let horizon = dataset.params().evaluation_slots;
    let mut oracle = VisitOracle::new(dataset.models().clone(), horizon);
    let mut visits = BTreeMap::new();
    for (idx, &taxi) in population.taxis.iter().enumerate() {
        let Some(origin) = dataset.origin_of(taxi) else {
            continue;
        };
        let mut miss_all = 1.0;
        for &location in &locations {
            miss_all *= 1.0 - oracle.visit_probability(taxi, origin, location);
        }
        visits.insert(UserId::new(idx as u32), 1.0 - miss_all);
    }
    visits
}

fn run_campaign(options: &Options) -> ExitCode {
    let Some(mode) = CalibrationMode::parse(&options.calibration) else {
        eprintln!(
            "unknown calibration mode {:?} (expected off, history, or mobility)",
            options.calibration
        );
        return ExitCode::from(2);
    };
    let params = options.dataset_params();
    let sim = SimParams::default();

    let start = Instant::now();
    let dataset = Dataset::build(params);
    println!(
        "dataset: {} taxis, {} slots, built in {:.2?}",
        params.taxi_count,
        params.slots,
        start.elapsed()
    );
    let builder = PopulationBuilder::new(&dataset, sim);
    let task_count = options.multi.unwrap_or(5);
    let mut rng = StdRng::seed_from_u64(options.seed);
    let population = match builder.multi_task(task_count, options.users, &mut rng) {
        Ok(population) => population,
        Err(error) => {
            eprintln!("cannot build campaign population: {error}");
            return ExitCode::FAILURE;
        }
    };
    let tasks = population.profile.tasks().to_vec();

    let engine = match options.engine_config(&sim) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut config = CampaignConfig::new(engine, tasks, options.campaign_rounds);
    config.deadline = (options.campaign_deadline > 0).then_some(options.campaign_deadline);
    config.calibration.mode = mode;
    config.failure_rate = options.failure_rate;
    config.failure_seed = options.seed ^ 0xFA11_FA11;
    if mode == CalibrationMode::Mobility {
        config.mobility_visits = mobility_evidence(&dataset, &population, task_count);
        println!(
            "mobility: visit evidence registered for {} of {} users",
            config.mobility_visits.len(),
            options.users
        );
    }

    let runner = CampaignRunner::new(config);
    let server = match &options.metrics_addr {
        Some(addr) => match ExportServer::spawn(addr, runner.metrics_handle()) {
            Ok(server) => {
                println!(
                    "metrics: serving http://{0}/metrics (Prometheus) and http://{0}/metrics.json",
                    server.local_addr()
                );
                Some(server)
            }
            Err(error) => {
                eprintln!("cannot bind metrics endpoint {addr}: {error}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut source = PopulationBidSource { population };
    let campaign_start = Instant::now();
    let report = runner.run(&mut source);
    let elapsed = campaign_start.elapsed();

    for round in &report.rounds {
        println!(
            "round {:>2} (engine r{}): {} tasks open, {} bids ({} gated), \
             {} winners, {} succeeded, payout {:+.2}, residual {:.4} -> {:.4}{}",
            round.index,
            round.engine_round,
            round.residual_before.len(),
            round.bids_offered,
            round.bids_gated,
            round.winners.len(),
            round.successes(),
            round.payout,
            round.total_residual_before(),
            round.total_residual_after(),
            if round.quarantined {
                " [quarantined]"
            } else {
                ""
            },
        );
    }
    for post_mortem in &report.post_mortems {
        println!("post-mortem round {}:", post_mortem.round);
        println!("{}", post_mortem.to_json());
    }
    // Timing goes on its own line: the summary line must diff clean
    // between runs for the determinism contract.
    println!(
        "campaign: {} in {} rounds, paid {:.2}, social cost {:.2}, fingerprint {:016x}",
        if report.covered {
            "full coverage"
        } else {
            "budget exhausted"
        },
        report.rounds_run(),
        report.total_paid,
        report.total_social_cost,
        report.fingerprint()
    );
    println!("campaign: finished in {elapsed:.2?}");
    let metrics = runner.metrics_handle();
    println!(
        "calibration: {} decisions, {} gated, mean |divergence| {:.4}",
        report
            .rounds
            .iter()
            .map(|r| r.bids_offered as u64)
            .sum::<u64>(),
        metrics.gated_count(),
        metrics.mean_divergence()
    );
    println!("{}", metrics.json());
    if options.hold_ms > 0 {
        println!(
            "holding for {} ms so the metrics endpoint stays up",
            options.hold_ms
        );
        std::thread::sleep(std::time::Duration::from_millis(options.hold_ms));
    }
    drop(server);
    if report.covered {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Publishes `count` tasks spread across the grid's bands, so a
/// multi-band topology has work in several regions and (for users
/// bidding on task sets that span bands) a non-trivial straddler phase.
fn cluster_sites(count: usize, requirement: f64, grid: &CityGrid) -> Vec<TaskSite> {
    (0..count)
        .map(|i| TaskSite {
            task: Task::with_requirement(TaskId::new(i as u32), requirement)
                .expect("valid requirement"),
            cell: Cell {
                x: ((i * grid.width() as usize) / count) as u32,
                y: (i % grid.height() as usize) as u32,
            },
        })
        .collect()
}

fn run_cluster(options: &Options) -> ExitCode {
    let params = options.dataset_params();
    let sim = SimParams::default();
    let task_count = options.multi.unwrap_or(4);

    let start = Instant::now();
    let dataset = Dataset::build(params);
    println!(
        "dataset: {} taxis, {} slots, built in {:.2?}",
        params.taxi_count,
        params.slots,
        start.elapsed()
    );
    let builder = PopulationBuilder::new(&dataset, sim);

    let grid = CityGrid::new(8, 4, 1.0);
    let bands = options.bands.clamp(1, grid.width() as usize);
    let sites = cluster_sites(task_count, sim.pos_requirement, &grid);
    let topology = match Topology::bands(grid, bands, sites) {
        Ok(topology) => topology,
        Err(error) => {
            eprintln!("cannot build cluster topology: {error}");
            return ExitCode::from(2);
        }
    };
    let regions: Vec<u32> = topology.active_regions().collect();
    let cluster_params = ClusterParams {
        seed: options.seed,
        workers: options.workers,
        payment_threads: options.payment_threads,
        alpha: sim.alpha,
        epsilon: sim.epsilon,
        trace_capacity: options.trace_capacity,
    };
    let config = ClusterConfig::new(options.nodes).with_params(cluster_params);
    let mut cluster = Cluster::loopback(topology, config);
    println!(
        "cluster: {} nodes (replicated), {} bands, {} active region shards: {:?}",
        options.nodes,
        bands,
        regions.len(),
        regions
    );

    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut bids_total = 0u64;
    let mut rejected = 0u64;
    let mut shards_cleared = 0u64;
    let mut quarantined = 0u64;
    let run_start = Instant::now();
    for round in 0..options.rounds {
        let population = match builder.multi_task(task_count, options.users, &mut rng) {
            Ok(population) => population,
            Err(error) => {
                eprintln!("round {round}: cannot build population: {error}");
                return ExitCode::FAILURE;
            }
        };
        let bids: Vec<Bid> = population
            .profile
            .users()
            .iter()
            .map(|user| Bid {
                user: user.id().index() as u32,
                cost: user.cost().value(),
                tasks: user
                    .tasks()
                    .map(|(task, pos)| (task.index() as u32, pos.value()))
                    .collect(),
            })
            .collect();
        bids_total += bids.len() as u64;
        match cluster.run_round(&bids) {
            Ok(report) => {
                rejected += report.rejected as u64;
                shards_cleared += report.cleared_shards.len() as u64;
                quarantined += u64::from(report.quarantined);
            }
            Err(error) => {
                eprintln!("round {round}: cluster error: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed = run_start.elapsed();
    println!(
        "cluster: {} rounds ({} sub-round clears) over {} nodes in {:.2?} \
         ({:.0} bids/s), {} bids ({} rejected), {} rounds quarantined",
        options.rounds,
        shards_cleared,
        options.nodes,
        elapsed,
        bids_total as f64 / elapsed.as_secs_f64(),
        bids_total,
        rejected,
        quarantined
    );
    let merged = merge_shard_traces(&cluster.shard_traces());
    println!(
        "trace: {} events across shards after canonical merge",
        merged.len()
    );
    let outcome = cluster.outcome();
    println!(
        "ledger: {} users paid, total {:.2} over {} rounds",
        outcome.ledger.balances().len(),
        outcome.ledger.total_paid(),
        outcome.ledger.rounds_settled()
    );
    for quarantine in &outcome.quarantines {
        println!(
            "  quarantined round {}: {}",
            quarantine.round, quarantine.post_mortem
        );
    }
    // The summary line must diff clean across node counts: same seed,
    // same fingerprint, any deployment.
    println!("cluster: fingerprint {:016x}", cluster.fingerprint());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let options = match Options::parse() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if options.nodes > 0 {
        if options.campaign {
            eprintln!("--nodes runs the cluster coordinator, not --campaign");
            return ExitCode::from(2);
        }
        if options.slo_budget.is_some() || options.slo_baseline.is_some() {
            eprintln!("--slo-budget/--slo-baseline watch the single-engine loop, not --nodes");
            return ExitCode::from(2);
        }
        return run_cluster(&options);
    }
    if options.campaign {
        if options.slo_budget.is_some() || options.slo_baseline.is_some() {
            eprintln!("--slo-budget/--slo-baseline watch the open-loop engine, not --campaign");
            return ExitCode::from(2);
        }
        return run_campaign(&options);
    }

    let params = options.dataset_params();
    let sim = SimParams::default();

    let start = Instant::now();
    let dataset = Dataset::build(params);
    println!(
        "dataset: {} taxis, {} slots, built in {:.2?}",
        params.taxi_count,
        params.slots,
        start.elapsed()
    );
    let builder = PopulationBuilder::new(&dataset, sim);

    let requirement = sim.pos_requirement;
    let tasks: Vec<Task> = match options.multi {
        Some(count) => (0..count)
            .map(|i| Task::with_requirement(TaskId::new(i as u32), requirement))
            .collect::<Result<_, _>>()
            .expect("valid requirement"),
        None => {
            vec![Task::with_requirement(TaskId::new(0), requirement).expect("valid requirement")]
        }
    };

    let config = match options.engine_config(&sim) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut engine = Engine::new(config, tasks);

    // The watchdog wraps the live metrics handle; it is pure telemetry,
    // so clearing below never knows whether one is attached.
    let watch = match load_slo(&options) {
        Ok(Some((budget, baseline))) => Some(std::sync::Arc::new(SloWatch::new(
            engine.metrics_handle(),
            engine.recorder_handle(),
            budget,
            baseline,
        ))),
        Ok(None) => None,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    // The exporter holds its own Arc to the metrics, so it serves live
    // values for the whole run (and through --hold-ms).
    let server = match &options.metrics_addr {
        Some(addr) => {
            let source: std::sync::Arc<dyn MetricsSource> = match &watch {
                Some(watch) => std::sync::Arc::clone(watch) as _,
                None => engine.metrics_handle(),
            };
            match ExportServer::spawn(addr, source) {
                Ok(server) => {
                    println!(
                        "metrics: serving http://{0}/metrics (Prometheus), \
                         http://{0}/metrics.json, and http://{0}/healthz{1}",
                        server.local_addr(),
                        if watch.is_some() {
                            "; SLO verdict at /slo"
                        } else {
                            ""
                        }
                    );
                    Some(server)
                }
                Err(error) => {
                    eprintln!("cannot bind metrics endpoint {addr}: {error}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    let location = dataset
        .single_task_location(options.users)
        .unwrap_or_else(|| dataset.popular_locations(1)[0]);
    let mut rng = StdRng::seed_from_u64(options.seed);

    // Ingest phase: synthesize one population per round and stream its
    // bids; the round closes itself at max_bids.
    let ingest_start = Instant::now();
    let mut bids = 0u64;
    let mut shed = 0u64;
    for round in 0..options.rounds {
        let population = match options.multi {
            Some(count) => builder.multi_task(count, options.users, &mut rng),
            None => builder.single_task(location, options.users, &mut rng),
        };
        let population = match population {
            Ok(population) => population,
            Err(error) => {
                eprintln!("round {round}: cannot build population: {error}");
                return ExitCode::FAILURE;
            }
        };
        for user in population.profile.users() {
            let bid = Bid {
                user: user.id().index() as u32,
                cost: user.cost().value(),
                tasks: user
                    .tasks()
                    .map(|(task, pos)| (task.index() as u32, pos.value()))
                    .collect(),
            };
            match engine.submit(&bid) {
                Ok(Admission::Shed(_)) => shed += 1,
                Ok(Admission::Admitted) => {}
                Err(error) => eprintln!("round {round}: rejected bid: {error}"),
            }
            bids += 1;
        }
        engine.tick();
        if options.snapshot_every > 0 && (round + 1) % options.snapshot_every == 0 {
            engine.drain();
            let snapshot = engine.metrics().snapshot();
            println!(
                "snapshot[{} rounds]: {}",
                round + 1,
                serde_json::to_string(&snapshot).expect("snapshot serializes")
            );
        }
    }
    engine.flush();
    let ingest_elapsed = ingest_start.elapsed();
    println!(
        "ingest: {bids} bids into {} rounds in {:.2?} ({:.0} bids/s), {shed} shed",
        engine.pending_rounds(),
        ingest_elapsed,
        bids as f64 / ingest_elapsed.as_secs_f64()
    );

    // Drain phase: clear everything across the worker pool.
    let drain_start = Instant::now();
    let cleared = engine.drain();
    let drain_elapsed = drain_start.elapsed();
    println!(
        "drain: {cleared} rounds cleared, {} quarantined across {} workers in {:.2?} ({:.1} rounds/s)",
        engine.quarantine().len(),
        engine.config().workers,
        drain_elapsed,
        cleared as f64 / drain_elapsed.as_secs_f64()
    );
    for quarantined in engine.quarantine() {
        println!(
            "  quarantined {}: {} ({} bidders)",
            quarantined.id, quarantined.error, quarantined.bidders
        );
    }
    for post_mortem in engine.post_mortems() {
        println!("post-mortem round {}:", post_mortem.round);
        println!("{}", post_mortem.to_json());
    }
    println!(
        "trace: {} events recorded into a {}-slot ring ({} collisions)",
        engine.recorder().recorded(),
        engine.recorder().capacity(),
        engine.recorder().collisions()
    );
    println!(
        "ledger: {} users paid, total {:.2} over {} rounds",
        engine.ledger().balances().len(),
        engine.ledger().total_paid(),
        engine.ledger().rounds_settled()
    );
    println!("{}", engine.metrics_json());
    if let Some(watch) = &watch {
        let report = watch.evaluate();
        println!(
            "slo: {} budgets evaluated, {} breached",
            report.evaluated,
            report.breaches.len()
        );
        for breach in &report.breaches {
            println!(
                "  SLO BREACH: {}{} observed {:.3} > limit {:.3}",
                breach.kind.name(),
                breach
                    .stage
                    .as_deref()
                    .map(|stage| format!("[{stage}]"))
                    .unwrap_or_default(),
                breach.observed,
                breach.limit
            );
        }
    }
    if options.hold_ms > 0 {
        println!(
            "holding for {} ms so the metrics endpoint stays up",
            options.hold_ms
        );
        std::thread::sleep(std::time::Duration::from_millis(options.hold_ms));
    }
    drop(server);
    ExitCode::SUCCESS
}
