//! The serving-path benchmark binary.
//!
//! Runs one workload through the public `Engine` or `Cluster` API and
//! prints one JSON line: the outcome digest, the verdict of every
//! outcome check, each metric with its unit and within-run quartiles,
//! and (traced runs) the partitions the per-layer rows are cut from.
//! `perfbench/run.py` builds this binary, gates it, and adds the
//! environment record; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--smoke] [--mutate] [--expect-digest HEX]
//! ```

mod cluster_run;
mod digest;
mod engine_run;
mod gen;
mod report;
mod stats;

use mcs_cluster::{ClusterConfig, ClusterParams};

use crate::cluster_run::{band_topology, ClusterWorkload};
use crate::engine_run::{Close, EngineWorkload};
use crate::report::{Metric, Report};

/// The workloads (see `perfbench/README.md` for why each was chosen).
const WORKLOADS: [&str; 4] = [
    "steady-large",
    "tiny-rounds",
    "single-task",
    "cluster-bands",
];

/// Per-layer metrics every traced run prints. A workload that does not
/// reach a layer reports its rows as 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("submit.ns_per_bid", "ns"),
    ("close.ns_per_round", "ns"),
    ("stage.ingest.ns_per_bid", "ns"),
    ("drain.ns_per_bid", "ns"),
    ("drain.idle_frac", "frac"),
    ("stage.shard_other.ns_per_bid", "ns"),
    ("driver.unattributed_ns_per_bid", "ns"),
    ("stage.allocate.ns_per_bid", "ns"),
    ("kernel.heap_pops_per_round", "count"),
    ("kernel.stale_reeval_frac", "frac"),
    ("stage.pay.ns_per_bid", "ns"),
    ("kernel.probes_per_winner", "count"),
    ("kernel.probe_run_frac", "frac"),
    ("kernel.saved_warm_start_frac", "frac"),
    ("kernel.saved_loss_scan_frac", "frac"),
    ("pay.ns_per_probe_run", "ns"),
    ("kernel.reuse_frac", "frac"),
    ("kernel.patch_frac", "frac"),
    ("kernel.reflatten_frac", "frac"),
    ("kernel.arena_mb", "MiB"),
    ("stage.settle.ns_per_round", "ns"),
    ("obs.trace_events_per_bid", "count"),
    ("obs.tracing_overhead_frac", "frac"),
    ("cluster.route.ns_per_bid", "ns"),
    ("cluster.straddler_frac", "frac"),
    ("cluster.codec.ns_per_bid", "ns"),
    ("cluster.wire_bytes_per_bid", "B"),
    ("cluster.node_clear.ns_per_bid", "ns"),
    ("cluster.replicate.ns_per_round", "ns"),
    ("cluster.coordinator_self.ns_per_bid", "ns"),
    ("cluster.transport.unattributed_ns_per_bid", "ns"),
    ("failed_frac", "frac"),
];

/// Command-line options.
#[derive(Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the benchmark's own self-test.
    pub smoke: bool,
    /// Alter one settled payout as the benchmark folds it, so the
    /// outcome gate must trip.
    pub mutate: bool,
    pub expect_digest: Option<u64>,
}

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        mutate: false,
        expect_digest: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => opts.trace = value()? == "1",
            "--expect-digest" => {
                let hex = value()?;
                opts.expect_digest = Some(
                    u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                        .map_err(|e| format!("--expect-digest: {e}"))?,
                );
            }
            "--smoke" => opts.smoke = true,
            "--mutate" => opts.mutate = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            opts.workload
        ));
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(opts)
}

/// Unmeasured warm-up before a timed loop of `seconds`: the first steps
/// after set-up run while allocator pools, page tables and caches are
/// still filling.
pub fn warmup_s(seconds: f64) -> f64 {
    (seconds * 0.1).clamp(0.2, 2.0)
}

/// Whether set-up should run again: always a first time, and when
/// `repeat` until 3 set-ups and 0.5 s of them, at most 100, so a set-up
/// of a millisecond gets as steady a median as one of a second.
pub fn more_setups(done: &[f64], repeat: bool) -> bool {
    let spent: f64 = done.iter().sum();
    done.is_empty() || (repeat && done.len() < 100 && (done.len() < 3 || spent < 0.5))
}

fn engine_workload(name: &str, seed: u64, smoke: bool) -> EngineWorkload {
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    match name {
        "steady-large" => EngineWorkload {
            tasks: gen::tasks(pick(50, 10) as u32, 0.8),
            config: EngineWorkload::config(seed, 1, 2, None),
            close: Close::Flush,
            drain_every: 1,
            digest_rounds: pick(4, 2),
            reclear_samples: 2,
            inputs: gen::steady_large(
                seed,
                pick(5000, 300),
                pick(50, 10) as u32,
                if smoke { (3, 6) } else { (10, 20) },
            ),
        },
        "tiny-rounds" => EngineWorkload {
            tasks: gen::tasks(2, 0.7),
            config: EngineWorkload::config(seed, 2, 1, Some(16)),
            close: Close::MaxBids,
            drain_every: 8,
            digest_rounds: pick(16384, 16),
            reclear_samples: 16,
            inputs: gen::fresh_rounds(seed, pick(4096, 64), 16, 2, (0.4, 0.85)),
        },
        "single-task" => EngineWorkload {
            tasks: gen::tasks(1, 0.8),
            config: EngineWorkload::config(seed, 2, 1, Some(24)),
            close: Close::MaxBids,
            drain_every: 8,
            digest_rounds: pick(512, 16),
            reclear_samples: 16,
            inputs: gen::fresh_rounds(seed, pick(1024, 32), 24, 1, (0.3, 0.8)),
        },
        _ => unreachable!("validated workload name"),
    }
}

fn cluster_workload(seed: u64, smoke: bool) -> ClusterWorkload {
    let params = ClusterParams {
        workers: 1,
        payment_threads: 1,
        ..ClusterParams::default().with_seed(seed)
    };
    ClusterWorkload {
        topology: band_topology(4, 0.8),
        config: ClusterConfig::new(2).with_params(params),
        digest_rounds: if smoke { 4 } else { 128 },
        rounds: gen::cluster_rounds(
            seed,
            if smoke { 8 } else { 512 },
            if smoke { 100 } else { 1000 },
            4,
            0.1,
        ),
    }
}

fn run(opts: &Options) -> Report {
    let mut report = if opts.workload == "cluster-bands" {
        cluster_run::run(&cluster_workload(opts.seed, opts.smoke), opts)
    } else {
        engine_run::run(
            &engine_workload(&opts.workload, opts.seed, opts.smoke),
            opts,
        )
    };
    if let Some(expected) = opts.expect_digest {
        report.check(
            "recorded_digest",
            report.digest == expected,
            format!("digest {:016x}, recorded {expected:016x}", report.digest),
        );
    }
    if opts.trace {
        let failed_frac = stats::ratio(report.failed as f64, report.attempted as f64);
        report
            .metrics
            .push(Metric::new("failed_frac", "frac", failed_frac));
        report.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let measured = report.metrics.iter().find(|m| m.name == name);
                measured
                    .cloned()
                    .unwrap_or_else(|| Metric::new(name, unit, 0.0))
            })
            .collect();
    }
    report
}

fn main() {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let report = run(&opts);
    let header = [
        ("workload", report::string(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", format!("{:?}", opts.seconds)),
        ("trace", opts.trace.to_string()),
        ("smoke", opts.smoke.to_string()),
        ("mutate", opts.mutate.to_string()),
    ];
    println!("{}", report.to_json(&header));
    if !report.ok() {
        std::process::exit(1);
    }
}
