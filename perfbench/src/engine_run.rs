//! The engine workloads: a closed loop of `Engine::submit`, `tick` or
//! `flush`, and `drain`, driven by one thread.

use std::time::{Duration, Instant};

use mcs_core::types::Task;
use mcs_platform::admission::Admission;
use mcs_platform::batch::{Batcher, RoundId};
use mcs_platform::config::{BatchPolicy, EngineConfig};
use mcs_platform::engine::Engine;
use mcs_platform::metrics::{KernelSnapshot, MetricsSnapshot};
use mcs_platform::shard::clear_round;

use crate::digest::{fold_round, quarantined, quoted_payouts, RunDigest};
use crate::gen::{Feed, Inputs};
use crate::report::{end_to_end, Metric, Partition, Report};
use crate::stats::{ns, peak_rss_mib, process_cpu, ratio, Slices};
use crate::{more_setups, warmup_s, Options};

/// How a round is closed once its bids are in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Close {
    /// The round's last `submit` closes it on `max_bids`; the loop
    /// still advances the batch clock with one `tick` a round.
    MaxBids,
    /// The loop closes the round with `flush`.
    Flush,
}

/// One engine workload.
#[derive(Debug)]
pub struct EngineWorkload {
    pub tasks: Vec<Task>,
    pub config: EngineConfig,
    pub close: Close,
    /// Rounds closed per `drain`.
    pub drain_every: usize,
    /// Rounds folded into the outcome digest (a multiple of
    /// `drain_every`).
    pub digest_rounds: usize,
    /// Rounds re-cleared through the pure `clear_round` when no digest
    /// is recorded for the seed.
    pub reclear_samples: usize,
    pub inputs: Inputs,
}

impl EngineWorkload {
    /// An engine config with the given pool shape; rounds close at
    /// `max_bids` bids (`None`: only on `flush`).
    pub fn config(
        seed: u64,
        workers: usize,
        payment_threads: usize,
        max_bids: Option<usize>,
    ) -> EngineConfig {
        let mut config = EngineConfig::default()
            .with_seed(seed)
            .with_workers(workers)
            .with_payment_threads(payment_threads);
        config.batch = BatchPolicy {
            max_bids: max_bids.unwrap_or(usize::MAX),
            max_ticks: u32::MAX,
        };
        config
    }
}

/// Time spent in the public calls of the timed loop (recorded in traced
/// phases only).
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    submit: Duration,
    close: Duration,
    drain: Duration,
}

/// Bids submitted, and bids rejected or shed at `submit`.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    submitted: u64,
    refused: u64,
}

/// A round of one drain group: its id, admitted bids, and latency from
/// the return of the call that closed it to the return of the drain
/// that settled it.
struct Closed {
    id: RoundId,
    admitted: u64,
    latency: Duration,
}

/// What one phase (set-up, warm-up, timed loop) measured.
struct Phase {
    digest: u64,
    round_hashes: Vec<u64>,
    setup_s: Vec<f64>,
    slices: Slices,
    /// Peak RSS when the digest rounds closed: memory at a fixed amount
    /// of work, whatever the run's speed.
    peak_rss_mb: f64,
    /// Counts over the whole phase.
    counts: Counts,
    failed: u64,
    /// The timed loop only, from here on.
    wall: Duration,
    spans: Spans,
    rounds: u64,
    submitted: u64,
    settled: u64,
    metrics: MetricsDelta,
    trace_events: u64,
}

const STAGES: [&str; 7] = [
    "ingest", "batch", "shard", "allocate", "pay", "settle", "shed",
];

/// The difference of two metrics snapshots.
struct MetricsDelta {
    stage_ns: [f64; 7],
    kernel: KernelSnapshot,
    winners: u64,
}

fn stage_ns(snapshot: &MetricsSnapshot, stage: &str) -> f64 {
    snapshot
        .stages
        .iter()
        .find(|s| s.stage == stage)
        .map_or(0.0, |s| s.total_ns as f64)
}

impl MetricsDelta {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Self {
        let (b, a) = (&before.kernel, &after.kernel);
        MetricsDelta {
            stage_ns: STAGES.map(|stage| stage_ns(after, stage) - stage_ns(before, stage)),
            kernel: KernelSnapshot {
                prepares: a.prepares - b.prepares,
                reuse_hits: a.reuse_hits - b.reuse_hits,
                sync_patched: a.sync_patched - b.sync_patched,
                sync_reflattened: a.sync_reflattened - b.sync_reflattened,
                seed_rebuilds: a.seed_rebuilds - b.seed_rebuilds,
                users_patched: a.users_patched - b.users_patched,
                users_appended: a.users_appended - b.users_appended,
                heap_pops: a.heap_pops - b.heap_pops,
                stale_reevals: a.stale_reevals - b.stale_reevals,
                probes_requested: a.probes_requested - b.probes_requested,
                probes_run: a.probes_run - b.probes_run,
                probes_saved_warm_start: a.probes_saved_warm_start - b.probes_saved_warm_start,
                probes_saved_loss_scan: a.probes_saved_loss_scan - b.probes_saved_loss_scan,
                // A gauge, not a sum.
                arena_resident_bytes: a.arena_resident_bytes,
            },
            winners: after.winners_selected - before.winners_selected,
        }
    }

    fn stage(&self, name: &str) -> f64 {
        self.stage_ns[STAGES.iter().position(|&s| s == name).expect("known stage")]
    }
}

/// Submits, closes and drains one drain group of rounds.
fn step(
    engine: &mut Engine,
    feed: &mut Feed,
    wl: &EngineWorkload,
    spans: Option<&mut Spans>,
    counts: &mut Counts,
) -> Vec<Closed> {
    let mut timed = Spans::default();
    let mut closed = Vec::with_capacity(wl.drain_every);
    for _ in 0..wl.drain_every {
        let id = engine.next_round_id();
        let bids = feed.next_round();
        let start = Instant::now();
        let mut admitted = 0;
        for bid in bids {
            match engine.submit(bid) {
                Ok(Admission::Admitted) => admitted += 1,
                Ok(Admission::Shed(_)) | Err(_) => counts.refused += 1,
            }
        }
        counts.submitted += bids.len() as u64;
        let close_start = Instant::now();
        if wl.close == Close::Flush {
            engine.flush();
        }
        let closed_at = Instant::now();
        if wl.close == Close::MaxBids {
            engine.tick();
        }
        timed.submit += close_start - start;
        timed.close += Instant::now() - close_start;
        closed.push((id, admitted, closed_at));
    }
    debug_assert_eq!(engine.pending_rounds(), wl.drain_every);
    let start = Instant::now();
    engine.drain();
    let drained_at = Instant::now();
    timed.drain = drained_at - start;
    if let Some(spans) = spans {
        spans.submit += timed.submit;
        spans.close += timed.close;
        spans.drain += timed.drain;
    }
    closed
        .into_iter()
        .map(|(id, admitted, closed_at)| Closed {
            id,
            admitted,
            latency: drained_at - closed_at,
        })
        .collect()
}

/// The running outcome digest of a phase.
struct Digest {
    open: Option<RunDigest>,
    hashes: Vec<u64>,
    value: Option<u64>,
    peak_rss_mb: f64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            open: Some(RunDigest::default()),
            hashes: Vec::new(),
            value: None,
            peak_rss_mb: 0.0,
        }
    }

    /// Folds the settled rounds of a drain group while the digest is
    /// open; closes it with the ledger total after the last digest round.
    fn fold(&mut self, engine: &Engine, closed: &[Closed], wl: &EngineWorkload, mutate: bool) {
        let Some(open) = self.open.as_mut() else {
            return;
        };
        for c in closed {
            if open.rounds() >= wl.digest_rounds {
                break;
            }
            let id = c.id;
            let hash = match (engine.results().get(&id), engine.settlements().get(&id)) {
                (Some(cleared), Some(settlement)) => {
                    fold_round(&[id.0], cleared, &settlement.payouts, mutate && id.0 == 0)
                }
                _ => quarantined(&[id.0]),
            };
            open.push(hash);
            self.hashes.push(hash);
        }
        if open.rounds() >= wl.digest_rounds {
            let open = self.open.take().expect("digest is open");
            self.value = Some(open.finish(engine.ledger().total_paid()));
            self.peak_rss_mb = peak_rss_mib();
        }
    }
}

fn run_phase(wl: &EngineWorkload, opts: &Options, traced: bool, seconds: f64) -> Phase {
    let config = wl.config.with_profiling(traced);
    let mut digest = Digest::new();
    let mut setup_s = Vec::new();
    let mut counts = Counts::default();

    // Set-up: build the engine and pay its first drain; repeated so the
    // reported set-up time is a median. The last engine carries on.
    let mut built = None;
    while more_setups(&setup_s, !opts.trace) {
        drop(built.take());
        counts = Counts::default();
        let mut feed = Feed::new(&wl.inputs);
        let start = Instant::now();
        let mut engine = Engine::new(config, wl.tasks.clone());
        let closed = step(&mut engine, &mut feed, wl, None, &mut counts);
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((engine, feed, closed));
    }
    let (mut engine, mut feed, closed) = built.expect("at least one set-up");
    digest.fold(&engine, &closed, wl, opts.mutate);

    // Unmeasured warm-up steps, then the timed loop. The loop outlasts
    // its seconds if the digest rounds have not all settled yet.
    let warm_end = Instant::now() + Duration::from_secs_f64(warmup_s(seconds));
    let deadline = warm_end + Duration::from_secs_f64(seconds);
    let mut baseline = None;
    let mut spans = Spans::default();
    let mut slices = Slices::new(seconds);
    let mut wall = Duration::ZERO;
    let (mut rounds, mut submitted, mut settled) = (0u64, 0u64, 0u64);
    while Instant::now() < deadline || digest.value.is_none() {
        let measuring = Instant::now() >= warm_end;
        if measuring && baseline.is_none() {
            baseline = Some((engine.metrics().snapshot(), engine.recorder().recorded()));
        }
        let submitted_before = counts.submitted;
        let cpu_start = process_cpu();
        let start = Instant::now();
        let spans_here = (traced && measuring).then_some(&mut spans);
        let closed = step(&mut engine, &mut feed, wl, spans_here, &mut counts);
        let elapsed = start.elapsed();
        let cpu_used = process_cpu() - cpu_start;
        // Bookkeeping below is outside the measured step.
        digest.fold(&engine, &closed, wl, opts.mutate);
        if !measuring {
            continue;
        }
        let step_settled: u64 = closed
            .iter()
            .filter(|c| engine.results().contains_key(&c.id))
            .map(|c| c.admitted)
            .sum();
        rounds += closed.len() as u64;
        submitted += counts.submitted - submitted_before;
        settled += step_settled;
        wall += elapsed;
        let latencies_ms: Vec<f64> = closed
            .iter()
            .map(|c| c.latency.as_secs_f64() * 1e3)
            .collect();
        slices.push(elapsed, cpu_used, step_settled, &latencies_ms);
    }
    let (before, events_before) = baseline.expect("the timed loop ran");
    let after = engine.metrics().snapshot();
    let quarantined: u64 = engine.quarantine().iter().map(|q| q.bidders as u64).sum();
    Phase {
        digest: digest.value.expect("digest closes within the run"),
        round_hashes: digest.hashes,
        setup_s,
        slices,
        peak_rss_mb: digest.peak_rss_mb,
        counts,
        failed: counts.refused + quarantined,
        wall,
        spans,
        rounds,
        submitted,
        settled,
        metrics: MetricsDelta::between(&before, &after),
        trace_events: engine.recorder().recorded() - events_before,
    }
}

/// Re-clears a sample of the digest rounds through the pure
/// `clear_round` on a fresh arena and compares round hashes.
fn reclear(wl: &EngineWorkload, hashes: &[u64], report: &mut Report) {
    let n = hashes.len();
    let samples = wl.reclear_samples.clamp(1, n);
    let mut ids: Vec<usize> = (0..samples)
        .map(|i| i * (n - 1) / (samples - 1).max(1))
        .collect();
    ids.dedup();
    let mut mismatched = Vec::new();
    for &k in &ids {
        let mut batcher = Batcher::new(
            BatchPolicy {
                max_bids: usize::MAX,
                max_ticks: u32::MAX,
            },
            wl.tasks.clone(),
        );
        batcher.resume_at(k as u64);
        for bid in wl.inputs.round(k) {
            // A bid the engine refused is refused here too.
            let _ = batcher.submit(&bid);
        }
        let round = batcher.flush().expect("round has bids");
        let hash = match clear_round(&round, &wl.config) {
            Ok(cleared) => fold_round(&[k as u64], &cleared, &quoted_payouts(&cleared), false),
            Err(_) => quarantined(&[k as u64]),
        };
        if hash != hashes[k] {
            mismatched.push(k);
        }
    }
    report.check(
        "reclear",
        mismatched.is_empty(),
        format!(
            "{} of {} sampled rounds re-cleared through clear_round differ: {:?}",
            mismatched.len(),
            ids.len(),
            mismatched
        ),
    );
}

pub fn run(wl: &EngineWorkload, opts: &Options) -> Report {
    let mut report = Report::default();
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = run_phase(wl, opts, false, seconds);
    report.digest = plain.digest;
    report.digest_rounds = wl.digest_rounds;
    report.attempted = plain.counts.submitted;
    report.failed = plain.failed;
    report.rounds = plain.rounds;
    report.check(
        "settled",
        plain.settled > 0,
        format!("{} bids settled in {} rounds", plain.settled, plain.rounds),
    );
    if opts.expect_digest.is_none() {
        reclear(wl, &plain.round_hashes, &mut report);
    }
    if !opts.trace {
        report.metrics = end_to_end(plain.setup_s, &plain.slices, plain.peak_rss_mb);
        return report;
    }

    let traced = run_phase(wl, opts, true, seconds);
    report.check(
        "traced_equals_untraced",
        traced.digest == plain.digest,
        format!(
            "untraced {:016x}, traced {:016x}",
            plain.digest, traced.digest
        ),
    );
    report.attempted += traced.counts.submitted;
    report.failed += traced.failed;
    let b = traced.settled as f64;
    let rounds = traced.rounds as f64;
    let submitted = traced.submitted as f64;
    let m = &traced.metrics;
    let k = &m.kernel;
    let s = traced.spans;
    let wall = ns(traced.wall);
    let workers = wl.config.workers as f64;
    let (shard, allocate, pay, settle) = (
        m.stage("shard"),
        m.stage("allocate"),
        m.stage("pay"),
        m.stage("settle"),
    );
    report.partitions = vec![
        Partition::of(
            "wall",
            wall,
            vec![
                ("submit", ns(s.submit)),
                ("close", ns(s.close)),
                ("drain", ns(s.drain)),
            ],
            "driver.unattributed",
        ),
        Partition::of(
            "submit",
            ns(s.submit),
            vec![("stage.ingest", m.stage("ingest"))],
            "submit.unattributed",
        ),
        Partition::of(
            "drain_x_workers",
            ns(s.drain) * workers,
            vec![("stage.shard", shard), ("stage.settle", settle)],
            "drain.idle",
        ),
        Partition::of(
            "shard",
            shard,
            vec![("stage.allocate", allocate), ("stage.pay", pay)],
            "stage.shard_other",
        ),
    ];
    let per_prepare = |count: u64| ratio(count as f64, k.prepares as f64);
    let per_probe = |count: u64| ratio(count as f64, k.probes_requested as f64);
    let plain_rate = ratio(plain.settled as f64, plain.wall.as_secs_f64());
    let traced_rate = ratio(b, traced.wall.as_secs_f64());
    report.metrics = vec![
        Metric::new("submit.ns_per_bid", "ns", ratio(ns(s.submit), submitted)),
        Metric::new("close.ns_per_round", "ns", ratio(ns(s.close), rounds)),
        Metric::new(
            "stage.ingest.ns_per_bid",
            "ns",
            ratio(m.stage("ingest"), submitted),
        ),
        Metric::new("drain.ns_per_bid", "ns", ratio(ns(s.drain), b)),
        Metric::new(
            "drain.idle_frac",
            "frac",
            1.0 - ratio(shard + settle, ns(s.drain) * workers),
        ),
        Metric::new(
            "stage.shard_other.ns_per_bid",
            "ns",
            ratio(shard - allocate - pay, b),
        ),
        Metric::new(
            "driver.unattributed_ns_per_bid",
            "ns",
            ratio(wall - ns(s.submit) - ns(s.close) - ns(s.drain), b),
        ),
        Metric::new("stage.allocate.ns_per_bid", "ns", ratio(allocate, b)),
        Metric::new(
            "kernel.heap_pops_per_round",
            "count",
            ratio(k.heap_pops as f64, rounds),
        ),
        Metric::new(
            "kernel.stale_reeval_frac",
            "frac",
            ratio(k.stale_reevals as f64, k.heap_pops as f64),
        ),
        Metric::new("stage.pay.ns_per_bid", "ns", ratio(pay, b)),
        Metric::new(
            "kernel.probes_per_winner",
            "count",
            ratio(k.probes_requested as f64, m.winners as f64),
        ),
        Metric::new("kernel.probe_run_frac", "frac", per_probe(k.probes_run)),
        Metric::new(
            "kernel.saved_warm_start_frac",
            "frac",
            per_probe(k.probes_saved_warm_start),
        ),
        Metric::new(
            "kernel.saved_loss_scan_frac",
            "frac",
            per_probe(k.probes_saved_loss_scan),
        ),
        Metric::new(
            "pay.ns_per_probe_run",
            "ns",
            ratio(pay, k.probes_run as f64),
        ),
        Metric::new("kernel.reuse_frac", "frac", per_prepare(k.reuse_hits)),
        Metric::new("kernel.patch_frac", "frac", per_prepare(k.sync_patched)),
        Metric::new(
            "kernel.reflatten_frac",
            "frac",
            per_prepare(k.sync_reflattened),
        ),
        Metric::new(
            "kernel.arena_mb",
            "MiB",
            k.arena_resident_bytes as f64 / (1024.0 * 1024.0),
        ),
        Metric::new("stage.settle.ns_per_round", "ns", ratio(settle, rounds)),
        Metric::new(
            "obs.trace_events_per_bid",
            "count",
            ratio(traced.trace_events as f64, submitted),
        ),
        Metric::new(
            "obs.tracing_overhead_frac",
            "frac",
            1.0 - ratio(traced_rate, plain_rate),
        ),
    ];
    report
}
