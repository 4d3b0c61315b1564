//! Engine observability: atomic counters, per-stage latency histograms,
//! and per-round economic quality, exportable as JSON or Prometheus text.
//!
//! [`Metrics`] is shared (`Arc`) between the engine and its shard
//! workers; every field is an atomic, so recording never blocks the
//! serving path. Latencies go into power-of-two nanosecond buckets —
//! coarse, but allocation-free and good enough for p50/p99 under load.
//! Economic aggregates (overpayment vs. the social-cost lower bound,
//! coverage slack, winner redundancy) accumulate as `f64` bit-CAS sums so
//! the live path reports the same quantities `mcs-sim` computes offline.
//!
//! The [`Stage`] vocabulary is shared with the `mcs-obs` flight recorder,
//! so a latency histogram and a trace span always name the same thing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use mcs_obs::Stage;
use mcs_obs::{FlightRecorder, MetricsSource, PromKind, PromWriter, RawEvent};
use serde::{Deserialize, Serialize};

use crate::batch::RoundId;

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds; 40 buckets reach ~18 minutes.
const BUCKETS: usize = 40;

/// Lock-free `f64` accumulator over `AtomicU64` bits.
#[derive(Debug)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn zero() -> Self {
        AtomicF64(AtomicU64::new(0f64.to_bits()))
    }

    fn add(&self, value: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Per-round economic quality, computed by the shard at clearing time
/// from the allocation and quotes it already holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundEconomics {
    /// Total expected payment `Σ_i p_any·success + (1 − p_any)·failure`
    /// over the winners, under their declared types.
    pub expected_payment: f64,
    /// Social cost `Σ c_i` over the winners — the IR lower bound on what
    /// any truthful mechanism must spend.
    pub social_cost: f64,
    /// Coverage slack `Σ_j (q_j − Q_j)` in the contribution (log) domain.
    pub coverage_slack: f64,
    /// Mean winners covering each task.
    pub winner_redundancy: f64,
}

#[derive(Debug)]
struct StageHistogram {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl StageHistogram {
    fn new() -> Self {
        StageHistogram {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, stage: Stage) -> StageSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let total_ns = self.total_ns.load(Ordering::Relaxed);
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Report the bucket's upper bound, clamped to the
                    // observed maximum: the top bucket's bound can
                    // overshoot max_ns by nearly 2×, and no percentile
                    // can exceed the largest sample.
                    return (1u64 << (i + 1).min(63)).min(max_ns);
                }
            }
            max_ns
        };
        StageSnapshot {
            stage: stage.name().to_string(),
            count,
            total_ns,
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns,
            mean_ns: if count == 0 {
                0.0
            } else {
                total_ns as f64 / count as f64
            },
            p50_ns: percentile(0.50),
            p99_ns: percentile(0.99),
        }
    }
}

/// Shared engine metrics. All methods are lock-free.
#[derive(Debug)]
pub struct Metrics {
    bids_received: AtomicU64,
    bids_rejected: AtomicU64,
    bids_shed: AtomicU64,
    bids_deferred: AtomicU64,
    rounds_closed: AtomicU64,
    rounds_cleared: AtomicU64,
    rounds_degraded: AtomicU64,
    rounds_partial: AtomicU64,
    winners_selected: AtomicU64,
    stages: [StageHistogram; 7],
    econ_rounds: AtomicU64,
    econ_payment_sum: AtomicF64,
    econ_social_sum: AtomicF64,
    econ_slack_sum: AtomicF64,
    econ_redundancy_sum: AtomicF64,
    kernel: KernelCounters,
}

/// Atomic accumulators for the clearing-kernel profiling counters
/// ([`mcs_core::indexed::ProfCounters`]) drained out of shard workers.
/// All counters except the resident-bytes gauge are monotone sums; the
/// gauge keeps the per-worker maximum, the interesting bound for memory.
#[derive(Debug, Default)]
struct KernelCounters {
    prepares: AtomicU64,
    reuse_hits: AtomicU64,
    sync_patched: AtomicU64,
    sync_reflattened: AtomicU64,
    seed_rebuilds: AtomicU64,
    users_patched: AtomicU64,
    users_appended: AtomicU64,
    heap_pops: AtomicU64,
    stale_reevals: AtomicU64,
    probes_requested: AtomicU64,
    probes_run: AtomicU64,
    probes_saved_warm_start: AtomicU64,
    probes_saved_loss_scan: AtomicU64,
    arena_resident_bytes: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics {
            bids_received: AtomicU64::new(0),
            bids_rejected: AtomicU64::new(0),
            bids_shed: AtomicU64::new(0),
            bids_deferred: AtomicU64::new(0),
            rounds_closed: AtomicU64::new(0),
            rounds_cleared: AtomicU64::new(0),
            rounds_degraded: AtomicU64::new(0),
            rounds_partial: AtomicU64::new(0),
            winners_selected: AtomicU64::new(0),
            stages: std::array::from_fn(|_| StageHistogram::new()),
            econ_rounds: AtomicU64::new(0),
            econ_payment_sum: AtomicF64::zero(),
            econ_social_sum: AtomicF64::zero(),
            econ_slack_sum: AtomicF64::zero(),
            econ_redundancy_sum: AtomicF64::zero(),
            kernel: KernelCounters::default(),
        }
    }

    /// Counts one received bid (accepted or not).
    pub fn bid_received(&self) {
        self.bids_received.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one rejected bid.
    pub fn bid_rejected(&self) {
        self.bids_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one bid shed by admission control.
    pub fn bid_shed(&self) {
        self.bids_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one partially cleared round with `deferred` bidders
    /// quarantined past the clearing budget.
    pub fn round_partial(&self, deferred: usize) {
        self.rounds_partial.fetch_add(1, Ordering::Relaxed);
        self.bids_deferred
            .fetch_add(deferred as u64, Ordering::Relaxed);
    }

    /// Counts one closed round.
    pub fn round_closed(&self) {
        self.rounds_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cleared round with `winners` selected users.
    pub fn round_cleared(&self, winners: usize) {
        self.rounds_cleared.fetch_add(1, Ordering::Relaxed);
        self.winners_selected
            .fetch_add(winners as u64, Ordering::Relaxed);
    }

    /// Counts one quarantined round.
    pub fn round_degraded(&self) {
        self.rounds_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates one cleared round's economic quality.
    pub fn record_economics(&self, economics: &RoundEconomics) {
        self.econ_rounds.fetch_add(1, Ordering::Relaxed);
        self.econ_payment_sum.add(economics.expected_payment);
        self.econ_social_sum.add(economics.social_cost);
        self.econ_slack_sum.add(economics.coverage_slack);
        self.econ_redundancy_sum.add(economics.winner_redundancy);
    }

    /// Records one latency sample for `stage`.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        self.stages[stage.index()].record(elapsed);
    }

    /// Drains one batch of clearing-kernel profiling counters into the
    /// atomic accumulators — called by shard workers per cleared round
    /// when `EngineConfig::profiling` is on. Telemetry only: nothing in
    /// the clearing or settlement path reads these back.
    pub fn record_kernel(&self, prof: &mcs_core::indexed::ProfCounters) {
        let k = &self.kernel;
        k.prepares.fetch_add(prof.prepares, Ordering::Relaxed);
        k.reuse_hits.fetch_add(prof.reuse_hits, Ordering::Relaxed);
        k.sync_patched
            .fetch_add(prof.sync_patched, Ordering::Relaxed);
        k.sync_reflattened
            .fetch_add(prof.sync_reflattened, Ordering::Relaxed);
        k.seed_rebuilds
            .fetch_add(prof.seed_rebuilds, Ordering::Relaxed);
        k.users_patched
            .fetch_add(prof.users_patched, Ordering::Relaxed);
        k.users_appended
            .fetch_add(prof.users_appended, Ordering::Relaxed);
        k.heap_pops.fetch_add(prof.heap_pops, Ordering::Relaxed);
        k.stale_reevals
            .fetch_add(prof.stale_reevals, Ordering::Relaxed);
        k.probes_requested
            .fetch_add(prof.probes_requested, Ordering::Relaxed);
        k.probes_run.fetch_add(prof.probes_run, Ordering::Relaxed);
        k.probes_saved_warm_start
            .fetch_add(prof.probes_saved_warm_start, Ordering::Relaxed);
        k.probes_saved_loss_scan
            .fetch_add(prof.probes_saved_loss_scan, Ordering::Relaxed);
        k.arena_resident_bytes
            .fetch_max(prof.resident_bytes, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let rounds_closed = self.rounds_closed.load(Ordering::Relaxed);
        let rounds_degraded = self.rounds_degraded.load(Ordering::Relaxed);
        let econ_rounds = self.econ_rounds.load(Ordering::Relaxed);
        let mean = |sum: &AtomicF64| {
            if econ_rounds == 0 {
                0.0
            } else {
                sum.get() / econ_rounds as f64
            }
        };
        MetricsSnapshot {
            bids_received: self.bids_received.load(Ordering::Relaxed),
            bids_rejected: self.bids_rejected.load(Ordering::Relaxed),
            bids_shed: self.bids_shed.load(Ordering::Relaxed),
            bids_deferred: self.bids_deferred.load(Ordering::Relaxed),
            rounds_closed,
            rounds_cleared: self.rounds_cleared.load(Ordering::Relaxed),
            rounds_degraded,
            rounds_partial: self.rounds_partial.load(Ordering::Relaxed),
            winners_selected: self.winners_selected.load(Ordering::Relaxed),
            stages: Stage::ALL
                .iter()
                .map(|&s| self.stages[s.index()].snapshot(s))
                .collect(),
            economics: EconSnapshot {
                rounds: econ_rounds,
                expected_payment_total: self.econ_payment_sum.get(),
                social_cost_total: self.econ_social_sum.get(),
                overpayment_ratio: mcs_core::analysis::overpayment_ratio(
                    self.econ_payment_sum.get(),
                    self.econ_social_sum.get(),
                ),
                coverage_slack_mean: mean(&self.econ_slack_sum),
                winner_redundancy_mean: mean(&self.econ_redundancy_sum),
                quarantine_rate: if rounds_closed == 0 {
                    0.0
                } else {
                    rounds_degraded as f64 / rounds_closed as f64
                },
            },
            kernel: {
                let k = &self.kernel;
                let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
                KernelSnapshot {
                    prepares: load(&k.prepares),
                    reuse_hits: load(&k.reuse_hits),
                    sync_patched: load(&k.sync_patched),
                    sync_reflattened: load(&k.sync_reflattened),
                    seed_rebuilds: load(&k.seed_rebuilds),
                    users_patched: load(&k.users_patched),
                    users_appended: load(&k.users_appended),
                    heap_pops: load(&k.heap_pops),
                    stale_reevals: load(&k.stale_reevals),
                    probes_requested: load(&k.probes_requested),
                    probes_run: load(&k.probes_run),
                    probes_saved_warm_start: load(&k.probes_saved_warm_start),
                    probes_saved_loss_scan: load(&k.probes_saved_loss_scan),
                    arena_resident_bytes: load(&k.arena_resident_bytes),
                }
            },
        }
    }

    /// The snapshot rendered as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("metrics snapshot serializes")
    }

    /// The snapshot rendered as Prometheus text exposition (0.0.4).
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

impl MetricsSource for Metrics {
    fn prometheus(&self) -> String {
        self.to_prometheus()
    }

    fn json(&self) -> String {
        self.to_json()
    }
}

/// Runs `f` as one `stage` of round `id`: one histogram sample when
/// metrics are attached, an enter/exit span pair when a recorder is.
/// Shard stages, settlement and round closes all time themselves through
/// here (probes from `clear_round`'s public, unmetered entry point pass
/// neither). The exit's duration payload is zeroed in logical-clock
/// mode: wall durations would make otherwise-deterministic traces differ
/// run to run.
pub(crate) fn timed<T>(
    stage: Stage,
    id: RoundId,
    metrics: Option<&Metrics>,
    trace: Option<&FlightRecorder>,
    f: impl FnOnce() -> T,
) -> T {
    if let Some(recorder) = trace {
        recorder.record(RawEvent::enter(stage, id.0));
    }
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    if let Some(metrics) = metrics {
        metrics.record(stage, elapsed);
    }
    if let Some(recorder) = trace {
        let ns = if recorder.is_logical() {
            0
        } else {
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
        };
        recorder.record(RawEvent::exit(stage, id.0, ns));
    }
    out
}

/// Latency statistics of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage name (`ingest`, `batch`, `shard`, `allocate`, `pay`,
    /// `settle`).
    pub stage: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub total_ns: u64,
    /// Fastest sample, nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Slowest sample, nanoseconds.
    pub max_ns: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: f64,
    /// Median latency (bucket upper bound, clamped to `max_ns`),
    /// nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency (bucket upper bound, clamped to `max_ns`),
    /// nanoseconds.
    pub p99_ns: u64,
}

/// Aggregate economic quality over every cleared round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EconSnapshot {
    /// Cleared rounds contributing to the aggregates.
    pub rounds: u64,
    /// Total expected payment over all cleared rounds.
    pub expected_payment_total: f64,
    /// Total social cost (IR lower bound) over all cleared rounds.
    pub social_cost_total: f64,
    /// `expected_payment_total / social_cost_total`; `None` until a round
    /// with positive social cost clears.
    pub overpayment_ratio: Option<f64>,
    /// Mean per-round coverage slack `Σ_j (q_j − Q_j)`.
    pub coverage_slack_mean: f64,
    /// Mean per-round winner redundancy.
    pub winner_redundancy_mean: f64,
    /// Quarantined rounds over closed rounds.
    pub quarantine_rate: f64,
}

/// A point-in-time copy of the clearing-kernel profiling counters (see
/// `mcs_core::indexed::ProfCounters` for field semantics). All zeros
/// unless the engine runs with `EngineConfig::profiling` on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelSnapshot {
    /// Rounds prepared through a clearing arena.
    pub prepares: u64,
    /// Prepares that found the persistent index bitwise unchanged.
    pub reuse_hits: u64,
    /// Prepares that delta-patched the index in place.
    pub sync_patched: u64,
    /// Prepares that re-flattened the index from scratch.
    pub sync_reflattened: u64,
    /// Heap-seed rebuilds.
    pub seed_rebuilds: u64,
    /// Retained user rows patched across syncs.
    pub users_patched: u64,
    /// User rows appended across syncs.
    pub users_appended: u64,
    /// Lazy-greedy heap pops.
    pub heap_pops: u64,
    /// Stale-bound heap tops: re-evaluated against the current
    /// residuals and refreshed in place at the root (or dropped at the
    /// tolerance) instead of selected.
    pub stale_reevals: u64,
    /// Bisection steps requested across critical-bid searches.
    pub probes_requested: u64,
    /// Steps that ran the real greedy probe.
    pub probes_run: u64,
    /// Steps skipped by the warm-start certificate.
    pub probes_saved_warm_start: u64,
    /// Steps decided from the base run: certain losses and certified wins.
    pub probes_saved_loss_scan: u64,
    /// Largest clearing-arena footprint any worker reported, bytes.
    pub arena_resident_bytes: u64,
}

impl KernelSnapshot {
    /// Total bisection steps skipped without running the greedy.
    pub fn probes_saved(&self) -> u64 {
        self.probes_saved_warm_start + self.probes_saved_loss_scan
    }

    /// `reuse_hits / prepares`, or 0 before any round was prepared.
    pub fn reuse_hit_rate(&self) -> f64 {
        if self.prepares == 0 {
            0.0
        } else {
            self.reuse_hits as f64 / self.prepares as f64
        }
    }
}

/// A point-in-time copy of the engine's metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Bids received, including rejected and shed ones.
    pub bids_received: u64,
    /// Bids rejected at ingest.
    pub bids_rejected: u64,
    /// Bids shed by admission control before validation.
    pub bids_shed: u64,
    /// Bids quarantined past a partial clearing's budget.
    pub bids_deferred: u64,
    /// Rounds closed by the batcher.
    pub rounds_closed: u64,
    /// Rounds cleared successfully.
    pub rounds_cleared: u64,
    /// Rounds quarantined by the degrade path.
    pub rounds_degraded: u64,
    /// Rounds cleared partially because they exceeded the clearing
    /// budget (each also counts in `rounds_cleared` and
    /// `rounds_degraded`).
    pub rounds_partial: u64,
    /// Winners selected across all cleared rounds.
    pub winners_selected: u64,
    /// Per-stage latency statistics, in pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Aggregate economic quality of the cleared rounds.
    pub economics: EconSnapshot,
    /// Clearing-kernel profiling counters (all zeros unless profiling is
    /// on; absent in older serialized snapshots, where it reads as zeros).
    #[serde(default)]
    pub kernel: KernelSnapshot,
}

impl MetricsSnapshot {
    /// Flattens this snapshot into the SLO watchdog's input shape (see
    /// `mcs_obs::slo`): per-stage latency summaries plus the economics
    /// the drift budgets compare against a pinned baseline.
    pub fn slo_inputs(&self) -> mcs_obs::SloInputs {
        mcs_obs::SloInputs {
            rounds_cleared: self.rounds_cleared,
            bids_received: self.bids_received,
            stages: self
                .stages
                .iter()
                .map(|stage| mcs_obs::StageObservation {
                    stage: stage.stage.clone(),
                    count: stage.count,
                    total_ns: stage.total_ns,
                    p99_ns: stage.p99_ns,
                })
                .collect(),
            overpayment_ratio: self.economics.overpayment_ratio,
            coverage_slack_mean: (self.economics.rounds > 0)
                .then_some(self.economics.coverage_slack_mean),
        }
    }

    /// Renders this snapshot as Prometheus text exposition (0.0.4).
    /// Non-finite values render as `0`; the payload never contains `NaN`.
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        let counters: [(&str, u64, &str); 9] = [
            (
                "mcs_bids_received_total",
                self.bids_received,
                "Bids received, including rejected and shed ones.",
            ),
            (
                "mcs_bids_rejected_total",
                self.bids_rejected,
                "Bids rejected at ingest.",
            ),
            (
                "mcs_bids_shed_total",
                self.bids_shed,
                "Bids shed by admission control before validation.",
            ),
            (
                "mcs_bids_deferred_total",
                self.bids_deferred,
                "Bids quarantined past a partial clearing's budget.",
            ),
            (
                "mcs_rounds_partial_total",
                self.rounds_partial,
                "Rounds cleared partially under the clearing budget.",
            ),
            (
                "mcs_rounds_closed_total",
                self.rounds_closed,
                "Rounds closed by the batcher.",
            ),
            (
                "mcs_rounds_cleared_total",
                self.rounds_cleared,
                "Rounds cleared successfully.",
            ),
            (
                "mcs_rounds_degraded_total",
                self.rounds_degraded,
                "Rounds quarantined by the degrade path.",
            ),
            (
                "mcs_winners_selected_total",
                self.winners_selected,
                "Winners selected across all cleared rounds.",
            ),
        ];
        for (name, value, help) in counters {
            w.family(name, PromKind::Counter, help);
            w.sample(name, value as f64);
        }

        type StageGauge = (&'static str, fn(&StageSnapshot) -> f64, &'static str);
        let gauges: [StageGauge; 5] = [
            (
                "mcs_stage_count",
                |s| s.count as f64,
                "Latency samples recorded per stage.",
            ),
            (
                "mcs_stage_mean_ns",
                |s| s.mean_ns,
                "Mean stage latency, nanoseconds.",
            ),
            (
                "mcs_stage_p50_ns",
                |s| s.p50_ns as f64,
                "Median stage latency, nanoseconds.",
            ),
            (
                "mcs_stage_p99_ns",
                |s| s.p99_ns as f64,
                "99th-percentile stage latency, nanoseconds.",
            ),
            (
                "mcs_stage_max_ns",
                |s| s.max_ns as f64,
                "Slowest stage sample, nanoseconds.",
            ),
        ];
        for (name, value, help) in gauges {
            w.family(name, PromKind::Gauge, help);
            for stage in &self.stages {
                w.labelled(name, "stage", &stage.stage, value(stage));
            }
        }

        let econ = &self.economics;
        let econ_gauges: [(&str, f64, &str); 5] = [
            (
                "mcs_econ_rounds",
                econ.rounds as f64,
                "Cleared rounds contributing to economic aggregates.",
            ),
            (
                "mcs_overpayment_ratio",
                econ.overpayment_ratio.unwrap_or(0.0),
                "Expected payment over the social-cost lower bound (0 until data).",
            ),
            (
                "mcs_coverage_slack_mean",
                econ.coverage_slack_mean,
                "Mean per-round coverage slack in the contribution domain.",
            ),
            (
                "mcs_winner_redundancy_mean",
                econ.winner_redundancy_mean,
                "Mean winners covering each task.",
            ),
            (
                "mcs_quarantine_rate",
                econ.quarantine_rate,
                "Quarantined rounds over closed rounds.",
            ),
        ];
        for (name, value, help) in econ_gauges {
            w.family(name, PromKind::Gauge, help);
            w.sample(name, value);
        }

        let k = &self.kernel;
        let kernel_counters: [(&str, u64, &str); 13] = [
            (
                "mcs_kernel_prepares_total",
                k.prepares,
                "Rounds prepared through a clearing arena.",
            ),
            (
                "mcs_kernel_reuse_hits_total",
                k.reuse_hits,
                "Prepares that found the persistent index unchanged.",
            ),
            (
                "mcs_kernel_sync_patched_total",
                k.sync_patched,
                "Prepares that delta-patched the index in place.",
            ),
            (
                "mcs_kernel_sync_reflattened_total",
                k.sync_reflattened,
                "Prepares that re-flattened the index from scratch.",
            ),
            (
                "mcs_kernel_seed_rebuilds_total",
                k.seed_rebuilds,
                "Heap-seed rebuilds after index changes.",
            ),
            (
                "mcs_kernel_users_patched_total",
                k.users_patched,
                "Retained user rows patched across index syncs.",
            ),
            (
                "mcs_kernel_users_appended_total",
                k.users_appended,
                "User rows appended across index syncs.",
            ),
            (
                "mcs_kernel_heap_pops_total",
                k.heap_pops,
                "Lazy-greedy heap pops across all runs.",
            ),
            (
                "mcs_kernel_stale_reevals_total",
                k.stale_reevals,
                "Stale-bound heap tops refreshed in place or dropped.",
            ),
            (
                "mcs_kernel_probes_requested_total",
                k.probes_requested,
                "Bisection steps requested across critical-bid searches.",
            ),
            (
                "mcs_kernel_probes_run_total",
                k.probes_run,
                "Bisection steps that ran the real greedy probe.",
            ),
            (
                "mcs_kernel_probes_saved_warm_start_total",
                k.probes_saved_warm_start,
                "Bisection steps skipped by the warm-start certificate.",
            ),
            (
                "mcs_kernel_probes_saved_loss_scan_total",
                k.probes_saved_loss_scan,
                "Bisection steps decided from the base run: certain losses and certified wins.",
            ),
        ];
        for (name, value, help) in kernel_counters {
            w.family(name, PromKind::Counter, help);
            w.sample(name, value as f64);
        }
        let kernel_gauges: [(&str, f64, &str); 2] = [
            (
                "mcs_arena_resident_bytes",
                k.arena_resident_bytes as f64,
                "Largest clearing-arena footprint any worker reported, bytes.",
            ),
            (
                "mcs_kernel_reuse_hit_rate",
                k.reuse_hit_rate(),
                "Reuse hits over prepares (0 until a round is prepared).",
            ),
        ];
        for (name, value, help) in kernel_gauges {
            w.family(name, PromKind::Gauge, help);
            w.sample(name, value);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.bid_received();
        m.bid_received();
        m.bid_rejected();
        m.bid_shed();
        m.round_closed();
        m.round_cleared(3);
        m.round_degraded();
        m.round_partial(5);
        let snap = m.snapshot();
        assert_eq!(snap.bids_received, 2);
        assert_eq!(snap.bids_rejected, 1);
        assert_eq!(snap.bids_shed, 1);
        assert_eq!(snap.bids_deferred, 5);
        assert_eq!(snap.rounds_closed, 1);
        assert_eq!(snap.rounds_cleared, 1);
        assert_eq!(snap.rounds_degraded, 1);
        assert_eq!(snap.rounds_partial, 1);
        assert_eq!(snap.winners_selected, 3);
        assert_eq!(snap.economics.quarantine_rate, 1.0);
    }

    #[test]
    fn prometheus_exposition_passes_lint_and_counters_stay_monotone() {
        let m = Metrics::new();
        m.bid_received();
        m.round_closed();
        m.round_cleared(2);
        m.record(Stage::Shard, Duration::from_micros(50));
        m.record_kernel(&mcs_core::indexed::ProfCounters {
            prepares: 1,
            heap_pops: 4,
            resident_bytes: 128,
            ..Default::default()
        });

        let first = m.to_prometheus();
        assert_eq!(
            mcs_obs::prom::lint(&first),
            Vec::<String>::new(),
            "exposition has structural defects"
        );
        // Every family the snapshot exposes must carry HELP and TYPE.
        for line in first.lines().filter(|l| !l.starts_with('#')) {
            let family = line.split(['{', ' ']).next().unwrap();
            assert!(first.contains(&format!("# HELP {family} ")), "{family}");
            assert!(first.contains(&format!("# TYPE {family} ")), "{family}");
        }

        // A second scrape after more traffic: every counter series is
        // monotone non-decreasing.
        m.bid_received();
        m.round_cleared(1);
        m.record_kernel(&mcs_core::indexed::ProfCounters {
            prepares: 2,
            ..Default::default()
        });
        let second = m.to_prometheus();
        assert_eq!(mcs_obs::prom::lint(&second), Vec::<String>::new());
        let before: std::collections::BTreeMap<String, f64> =
            mcs_obs::prom::counter_samples(&first).into_iter().collect();
        let after: std::collections::BTreeMap<String, f64> =
            mcs_obs::prom::counter_samples(&second)
                .into_iter()
                .collect();
        assert!(!before.is_empty());
        assert_eq!(before.len(), after.len(), "counter families changed");
        for (series, &was) in &before {
            let now = after[series];
            assert!(now >= was, "{series} went backwards: {was} -> {now}");
        }
        assert!(after["mcs_kernel_prepares_total"] > before["mcs_kernel_prepares_total"]);
    }

    #[test]
    fn latency_stats_are_consistent() {
        let m = Metrics::new();
        for micros in [1, 10, 100, 1000] {
            m.record(Stage::Shard, Duration::from_micros(micros));
        }
        let snap = m.snapshot();
        let shard = snap.stages.iter().find(|s| s.stage == "shard").unwrap();
        assert_eq!(shard.count, 4);
        assert!(shard.min_ns <= shard.max_ns);
        assert!(shard.mean_ns > 0.0);
        assert!(shard.p50_ns <= shard.p99_ns);
        assert!(shard.total_ns >= 1_111_000);
        // Untouched stages stay empty.
        let settle = snap.stages.iter().find(|s| s.stage == "settle").unwrap();
        assert_eq!(settle.count, 0);
        assert_eq!(settle.mean_ns, 0.0);
    }

    #[test]
    fn percentiles_never_exceed_the_observed_maximum() {
        let m = Metrics::new();
        // One sample: its bucket's upper bound (2^i+1 ns) overshoots the
        // sample itself; both percentiles must clamp to it.
        m.record(Stage::Pay, Duration::from_nanos(1000));
        let snap = m.snapshot();
        let pay = snap.stages.iter().find(|s| s.stage == "pay").unwrap();
        assert_eq!(pay.max_ns, 1000);
        assert_eq!(pay.p50_ns, 1000);
        assert_eq!(pay.p99_ns, 1000);
    }

    #[test]
    fn bucket_edge_samples_are_recorded_sanely() {
        let m = Metrics::new();
        m.record(Stage::Ingest, Duration::from_nanos(0));
        m.record(Stage::Ingest, Duration::from_nanos(1));
        // Saturates to u64::MAX ns and the top bucket, without panicking.
        m.record(Stage::Ingest, Duration::from_secs(u64::MAX / 1_000_000_000));
        let snap = m.snapshot();
        let ingest = snap.stages.iter().find(|s| s.stage == "ingest").unwrap();
        assert_eq!(ingest.count, 3);
        assert_eq!(ingest.min_ns, 0);
        assert!(ingest.max_ns > 1u64 << 60);
        assert!(ingest.p50_ns <= ingest.p99_ns);
        assert!(ingest.p99_ns <= ingest.max_ns);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let snap = Metrics::new().snapshot();
        assert_eq!(snap.bids_received, 0);
        assert_eq!(snap.economics.rounds, 0);
        assert_eq!(snap.economics.overpayment_ratio, None);
        assert_eq!(snap.economics.quarantine_rate, 0.0);
        for stage in &snap.stages {
            assert_eq!(stage.count, 0);
            assert_eq!(stage.min_ns, 0);
            assert_eq!(stage.max_ns, 0);
            assert_eq!(stage.mean_ns, 0.0);
            assert_eq!(stage.p50_ns, 0);
            assert_eq!(stage.p99_ns, 0);
        }
    }

    #[test]
    fn concurrent_recording_sums_exactly() {
        let m = std::sync::Arc::new(Metrics::new());
        let threads = 8;
        let per_thread = 500;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let m = std::sync::Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        m.bid_received();
                        m.record(Stage::Shard, Duration::from_nanos(100));
                        m.record_economics(&RoundEconomics {
                            expected_payment: 2.0,
                            social_cost: 1.0,
                            coverage_slack: 0.5,
                            winner_redundancy: 1.0,
                        });
                    }
                });
            }
        });
        let snap = m.snapshot();
        let total = (threads * per_thread) as u64;
        assert_eq!(snap.bids_received, total);
        let shard = snap.stages.iter().find(|s| s.stage == "shard").unwrap();
        assert_eq!(shard.count, total);
        assert_eq!(shard.total_ns, total * 100);
        assert_eq!(snap.economics.rounds, total);
        assert!((snap.economics.expected_payment_total - total as f64 * 2.0).abs() < 1e-6);
        assert_eq!(snap.economics.overpayment_ratio, Some(2.0));
        assert!((snap.economics.coverage_slack_mean - 0.5).abs() < 1e-9);
    }

    #[test]
    fn allocate_and_pay_are_distinct_shard_subspans() {
        let m = Metrics::new();
        m.record(Stage::Allocate, Duration::from_micros(5));
        m.record(Stage::Pay, Duration::from_micros(50));
        m.record(Stage::Pay, Duration::from_micros(70));
        let snap = m.snapshot();
        let stage = |name: &str| snap.stages.iter().find(|s| s.stage == name).unwrap();
        assert_eq!(stage("allocate").count, 1);
        assert_eq!(stage("pay").count, 2);
        assert_eq!(stage("shard").count, 0);
        // Snapshot order follows the pipeline.
        let names: Vec<&str> = snap.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            ["ingest", "batch", "shard", "allocate", "pay", "settle", "shed"]
        );
    }

    #[test]
    fn kernel_counters_accumulate_and_keep_the_byte_high_water_mark() {
        use mcs_core::indexed::ProfCounters;
        let m = Metrics::new();
        m.record_kernel(&ProfCounters {
            prepares: 2,
            reuse_hits: 1,
            sync_patched: 1,
            heap_pops: 10,
            stale_reevals: 3,
            probes_requested: 6,
            probes_run: 2,
            probes_saved_warm_start: 3,
            probes_saved_loss_scan: 1,
            resident_bytes: 4096,
            ..ProfCounters::default()
        });
        m.record_kernel(&ProfCounters {
            prepares: 1,
            sync_reflattened: 1,
            seed_rebuilds: 1,
            heap_pops: 5,
            resident_bytes: 1024, // smaller: the gauge keeps the max
            ..ProfCounters::default()
        });
        let k = m.snapshot().kernel;
        assert_eq!(k.prepares, 3);
        assert_eq!(k.reuse_hits, 1);
        assert_eq!(k.heap_pops, 15);
        assert_eq!(k.probes_saved(), 4);
        assert_eq!(k.probes_saved() + k.probes_run, k.probes_requested);
        assert_eq!(k.arena_resident_bytes, 4096);
        assert!((k.reuse_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        // The families render with their zero-state siblings intact.
        let text = m.to_prometheus();
        assert!(text.contains("mcs_kernel_heap_pops_total 15"));
        assert!(text.contains("mcs_arena_resident_bytes 4096"));
    }

    #[test]
    fn concurrent_kernel_recording_and_scraping_stay_consistent() {
        use mcs_core::indexed::ProfCounters;
        let m = std::sync::Arc::new(Metrics::new());
        let writers = 4u64;
        let per_writer = 250u64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let m = std::sync::Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..per_writer {
                        m.record_kernel(&ProfCounters {
                            prepares: 1,
                            reuse_hits: 1,
                            heap_pops: 7,
                            probes_requested: 3,
                            probes_run: 1,
                            probes_saved_warm_start: 1,
                            probes_saved_loss_scan: 1,
                            resident_bytes: 100 + w * per_writer + i,
                            ..ProfCounters::default()
                        });
                    }
                });
            }
            // Scrape concurrently. Mid-drain snapshots need not satisfy
            // the conservation laws (relaxed atomics have no cross-field
            // ordering), but each counter must be monotone scrape over
            // scrape and the text exposition must stay well-formed.
            let m = std::sync::Arc::clone(&m);
            scope.spawn(move || {
                let mut last = KernelSnapshot::default();
                for _ in 0..200 {
                    let k = m.snapshot().kernel;
                    assert!(k.prepares >= last.prepares);
                    assert!(k.heap_pops >= last.heap_pops);
                    assert!(k.probes_requested >= last.probes_requested);
                    assert!(k.arena_resident_bytes >= last.arena_resident_bytes);
                    last = k;
                    assert!(!m.to_prometheus().contains("NaN"));
                }
            });
        });
        let k = m.snapshot().kernel;
        let total = writers * per_writer;
        assert_eq!(k.prepares, total);
        assert_eq!(k.heap_pops, total * 7);
        assert_eq!(k.probes_saved() + k.probes_run, k.probes_requested);
        assert_eq!(k.arena_resident_bytes, 100 + total - 1);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::new();
        m.record(Stage::Ingest, Duration::from_nanos(250));
        m.bid_received();
        let json = m.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m.snapshot());
        assert!(json.contains("\"ingest\""));
    }

    #[test]
    fn prometheus_payload_is_well_formed_and_nan_free() {
        let m = Metrics::new();
        m.bid_received();
        m.round_closed();
        m.round_cleared(2);
        m.record(Stage::Shard, Duration::from_micros(10));
        let text = m.to_prometheus();
        for family in [
            "mcs_bids_received_total",
            "mcs_bids_shed_total",
            "mcs_rounds_cleared_total",
            "mcs_rounds_partial_total",
            "mcs_stage_p99_ns",
            "mcs_overpayment_ratio",
            "mcs_quarantine_rate",
        ] {
            assert!(text.contains(&format!("# TYPE {family}")), "{family}");
        }
        assert!(text.contains("mcs_bids_received_total 1"));
        assert!(text.contains("mcs_stage_count{stage=\"shard\"} 1"));
        assert!(!text.contains("NaN"));
        // Even an empty registry renders NaN-free.
        assert!(!Metrics::new().to_prometheus().contains("NaN"));
    }
}
