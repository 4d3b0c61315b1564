//! Engine configuration.

use serde::{Deserialize, Serialize};

/// When the batcher closes the round it is currently filling.
///
/// A round closes as soon as it holds [`BatchPolicy::max_bids`] bids, or
/// when [`BatchPolicy::max_ticks`] engine ticks have elapsed since the
/// round opened and it holds at least one bid — whichever comes first.
/// Ticks stand in for wall-clock deadlines so that batching stays
/// deterministic under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Close the round once it holds this many bids.
    pub max_bids: usize,
    /// Close a non-empty round after this many ticks.
    pub max_ticks: u32,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_bids: 64,
            max_ticks: 4,
        }
    }
}

/// How admission control decides which bids to shed while the engine is
/// over its high watermark.
///
/// Every policy is *type-blind*: the decision is a function of arrival
/// order and backlog depth only, never of the bid's declared cost or
/// PoS. Inspecting the type would reintroduce the manipulation channel
/// the critical-bid payments close — a user could shade their report to
/// dodge the shedder — so the shedder never even parses the bid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Drop every arriving bid while the backlog is over the watermark
    /// (FIFO tail drop). Gives a hard backlog bound: the backlog can
    /// never exceed the high watermark.
    TailDrop,
    /// Drop each arriving bid with probability [`SeededUniform::rate`],
    /// using a coin derived from `(seed, arrival sequence)` —
    /// deterministic for a fixed seed and stream, independent of worker
    /// count.
    SeededUniform(SeededUniform),
}

/// Parameters of [`ShedPolicy::SeededUniform`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeededUniform {
    /// Seed of the shedding coin stream.
    pub seed: u64,
    /// Per-bid drop probability in `[0, 1]`.
    pub rate: f64,
}

/// Bounded-admission configuration: the overload-control layer that sits
/// in front of ingest.
///
/// Shedding engages when the engine's backlog (bids batched but not yet
/// cleared, plus bids in the open round) reaches `high_watermark` and
/// disengages once it falls back to `low_watermark` — classic
/// hysteresis, so the shedder does not flap at the boundary. A
/// `high_watermark` of 0 disables admission control entirely (the
/// default: nothing sheds unless asked).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Backlog depth (in bids) at which shedding engages; 0 disables
    /// admission control.
    pub high_watermark: usize,
    /// Backlog depth at or below which shedding disengages.
    pub low_watermark: usize,
    /// Which bids to shed while engaged.
    pub policy: ShedPolicy,
    /// Per-round clearing budget in bids; a round larger than this is
    /// partially cleared (the admitted prefix clears, the remainder is
    /// quarantined with a typed reason). 0 means unlimited.
    pub clear_budget: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            high_watermark: 0,
            low_watermark: 0,
            policy: ShedPolicy::TailDrop,
            clear_budget: 0,
        }
    }
}

impl AdmissionConfig {
    /// Whether any bid can ever be shed under this configuration.
    pub fn is_enabled(&self) -> bool {
        self.high_watermark > 0
    }
}

/// Flight-recorder configuration (see `mcs_obs::FlightRecorder`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Ring capacity in events; 0 disables tracing entirely. All memory
    /// is allocated up front, so this bounds trace memory forever.
    pub capacity: usize,
    /// Timestamp events with their own sequence number instead of wall
    /// time, making traces (and quarantine post-mortems) bitwise
    /// deterministic for a fixed seed and any worker count.
    pub logical_clock: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 16_384,
            logical_clock: false,
        }
    }
}

/// Full engine configuration.
///
/// The mechanism parameters mirror the paper's Table II defaults; the
/// engine picks the single-task FPTAS mechanism for one-task rounds and
/// the multi-task greedy mechanism otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of shard workers clearing rounds in parallel. Results are
    /// identical for every value ≥ 1 (see `shard` module docs).
    pub workers: usize,
    /// Round-closing policy.
    pub batch: BatchPolicy,
    /// Master seed; each round's execution draws come from a stream
    /// derived from `(seed, round id)` so outcomes do not depend on which
    /// worker clears the round.
    pub seed: u64,
    /// Reward scaling factor `α`.
    pub alpha: f64,
    /// FPTAS approximation parameter `ε` (single-task rounds only).
    pub epsilon: f64,
    /// Threads each shard worker fans a multi-task round's per-winner
    /// payments over. Payments are bitwise identical for every value ≥ 1;
    /// this knob only trades wall-clock time for cores.
    pub payment_threads: usize,
    /// Flight-recorder settings for the engine's trace ring.
    pub trace: TraceConfig,
    /// Bounded-admission / load-shedding settings (disabled by default).
    pub admission: AdmissionConfig,
    /// Drain each shard worker's kernel profiling counters (heap pops,
    /// bisection probes saved, sync modes, arena bytes — see
    /// `mcs_core::indexed::ProfCounters`) into the engine metrics after
    /// every round. The counters are pure telemetry: outcomes and
    /// fingerprints are bitwise identical with profiling on or off; the
    /// flag only gates the atomic drain into `/metrics`. Defaults to
    /// `false` and deserializes to `false` when absent.
    #[serde(default)]
    pub profiling: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            batch: BatchPolicy::default(),
            seed: 0,
            alpha: 10.0,
            epsilon: 0.5,
            payment_threads: 1,
            trace: TraceConfig::default(),
            admission: AdmissionConfig::default(),
            profiling: false,
        }
    }
}

impl EngineConfig {
    /// This configuration with a different worker count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// This configuration with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// This configuration with a different per-round payment fan-out
    /// (clamped to ≥ 1).
    pub fn with_payment_threads(mut self, threads: usize) -> Self {
        self.payment_threads = threads.max(1);
        self
    }

    /// This configuration with different flight-recorder settings.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// This configuration with different admission-control settings.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// This configuration with kernel profiling toggled.
    pub fn with_profiling(mut self, profiling: bool) -> Self {
        self.profiling = profiling;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = EngineConfig::default();
        assert!(config.workers >= 1);
        assert!(config.batch.max_bids > 0);
        assert!(config.batch.max_ticks > 0);
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = EngineConfig::default().with_seed(7).with_workers(2);
        let json = serde_json::to_string(&config).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
    }

    #[test]
    fn trace_config_defaults_and_builder() {
        let config = EngineConfig::default();
        assert!(config.trace.capacity > 0);
        assert!(!config.trace.logical_clock);
        let traced = config.with_trace(TraceConfig {
            capacity: 1024,
            logical_clock: true,
        });
        assert_eq!(traced.trace.capacity, 1024);
        assert!(traced.trace.logical_clock);
    }

    #[test]
    fn admission_defaults_disabled_and_round_trip_json() {
        let config = EngineConfig::default();
        assert!(!config.admission.is_enabled());
        assert_eq!(config.admission.clear_budget, 0);

        let tuned = config.with_admission(AdmissionConfig {
            high_watermark: 128,
            low_watermark: 64,
            policy: ShedPolicy::SeededUniform(SeededUniform {
                seed: 9,
                rate: 0.25,
            }),
            clear_budget: 32,
        });
        assert!(tuned.admission.is_enabled());
        let json = serde_json::to_string(&tuned).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(tuned, back);
    }

    #[test]
    fn legacy_reuse_index_json_still_parses() {
        // Serialized configs may still carry the retired `reuse_index`
        // key; it is ignored whichever value it holds.
        let json = serde_json::to_string(&EngineConfig::default().with_seed(3)).unwrap();
        assert!(!json.contains("reuse_index"), "{json}");
        for value in ["true", "false"] {
            let legacy = json.replacen('{', &format!("{{\"reuse_index\":{value},"), 1);
            let back: EngineConfig = serde_json::from_str(&legacy).unwrap();
            assert_eq!(back, EngineConfig::default().with_seed(3), "{legacy}");
        }
    }

    #[test]
    fn profiling_defaults_off_and_legacy_json_still_parses() {
        let config = EngineConfig::default();
        assert!(!config.profiling);
        assert!(config.with_profiling(true).profiling);
        let json = serde_json::to_string(&EngineConfig::default()).unwrap();
        let legacy = json.replace(",\"profiling\":false", "");
        assert!(!legacy.contains("profiling"), "{legacy}");
        let back: EngineConfig = serde_json::from_str(&legacy).unwrap();
        assert!(!back.profiling);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(EngineConfig::default().with_workers(0).workers, 1);
    }

    #[test]
    fn payment_threads_default_and_clamp() {
        assert_eq!(EngineConfig::default().payment_threads, 1);
        assert_eq!(
            EngineConfig::default()
                .with_payment_threads(0)
                .payment_threads,
            1
        );
        assert_eq!(
            EngineConfig::default()
                .with_payment_threads(8)
                .payment_threads,
            8
        );
    }
}
