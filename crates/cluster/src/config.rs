//! Cluster configuration.

use mcs_platform::config::{BatchPolicy, EngineConfig, TraceConfig};

use crate::topology::shard_seed;

/// The mechanism/engine parameters every shard engine shares. The only
/// per-shard difference is the seed, derived via
/// [`shard_seed`](crate::topology::shard_seed) — everything else must be
/// identical or the 1-node ≡ N-node equivalence proof would be comparing
/// different auctions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Cluster master seed; shard engine seeds derive from it.
    pub seed: u64,
    /// Shard workers per engine (outcome-invariant).
    pub workers: usize,
    /// Payment fan-out per engine (outcome-invariant).
    pub payment_threads: usize,
    /// Reward scaling factor `α`.
    pub alpha: f64,
    /// FPTAS approximation parameter `ε` (single-task sub-rounds).
    pub epsilon: f64,
    /// Flight-recorder ring capacity per shard engine.
    pub trace_capacity: usize,
}

impl Default for ClusterParams {
    fn default() -> Self {
        let engine = EngineConfig::default();
        ClusterParams {
            seed: 0,
            workers: engine.workers,
            payment_threads: engine.payment_threads,
            alpha: engine.alpha,
            epsilon: engine.epsilon,
            trace_capacity: 4096,
        }
    }
}

impl ClusterParams {
    /// These parameters with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The engine configuration of shard `shard`: the shared parameters
    /// with the shard-derived seed, the flush-only batch policy (the node
    /// closes each sub-round explicitly, however many bids it routes),
    /// and a logical-clock trace ring so per-shard traces stay
    /// deterministic.
    pub fn engine_config(&self, shard: u32) -> EngineConfig {
        let mut config = EngineConfig::default()
            .with_seed(shard_seed(self.seed, shard))
            .with_workers(self.workers)
            .with_payment_threads(self.payment_threads)
            .with_trace(TraceConfig {
                capacity: self.trace_capacity,
                logical_clock: true,
            });
        config.alpha = self.alpha;
        config.epsilon = self.epsilon;
        config.batch = BatchPolicy::FLUSH_ONLY;
        config
    }
}

/// A full cluster deployment description. Every node runs a primary and
/// a follower, and the coordinator replicates checkpoint deltas to each
/// follower after every round, so promote-on-loss failover preserves
/// outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Node count (placement only — outcomes are invariant to it).
    pub nodes: u32,
    /// Shared shard-engine parameters.
    pub params: ClusterParams,
}

impl ClusterConfig {
    /// A replicated deployment of `nodes` nodes with default parameters.
    pub fn new(nodes: u32) -> Self {
        ClusterConfig {
            nodes,
            params: ClusterParams::default(),
        }
    }

    /// This configuration with different shard parameters.
    pub fn with_params(mut self, params: ClusterParams) -> Self {
        self.params = params;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_configs_differ_only_in_seed() {
        let params = ClusterParams::default().with_seed(9);
        let a = params.engine_config(0);
        let b = params.engine_config(3);
        assert_ne!(a.seed, b.seed);
        let mut b_with_a_seed = b;
        b_with_a_seed.seed = a.seed;
        assert_eq!(a, b_with_a_seed);
        assert!(a.trace.logical_clock);
        assert!(a.batch.max_bids >= 1 << 20);
        // Node engines never close a sub-round on their own.
        assert_eq!(a.batch, BatchPolicy::FLUSH_ONLY);
    }
}
