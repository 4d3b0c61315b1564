//! Cluster configuration.

use mcs_platform::config::EngineConfig;

use crate::topology::shard_seed;

/// The mechanism parameters every shard shares. The only per-shard
/// difference is the seed, derived via
/// [`shard_seed`](crate::topology::shard_seed) — everything else must be
/// identical or the 1-node ≡ N-node equivalence proof would be comparing
/// different auctions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Cluster master seed; shard seeds derive from it.
    pub seed: u64,
    /// Ignored: a node clears each sub-round inline, on one thread. Kept
    /// only because perfbench (`perfbench/src/main.rs`) names it in a
    /// struct literal; delete it together with that reference.
    pub workers: usize,
    /// Payment fan-out per sub-round clear (outcome-invariant).
    pub payment_threads: usize,
    /// Reward scaling factor `α`.
    pub alpha: f64,
    /// FPTAS approximation parameter `ε` (single-task sub-rounds).
    pub epsilon: f64,
    /// Span-ring capacity per node shard (logical clock).
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

    /// The clearing configuration of shard `shard`: the shared
    /// parameters with the shard-derived seed. Only the fields a clear
    /// reads are set: seed, payment threads, `α` and `ε`.
    pub fn engine_config(&self, shard: u32) -> EngineConfig {
        let mut config = EngineConfig::default()
            .with_seed(shard_seed(self.seed, shard))
            .with_payment_threads(self.payment_threads);
        config.alpha = self.alpha;
        config.epsilon = self.epsilon;
        config
    }
}

/// A full cluster deployment description. Every node runs a primary and
/// a stateless spare; on losing the primary the coordinator promotes the
/// spare and sends it the same request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Node count (placement only — outcomes are invariant to it).
    pub nodes: u32,
    /// Shared shard parameters.
    pub params: ClusterParams,
}

impl ClusterConfig {
    /// A deployment of `nodes` nodes, each with a spare, with default
    /// parameters.
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
        assert_eq!(a.payment_threads, params.payment_threads);
        assert_eq!(a.alpha.to_bits(), params.alpha.to_bits());
        assert_eq!(a.epsilon.to_bits(), params.epsilon.to_bits());
    }
}
