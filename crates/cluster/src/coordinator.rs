//! The cluster coordinator: routes each round, drives the two-phase
//! clear across nodes, and settles on the authoritative ledger, the
//! only state that outlives a round.
//!
//! ## Failure handling
//!
//! *Node loss.* An `Unreachable` primary triggers failover to the
//! node's stateless spare: the spare gets `Promote`, becomes the node's
//! active replica, and the same `Clear` is sent there. Nothing is
//! replicated beforehand: clearing is a pure function of `(shard seed,
//! round id, routed bids)`, so the spare produces byte-identical
//! outcomes — the chaos tests pin an unchanged cluster fingerprint
//! across a mid-round loss.
//!
//! *Partition.* When a node's primary *and* spare are unreachable, the
//! whole logical round is quarantined with a typed cause and a JSON
//! post-mortem. Healthy regions still receive their `Clear`, but their
//! outcomes are discarded, phase 2 is skipped, and nothing settles —
//! a quarantined round is all-or-nothing, never silently partial.
//!
//! *Duplicate delivery.* A node answers a redelivered `Clear` from its
//! cache of the last round it served; the coordinator needs no special
//! casing.

use std::collections::{BTreeMap, HashSet};

use mcs_obs::digest::Fnv1a;
use mcs_obs::TraceEvent;
use mcs_platform::degrade::RoundError;
use mcs_platform::ingest::Bid;
use mcs_platform::metrics::RoundEconomics;
use mcs_platform::settle::{fold_rounds, Ledger, RoundSettlement};
use mcs_platform::shard::{clear_round, ClearedRound};

use crate::clearing::{covered_contributions, straddler_round};
use crate::config::ClusterConfig;
use crate::node::NodeServer;
use crate::route::route_bids_with;
use crate::topology::Topology;
use crate::transport::{Endpoint, LoopbackTransport, NodeTransport, Role, TransportError};
use crate::wire::{Request, Response};

/// Why a cluster round was quarantined.
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineCause {
    /// One shard's sub-round failed to clear; the rest of the round
    /// stands.
    Shard {
        /// The failing shard (a region, or the straddler shard).
        shard: u32,
        /// Bidders in the failed sub-round.
        bidders: u64,
        /// The typed clearing error.
        error: RoundError,
    },
    /// A node was unreachable on both replicas; the whole round is
    /// quarantined.
    Partition {
        /// The unreachable node.
        node: u32,
    },
}

/// A quarantined cluster round: the typed cause plus a complete JSON
/// post-mortem for operators.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterQuarantine {
    /// The cluster round id.
    pub round: u64,
    /// What went wrong.
    pub cause: QuarantineCause,
    /// A self-contained JSON post-mortem.
    pub post_mortem: String,
}

/// Everything a cluster (or the mirror oracle) computed: per-shard
/// outcomes, settlements, quarantines, and the authoritative ledger.
#[derive(Debug, Clone, Default)]
pub struct ClusterOutcome {
    /// Cleared sub-rounds keyed `(round, shard)`; the straddler shard is
    /// `topology.straddler_shard()`.
    pub results: BTreeMap<(u64, u32), ClearedRound>,
    /// Settlements keyed `(round, shard)`, applied in ascending key
    /// order.
    pub settlements: BTreeMap<(u64, u32), RoundSettlement>,
    /// Quarantined rounds, in occurrence order.
    pub quarantines: Vec<ClusterQuarantine>,
    /// The authoritative coordinator ledger.
    pub ledger: Ledger,
}

impl ClusterOutcome {
    /// The FNV-1a fingerprint of everything economically meaningful:
    /// each `(round, shard)` sub-round and settlement through the
    /// platform's one per-round fold ([`fold_rounds`]), then quarantine
    /// causes, ledger balances and totals. Node placement, transports,
    /// and failovers never enter the hash — so 1-node and N-node runs of
    /// the same profile must agree bit for bit.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv1a::new();
        fold_rounds(
            &mut fnv,
            &self.results,
            &self.settlements,
            |fnv, &(round, shard)| {
                fnv.write_u64(round);
                fnv.write_u64(u64::from(shard));
            },
        );
        for quarantine in &self.quarantines {
            fnv.write_u64(quarantine.round);
            let (shard, code) = match &quarantine.cause {
                QuarantineCause::Shard { shard, error, .. } => {
                    let code = match error {
                        RoundError::Infeasible { .. } => 1u8,
                        RoundError::Mechanism { .. } => 2,
                        RoundError::Panicked { .. } => 3,
                        RoundError::DeadlineExceeded { .. } => 4,
                    };
                    (*shard, code)
                }
                // The node id is placement-specific and stays out of the
                // hash.
                QuarantineCause::Partition { .. } => (u32::MAX, 0xFF),
            };
            fnv.write_u32(shard);
            fnv.write_u8(code);
        }
        for (user, balance) in self.ledger.balances() {
            fnv.write_u32(user.index() as u32);
            fnv.write_u64(balance.to_bits());
        }
        fnv.write_u64(self.ledger.total_paid().to_bits());
        fnv.write_u64(self.ledger.rounds_settled());
        fnv.finish()
    }
}

/// What one cluster round did.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// The cluster round id.
    pub round: u64,
    /// Shards that cleared winners this round, ascending.
    pub cleared_shards: Vec<u32>,
    /// Whether the whole round was quarantined (partition).
    pub quarantined: bool,
    /// Bids rejected by cluster-wide validation.
    pub rejected: usize,
    /// Nodes that failed over to their spare during this round.
    pub promoted: Vec<u32>,
}

/// A hard coordinator failure — protocol violations, not faults. Faults
/// (loss, partition, duplicates) are handled, not raised.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A node answered outside the protocol.
    Protocol {
        /// The offending node.
        node: u32,
        /// What it said.
        message: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Protocol { node, message } => {
                write!(f, "protocol violation from node {node}: {message}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[derive(serde::Serialize)]
struct ShardPostMortem {
    round: u64,
    cause: &'static str,
    shard: u32,
    bidders: u64,
    error: String,
}

/// Renders the JSON post-mortem of a shard-level quarantine. Shared
/// with the mirror oracle so real and oracle post-mortems compare
/// byte-equal.
pub(crate) fn shard_post_mortem(
    round: u64,
    shard: u32,
    bidders: u64,
    error: &RoundError,
) -> String {
    serde_json::to_string(&ShardPostMortem {
        round,
        cause: "shard",
        shard,
        bidders,
        error: error.to_string(),
    })
    .expect("post-mortem serializes")
}

#[derive(serde::Serialize)]
struct PartitionPostMortem {
    round: u64,
    cause: &'static str,
    node: u32,
    unreached_regions: Vec<u32>,
    discarded_regions: Vec<u32>,
    accepted_bids: u64,
    rejected_bids: u64,
    straddlers: u64,
}

/// The result of one node call after failover handling.
enum NodeCall {
    Ok(Response),
    /// Both replicas unreachable.
    Down,
}

/// The cluster coordinator over any [`NodeTransport`].
pub struct Cluster<T: NodeTransport> {
    topology: Topology,
    config: ClusterConfig,
    transport: T,
    /// Per node: which replica is active.
    active: BTreeMap<u32, Role>,
    next_round: u64,
    outcome: ClusterOutcome,
    /// The routing dedup set, kept across rounds for its capacity.
    seen: HashSet<u32>,
}

impl Cluster<LoopbackTransport> {
    /// An in-process deployment: every node's primary and stateless spare
    /// (its `Follower` endpoint) live behind a loopback transport that
    /// still round-trips the full wire codec.
    pub fn loopback(topology: Topology, config: ClusterConfig) -> Self {
        let params = config.params;
        let nodes = (0..config.nodes)
            .map(|node| {
                (
                    node,
                    NodeServer::new(&topology, params, config.nodes, node, true),
                    NodeServer::new(&topology, params, config.nodes, node, false),
                )
            })
            .collect();
        Cluster::new(topology, config, LoopbackTransport::new(nodes))
    }
}

impl<T: NodeTransport> Cluster<T> {
    /// A coordinator over an already-wired transport. Every node starts
    /// with its primary active.
    pub fn new(topology: Topology, config: ClusterConfig, transport: T) -> Self {
        let active = (0..config.nodes)
            .map(|node| (node, Role::Primary))
            .collect();
        Cluster {
            topology,
            config,
            transport,
            active,
            next_round: 0,
            outcome: ClusterOutcome::default(),
            seen: HashSet::new(),
        }
    }

    /// The deployment topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The next cluster round id.
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// Which replica each node currently runs on.
    pub fn active_roles(&self) -> &BTreeMap<u32, Role> {
        &self.active
    }

    /// The underlying transport — harnesses use this to steer
    /// fault-injecting wrappers between rounds.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Everything computed so far.
    pub fn outcome(&self) -> &ClusterOutcome {
        &self.outcome
    }

    /// The deployment-invariant fingerprint of everything computed so
    /// far.
    pub fn fingerprint(&self) -> u64 {
        self.outcome.fingerprint()
    }

    /// Runs one cluster round over `bids`.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] only on protocol violations; faults are handled
    /// (failover) or quarantined (partition), never raised.
    pub fn run_round(&mut self, bids: &[Bid]) -> Result<RoundReport, ClusterError> {
        let round = self.next_round;
        self.next_round += 1;
        let mut routed = route_bids_with(&self.topology, bids, &mut self.seen);
        let (accepted, rejected) = (routed.accepted(), routed.rejected.len());
        let mut promoted = Vec::new();
        let mut down: Vec<u32> = Vec::new();
        let mut phase1: BTreeMap<u32, ClearedRound> = BTreeMap::new();
        let mut shard_quarantines: Vec<(u32, u64, RoundError)> = Vec::new();

        // Phase 1: every active region clears its sub-round, regions
        // ascending. Regions without bids still get an (empty) Clear: it
        // is how a round finds out a node is down.
        let regions: Vec<u32> = self.topology.active_regions().collect();
        for &region in &regions {
            let node = self.topology.node_of_region(region, self.config.nodes);
            if down.contains(&node) {
                continue;
            }
            // The region's bids travel in the request and come back for
            // the phase-2 residuals: no bid is copied.
            let routed_bids = routed.regional.get_mut(&region);
            let request = Request::Clear {
                region,
                round,
                bids: routed_bids.map(std::mem::take).unwrap_or_default(),
            };
            let call = self.call_with_failover(node, &request, &mut promoted);
            if let (Some(routed_bids), Request::Clear { bids, .. }) =
                (routed.regional.get_mut(&region), request)
            {
                *routed_bids = bids;
            }
            match call? {
                NodeCall::Ok(Response::Cleared { cleared, .. }) => {
                    phase1.insert(region, cleared);
                }
                NodeCall::Ok(Response::ClearedEmpty { .. }) => {}
                NodeCall::Ok(Response::Quarantined { bidders, error, .. }) => {
                    shard_quarantines.push((region, bidders, error));
                }
                NodeCall::Ok(other) => {
                    return Err(ClusterError::Protocol {
                        node,
                        message: format!("unexpected response to Clear: {other:?}"),
                    });
                }
                NodeCall::Down => down.push(node),
            }
        }

        // A partitioned node quarantines the whole round: discard every
        // outcome, settle nothing.
        if !down.is_empty() {
            for &node in &down {
                let node_regions: Vec<u32> = regions
                    .iter()
                    .copied()
                    .filter(|&region| {
                        self.topology.node_of_region(region, self.config.nodes) == node
                    })
                    .collect();
                let post_mortem = serde_json::to_string(&PartitionPostMortem {
                    round,
                    cause: "partition",
                    node,
                    unreached_regions: node_regions,
                    discarded_regions: phase1.keys().copied().collect(),
                    accepted_bids: accepted as u64,
                    rejected_bids: rejected as u64,
                    straddlers: routed.straddlers.len() as u64,
                })
                .expect("post-mortem serializes");
                self.outcome.quarantines.push(ClusterQuarantine {
                    round,
                    cause: QuarantineCause::Partition { node },
                    post_mortem,
                });
            }
            return Ok(RoundReport {
                round,
                cleared_shards: Vec::new(),
                quarantined: true,
                rejected,
                promoted,
            });
        }

        for (shard, bidders, error) in shard_quarantines {
            let post_mortem = shard_post_mortem(round, shard, bidders, &error);
            self.outcome.quarantines.push(ClusterQuarantine {
                round,
                cause: QuarantineCause::Shard {
                    shard,
                    bidders,
                    error,
                },
                post_mortem,
            });
        }

        // Phase 2: the straddler clear against residual requirements,
        // coordinator-local and pure.
        let covered = covered_contributions(&routed.regional, &phase1);
        let straddler_shard = self.topology.straddler_shard();
        let mut results: BTreeMap<u32, ClearedRound> = phase1;
        if let Some(straddler) =
            straddler_round(&self.topology, round, &routed.straddlers, &covered)
        {
            let config = self.config.params.engine_config(straddler_shard);
            let bidders = straddler.profile.user_count() as u64;
            match clear_round(&straddler, &config) {
                Ok(cleared) => {
                    results.insert(straddler_shard, cleared);
                }
                Err(error) => {
                    let post_mortem = shard_post_mortem(round, straddler_shard, bidders, &error);
                    self.outcome.quarantines.push(ClusterQuarantine {
                        round,
                        cause: QuarantineCause::Shard {
                            shard: straddler_shard,
                            bidders,
                            error,
                        },
                        post_mortem,
                    });
                }
            }
        }

        // Settle ascending (round, shard) on the authoritative ledger.
        // Economics are normalized to the default so wire-carried and
        // locally-cleared outcomes compare bit for bit.
        let mut cleared_shards = Vec::new();
        for (shard, mut cleared) in results {
            cleared.economics = RoundEconomics::default();
            let settlement = self.outcome.ledger.settle(&cleared);
            cleared_shards.push(shard);
            self.outcome.results.insert((round, shard), cleared);
            self.outcome.settlements.insert((round, shard), settlement);
        }

        Ok(RoundReport {
            round,
            cleared_shards,
            quarantined: false,
            rejected,
            promoted,
        })
    }

    /// Calls the node's active replica; on an unreachable primary,
    /// promotes the spare and sends it the same request.
    fn call_with_failover(
        &mut self,
        node: u32,
        request: &Request,
        promoted: &mut Vec<u32>,
    ) -> Result<NodeCall, ClusterError> {
        let role = *self.active.get(&node).unwrap_or(&Role::Primary);
        let endpoint = Endpoint { node, role };
        match self.transport.call(endpoint, request) {
            Ok(response) => Ok(NodeCall::Ok(response)),
            Err(TransportError::Protocol(message)) => Err(ClusterError::Protocol { node, message }),
            Err(TransportError::Unreachable(_)) if role == Role::Primary => {
                let follower = Endpoint {
                    node,
                    role: Role::Follower,
                };
                match self.transport.call(follower, &Request::Promote) {
                    Ok(Response::Promoted) => {
                        self.active.insert(node, Role::Follower);
                        if !promoted.contains(&node) {
                            promoted.push(node);
                        }
                        match self.transport.call(follower, request) {
                            Ok(response) => Ok(NodeCall::Ok(response)),
                            Err(TransportError::Protocol(message)) => {
                                Err(ClusterError::Protocol { node, message })
                            }
                            Err(TransportError::Unreachable(_)) => Ok(NodeCall::Down),
                        }
                    }
                    _ => Ok(NodeCall::Down),
                }
            }
            Err(TransportError::Unreachable(_)) => Ok(NodeCall::Down),
        }
    }

    /// Pulls each region shard's trace ring from its active replica.
    /// Unreachable shards are skipped. Feed the result to
    /// `mcs_obs::merge_shard_traces` for one coherent, renumbered
    /// timeline.
    pub fn shard_traces(&mut self) -> Vec<(u32, Vec<TraceEvent>)> {
        let regions: Vec<u32> = self.topology.active_regions().collect();
        let mut traces = Vec::new();
        for region in regions {
            let node = self.topology.node_of_region(region, self.config.nodes);
            let role = *self.active.get(&node).unwrap_or(&Role::Primary);
            let endpoint = Endpoint { node, role };
            if let Ok(Response::Trace(events)) = self
                .transport
                .call(endpoint, &Request::TraceSnapshot { region })
            {
                traces.push((region, events));
            }
        }
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterParams;
    use crate::topology::TaskSite;
    use mcs_core::types::{Task, TaskId};
    use mcs_mobility::grid::{Cell, CityGrid};

    fn topology() -> Topology {
        let grid = CityGrid::new(4, 2, 1.0);
        let sites = vec![
            TaskSite {
                task: Task::with_requirement(TaskId::new(0), 0.8).unwrap(),
                cell: Cell { x: 0, y: 0 },
            },
            TaskSite {
                task: Task::with_requirement(TaskId::new(1), 0.7).unwrap(),
                cell: Cell { x: 3, y: 0 },
            },
        ];
        Topology::bands(grid, 2, sites).unwrap()
    }

    fn bid(user: u32, cost: f64, tasks: &[(u32, f64)]) -> Bid {
        Bid {
            user,
            cost,
            tasks: tasks.to_vec(),
        }
    }

    fn round_bids() -> Vec<Bid> {
        vec![
            bid(0, 2.0, &[(0, 0.6)]),
            bid(1, 1.5, &[(0, 0.7)]),
            bid(2, 1.8, &[(1, 0.6)]),
            bid(3, 2.2, &[(1, 0.5)]),
            bid(4, 3.0, &[(0, 0.4), (1, 0.4)]), // straddler
        ]
    }

    #[test]
    fn one_node_and_two_node_runs_are_bitwise_identical() {
        let params = ClusterParams::default().with_seed(11);
        let mut one = Cluster::loopback(topology(), ClusterConfig::new(1).with_params(params));
        let mut two = Cluster::loopback(topology(), ClusterConfig::new(2).with_params(params));
        for _ in 0..3 {
            let a = one.run_round(&round_bids()).unwrap();
            let b = two.run_round(&round_bids()).unwrap();
            assert_eq!(a.cleared_shards, b.cleared_shards);
        }
        assert_eq!(one.outcome().results, two.outcome().results);
        assert_eq!(one.outcome().settlements, two.outcome().settlements);
        assert_eq!(
            one.outcome().ledger.balances(),
            two.outcome().ledger.balances()
        );
        assert_eq!(one.fingerprint(), two.fingerprint());
    }

    #[test]
    fn straddlers_clear_in_phase_two_against_residuals() {
        let params = ClusterParams::default().with_seed(5);
        let mut cluster = Cluster::loopback(topology(), ClusterConfig::new(2).with_params(params));
        // Thin regional coverage so the straddler is needed.
        let bids = vec![
            bid(0, 1.0, &[(0, 0.5)]),
            bid(1, 1.0, &[(1, 0.5)]),
            bid(2, 1.0, &[(0, 0.9), (1, 0.9)]),
        ];
        let report = cluster.run_round(&bids).unwrap();
        let straddler_shard = cluster.topology().straddler_shard();
        assert!(
            report.cleared_shards.contains(&straddler_shard),
            "straddler shard should clear: {report:?}"
        );
        let cleared = &cluster.outcome().results[&(0, straddler_shard)];
        let winners: Vec<usize> = cleared.allocation.winners().map(|w| w.index()).collect();
        assert_eq!(winners, vec![2]);
    }

    #[test]
    fn infeasible_sub_rounds_quarantine_only_their_shard() {
        let params = ClusterParams::default().with_seed(7);
        let mut cluster = Cluster::loopback(topology(), ClusterConfig::new(2).with_params(params));
        // Region 0 cannot cover task 0 (requirement 0.8); region 1 can.
        let bids = vec![bid(0, 1.0, &[(0, 0.1)]), bid(1, 1.0, &[(1, 0.9)])];
        let report = cluster.run_round(&bids).unwrap();
        assert!(!report.quarantined);
        assert_eq!(report.cleared_shards, vec![1]);
        assert_eq!(cluster.outcome().quarantines.len(), 1);
        let quarantine = &cluster.outcome().quarantines[0];
        assert!(matches!(
            quarantine.cause,
            QuarantineCause::Shard {
                shard: 0,
                error: RoundError::Infeasible { .. },
                ..
            }
        ));
        assert!(quarantine.post_mortem.contains("\"shard\":0"));
    }

    #[test]
    fn rejected_bids_are_counted_not_cleared() {
        let mut cluster = Cluster::loopback(topology(), ClusterConfig::new(1));
        let bids = vec![
            bid(0, 1.5, &[(0, 0.85)]),
            bid(0, 1.0, &[(1, 0.9)]), // duplicate user
            bid(1, -1.0, &[(1, 0.9)]),
        ];
        let report = cluster.run_round(&bids).unwrap();
        assert_eq!(report.rejected, 2);
    }
}
