//! # mcs-cluster — geo-sharded multi-node clearing
//!
//! Scales the crowdsensing auction horizontally without surrendering a
//! single bit of determinism. The city grid is split into task regions;
//! each region is a *shard* cleared under its own seed
//! (`shard_seed(cluster_seed, region)`), and a deployment of N nodes is
//! nothing but a contiguous placement of shards onto nodes — placement
//! never enters any seed, any round id, or any float accumulation
//! order. Consequence: a 1-node cluster and an 8-node cluster produce
//! **bitwise-identical** allocations, quotes, settlements, and
//! fingerprints, and the equivalence suite proves it per commit.
//!
//! ## The two-phase clear
//!
//! Users whose task sets span regions ("straddlers") cannot be cleared
//! by any single shard. Each cluster round therefore runs in two
//! phases:
//!
//! 1. every region clears its single-region bids as an ordinary
//!    sub-round under the region shard's seed;
//! 2. the coordinator republishes every task at its *residual*
//!    requirement (what phase-1 winners left uncovered) and clears the
//!    straddlers against it in one pure, coordinator-local round under
//!    the dedicated straddler-shard seed.
//!
//! Both phases are pure functions of `(topology, round id, routed
//! bids)`, so the in-process mirror oracle ([`mirror::ground_truth`])
//! reproduces any deployment's outcome without nodes or transports.
//! Every sub-round, on a node or in the mirror, clears through the
//! platform's one guarded clear body
//! ([`clear_guarded`](mcs_platform::shard::clear_guarded)), so a
//! panicking sub-round is quarantined the same way everywhere.
//!
//! ## Stateless nodes and faults
//!
//! A node keeps nothing an outcome depends on: per region a clearing
//! arena, a span ring and the last response it served. The coordinator's
//! ledger is the only settled state. Every node has a stateless spare;
//! node loss promotes the spare, which answers the same `Clear`
//! bit-identically without any replicated state. A full partition (both
//! replicas down) quarantines the whole round with a typed cause and a
//! JSON post-mortem; a duplicate delivery is answered from the node's
//! one-round response cache. The chaos suite pins all three behaviors
//! against recorded fingerprints.

#![forbid(unsafe_code)]

pub mod clearing;
pub mod config;
pub mod coordinator;
pub mod mirror;
pub mod node;
pub mod route;
pub mod topology;
pub mod transport;
pub mod wire;

pub use config::{ClusterConfig, ClusterParams};
pub use coordinator::{
    Cluster, ClusterError, ClusterOutcome, ClusterQuarantine, QuarantineCause, RoundReport,
};
pub use mirror::ground_truth;
pub use node::NodeServer;
pub use route::{route_bids, RoutedRound};
pub use topology::{shard_seed, TaskSite, Topology, TopologyError};
pub use transport::{
    serve_node, Endpoint, LoopbackTransport, NodeListener, NodeTransport, Role, TcpTransport,
    TransportError,
};
pub use wire::{Request, Response, WireError};
