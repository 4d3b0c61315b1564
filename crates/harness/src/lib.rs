//! # mcs-harness — deterministic scenario and chaos runs for the auction platform
//!
//! The paper's whole premise is *execution uncertainty*: users fail
//! probabilistically and the mechanism must stay feasible, individually
//! rational, and truthful anyway. This crate attacks the *platform* the
//! same way the world would — bursty load, regional weather, strategic
//! misreports, malformed bids, worker panics, delayed round closes,
//! flipped execution reports, mid-stream crashes — and checks after every
//! surviving round that the paper's economic guarantees still hold.
//!
//! The moving parts:
//!
//! * [`scenario`] — the one way to run: named, pinned-seed TOML worlds
//!   (arrivals, weather, strategic bidders, admission control, closed-loop
//!   campaigns) driven through a real engine, each pinning a
//!   `[baseline]`. A `[chaos]` section arms a fault plan on the run.
//! * [`plan`] — the fault taxonomy ([`Fault`](plan::Fault)) and per-round
//!   schedules ([`FaultPlan`](plan::FaultPlan)), listed round by round or
//!   derived from a seed.
//! * [`stream`] — ingest and batch faults woven into a round's bid
//!   stream: malformed bids, delayed ticks, infeasible rounds.
//! * [`inject`] — the [`FaultInjector`](mcs_platform::fault::FaultInjector)
//!   that redraws execution reports from scenario truths and arms shard
//!   panics, report flips, and queue reorders onto concrete engine round
//!   ids.
//! * [`oracle`] — the economic-invariant checks: coverage feasibility,
//!   allocation fidelity, quote structure, ex-post IR, critical-bid
//!   monotonicity, settlement/ledger conservation, and memory bounds.
//! * [`drive`] — the one mirrored drive: a real engine plus a mirror
//!   batcher and admission controller, running every oracle above plus
//!   the admission, trace and ledger conservation checks. Every
//!   platform-mode scenario run is a thin loop over it; its outcome is
//!   identical for any worker or payment-thread count.
//! * [`closed_loop`] — oracles over the *auction* campaigns run by
//!   `mcs-campaign` (residual monotonicity, termination, calibration
//!   sanity, payout conservation), checked on every campaign-mode
//!   scenario, chaos included.
//! * [`cluster`] — chaos at the deployment layer: a fault-injecting
//!   [`NodeTransport`](mcs_cluster::transport::NodeTransport) wrapper
//!   (node loss, partition, duplicate delivery) and the
//!   scenario→cluster bridge, checked against `mcs_cluster::ground_truth`;
//!   `mcs-fuzz --cluster` drives it.
//!
//! The `mcs-fuzz` binary runs the corpus from the command line; see
//! `scripts/ci.sh` (corpus, seed exploration, cluster) and
//! `scripts/fuzz.sh` (long seed sweeps).
//!
//! ## Reproducing a failure
//!
//! Every run is identified by its scenario and seed. A corpus scenario
//! replays as `mcs-fuzz --scenario NAME`; a re-seeded one as
//! `mcs-fuzz --scenario NAME --seed S` — same bids, same faults, same
//! round ids, same fingerprint.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod closed_loop;
pub mod cluster;
pub mod drive;
pub mod inject;
pub mod oracle;
pub mod plan;
pub mod scenario;
pub mod stream;

/// Convenient glob import: `use mcs_harness::prelude::*;`.
pub mod prelude {
    pub use crate::closed_loop::{check_campaign, ClosedLoopViolation};
    pub use crate::cluster::{
        busy_node, run_cluster_scenario, run_cluster_scenario_tcp, scenario_params,
        scenario_rounds, scenario_topology, ClusterRun, FaultyTransport,
    };
    pub use crate::drive::DriveOutcome;
    pub use crate::inject::{silence_injected_panics, ScenarioInjector, CHAOS_PREFIX};
    pub use crate::oracle::{check_bounds, check_round, OracleViolation};
    pub use crate::plan::{Fault, FaultPlan};
    pub use crate::scenario::{
        check_online_sp, replay_scenario, run_scenario, run_scenario_with, ChaosSpec, RunOptions,
        Scenario, ScenarioError, ScenarioOutcome, SpReport,
    };
}
