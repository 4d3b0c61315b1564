//! Fault taxonomy and per-round schedules.
//!
//! A [`FaultPlan`] maps *logical* scenario rounds to the [`Fault`]s a
//! run injects there. Plans are plain data: list one round by round in a
//! scenario's `[chaos]` section to pin a regression, or derive one from
//! a seed with [`FaultPlan::generate`] so a whole chaos run is
//! reproducible from `(seed, rounds, intensity)` alone.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injectable fault, tagged by the pipeline stage it attacks.
///
/// Ingest faults materialise as deliberately malformed bids inserted into
/// the round's bid stream ([`crate::stream`]); the engine must reject each
/// with the matching typed
/// [`IngestError`](mcs_platform::ingest::IngestError). Batch faults
/// perturb round-closing (extra ticks, pending-queue reorder). Shard and
/// settle faults arm the run's
/// [`ScenarioInjector`](crate::inject::ScenarioInjector) for the engine
/// rounds the logical round closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// Ingest: a bid whose declared cost is NaN.
    NanCostBid,
    /// Ingest: a bid whose declared cost is negative.
    NegativeCostBid,
    /// Ingest: a bid declaring a PoS outside `[0, 1)`.
    OutOfRangePosBid,
    /// Ingest: a bid declaring no tasks at all.
    EmptyTaskSetBid,
    /// Ingest: a bid referencing an unpublished task.
    UnknownTaskBid,
    /// Ingest: a bid declaring the same task twice.
    DuplicateTaskBid,
    /// Ingest: a second bid from a user already in the round.
    DuplicateUserBid,
    /// Ingest: a bid declaring 256 task entries (all unpublished).
    OversizedBid,
    /// Batch: inject this many extra engine ticks mid-round, possibly
    /// closing the round early on its tick budget and splitting it.
    DelayedTicks(u32),
    /// Batch: reverse the closed-but-undrained round queue before the
    /// shard pool sees it. Results are keyed by round id, so outcomes
    /// must not change.
    ReorderPending,
    /// Shard: panic the worker clearing the round; the degrade path must
    /// quarantine it and every other round must be untouched.
    ShardPanic,
    /// Shard: replace the round's bids with a single bidder too weak to
    /// meet any requirement, forcing an `Infeasible` quarantine.
    InfeasibleRound,
    /// Settle: flip every execution report of the round before payout.
    FlipReports,
    /// Settle: drain the round, then checkpoint the engine, drop it, and
    /// rebuild from the checkpoint mid-run.
    DropAndRebuild,
    /// Cluster: the node's primary replica dies mid-round — its first
    /// `Clear` of the fault round still lands, every later call is
    /// unreachable. The coordinator must promote the node's stateless
    /// spare and the cluster fingerprint must not change.
    NodeLoss(u32),
    /// Cluster: the node is fully partitioned for the fault round (both
    /// replicas unreachable); the round must quarantine with a typed
    /// cause and a complete post-mortem, never a silent partial clear.
    NetPartition(u32),
    /// Cluster: every `Clear` of the fault round is delivered twice; the
    /// node's last-round response cache must absorb the duplicates
    /// bit-free.
    DuplicateDelivery,
}

impl Fault {
    /// The pipeline stage this fault attacks.
    pub fn stage(&self) -> &'static str {
        match self {
            Fault::NanCostBid
            | Fault::NegativeCostBid
            | Fault::OutOfRangePosBid
            | Fault::EmptyTaskSetBid
            | Fault::UnknownTaskBid
            | Fault::DuplicateTaskBid
            | Fault::DuplicateUserBid
            | Fault::OversizedBid => "ingest",
            Fault::DelayedTicks(_) | Fault::ReorderPending => "batch",
            Fault::ShardPanic | Fault::InfeasibleRound => "shard",
            Fault::FlipReports | Fault::DropAndRebuild => "settle",
            // Cluster faults attack the coordinator/node layer, never the
            // single-engine pipeline; `FaultPlan::generate` deliberately
            // excludes them.
            Fault::NodeLoss(_) | Fault::NetPartition(_) | Fault::DuplicateDelivery => "cluster",
        }
    }

    /// Whether this fault inserts a malformed bid the engine must reject.
    pub fn is_ingest(&self) -> bool {
        self.stage() == "ingest"
    }

    /// Parses a fault's spelling in a scenario's `[chaos]` round list: the
    /// variant name in kebab case (`nan-cost-bid`, `shard-panic`, …), and
    /// `delayed-ticks:N` for [`Fault::DelayedTicks`]. Cluster faults have
    /// no spelling: the cluster battery schedules its own.
    pub fn parse(name: &str) -> Option<Fault> {
        let fault = match name {
            "nan-cost-bid" => Fault::NanCostBid,
            "negative-cost-bid" => Fault::NegativeCostBid,
            "out-of-range-pos-bid" => Fault::OutOfRangePosBid,
            "empty-task-set-bid" => Fault::EmptyTaskSetBid,
            "unknown-task-bid" => Fault::UnknownTaskBid,
            "duplicate-task-bid" => Fault::DuplicateTaskBid,
            "duplicate-user-bid" => Fault::DuplicateUserBid,
            "oversized-bid" => Fault::OversizedBid,
            "reorder-pending" => Fault::ReorderPending,
            "shard-panic" => Fault::ShardPanic,
            "infeasible-round" => Fault::InfeasibleRound,
            "flip-reports" => Fault::FlipReports,
            "drop-and-rebuild" => Fault::DropAndRebuild,
            _ => Fault::DelayedTicks(name.strip_prefix("delayed-ticks:")?.parse().ok()?),
        };
        Some(fault)
    }
}

/// A per-round fault schedule for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<u64, Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan: the run is fault-free.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `fault` for logical round `round`.
    pub fn schedule(&mut self, round: u64, fault: Fault) -> &mut Self {
        self.faults.entry(round).or_default().push(fault);
        self
    }

    /// The faults scheduled for logical round `round`.
    pub fn faults_for(&self, round: u64) -> &[Fault] {
        self.faults.get(&round).map_or(&[], Vec::as_slice)
    }

    /// The rounds with at least one scheduled fault, ascending.
    pub fn rounds(&self) -> impl Iterator<Item = u64> + '_ {
        self.faults.keys().copied()
    }

    /// Total number of scheduled faults.
    pub fn fault_count(&self) -> usize {
        self.faults.values().map(Vec::len).sum()
    }

    /// Derives a plan from a seed: each of the `rounds` logical rounds
    /// draws one uniformly chosen fault with probability `intensity`.
    /// Identical `(seed, rounds, intensity)` always yields an identical
    /// plan. Cluster faults are never drawn.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not in `[0, 1]`.
    pub fn generate(seed: u64, rounds: u64, intensity: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for round in 0..rounds {
            if !rng.gen_bool(intensity) {
                continue;
            }
            let fault = match rng.gen_range(0u32..14) {
                0 => Fault::NanCostBid,
                1 => Fault::NegativeCostBid,
                2 => Fault::OutOfRangePosBid,
                3 => Fault::EmptyTaskSetBid,
                4 => Fault::UnknownTaskBid,
                5 => Fault::DuplicateTaskBid,
                6 => Fault::DuplicateUserBid,
                7 => Fault::OversizedBid,
                8 => Fault::DelayedTicks(rng.gen_range(1u32..6)),
                9 => Fault::ReorderPending,
                10 => Fault::ShardPanic,
                11 => Fault::InfeasibleRound,
                12 => Fault::FlipReports,
                _ => Fault::DropAndRebuild,
            };
            plan.schedule(round, fault);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_lookup() {
        let mut plan = FaultPlan::new();
        plan.schedule(3, Fault::ShardPanic)
            .schedule(3, Fault::FlipReports)
            .schedule(7, Fault::NanCostBid);
        assert_eq!(plan.faults_for(3), &[Fault::ShardPanic, Fault::FlipReports]);
        assert_eq!(plan.faults_for(4), &[] as &[Fault]);
        assert_eq!(plan.rounds().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(plan.fault_count(), 3);
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = FaultPlan::generate(99, 200, 0.5);
        let b = FaultPlan::generate(99, 200, 0.5);
        assert_eq!(a, b);
        assert!(a.fault_count() > 0, "intensity 0.5 over 200 rounds");
        let c = FaultPlan::generate(100, 200, 0.5);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn cluster_faults_are_typed_but_never_generated() {
        assert_eq!(Fault::NodeLoss(2).stage(), "cluster");
        assert_eq!(Fault::NetPartition(0).stage(), "cluster");
        assert_eq!(Fault::DuplicateDelivery.stage(), "cluster");
        // Engine runs must never draw a cluster fault: the stage
        // census below (`every_stage_is_reachable_from_generation`)
        // would catch one, but check directly too.
        let plan = FaultPlan::generate(7, 2000, 1.0);
        assert!(plan
            .rounds()
            .flat_map(|r| plan.faults_for(r).iter())
            .all(|fault| fault.stage() != "cluster"));
    }

    #[test]
    fn every_engine_fault_has_a_chaos_spelling() {
        let plan = FaultPlan::generate(7, 2000, 1.0);
        let spelled = [
            ("nan-cost-bid", Fault::NanCostBid),
            ("oversized-bid", Fault::OversizedBid),
            ("delayed-ticks:5", Fault::DelayedTicks(5)),
            ("reorder-pending", Fault::ReorderPending),
            ("drop-and-rebuild", Fault::DropAndRebuild),
        ];
        for (name, fault) in spelled {
            assert_eq!(Fault::parse(name), Some(fault), "{name}");
        }
        for name in [
            "node-loss",
            "delayed-ticks",
            "delayed-ticks:x",
            "NanCostBid",
            "",
        ] {
            assert_eq!(Fault::parse(name), None, "{name}");
        }
        // Every fault generation draws parses back from its spelling.
        for fault in plan.rounds().flat_map(|r| plan.faults_for(r)) {
            let name = match fault {
                Fault::DelayedTicks(ticks) => format!("delayed-ticks:{ticks}"),
                other => kebab(&format!("{other:?}")),
            };
            assert_eq!(Fault::parse(&name), Some(*fault), "{name}");
        }
    }

    /// `NanCostBid` → `nan-cost-bid`.
    fn kebab(variant: &str) -> String {
        let mut out = String::new();
        for ch in variant.chars() {
            if ch.is_ascii_uppercase() && !out.is_empty() {
                out.push('-');
            }
            out.push(ch.to_ascii_lowercase());
        }
        out
    }

    #[test]
    fn zero_intensity_is_the_empty_plan() {
        assert_eq!(FaultPlan::generate(1, 50, 0.0), FaultPlan::new());
    }

    #[test]
    fn every_stage_is_reachable_from_generation() {
        let plan = FaultPlan::generate(7, 2000, 1.0);
        let stages: std::collections::BTreeSet<&str> = plan
            .rounds()
            .flat_map(|r| plan.faults_for(r).iter().map(Fault::stage))
            .collect();
        assert_eq!(
            stages.into_iter().collect::<Vec<_>>(),
            vec!["batch", "ingest", "settle", "shard"]
        );
    }
}
