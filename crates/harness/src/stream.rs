//! Faults woven into a scenario round's bid stream.
//!
//! A `[chaos]` scenario keeps its population: round `r` still submits
//! exactly the bids [`Population::round`](crate::scenario::Population::round)
//! draws for it. [`round_stream`] only weaves round `r`'s own ingest and
//! batch faults into that sequence, so a fault scheduled in one round can
//! never shift the bids of any other round. That per-round isolation is
//! what lets the quarantine-regression tests assert "only the faulted
//! round changed".

use mcs_platform::ingest::Bid;

use crate::plan::Fault;

/// One logical round's drive sequence: the bids to submit, in order, and
/// `ticks` extra engine ticks injected just before `bids[tick_at]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStream {
    /// Bids to submit, malformed ones included.
    pub bids: Vec<Bid>,
    /// Where the delayed ticks land: before the bid at this index.
    pub tick_at: usize,
    /// Extra ticks ([`Fault::DelayedTicks`]); 0 for most rounds.
    pub ticks: u32,
}

/// Weaves `faults` into a round of `bids` over `tasks` published tasks.
///
/// [`Fault::InfeasibleRound`] replaces the bids with a single bidder far
/// too weak for any requirement (the round's flush closes it). Each ingest
/// fault inserts one malformed bid from user `fresh_user` just before the
/// round's last bid, so the rejection never disturbs which bids share the
/// round. [`Fault::DelayedTicks`] injects its ticks halfway through. Shard
/// and settle faults leave the stream alone: they arm the injector.
pub fn round_stream(
    bids: Vec<Bid>,
    faults: &[Fault],
    tasks: usize,
    fresh_user: u32,
) -> RoundStream {
    let mut bids = bids;
    if faults.contains(&Fault::InfeasibleRound) {
        bids = vec![Bid {
            user: 0,
            cost: 1.0,
            tasks: (0..tasks as u32).map(|task| (task, 0.05)).collect(),
        }];
    }
    let first_user = bids.first().map_or(0, |bid| bid.user);
    for &fault in faults.iter().filter(|fault| fault.is_ingest()) {
        let at = bids.len().saturating_sub(1);
        bids.insert(at, malformed_bid(fault, fresh_user, first_user));
    }
    let ticks = faults
        .iter()
        .map(|fault| match fault {
            Fault::DelayedTicks(ticks) => *ticks,
            _ => 0,
        })
        .sum();
    RoundStream {
        tick_at: bids.len() / 2,
        ticks,
        bids,
    }
}

/// The malformed bid an ingest-stage fault materialises as. Each is
/// crafted to trip exactly one [`IngestError`](mcs_platform::ingest::IngestError)
/// variant: from `fresh_user`, so rejection (not user-dedup) is what's
/// tested — except [`Fault::DuplicateUserBid`], a second bid from
/// `first_user`, who already bid this round.
fn malformed_bid(fault: Fault, fresh_user: u32, first_user: u32) -> Bid {
    let bid = |cost: f64, tasks: Vec<(u32, f64)>| Bid {
        user: fresh_user,
        cost,
        tasks,
    };
    match fault {
        Fault::NanCostBid => bid(f64::NAN, vec![(0, 0.5)]),
        Fault::NegativeCostBid => bid(-2.0, vec![(0, 0.5)]),
        Fault::OutOfRangePosBid => bid(2.0, vec![(0, 1.5)]),
        Fault::EmptyTaskSetBid => bid(2.0, Vec::new()),
        Fault::UnknownTaskBid => bid(2.0, vec![(9_999, 0.5)]),
        Fault::DuplicateTaskBid => bid(2.0, vec![(0, 0.5), (0, 0.6)]),
        Fault::DuplicateUserBid => Bid {
            user: first_user,
            ..bid(2.0, vec![(0, 0.5)])
        },
        Fault::OversizedBid => bid(2.0, (0..256).map(|i| (10_000 + i, 0.5)).collect()),
        other => unreachable!("{other:?} is not an ingest fault"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::scenario::spec::tests_support::minimal_scenario;
    use crate::scenario::{ArrivalCurve, Population};

    /// Round `round` of the minimal scenario's population, woven with
    /// `faults`.
    fn stream(round: u64, faults: &[Fault]) -> RoundStream {
        let scenario = minimal_scenario();
        let curve = ArrivalCurve::generate(&scenario.arrival, scenario.seed, scenario.rounds);
        let population = Population::new(&scenario, &curve, None);
        let bids = population.round(round, false).bids;
        round_stream(
            bids,
            faults,
            scenario.tasks.count,
            scenario.population.users,
        )
    }

    #[test]
    fn fault_free_rounds_are_reproducible_and_well_formed() {
        let a = stream(3, &[]);
        assert_eq!(a, stream(3, &[]));
        assert_eq!(a.ticks, 0);
        assert!(!a.bids.is_empty());
        for bid in &a.bids {
            assert!(bid.cost.is_finite());
            assert_eq!(bid.tasks.len(), minimal_scenario().tasks.count);
        }
    }

    #[test]
    fn rounds_draw_independent_streams() {
        assert_ne!(stream(0, &[]), stream(1, &[]));
    }

    #[test]
    fn a_fault_in_one_round_leaves_other_rounds_bitwise_identical() {
        let mut plan = FaultPlan::new();
        plan.schedule(2, Fault::ShardPanic)
            .schedule(2, Fault::NanCostBid)
            .schedule(2, Fault::DelayedTicks(4));
        // Round 2 carrying faults must not change round 3's stream.
        assert_ne!(stream(2, plan.faults_for(2)), stream(2, &[]));
        assert_eq!(stream(3, plan.faults_for(3)), stream(3, &[]));
    }

    #[test]
    fn ingest_faults_insert_one_extra_bid_before_the_last() {
        let clean = stream(0, &[]);
        let faulted = stream(0, &[Fault::NanCostBid]);
        assert_eq!(faulted.bids.len(), clean.bids.len() + 1);
        let bad = &faulted.bids[faulted.bids.len() - 2];
        assert!(bad.cost.is_nan());
        assert_eq!(bad.user, minimal_scenario().population.users);
        assert_eq!(faulted.bids.last(), clean.bids.last());
        let duplicate = stream(0, &[Fault::DuplicateUserBid]);
        assert_eq!(
            duplicate.bids[duplicate.bids.len() - 2].user,
            clean.bids[0].user
        );
    }

    #[test]
    fn delayed_ticks_appear_mid_round() {
        let delayed = stream(0, &[Fault::DelayedTicks(3)]);
        assert_eq!(delayed.ticks, 3);
        assert_eq!(delayed.tick_at, delayed.bids.len() / 2);
        assert_eq!(delayed.bids, stream(0, &[]).bids);
    }

    #[test]
    fn infeasible_round_is_one_weak_bid() {
        let weak = stream(0, &[Fault::InfeasibleRound]);
        assert_eq!(weak.bids.len(), 1);
        assert_eq!(weak.ticks, 0);
        assert_eq!(weak.bids[0].tasks.len(), minimal_scenario().tasks.count);
        assert!(weak.bids[0].tasks.iter().all(|&(_, p)| p < 0.1));
    }
}
