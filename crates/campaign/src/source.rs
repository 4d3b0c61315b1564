//! Bid sources: where a campaign round's bids come from.
//!
//! The runner is generic over a [`BidSource`] so the same closed loop
//! drives synthetic populations (tests, fuzzing, benchmarks) and
//! dataset-derived populations (`platformd`). A source sees the round's
//! *open* task list — for residual rounds that is the uncovered subset
//! at its residual requirements — and returns the raw bids to screen
//! and submit.
//!
//! Determinism contract: a source must be a pure function of its own
//! seed/state and the `(round_index, tasks)` arguments. Both provided
//! sources derive every draw from a SplitMix64 stream keyed on
//! `(seed, round_index, user)`, so identical campaigns produce
//! identical bid streams regardless of timing.

use mcs_core::types::Task;
use mcs_obs::digest::unit;
use mcs_platform::prelude::Bid;

/// Produces each campaign round's bids.
pub trait BidSource: std::fmt::Debug {
    /// The bids for campaign round `round_index` over the currently
    /// open `tasks`. Entries for tasks not in `tasks` are dropped by
    /// the runner before submission.
    fn bids(&mut self, round_index: u64, tasks: &[Task]) -> Vec<Bid>;
}

/// A fixed synthetic population re-bidding every round.
///
/// Every round, each of `population` users bids on every open task with
/// a per-(round, user, task) PoS in `[pos_min, pos_max)` and a
/// per-(round, user) cost in `[cost_min, cost_max)`. A stable user-id
/// space across rounds is what gives the calibrator a history to learn
/// from.
#[derive(Debug, Clone)]
pub struct SyntheticBidSource {
    seed: u64,
    population: u32,
    /// PoS draw range.
    pub pos_range: (f64, f64),
    /// Cost draw range.
    pub cost_range: (f64, f64),
}

impl SyntheticBidSource {
    /// A source of `population` users seeded with `seed`.
    pub fn new(seed: u64, population: u32) -> Self {
        SyntheticBidSource {
            seed,
            population,
            pos_range: (0.35, 0.75),
            cost_range: (1.0, 3.0),
        }
    }

    /// The population size.
    pub fn population(&self) -> u32 {
        self.population
    }
}

impl BidSource for SyntheticBidSource {
    fn bids(&mut self, round_index: u64, tasks: &[Task]) -> Vec<Bid> {
        let (pos_lo, pos_hi) = self.pos_range;
        let (cost_lo, cost_hi) = self.cost_range;
        (0..self.population)
            .map(|user| {
                let key = round_index.wrapping_mul(0x1_0000).wrapping_add(user as u64);
                let cost = cost_lo + (cost_hi - cost_lo) * unit(self.seed, key, 0);
                let tasks: Vec<(u32, f64)> = tasks
                    .iter()
                    .enumerate()
                    .map(|(slot, task)| {
                        let draw = unit(self.seed, key, 1 + slot as u64);
                        let pos = pos_lo + (pos_hi - pos_lo) * draw;
                        (task.id().index() as u32, pos)
                    })
                    .collect();
                Bid { user, cost, tasks }
            })
            .collect()
    }
}

/// A [`BidSource`] backed by a closure — the adapter scenario harnesses
/// use to drive a campaign from an externally generated population
/// (arrival curves, shocks, strategic deviations) without re-implementing
/// the trait.
///
/// The determinism contract is inherited: the closure must be a pure
/// function of `(round_index, tasks)` and whatever seeded state it
/// captures.
pub struct FnBidSource<F> {
    label: &'static str,
    f: F,
}

impl<F: FnMut(u64, &[Task]) -> Vec<Bid>> FnBidSource<F> {
    /// Wraps `f` as a bid source; `label` names it in debug output.
    pub fn new(label: &'static str, f: F) -> Self {
        FnBidSource { label, f }
    }
}

impl<F> std::fmt::Debug for FnBidSource<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnBidSource")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(u64, &[Task]) -> Vec<Bid>> BidSource for FnBidSource<F> {
    fn bids(&mut self, round_index: u64, tasks: &[Task]) -> Vec<Bid> {
        (self.f)(round_index, tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::types::{Pos, TaskId};

    fn tasks() -> Vec<Task> {
        vec![
            Task::new(TaskId::new(0), Pos::new(0.9).unwrap()),
            Task::new(TaskId::new(2), Pos::new(0.8).unwrap()),
        ]
    }

    #[test]
    fn bids_are_deterministic_and_round_dependent() {
        let mut a = SyntheticBidSource::new(7, 5);
        let mut b = SyntheticBidSource::new(7, 5);
        assert_eq!(a.bids(0, &tasks()), b.bids(0, &tasks()));
        assert_ne!(a.bids(1, &tasks()), b.bids(2, &tasks()));
    }

    #[test]
    fn fn_sources_delegate_and_debug_print() {
        let mut source = FnBidSource::new("test", |round, tasks: &[Task]| {
            vec![Bid {
                user: round as u32,
                cost: 1.0,
                tasks: tasks.iter().map(|t| (t.id().index() as u32, 0.5)).collect(),
            }]
        });
        let bids = source.bids(3, &tasks());
        assert_eq!(bids.len(), 1);
        assert_eq!(bids[0].user, 3);
        assert_eq!(bids[0].tasks.len(), 2);
        assert!(format!("{source:?}").contains("test"));
    }

    #[test]
    fn bids_cover_exactly_the_open_tasks() {
        let mut source = SyntheticBidSource::new(7, 3);
        let bids = source.bids(0, &tasks());
        assert_eq!(bids.len(), 3);
        for bid in &bids {
            let ids: Vec<u32> = bid.tasks.iter().map(|&(t, _)| t).collect();
            assert_eq!(ids, vec![0, 2]);
            for &(_, pos) in &bid.tasks {
                assert!((0.0..1.0).contains(&pos));
            }
            assert!(bid.cost >= 1.0 && bid.cost < 3.0);
        }
    }
}
