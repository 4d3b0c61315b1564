//! Bid routing: every bid lands in exactly one shard, decided purely by
//! the topology — never by node placement.
//!
//! A bid whose task set lies inside one region routes to that region's
//! shard. A bid spanning two or more regions is a *straddler* and routes
//! to the virtual straddler shard, cleared by the coordinator in phase 2
//! against residual requirements (see [`crate::clearing`]). Validation
//! happens here, once, cluster-wide — the same rule `Engine::submit`
//! applies ([`Bid::check`]), plus cluster-wide user dedup — so a malformed
//! or duplicate bid is rejected identically no matter how many nodes the
//! cluster has.

use std::collections::{BTreeMap, HashSet};

use mcs_platform::ingest::{Bid, IngestError};

use crate::topology::Topology;

/// One round's bids, split by destination shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutedRound {
    /// Per-region bids (task sets fully inside the region), in
    /// submission order.
    pub regional: BTreeMap<u32, Vec<Bid>>,
    /// Cross-region bids, in submission order; cleared in phase 2.
    pub straddlers: Vec<Bid>,
    /// Rejected bids as `(submission index, reason)`.
    pub rejected: Vec<(usize, IngestError)>,
}

impl RoutedRound {
    /// Bids accepted into some shard.
    pub fn accepted(&self) -> usize {
        self.regional.values().map(Vec::len).sum::<usize>() + self.straddlers.len()
    }
}

/// Validates `bids` in submission order and routes each to its shard.
///
/// Validation is the engine's ingest rule, [`Bid::check`], with user
/// dedup lifted to cluster scope, so no routed bid can be rejected
/// downstream — a property the mirror oracle relies on.
pub fn route_bids(topology: &Topology, bids: &[Bid]) -> RoutedRound {
    route_bids_with(topology, bids, &mut HashSet::new())
}

/// [`route_bids`] with the caller's dedup set, cleared first: a
/// coordinator keeps one across rounds, and with it its capacity.
pub(crate) fn route_bids_with(
    topology: &Topology,
    bids: &[Bid],
    seen: &mut HashSet<u32>,
) -> RoutedRound {
    seen.clear();
    let mut routed = RoutedRound::default();
    for (index, bid) in bids.iter().enumerate() {
        match route_one(topology, bid, seen) {
            Ok(Some(region)) => routed.regional.entry(region).or_default().push(bid.clone()),
            Ok(None) => routed.straddlers.push(bid.clone()),
            Err(error) => routed.rejected.push((index, error)),
        }
    }
    routed
}

/// Routes one bid: `Ok(Some(region))` for a single-region bid,
/// `Ok(None)` for a straddler.
fn route_one(
    topology: &Topology,
    bid: &Bid,
    seen: &mut HashSet<u32>,
) -> Result<Option<u32>, IngestError> {
    if seen.contains(&bid.user) {
        return Err(IngestError::DuplicateUser { user: bid.user });
    }
    // The bid's first region, and whether any task lies outside it.
    let mut home = None;
    let mut straddles = false;
    bid.check(|task| match topology.region_of_task(task) {
        Some(region) => {
            straddles |= *home.get_or_insert(region) != region;
            true
        }
        None => false,
    })?;
    seen.insert(bid.user);
    Ok(home.filter(|_| !straddles))
}

#[cfg(test)]
mod tests {
    use super::*;
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
                cell: Cell { x: 1, y: 1 },
            },
            TaskSite {
                task: Task::with_requirement(TaskId::new(2), 0.6).unwrap(),
                cell: Cell { x: 3, y: 0 },
            },
        ];
        Topology::bands(grid, 2, sites).unwrap()
    }

    fn bid(user: u32, tasks: &[(u32, f64)]) -> Bid {
        Bid {
            user,
            cost: 1.0,
            tasks: tasks.to_vec(),
        }
    }

    #[test]
    fn bids_route_by_task_region() {
        let topology = topology();
        let bids = vec![
            bid(0, &[(0, 0.5), (1, 0.5)]), // both tasks in region 0
            bid(1, &[(2, 0.5)]),           // region 1
            bid(2, &[(0, 0.5), (2, 0.5)]), // straddler
        ];
        let routed = route_bids(&topology, &bids);
        assert_eq!(routed.regional[&0].len(), 1);
        assert_eq!(routed.regional[&1].len(), 1);
        assert_eq!(routed.straddlers.len(), 1);
        assert_eq!(routed.straddlers[0].user, 2);
        assert!(routed.rejected.is_empty());
        assert_eq!(routed.accepted(), 3);
    }

    #[test]
    fn malformed_bids_are_rejected_with_ingest_errors() {
        let topology = topology();
        let bids = vec![
            bid(0, &[(0, 0.5)]),
            bid(0, &[(1, 0.5)]), // duplicate user, different region
            bid(1, &[]),
            Bid {
                user: 2,
                cost: -1.0,
                tasks: vec![(0, 0.5)],
            },
            bid(3, &[(9, 0.5)]),
            bid(4, &[(0, 0.5), (0, 0.6)]),
            bid(5, &[(0, 1.5)]),
        ];
        let routed = route_bids(&topology, &bids);
        assert_eq!(routed.accepted(), 1);
        let reasons: Vec<(usize, IngestError)> = routed.rejected;
        assert_eq!(
            reasons,
            vec![
                (1, IngestError::DuplicateUser { user: 0 }),
                (2, IngestError::EmptyTaskSet),
                (3, IngestError::InvalidCost { value: -1.0 }),
                (4, IngestError::UnknownTask { task: 9 }),
                (5, IngestError::DuplicateTask { task: 0 }),
                (
                    6,
                    IngestError::InvalidPos {
                        task: 0,
                        value: 1.5
                    }
                ),
            ]
        );
    }
}
