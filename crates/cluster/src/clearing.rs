//! The pure clearing decomposition every deployment shares.
//!
//! These helpers define *what* the cluster computes; `node`/`coordinator`
//! define *where*. The mirror oracle calls them directly in one process,
//! and a node builds its sub-rounds with the same [`regional_round`] and
//! clears them through the platform's one guarded clear body — and
//! because each helper is a pure function of the topology, the round id,
//! and the routed bids, the two paths agree bit for bit.
//!
//! ## Phase 2: the straddler clear
//!
//! Phase 1 clears each region's single-region bids under the region
//! shard's seed. Phase 2 then runs one coordinator-local residual round
//! over the straddlers — users whose task sets span regions — built by
//! the platform's residual-round rule (`mcs_platform::batch`): every
//! task republished at its *residual* requirement `Q_j' = Q_j − Σ q`
//! (the summed contributions of the phase-1 winners, subtracted once,
//! saturating at zero), task sets restricted to the still-uncovered
//! tasks, user order fixed by id.
//! The straddler shard has its own seed
//! (`shard_seed(seed, regions.len())`), so its execution draws never
//! collide with any region's.

use std::collections::BTreeMap;

use mcs_core::types::{Contribution, Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
use mcs_platform::batch::{residual_tasks, restrict_bids, Round, RoundId};
use mcs_platform::ingest::Bid;
use mcs_platform::shard::ClearedRound;

use crate::topology::Topology;

/// Builds the validated [`UserType`] of a routed bid. Routing already
/// validated every field (see [`crate::route`]), so this cannot fail.
pub(crate) fn user_type_of(bid: &Bid) -> UserType {
    let mut builder = UserType::builder(UserId::new(bid.user))
        .cost(Cost::new(bid.cost).expect("routed bids carry validated costs"));
    for &(task, pos) in &bid.tasks {
        builder = builder.task(
            TaskId::new(task),
            Pos::new(pos).expect("routed bids carry validated PoS"),
        );
    }
    builder
        .build()
        .expect("routed bids build well-formed types")
}

/// A regional sub-round of cluster round `round`: its routed bids
/// (submission order) against the region's `tasks`. The mirror and
/// every node build their sub-rounds here.
pub(crate) fn regional_round(tasks: &[Task], round: u64, bids: &[Bid]) -> Round {
    let users = bids.iter().map(user_type_of).collect();
    let profile =
        TypeProfile::new(users, tasks.to_vec()).expect("routed regional bids form a valid profile");
    Round {
        id: RoundId(round),
        profile,
    }
}

/// Accumulates the phase-1 coverage of each task: the sum of every
/// regional winner's contribution, iterating regions ascending and
/// winners ascending within a region — a fixed order, so the float
/// accumulation is identical in every deployment.
pub(crate) fn covered_contributions(
    regional_bids: &BTreeMap<u32, Vec<Bid>>,
    results: &BTreeMap<u32, ClearedRound>,
) -> BTreeMap<u32, Contribution> {
    let mut covered: BTreeMap<u32, Contribution> = BTreeMap::new();
    for (region, cleared) in results {
        let bids = regional_bids
            .get(region)
            .map(Vec::as_slice)
            .unwrap_or_default();
        let by_user: BTreeMap<u32, &Bid> = bids.iter().map(|bid| (bid.user, bid)).collect();
        for winner in cleared.allocation.winners() {
            let bid = by_user
                .get(&(winner.index() as u32))
                .expect("winners come from this region's bids");
            for &(task, pos) in &bid.tasks {
                let entry = covered.entry(task).or_insert(Contribution::ZERO);
                *entry += Pos::new(pos).expect("validated PoS").contribution();
            }
        }
    }
    covered
}

/// Builds the phase-2 straddler round with the platform's residual-round
/// rule: every task republished at its residual requirement (the full
/// requirement minus the summed phase-1 coverage), straddler users
/// (ascending id) restricted to the residual tasks. `None` when nothing
/// is left to clear — no straddlers, no residual requirement, or no
/// straddler can touch a residual task — in which case phase 2 is
/// skipped identically in every deployment.
pub(crate) fn straddler_round(
    topology: &Topology,
    round: u64,
    straddlers: &[Bid],
    covered: &BTreeMap<u32, Contribution>,
) -> Option<Round> {
    if straddlers.is_empty() {
        return None;
    }
    let residual = residual_tasks(topology.tasks().map(|task| {
        let id = task.id().index() as u32;
        let absorbed = covered.get(&id).copied().unwrap_or(Contribution::ZERO);
        (task.id(), task.requirement_contribution() - absorbed)
    }));
    if residual.is_empty() {
        return None;
    }
    let mut bids = straddlers.to_vec();
    bids.sort_by_key(|bid| bid.user);
    restrict_bids(&mut bids, &residual);
    if bids.is_empty() {
        return None;
    }
    let users = bids.iter().map(user_type_of).collect();
    let profile =
        TypeProfile::new(users, residual).expect("straddler bids form a valid residual profile");
    Some(Round {
        id: RoundId(round),
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TaskSite;
    use mcs_core::mechanism::Allocation;
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

    #[test]
    fn straddler_round_republishes_residual_requirements() {
        let topology = topology();
        // Region 0's winner contributes PoS 0.5 toward task 0 (req 0.8);
        // task 1 is untouched.
        let regional_bids: BTreeMap<u32, Vec<Bid>> = [(0u32, vec![bid(1, 1.0, &[(0, 0.5)])])]
            .into_iter()
            .collect();
        let results: BTreeMap<u32, ClearedRound> = [(
            0u32,
            ClearedRound {
                id: RoundId(0),
                allocation: Allocation::from_winners([UserId::new(1)]),
                quotes: BTreeMap::new(),
                reports: BTreeMap::new(),
                social_cost: 0.0,
                economics: Default::default(),
            },
        )]
        .into_iter()
        .collect();
        let covered = covered_contributions(&regional_bids, &results);
        let straddlers = vec![bid(7, 2.0, &[(0, 0.4), (1, 0.6)])];
        let round = straddler_round(&topology, 0, &straddlers, &covered).unwrap();
        assert_eq!(round.profile.task_count(), 2);
        let task0 = round.profile.task(TaskId::new(0)).unwrap();
        // Residual requirement of task 0 shrank below the original 0.8.
        assert!(task0.requirement().value() < 0.8);
        let task1 = round.profile.task(TaskId::new(1)).unwrap();
        assert!((task1.requirement().value() - 0.7).abs() < 1e-9);
        assert_eq!(round.profile.user_count(), 1);
    }

    #[test]
    fn fully_covered_tasks_drop_out_of_phase_two() {
        let topology = topology();
        let mut covered = BTreeMap::new();
        // Saturate both tasks.
        covered.insert(0, Pos::new(0.999).unwrap().contribution());
        covered.insert(1, Pos::new(0.999).unwrap().contribution());
        let straddlers = vec![bid(7, 2.0, &[(0, 0.4), (1, 0.6)])];
        assert!(straddler_round(&topology, 0, &straddlers, &covered).is_none());
    }

    #[test]
    fn no_straddlers_means_no_phase_two() {
        let topology = topology();
        assert!(straddler_round(&topology, 0, &[], &BTreeMap::new()).is_none());
    }

    #[test]
    fn straddler_users_are_ordered_by_id() {
        let topology = topology();
        let straddlers = vec![
            bid(9, 1.0, &[(0, 0.3), (1, 0.3)]),
            bid(2, 1.0, &[(0, 0.4), (1, 0.4)]),
        ];
        let round = straddler_round(&topology, 0, &straddlers, &BTreeMap::new()).unwrap();
        let ids: Vec<usize> = round
            .profile
            .users()
            .iter()
            .map(|u| u.id().index())
            .collect();
        assert_eq!(ids, vec![2, 9]);
    }
}
