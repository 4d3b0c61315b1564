//! Property tests for bid intake and admission control.
//!
//! Four contracts, each over arbitrary streams:
//! 1. every [`IngestError`] variant is reachable from a malformed bid
//!    (and rejection leaves the queue untouched),
//! 2. rejected and shed bids never appear in any cleared round,
//! 3. admission is order-deterministic — the same stream produces the
//!    same per-bid outcomes and the same cleared rounds, bitwise,
//! 4. the one bid rule, as the engine's queue and the cluster's router
//!    apply it, gives exactly the verdicts of the set-based rule it
//!    replaced (kept below as [`reference`]).

use std::collections::BTreeSet;

use mcs_cluster::{route_bids, TaskSite, Topology};
use mcs_core::types::{Task, TaskId};
use mcs_mobility::grid::{Cell, CityGrid};
use mcs_platform::ingest::IngestQueue;
use mcs_platform::prelude::*;
use proptest::prelude::*;

const PUBLISHED: u32 = 3;

fn published_tasks() -> Vec<Task> {
    (0..PUBLISHED)
        .map(|t| Task::with_requirement(TaskId::new(t), 0.6).unwrap())
        .collect()
}

fn queue() -> IngestQueue {
    IngestQueue::new((0..PUBLISHED).map(TaskId::new))
}

fn valid_bid(user: u32) -> Bid {
    Bid {
        user,
        cost: 2.0,
        tasks: vec![(0, 0.5)],
    }
}

/// One malformed bid per [`IngestError`] variant, parameterized by the
/// generated payloads so shrinking explores the space.
#[derive(Debug, Clone)]
enum Malformed {
    InvalidCost(f64),
    InvalidPos(f64),
    EmptyTaskSet,
    UnknownTask(u32),
    DuplicateTask(u32),
    DuplicateUser(u32),
}

fn malformed_strategy() -> impl Strategy<Value = Malformed> {
    (0u8..6, 0u8..3, 0u32..40, 0.001..100.0f64).prop_map(|(variant, flavor, id, magnitude)| {
        match variant {
            0 => Malformed::InvalidCost(match flavor {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => -magnitude,
            }),
            1 => Malformed::InvalidPos(match flavor {
                0 => f64::NAN,
                1 => -magnitude,
                _ => 1.0 + magnitude,
            }),
            2 => Malformed::EmptyTaskSet,
            3 => Malformed::UnknownTask(PUBLISHED + id),
            4 => Malformed::DuplicateTask(id % PUBLISHED),
            _ => Malformed::DuplicateUser(id),
        }
    })
}

proptest! {
    /// Satellite contract 1: every rejection reason is constructible
    /// from a concrete malformed bid, the error is the *expected*
    /// variant, and the queue is left exactly as it was.
    #[test]
    fn every_reject_reason_is_constructible(malformed in malformed_strategy()) {
        let mut q = queue();
        // DuplicateUser needs an existing occupant.
        if let Malformed::DuplicateUser(user) = malformed {
            q.push(&valid_bid(user)).unwrap();
        }
        let len_before = q.len();
        let bid = match &malformed {
            Malformed::InvalidCost(cost) => Bid { cost: *cost, ..valid_bid(1000) },
            Malformed::InvalidPos(pos) => Bid { tasks: vec![(0, *pos)], ..valid_bid(1000) },
            Malformed::EmptyTaskSet => Bid { tasks: vec![], ..valid_bid(1000) },
            Malformed::UnknownTask(task) => Bid { tasks: vec![(*task, 0.5)], ..valid_bid(1000) },
            Malformed::DuplicateTask(task) => {
                Bid { tasks: vec![(*task, 0.5), (*task, 0.6)], ..valid_bid(1000) }
            }
            Malformed::DuplicateUser(user) => valid_bid(*user),
        };
        let error = q.push(&bid).expect_err("malformed bid must be rejected");
        match (&malformed, &error) {
            (Malformed::InvalidCost(_), IngestError::InvalidCost { .. })
            | (Malformed::InvalidPos(_), IngestError::InvalidPos { .. })
            | (Malformed::EmptyTaskSet, IngestError::EmptyTaskSet)
            | (Malformed::UnknownTask(_), IngestError::UnknownTask { .. })
            | (Malformed::DuplicateTask(_), IngestError::DuplicateTask { .. })
            | (Malformed::DuplicateUser(_), IngestError::DuplicateUser { .. }) => {}
            other => prop_assert!(false, "wrong rejection: {other:?}"),
        }
        // Rejection is side-effect free.
        prop_assert_eq!(q.len(), len_before);
    }
}

/// Builds the overloaded engine every stream property drives: tiny
/// rounds, tail-drop admission with a low watermark, logical clock.
fn overloaded_engine() -> Engine {
    let mut config = EngineConfig::default().with_seed(11).with_workers(1);
    config.batch.max_bids = 3;
    config.trace = TraceConfig {
        capacity: 8192,
        logical_clock: true,
    };
    config.admission = AdmissionConfig {
        high_watermark: 5,
        low_watermark: 1,
        policy: ShedPolicy::TailDrop,
        clear_budget: 0,
    };
    Engine::new(config, published_tasks())
}

/// Replays `codes` as a deterministic action stream: each byte encodes
/// one action (mostly submits — valid or malformed — plus ticks and
/// occasional drains). Every submission uses a globally unique user id,
/// so per-bid outcomes partition the id space exactly.
fn drive(codes: &[u8]) -> (Vec<String>, Engine) {
    let mut engine = overloaded_engine();
    let mut outcomes = Vec::new();
    for (i, &code) in codes.iter().enumerate() {
        let user = i as u32;
        match code % 10 {
            0 => {
                engine.tick();
                outcomes.push("tick".to_string());
                continue;
            }
            1 => {
                let bid = Bid {
                    cost: f64::NAN,
                    ..valid_bid(user)
                };
                outcomes.push(label(engine.submit(&bid)));
            }
            2 => {
                let bid = Bid {
                    tasks: vec![(0, 1.0)],
                    ..valid_bid(user)
                };
                outcomes.push(label(engine.submit(&bid)));
            }
            3 => {
                let bid = Bid {
                    tasks: vec![(PUBLISHED + 1, 0.5)],
                    ..valid_bid(user)
                };
                outcomes.push(label(engine.submit(&bid)));
            }
            _ => {
                // Declare every published task so full rounds stay
                // feasible and actually clear.
                let pos = 0.5 + f64::from(code % 16) / 64.0;
                let bid = Bid {
                    cost: 1.0 + (code as f64) / 64.0,
                    tasks: (0..PUBLISHED).map(|t| (t, pos)).collect(),
                    ..valid_bid(user)
                };
                outcomes.push(label(engine.submit(&bid)));
            }
        }
        if code & 0x40 != 0 {
            engine.drain();
        }
    }
    engine.flush();
    engine.drain();
    (outcomes, engine)
}

fn label(outcome: Result<Admission, IngestError>) -> String {
    match outcome {
        Ok(Admission::Admitted) => "admitted".to_string(),
        Ok(Admission::Shed(reason)) => format!("shed: {reason}"),
        Err(error) => format!("rejected: {error}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite contract 2: no rejected or shed bid is ever visible in
    /// a cleared round — not in its admitted membership, not among its
    /// winners, not in its settlement.
    #[test]
    fn rejected_and_shed_bids_never_clear(codes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let (outcomes, engine) = drive(&codes);
        let admitted: BTreeSet<u32> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.as_str() == "admitted")
            .map(|(i, _)| i as u32)
            .collect();
        let dropped: BTreeSet<u32> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.starts_with("shed") || o.starts_with("rejected"))
            .map(|(i, _)| i as u32)
            .collect();

        // Round membership from the flight recorder's admission events.
        let cleared_ids: BTreeSet<u64> = engine.results().keys().map(|id| id.0).collect();
        let mut members_of_cleared = BTreeSet::new();
        for event in engine.trace_events() {
            if event.kind == mcs_obs::EventKind::BidAdmitted && cleared_ids.contains(&event.round) {
                members_of_cleared.insert(event.a as u32);
            }
        }
        for user in &members_of_cleared {
            prop_assert!(admitted.contains(user), "u{user} cleared without admission");
            prop_assert!(!dropped.contains(user), "dropped u{user} reached a cleared round");
        }
        for round in engine.results().values() {
            for winner in round.allocation.winners() {
                prop_assert!(admitted.contains(&(winner.index() as u32)));
            }
        }
        // Conservation: every submission is exactly one of
        // admitted/rejected/shed, and the metrics agree.
        let snap = engine.metrics().snapshot();
        let ticks = outcomes.iter().filter(|o| o.as_str() == "tick").count();
        prop_assert_eq!(snap.bids_received as usize, codes.len() - ticks);
        prop_assert_eq!(
            snap.bids_received,
            admitted.len() as u64 + snap.bids_rejected + snap.bids_shed
        );
        prop_assert_eq!(snap.bids_shed as usize,
            outcomes.iter().filter(|o| o.starts_with("shed")).count());
    }

    /// Satellite contract 3: admission is order-deterministic — the
    /// same stream replayed gives identical per-bid outcomes and
    /// bitwise-identical cleared rounds and settlements.
    #[test]
    fn admission_is_order_deterministic(codes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let (first_outcomes, first) = drive(&codes);
        let (second_outcomes, second) = drive(&codes);
        prop_assert_eq!(first_outcomes, second_outcomes);
        prop_assert_eq!(first.results(), second.results());
        prop_assert_eq!(first.settlements(), second.settlements());
        prop_assert_eq!(first.quarantine(), second.quarantine());
    }
}

/// The bid rule as it was first written, with a B-tree set per check:
/// the reference both appliers of [`Bid::check`] must equal.
mod reference {
    use std::collections::BTreeSet;

    use mcs_cluster::{RoutedRound, Topology};
    use mcs_core::types::{Cost, Pos, TaskId, UserId, UserType};
    use mcs_platform::ingest::{Bid, IngestError};

    /// The engine's intake queue.
    pub struct Queue {
        published: BTreeSet<TaskId>,
        seen: BTreeSet<u32>,
        accepted: Vec<UserType>,
    }

    impl Queue {
        pub fn new<I: IntoIterator<Item = TaskId>>(tasks: I) -> Self {
            Queue {
                published: tasks.into_iter().collect(),
                seen: BTreeSet::new(),
                accepted: Vec::new(),
            }
        }

        pub fn push(&mut self, bid: &Bid) -> Result<(), IngestError> {
            if self.seen.contains(&bid.user) {
                return Err(IngestError::DuplicateUser { user: bid.user });
            }
            if bid.tasks.is_empty() {
                return Err(IngestError::EmptyTaskSet);
            }
            let cost =
                Cost::new(bid.cost).map_err(|_| IngestError::InvalidCost { value: bid.cost })?;
            let mut declared = BTreeSet::new();
            let mut builder = UserType::builder(UserId::new(bid.user)).cost(cost);
            for &(task, pos) in &bid.tasks {
                let id = TaskId::new(task);
                if !self.published.contains(&id) {
                    return Err(IngestError::UnknownTask { task });
                }
                if !declared.insert(task) {
                    return Err(IngestError::DuplicateTask { task });
                }
                let pos =
                    Pos::new(pos).map_err(|_| IngestError::InvalidPos { task, value: pos })?;
                builder = builder.task(id, pos);
            }
            self.seen.insert(bid.user);
            self.accepted.push(builder.build().unwrap());
            Ok(())
        }

        pub fn drain(&mut self) -> Vec<UserType> {
            self.seen.clear();
            std::mem::take(&mut self.accepted)
        }
    }

    /// The cluster's router.
    pub fn route_bids(topology: &Topology, bids: &[Bid]) -> RoutedRound {
        let mut routed = RoutedRound::default();
        let mut seen = BTreeSet::new();
        for (index, bid) in bids.iter().enumerate() {
            match route_one(topology, bid, &mut seen) {
                Ok(Some(region)) => routed.regional.entry(region).or_default().push(bid.clone()),
                Ok(None) => routed.straddlers.push(bid.clone()),
                Err(error) => routed.rejected.push((index, error)),
            }
        }
        routed
    }

    fn route_one(
        topology: &Topology,
        bid: &Bid,
        seen: &mut BTreeSet<u32>,
    ) -> Result<Option<u32>, IngestError> {
        if seen.contains(&bid.user) {
            return Err(IngestError::DuplicateUser { user: bid.user });
        }
        if bid.tasks.is_empty() {
            return Err(IngestError::EmptyTaskSet);
        }
        if !(bid.cost.is_finite() && bid.cost >= 0.0) {
            return Err(IngestError::InvalidCost { value: bid.cost });
        }
        let mut declared = BTreeSet::new();
        let mut regions = BTreeSet::new();
        for &(task, pos) in &bid.tasks {
            let Some(region) = topology.region_of_task(task) else {
                return Err(IngestError::UnknownTask { task });
            };
            if !declared.insert(task) {
                return Err(IngestError::DuplicateTask { task });
            }
            if !(pos.is_finite() && (0.0..1.0).contains(&pos)) {
                return Err(IngestError::InvalidPos { task, value: pos });
            }
            regions.insert(region);
        }
        seen.insert(bid.user);
        if regions.len() == 1 {
            Ok(regions.into_iter().next())
        } else {
            Ok(None)
        }
    }
}

/// A value from the edges a check must tell apart — NaN, ±0.0, 1.0, the
/// infinities, negatives, values above 1 — or, half the time, an
/// ordinary value in `[0, 1)`.
fn edgy_value() -> impl Strategy<Value = f64> {
    (0u8..16, 0.0..1.0f64).prop_map(|(flavor, x)| match flavor {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        3 => 1.0,
        4 => -x - f64::MIN_POSITIVE,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7 => 1.0 + 8.0 * x,
        _ => x,
    })
}

/// Arbitrary bids over a few users (so users repeat) and tasks `0..5`,
/// of which only `0..PUBLISHED` are published: empty, unknown, repeated
/// and out-of-order task lists all occur, and half the lists are sorted
/// so the ascending path is taken too.
fn arbitrary_bids() -> impl Strategy<Value = Vec<Bid>> {
    let bid = (
        0u32..6,
        edgy_value(),
        proptest::collection::vec((0u32..PUBLISHED + 2, edgy_value()), 0..6),
        any::<bool>(),
    )
        .prop_map(|(user, cost, mut tasks, sorted)| {
            if sorted {
                tasks.sort_by_key(|&(task, _)| task);
            }
            Bid { user, cost, tasks }
        });
    proptest::collection::vec(bid, 0..24)
}

/// Tasks 0 and 1 in the west band, task 2 in the east band.
fn two_band_topology() -> Topology {
    let site = |task: u32, x: u32| TaskSite {
        task: Task::with_requirement(TaskId::new(task), 0.6).unwrap(),
        cell: Cell { x, y: 0 },
    };
    Topology::bands(
        CityGrid::new(4, 2, 1.0),
        2,
        vec![site(0, 0), site(1, 1), site(2, 3)],
    )
    .unwrap()
}

/// A verdict compared exactly: `Debug` spells out every float, `-0.0`
/// and NaN included, where `PartialEq` would call NaN unequal to itself.
fn verdict<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Contract 4, engine side: `IngestQueue::push` returns the
    /// reference's exact verdict for every bid, and the rounds it drains
    /// hold the same user types.
    #[test]
    fn ingest_queue_matches_the_reference_rule(bids in arbitrary_bids(), split in 0usize..24) {
        let mut queue = queue();
        let mut reference = reference::Queue::new((0..PUBLISHED).map(TaskId::new));
        for (k, bid) in bids.iter().enumerate() {
            if k == split {
                // A round boundary: users may bid again.
                prop_assert_eq!(queue.drain(), reference.drain());
            }
            prop_assert_eq!(verdict(&queue.push(bid)), verdict(&reference.push(bid)));
        }
        prop_assert_eq!(queue.drain(), reference.drain());
    }

    /// Contract 4, cluster side: `route_bids` rejects exactly what the
    /// reference rejects, with the same errors, and splits the rest into
    /// the same regional and straddler sets.
    #[test]
    fn routing_matches_the_reference_rule(bids in arbitrary_bids()) {
        let topology = two_band_topology();
        prop_assert_eq!(
            verdict(&route_bids(&topology, &bids)),
            verdict(&reference::route_bids(&topology, &bids))
        );
    }
}
