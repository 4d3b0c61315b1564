//! A cluster node: hosts one shard [`Engine`] per region in its slice,
//! serves the wire protocol, and keeps an idempotency cache so duplicate
//! deliveries can never double-clear a round.
//!
//! A node is constructed in one of two roles. A *primary* starts from
//! the empty checkpoint and clears from round zero. A *follower* holds
//! only standby [`EngineCheckpoint`]s, fed by `ApplyDelta`; engines are
//! materialized lazily — [`Engine::restore`] on the first `Clear` after
//! promotion — which is exactly the failover path the chaos tests pin.
//! Primaries build their engines through the very same lazy-restore
//! path (from the empty checkpoint), so failover exercises no special
//! code.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcs_platform::batch::RoundId;
use mcs_platform::engine::{CheckpointDelta, Engine, EngineCheckpoint};
use mcs_platform::fault::NoFaults;
use mcs_platform::ingest::Bid;
use mcs_platform::metrics::RoundEconomics;

use crate::config::ClusterParams;
use crate::topology::Topology;
use crate::wire::{Request, Response};

/// One region shard hosted by a node.
#[derive(Debug)]
struct Shard {
    /// The region's published tasks (ascending id).
    tasks: Vec<mcs_core::types::Task>,
    /// Standby state: the checkpoint the engine restores from. Kept in
    /// sync by `ApplyDelta` while the shard is a follower.
    checkpoint: EngineCheckpoint,
    /// The live engine, materialized on first `Clear`.
    engine: Option<Engine>,
    /// Idempotency cache: round id → the response already served.
    cleared: BTreeMap<u64, Response>,
}

/// A node server: the request handler behind every transport.
#[derive(Debug)]
pub struct NodeServer {
    node: u32,
    params: ClusterParams,
    primary: bool,
    shards: BTreeMap<u32, Shard>,
}

impl NodeServer {
    /// Builds the server for node `node` of an `nodes`-node deployment:
    /// one shard per active region placed on this node.
    pub fn new(
        topology: &Topology,
        params: ClusterParams,
        nodes: u32,
        node: u32,
        primary: bool,
    ) -> Self {
        let shards = topology
            .active_regions()
            .filter(|&region| topology.node_of_region(region, nodes) == node)
            .map(|region| {
                (
                    region,
                    Shard {
                        tasks: topology.region_tasks(region).to_vec(),
                        checkpoint: EngineCheckpoint::empty(),
                        engine: None,
                        cleared: BTreeMap::new(),
                    },
                )
            })
            .collect();
        NodeServer {
            node,
            params,
            primary,
            shards,
        }
    }

    /// The node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Whether the node currently serves as primary.
    pub fn is_primary(&self) -> bool {
        self.primary
    }

    /// The regions this node hosts.
    pub fn regions(&self) -> impl Iterator<Item = u32> + '_ {
        self.shards.keys().copied()
    }

    /// Serves one request. Never panics on protocol-level misuse — an
    /// unknown region is a typed [`Response::Error`].
    pub fn handle(&mut self, request: &Request) -> Response {
        match request {
            Request::Ping => Response::Pong {
                node: self.node,
                primary: self.primary,
            },
            Request::Clear {
                region,
                round,
                bids,
            } => self.clear(*region, *round, bids),
            Request::PullDelta { region, since } => self.pull_delta(*region, *since),
            Request::ApplyDelta { region, delta } => self.apply_delta(*region, delta),
            Request::Promote => {
                self.primary = true;
                Response::Promoted
            }
            Request::TraceSnapshot { region } => match self.shards.get(region) {
                Some(shard) => Response::Trace(
                    shard
                        .engine
                        .as_ref()
                        .map(Engine::trace_events)
                        .unwrap_or_default(),
                ),
                None => unknown_region(*region),
            },
        }
    }

    fn clear(&mut self, region: u32, round: u64, bids: &[Bid]) -> Response {
        let params = self.params;
        let Some(shard) = self.shards.get_mut(&region) else {
            return unknown_region(region);
        };
        // Duplicate delivery: serve the cached response, touch nothing.
        if let Some(cached) = shard.cleared.get(&round) {
            return cached.clone();
        }
        let engine = shard.engine.get_or_insert_with(|| {
            Engine::restore(
                params.engine_config(region),
                shard.tasks.clone(),
                shard.checkpoint.clone(),
                Arc::new(NoFaults),
            )
        });
        engine.skip_to_round(round);
        let response = if bids.is_empty() {
            // An empty sub-round clears nothing and consumes nothing —
            // identically in every deployment.
            Response::ClearedEmpty { region, round }
        } else {
            for bid in bids {
                // Routing already validated the bid; the engine's own
                // validation is a no-op re-check.
                let _ = engine.submit(bid);
            }
            engine.flush();
            engine.drain();
            if let Some(cleared) = engine.results().get(&RoundId(round)) {
                // Economics stay off the wire; normalizing them here keeps
                // the cached and the decoded response equal.
                let mut cleared = cleared.clone();
                cleared.economics = RoundEconomics::default();
                Response::Cleared { region, cleared }
            } else if let Some(quarantined) = engine
                .quarantine()
                .iter()
                .find(|quarantined| quarantined.id == RoundId(round))
            {
                Response::Quarantined {
                    region,
                    round,
                    bidders: quarantined.bidders as u64,
                    error: quarantined.error.clone(),
                }
            } else {
                Response::Error {
                    message: format!("round {round} neither cleared nor quarantined"),
                }
            }
        };
        shard.cleared.insert(round, response.clone());
        response
    }

    fn pull_delta(&mut self, region: u32, since: Option<u64>) -> Response {
        let Some(shard) = self.shards.get(&region) else {
            return unknown_region(region);
        };
        let delta = match &shard.engine {
            Some(engine) => engine.checkpoint_delta(since.map(RoundId)),
            // No engine yet: nothing cleared beyond the standby
            // checkpoint.
            None => CheckpointDelta {
                settlements: Vec::new(),
                next_round_id: shard.checkpoint.next_round_id,
            },
        };
        Response::Delta(delta)
    }

    fn apply_delta(&mut self, region: u32, delta: &CheckpointDelta) -> Response {
        let Some(shard) = self.shards.get_mut(&region) else {
            return unknown_region(region);
        };
        if shard.engine.is_some() {
            // A live engine is already past its checkpoint; folding a
            // delta under it would fork history.
            return Response::Error {
                message: format!("region {region} already has a live engine"),
            };
        }
        shard.checkpoint.apply_delta(delta);
        Response::Applied
    }
}

fn unknown_region(region: u32) -> Response {
    Response::Error {
        message: format!("node does not host region {region}"),
    }
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
                cell: Cell { x: 3, y: 0 },
            },
        ];
        Topology::bands(grid, 2, sites).unwrap()
    }

    fn feasible_bids() -> Vec<Bid> {
        vec![
            Bid {
                user: 0,
                cost: 2.0,
                tasks: vec![(0, 0.6)],
            },
            Bid {
                user: 1,
                cost: 2.5,
                tasks: vec![(0, 0.7)],
            },
            Bid {
                user: 2,
                cost: 1.5,
                tasks: vec![(0, 0.6)],
            },
        ]
    }

    #[test]
    fn one_node_hosts_every_region_and_clears() {
        let topology = topology();
        let mut server = NodeServer::new(&topology, ClusterParams::default(), 1, 0, true);
        assert_eq!(server.regions().collect::<Vec<_>>(), vec![0, 1]);
        let response = server.handle(&Request::Clear {
            region: 0,
            round: 0,
            bids: feasible_bids(),
        });
        match response {
            Response::Cleared { cleared, .. } => {
                assert_eq!(cleared.id, RoundId(0));
                assert!(cleared.allocation.winner_count() > 0);
            }
            other => panic!("expected Cleared, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_delivery_returns_the_cached_response() {
        let topology = topology();
        let mut server = NodeServer::new(&topology, ClusterParams::default(), 1, 0, true);
        let request = Request::Clear {
            region: 0,
            round: 0,
            bids: feasible_bids(),
        };
        let first = server.handle(&request);
        let second = server.handle(&request);
        assert_eq!(first, second);
        // The engine really cleared only once: round 1 is next.
        let delta = server.handle(&Request::PullDelta {
            region: 0,
            since: None,
        });
        match delta {
            Response::Delta(delta) => {
                assert_eq!(delta.settlements.len(), 1);
                assert_eq!(delta.next_round_id, 1);
            }
            other => panic!("expected Delta, got {other:?}"),
        }
    }

    #[test]
    fn follower_rebuilds_from_replicated_deltas_and_clears_identically() {
        let topology = topology();
        let params = ClusterParams::default();
        let mut primary = NodeServer::new(&topology, params, 1, 0, true);
        let mut follower = NodeServer::new(&topology, params, 1, 0, false);

        // Primary clears rounds 0 and 1 on region 0.
        for round in 0..2u64 {
            let response = primary.handle(&Request::Clear {
                region: 0,
                round,
                bids: feasible_bids(),
            });
            assert!(matches!(response, Response::Cleared { .. }), "{response:?}");
        }
        // Replicate the full delta to the follower.
        let delta = match primary.handle(&Request::PullDelta {
            region: 0,
            since: None,
        }) {
            Response::Delta(delta) => delta,
            other => panic!("expected Delta, got {other:?}"),
        };
        assert_eq!(
            follower.handle(&Request::ApplyDelta {
                region: 0,
                delta: delta.clone(),
            }),
            Response::Applied
        );
        assert_eq!(follower.handle(&Request::Promote), Response::Promoted);
        assert!(follower.is_primary());

        // Round 2 clears bitwise-identically on both.
        let request = Request::Clear {
            region: 0,
            round: 2,
            bids: feasible_bids(),
        };
        assert_eq!(primary.handle(&request), follower.handle(&request));
    }

    #[test]
    fn empty_sub_rounds_consume_nothing() {
        let topology = topology();
        let mut server = NodeServer::new(&topology, ClusterParams::default(), 1, 0, true);
        assert_eq!(
            server.handle(&Request::Clear {
                region: 1,
                round: 0,
                bids: vec![],
            }),
            Response::ClearedEmpty {
                region: 1,
                round: 0
            }
        );
        // The next round still pins to its cluster id.
        let response = server.handle(&Request::Clear {
            region: 1,
            round: 3,
            bids: vec![Bid {
                user: 9,
                cost: 1.0,
                tasks: vec![(1, 0.8)],
            }],
        });
        match response {
            Response::Cleared { cleared, .. } => assert_eq!(cleared.id, RoundId(3)),
            other => panic!("expected Cleared, got {other:?}"),
        }
    }

    #[test]
    fn unknown_regions_are_typed_errors() {
        let topology = topology();
        let mut server = NodeServer::new(&topology, ClusterParams::default(), 2, 0, true);
        // Node 0 of 2 hosts only region 0.
        assert_eq!(server.regions().collect::<Vec<_>>(), vec![0]);
        assert!(matches!(
            server.handle(&Request::Clear {
                region: 1,
                round: 0,
                bids: vec![]
            }),
            Response::Error { .. }
        ));
    }
}
