//! A cluster node: clears the sub-rounds of the regions in its slice
//! and serves the wire protocol.
//!
//! A node is stateless in everything that decides an outcome. Each
//! `Clear` builds the region's sub-round with the mirror's round builder
//! ([`regional_round`]) and clears it through the platform's one guarded
//! clear body ([`clear_guarded`]), so the response is a pure function of
//! `(shard seed, round id, routed bids)`. Between rounds a region shard
//! keeps only its clearing arena (which changes how fast it clears, never
//! what), a span ring, and the last response it served.
//!
//! That last response answers a redelivered `Clear` for the same round,
//! the only round a coordinator retries. Re-clearing any other round
//! would return the same bits anyway, so a duplicate is harmless either
//! way. A node is built as a *primary* or as a *spare* (follower). The
//! spare needs nothing from the primary: on failover the coordinator
//! sends it `Promote` and then the same `Clear`, and it answers as the
//! primary would have.

use std::collections::BTreeMap;

use mcs_core::indexed::ClearContext;
use mcs_core::types::Task;
use mcs_obs::{ClockMode, FlightRecorder};
use mcs_platform::config::EngineConfig;
use mcs_platform::fault::NoFaults;
use mcs_platform::ingest::Bid;
use mcs_platform::metrics::RoundEconomics;
use mcs_platform::shard::clear_guarded;

use crate::clearing::regional_round;
use crate::config::ClusterParams;
use crate::topology::Topology;
use crate::wire::{Request, Response};

/// One region shard hosted by a node: everything it keeps between
/// rounds.
#[derive(Debug)]
struct Shard {
    /// The region's published tasks (ascending id).
    tasks: Vec<Task>,
    /// The shard's clearing configuration (its seed derives from the
    /// region).
    config: EngineConfig,
    /// The clearing arena, delta-patched from one sub-round to the next.
    context: ClearContext,
    /// The span ring: the `Shard`, `Allocate` and `Pay` spans of every
    /// sub-round cleared here, on a logical clock.
    recorder: FlightRecorder,
    /// The last round served and its response.
    last: Option<(u64, Response)>,
}

/// A node server: the request handler behind every transport.
#[derive(Debug)]
pub struct NodeServer {
    node: u32,
    primary: bool,
    shards: BTreeMap<u32, Shard>,
}

impl NodeServer {
    /// Builds the server for node `node` of an `nodes`-node deployment:
    /// one shard per active region placed on this node. `primary` only
    /// decides what `Ping` reports until a `Promote`: primary and spare
    /// clear alike.
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
                        config: params.engine_config(region),
                        context: ClearContext::new(),
                        recorder: FlightRecorder::new(params.trace_capacity, ClockMode::Logical),
                        last: None,
                    },
                )
            })
            .collect();
        NodeServer {
            node,
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
    /// unknown region or a retired request is a typed
    /// [`Response::Error`].
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
            Request::PullDelta | Request::ApplyDelta => Response::Error {
                message: "checkpoint replication is retired".to_string(),
            },
            Request::Promote => {
                self.primary = true;
                Response::Promoted
            }
            Request::TraceSnapshot { region } => match self.shards.get(region) {
                Some(shard) => Response::Trace(shard.recorder.snapshot()),
                None => unknown_region(*region),
            },
        }
    }

    fn clear(&mut self, region: u32, round: u64, bids: &[Bid]) -> Response {
        let Some(shard) = self.shards.get_mut(&region) else {
            return unknown_region(region);
        };
        // Redelivery of the last round: serve the cached response.
        if let Some((_, cached)) = shard.last.as_ref().filter(|(last, _)| *last == round) {
            return cached.clone();
        }
        let response = if bids.is_empty() {
            // An empty sub-round clears nothing, identically in every
            // deployment.
            Response::ClearedEmpty { region, round }
        } else {
            let sub_round = regional_round(&shard.tasks, round, bids);
            let cleared = clear_guarded(
                &sub_round,
                &shard.config,
                &mut shard.context,
                &NoFaults,
                None,
                Some(&shard.recorder),
            );
            match cleared {
                Ok(mut cleared) => {
                    // Economics stay off the wire; normalizing them here
                    // keeps the cached and the decoded response equal.
                    cleared.economics = RoundEconomics::default();
                    Response::Cleared { region, cleared }
                }
                Err(error) => Response::Quarantined {
                    region,
                    round,
                    bidders: bids.len() as u64,
                    error,
                },
            }
        };
        shard.last = Some((round, response.clone()));
        response
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
    use mcs_core::types::TaskId;
    use mcs_mobility::grid::{Cell, CityGrid};
    use mcs_obs::{EventKind, Stage};
    use mcs_platform::batch::RoundId;
    use mcs_platform::degrade::RoundError;

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
        let clear = |round| Request::Clear {
            region: 0,
            round,
            bids: feasible_bids(),
        };
        let first = server.handle(&clear(0));
        let spans = server.handle(&Request::TraceSnapshot { region: 0 });
        let second = server.handle(&clear(0));
        assert_eq!(first, second);
        // The redelivery hit the cache: it cleared nothing, so it traced
        // nothing.
        assert_eq!(server.handle(&Request::TraceSnapshot { region: 0 }), spans);
        // The cache holds the last round only. A stale redelivery clears
        // again, to the same bits.
        server.handle(&clear(1));
        assert_eq!(server.handle(&clear(0)), first);
    }

    #[test]
    fn follower_rebuilds_from_replicated_deltas_and_clears_identically() {
        let topology = topology();
        let params = ClusterParams::default();
        let mut primary = NodeServer::new(&topology, params, 1, 0, true);
        let mut spare = NodeServer::new(&topology, params, 1, 0, false);
        let clear = |round| Request::Clear {
            region: 0,
            round,
            bids: feasible_bids(),
        };

        // The primary clears rounds 0 and 1; the spare sees neither, and
        // nothing is replicated to it: the delta it rebuilds from is empty.
        for round in 0..2u64 {
            let response = primary.handle(&clear(round));
            assert!(matches!(response, Response::Cleared { .. }), "{response:?}");
        }
        assert_eq!(spare.handle(&Request::Promote), Response::Promoted);
        assert!(spare.is_primary());

        // Round 2 clears bit for bit alike on both: its execution draws
        // come from (shard seed, round id), not from the rounds before.
        let response = primary.handle(&clear(2));
        match &response {
            Response::Cleared { cleared, .. } => {
                assert_eq!(cleared.id, RoundId(2));
                assert!(cleared.allocation.winner_count() > 0);
            }
            other => panic!("expected Cleared, got {other:?}"),
        }
        assert_eq!(spare.handle(&clear(2)), response);
    }

    #[test]
    fn a_failed_clear_quarantines_the_routed_bids() {
        let topology = topology();
        let mut server = NodeServer::new(&topology, ClusterParams::default(), 1, 0, true);
        // PoS 0.1 cannot cover task 0's requirement of 0.8.
        let thin = vec![Bid {
            user: 4,
            cost: 1.0,
            tasks: vec![(0, 0.1)],
        }];
        let response = server.handle(&Request::Clear {
            region: 0,
            round: 5,
            bids: thin,
        });
        match response {
            Response::Quarantined {
                region: 0,
                round: 5,
                bidders: 1,
                error: RoundError::Infeasible { .. },
            } => {}
            other => panic!("expected an infeasible quarantine, got {other:?}"),
        }
    }

    #[test]
    fn the_span_ring_holds_each_cleared_sub_round_and_no_bids() {
        let topology = topology();
        let mut server = NodeServer::new(&topology, ClusterParams::default(), 1, 0, true);
        for round in [0u64, 1] {
            server.handle(&Request::Clear {
                region: 0,
                round,
                bids: feasible_bids(),
            });
        }
        let Response::Trace(events) = server.handle(&Request::TraceSnapshot { region: 0 }) else {
            panic!("expected a trace");
        };
        let spans: Vec<(EventKind, Option<Stage>, u64)> = events
            .iter()
            .map(|event| (event.kind, event.stage, event.round))
            .collect();
        let mut expected = Vec::new();
        for round in [0u64, 1] {
            for (kind, stage) in [
                (EventKind::StageEnter, Stage::Shard),
                (EventKind::StageEnter, Stage::Allocate),
                (EventKind::StageExit, Stage::Allocate),
                (EventKind::StageEnter, Stage::Pay),
                (EventKind::StageExit, Stage::Pay),
                (EventKind::StageExit, Stage::Shard),
            ] {
                expected.push((kind, Some(stage), round));
            }
        }
        assert_eq!(spans, expected);
    }

    #[test]
    fn retired_replication_requests_are_typed_errors() {
        let topology = topology();
        let mut server = NodeServer::new(&topology, ClusterParams::default(), 1, 0, false);
        for request in [Request::PullDelta, Request::ApplyDelta] {
            assert!(matches!(server.handle(&request), Response::Error { .. }));
        }
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
