//! The cluster mirror: a single-process oracle that computes what any
//! deployment of the cluster *must* produce.
//!
//! [`ground_truth`] runs the identical decomposition — route, per-region
//! phase-1 clears, residual straddler phase 2, ascending settlement —
//! with no transports and no nodes: the round builders of
//! [`crate::clearing`], each round cleared by the pure
//! [`clear_round`](mcs_platform::shard::clear_round) on a fresh arena.
//! The equivalence and chaos suites compare real cluster runs (any node
//! count, any transport, any survivable fault schedule) against this
//! oracle bit for bit.

use std::collections::BTreeMap;

use mcs_platform::ingest::Bid;
use mcs_platform::metrics::RoundEconomics;
use mcs_platform::shard::{clear_round, ClearedRound};

use crate::clearing::{covered_contributions, regional_round, straddler_round};
use crate::config::ClusterParams;
use crate::coordinator::{shard_post_mortem, ClusterOutcome, ClusterQuarantine, QuarantineCause};
use crate::route::route_bids;
use crate::topology::Topology;

/// Computes the deployment-invariant outcome of running `rounds` of bids
/// through the cluster decomposition, entirely in-process.
pub fn ground_truth(
    topology: &Topology,
    params: ClusterParams,
    rounds: &[Vec<Bid>],
) -> ClusterOutcome {
    let mut outcome = ClusterOutcome::default();
    for (round, bids) in rounds.iter().enumerate() {
        let round = round as u64;
        let routed = route_bids(topology, bids);
        let mut results: BTreeMap<u32, ClearedRound> = BTreeMap::new();

        for (&region, bids) in &routed.regional {
            let config = params.engine_config(region);
            let sub_round = regional_round(topology.region_tasks(region), round, bids);
            match clear_round(&sub_round, &config) {
                Ok(cleared) => {
                    results.insert(region, cleared);
                }
                Err(error) => {
                    let bidders = bids.len() as u64;
                    let post_mortem = shard_post_mortem(round, region, bidders, &error);
                    outcome.quarantines.push(ClusterQuarantine {
                        round,
                        cause: QuarantineCause::Shard {
                            shard: region,
                            bidders,
                            error,
                        },
                        post_mortem,
                    });
                }
            }
        }

        let covered = covered_contributions(&routed.regional, &results);
        let straddler_shard = topology.straddler_shard();
        if let Some(straddler) = straddler_round(topology, round, &routed.straddlers, &covered) {
            let config = params.engine_config(straddler_shard);
            let bidders = straddler.profile.user_count() as u64;
            match clear_round(&straddler, &config) {
                Ok(cleared) => {
                    results.insert(straddler_shard, cleared);
                }
                Err(error) => {
                    let post_mortem = shard_post_mortem(round, straddler_shard, bidders, &error);
                    outcome.quarantines.push(ClusterQuarantine {
                        round,
                        cause: QuarantineCause::Shard {
                            shard: straddler_shard,
                            bidders,
                            error,
                        },
                        post_mortem,
                    });
                }
            }
        }

        for (shard, mut cleared) in results {
            cleared.economics = RoundEconomics::default();
            let settlement = outcome.ledger.settle(&cleared);
            outcome.results.insert((round, shard), cleared);
            outcome.settlements.insert((round, shard), settlement);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::coordinator::Cluster;
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

    fn bid(user: u32, cost: f64, tasks: &[(u32, f64)]) -> Bid {
        Bid {
            user,
            cost,
            tasks: tasks.to_vec(),
        }
    }

    #[test]
    fn the_mirror_matches_a_real_cluster_bit_for_bit() {
        let params = ClusterParams::default().with_seed(21);
        let rounds: Vec<Vec<Bid>> = (0..4)
            .map(|round| {
                vec![
                    bid(0, 2.0 + round as f64 * 0.1, &[(0, 0.6)]),
                    bid(1, 1.5, &[(0, 0.7)]),
                    bid(2, 1.8, &[(1, 0.6)]),
                    bid(3, 2.2, &[(1, 0.5)]),
                    bid(4, 3.0, &[(0, 0.4), (1, 0.4)]),
                ]
            })
            .collect();

        let oracle = ground_truth(&topology(), params, &rounds);

        for nodes in [1u32, 2] {
            let mut cluster =
                Cluster::loopback(topology(), ClusterConfig::new(nodes).with_params(params));
            for bids in &rounds {
                cluster.run_round(bids).unwrap();
            }
            assert_eq!(
                cluster.outcome().results,
                oracle.results,
                "results diverge from the mirror at {nodes} nodes"
            );
            assert_eq!(cluster.outcome().settlements, oracle.settlements);
            assert_eq!(
                cluster.outcome().ledger.balances(),
                oracle.ledger.balances()
            );
            assert_eq!(cluster.fingerprint(), oracle.fingerprint());
        }
    }
}
