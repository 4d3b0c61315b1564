//! Deterministic bid-stream synthesis, with faults woven in.
//!
//! Each *logical* campaign round expands into a sequence of [`Action`]s —
//! bid submissions and engine ticks — derived purely from
//! `(campaign seed, round index, scheduled faults)`. Round `r`'s RNG
//! stream is seeded from a SplitMix64 mix of the campaign seed and `r`,
//! so removing or adding a fault in one round can never shift the random
//! draws of any other round. That per-round isolation is what lets the
//! quarantine-regression tests assert "only the faulted round changed".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mcs_obs::digest::mix64;
use mcs_platform::ingest::Bid;

use crate::campaign::CampaignConfig;
use crate::plan::{Fault, FaultPlan};

/// One step of the campaign's drive sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Submit this bid to the engine (and the mirror batcher).
    Submit(Bid),
    /// Advance the engine's (and the mirror's) batch clock one tick.
    Tick,
}

/// User ids from here up are reserved for overload-fault bids, so a
/// burst can never collide with a round's base bidders (or with the
/// fresh ids ingest faults use).
pub const OVERLOAD_USER_BASE: u32 = 10_000;

/// Expands logical round `round` into its drive sequence.
///
/// The fault-free shape is `bids_per_round` well-formed bids from users
/// `0..bids_per_round`, costs in `[1, 5)` and per-task PoS in
/// `[0.3, 0.8)` — always feasible for the campaign's published
/// requirements. Ingest faults insert one malformed bid just before the
/// round's last base bid (so the rejection cannot move the
/// capacity-close); [`Fault::DelayedTicks`] inserts ticks halfway;
/// [`Fault::InfeasibleRound`] replaces the whole round with a single
/// too-weak bidder plus enough ticks to force the round closed.
///
/// Overload faults synthesise *well-formed* extra bids from the reserved
/// [`OVERLOAD_USER_BASE`] id space, drawn from the same per-round RNG
/// stream after the base bids (so they perturb no other round):
/// [`Fault::BurstArrival`] prepends `factor × bids_per_round` bids
/// back-to-back; [`Fault::Oversubscribe`] interleaves `factor − 1` extra
/// bids after every base bid, sustaining the pressure across the whole
/// round.
pub fn round_actions(config: &CampaignConfig, round: u64, faults: &[Fault]) -> Vec<Action> {
    let mut rng = StdRng::seed_from_u64(mix64(config.seed, round, 0));
    let task_ids: Vec<u32> = (0..config.task_count as u32).collect();

    if faults.contains(&Fault::InfeasibleRound) {
        // One bidder far too weak for any requirement, then force the
        // round closed on its tick budget so it cannot bleed into the
        // next logical round.
        let mut actions = vec![Action::Submit(Bid {
            user: 0,
            cost: 1.0,
            tasks: task_ids.iter().map(|&t| (t, 0.05)).collect(),
        })];
        for _ in 0..config.engine_config(&FaultPlan::new()).batch.max_ticks {
            actions.push(Action::Tick);
        }
        return actions;
    }

    let mut actions: Vec<Action> = (0..config.bids_per_round as u32)
        .map(|user| {
            Action::Submit(Bid {
                user,
                cost: rng.gen_range(1.0..5.0),
                tasks: task_ids
                    .iter()
                    .map(|&t| (t, rng.gen_range(0.3..0.8)))
                    .collect(),
            })
        })
        .collect();

    // Overload bids draw from the round's RNG *after* the base bids, so
    // scheduling an overload fault never changes the base draws.
    let mut overload_user = OVERLOAD_USER_BASE;
    let mut overload_bid = |rng: &mut StdRng| {
        let bid = Bid {
            user: overload_user,
            cost: rng.gen_range(1.0..5.0),
            tasks: task_ids
                .iter()
                .map(|&t| (t, rng.gen_range(0.3..0.8)))
                .collect(),
        };
        overload_user += 1;
        bid
    };

    for fault in faults {
        match fault {
            Fault::BurstArrival(factor) => {
                let extra: Vec<Action> = (0..*factor as usize * config.bids_per_round)
                    .map(|_| Action::Submit(overload_bid(&mut rng)))
                    .collect();
                actions.splice(0..0, extra);
            }
            Fault::Oversubscribe(factor) => {
                let per_base = factor.saturating_sub(1) as usize;
                let mut sustained = Vec::with_capacity(actions.len() * (per_base + 1));
                for action in actions.drain(..) {
                    let is_submit = matches!(action, Action::Submit(_));
                    sustained.push(action);
                    if is_submit {
                        for _ in 0..per_base {
                            sustained.push(Action::Submit(overload_bid(&mut rng)));
                        }
                    }
                }
                actions = sustained;
            }
            Fault::DelayedTicks(ticks) => {
                let at = actions.len() / 2;
                for _ in 0..*ticks {
                    actions.insert(at, Action::Tick);
                }
            }
            fault if fault.is_ingest() => {
                let bad = malformed_bid(config, *fault);
                // Just before the final base bid: the reject never
                // disturbs which bid closes the round at capacity.
                let at = actions.len().saturating_sub(1);
                actions.insert(at, Action::Submit(bad));
            }
            _ => {}
        }
    }
    actions
}

/// The malformed bid an ingest-stage fault materialises as. Each is
/// crafted to trip exactly one [`IngestError`](mcs_platform::ingest::IngestError)
/// variant.
fn malformed_bid(config: &CampaignConfig, fault: Fault) -> Bid {
    // A fresh user id so rejection (not user-dedup) is what's tested —
    // except for DuplicateUserBid, which reuses user 0 on purpose.
    let fresh = config.bids_per_round as u32 + 7;
    match fault {
        Fault::NanCostBid => Bid {
            user: fresh,
            cost: f64::NAN,
            tasks: vec![(0, 0.5)],
        },
        Fault::NegativeCostBid => Bid {
            user: fresh,
            cost: -2.0,
            tasks: vec![(0, 0.5)],
        },
        Fault::OutOfRangePosBid => Bid {
            user: fresh,
            cost: 2.0,
            tasks: vec![(0, 1.5)],
        },
        Fault::EmptyTaskSetBid => Bid {
            user: fresh,
            cost: 2.0,
            tasks: Vec::new(),
        },
        Fault::UnknownTaskBid => Bid {
            user: fresh,
            cost: 2.0,
            tasks: vec![(9_999, 0.5)],
        },
        Fault::DuplicateTaskBid => Bid {
            user: fresh,
            cost: 2.0,
            tasks: vec![(0, 0.5), (0, 0.6)],
        },
        Fault::DuplicateUserBid => Bid {
            user: 0,
            cost: 2.0,
            tasks: vec![(0, 0.5)],
        },
        Fault::OversizedBid => Bid {
            user: fresh,
            cost: 2.0,
            tasks: (0..256).map(|i| (10_000 + i, 0.5)).collect(),
        },
        other => unreachable!("{other:?} is not an ingest fault"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Fault;

    fn config() -> CampaignConfig {
        CampaignConfig::default()
    }

    #[test]
    fn fault_free_rounds_are_reproducible_and_well_formed() {
        let a = round_actions(&config(), 3, &[]);
        let b = round_actions(&config(), 3, &[]);
        assert_eq!(a, b);
        assert_eq!(a.len(), config().bids_per_round);
        for action in &a {
            match action {
                Action::Submit(bid) => {
                    assert!(bid.cost.is_finite());
                    assert_eq!(bid.tasks.len(), config().task_count);
                }
                Action::Tick => panic!("no ticks in a fault-free round"),
            }
        }
    }

    #[test]
    fn rounds_draw_independent_streams() {
        let a = round_actions(&config(), 0, &[]);
        let b = round_actions(&config(), 1, &[]);
        assert_ne!(a, b);
    }

    #[test]
    fn a_fault_in_one_round_leaves_other_rounds_bitwise_identical() {
        let clean = round_actions(&config(), 4, &[]);
        // Round 3 carrying a fault must not change round 4's draws.
        let _ = round_actions(&config(), 3, &[Fault::ShardPanic]);
        assert_eq!(round_actions(&config(), 4, &[]), clean);
    }

    #[test]
    fn ingest_faults_insert_one_extra_bid_before_the_last() {
        let actions = round_actions(&config(), 0, &[Fault::NanCostBid]);
        assert_eq!(actions.len(), config().bids_per_round + 1);
        let Action::Submit(bad) = &actions[actions.len() - 2] else {
            panic!("expected the malformed bid second-to-last");
        };
        assert!(bad.cost.is_nan());
    }

    #[test]
    fn delayed_ticks_appear_mid_round() {
        let actions = round_actions(&config(), 0, &[Fault::DelayedTicks(3)]);
        assert_eq!(
            actions.iter().filter(|a| matches!(a, Action::Tick)).count(),
            3
        );
    }

    #[test]
    fn burst_arrival_prepends_factor_rounds_of_fresh_bids() {
        let cfg = config();
        let actions = round_actions(&cfg, 2, &[Fault::BurstArrival(3)]);
        assert_eq!(actions.len(), 4 * cfg.bids_per_round);
        // The burst comes first, from the reserved id space, well-formed.
        for action in &actions[..3 * cfg.bids_per_round] {
            let Action::Submit(bid) = action else {
                panic!("bursts are back-to-back submissions");
            };
            assert!(bid.user >= OVERLOAD_USER_BASE);
            assert!(bid.cost.is_finite());
        }
        // The base bids are bitwise those of the fault-free round.
        let clean = round_actions(&cfg, 2, &[]);
        assert_eq!(&actions[3 * cfg.bids_per_round..], clean.as_slice());
    }

    #[test]
    fn oversubscription_interleaves_extras_after_every_base_bid() {
        let cfg = config();
        let actions = round_actions(&cfg, 5, &[Fault::Oversubscribe(10)]);
        assert_eq!(actions.len(), 10 * cfg.bids_per_round);
        let clean = round_actions(&cfg, 5, &[]);
        for (i, chunk) in actions.chunks(10).enumerate() {
            assert_eq!(chunk[0], clean[i], "base bid {i} must be undisturbed");
            for extra in &chunk[1..] {
                let Action::Submit(bid) = extra else {
                    panic!("oversubscription submits, never ticks");
                };
                assert!(bid.user >= OVERLOAD_USER_BASE);
            }
        }
        // All overload user ids are unique within the round.
        let mut users: Vec<u32> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Submit(bid) if bid.user >= OVERLOAD_USER_BASE => Some(bid.user),
                _ => None,
            })
            .collect();
        users.sort_unstable();
        users.dedup();
        assert_eq!(users.len(), 9 * cfg.bids_per_round);
    }

    #[test]
    fn infeasible_round_is_one_weak_bid_plus_forced_close() {
        let cfg = config();
        let actions = round_actions(&cfg, 0, &[Fault::InfeasibleRound]);
        let ticks = cfg.engine_config(&FaultPlan::new()).batch.max_ticks as usize;
        assert_eq!(actions.len(), 1 + ticks);
        let Action::Submit(weak) = &actions[0] else {
            panic!("expected the weak bid first");
        };
        assert!(weak.tasks.iter().all(|&(_, p)| p < 0.1));
    }
}
