//! Scenario bidder populations: truthful draws, shocked truths, and
//! live strategic deviations.
//!
//! Every round's bids are a pure function of `(scenario, round)`:
//!
//! * The arrival curve picks how many **base** users bid (`u0..n`, a
//!   prefix of the stable id space) and how many **burst** users join
//!   (fresh ids from [`BURST_USER_BASE`], allocated by prefix sum so no
//!   id ever repeats).
//! * Each bidder draws a cost and a per-task PoS from the population
//!   ranges, keyed on `(seed, round, user, task)`.
//! * The *declared* bid is the truthful draw. The *true type* tracked
//!   alongside differs in exactly one way: correlated shocks multiply
//!   the true per-task PoS for users homed in a shocked region. Bidders
//!   do not know the weather, so the declaration stays unshocked.
//! * In a deviating run, at most **one** bidder per round — the
//!   deviator pool takes turns — scales her *declared* PoS vector by a
//!   factor from the systematic
//!   [`misreport_factor_grid`](mcs_core::analysis::misreport_factor_grid),
//!   mirroring the offline
//!   [`check_strategy_proofness`](mcs_core::analysis::check_strategy_proofness)
//!   semantics (contributions scale, cost stays truthful). One deviator
//!   per round keeps every comparison unilateral, which is what the SP
//!   theorem actually promises.

use std::collections::BTreeMap;

use mcs_core::analysis::misreport_factor_grid;
use mcs_core::types::{Contribution, Pos};
use mcs_obs::digest::unit;
use mcs_platform::ingest::Bid;

use super::arrival::{ArrivalCurve, BURST_USER_BASE};
use super::shock::ShockField;
use super::spec::Scenario;

/// Domain salts for the independent population draws.
const SALT_COST: u64 = 0x434f_5354;
const SALT_POS: u64 = 0x504f_5349;

/// Declared PoS cap after deviation scaling: over-reports clamp here,
/// comfortably inside the platform's `[0, 1)` ingest range.
const POS_CAP: f64 = 0.95;

/// A bidder's true type for one round: her cost and her *actual*
/// (shock-adjusted) probability of completing any declared task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrueType {
    /// True cost (costs are never shocked or misreported here).
    pub cost: f64,
    /// True `p_any` after regional shocks: the probability the engine's
    /// redrawn execution report comes back `completed`.
    pub p_any: f64,
}

/// One applied deviation, recorded for the online SP oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deviation {
    /// Logical round the deviation was played in (also the engine round
    /// id when the run stays one-round-per-round).
    pub round: u64,
    /// The deviating user.
    pub user: u32,
    /// The contribution scaling factor from the misreport grid.
    pub factor: f64,
    /// Her true cost.
    pub true_cost: f64,
    /// Her *believed* true `p_any` — the unshocked truthful declaration,
    /// which is the type the SP guarantee quantifies over. (Shocks are
    /// environment, not type: a bidder cannot condition her report on
    /// weather she cannot observe.)
    pub believed_any: f64,
}

/// One round's generated population.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPopulation {
    /// Declared bids, in submission order (base users then burst users).
    pub bids: Vec<Bid>,
    /// Per-user true types (keyed by raw user id).
    pub truths: BTreeMap<u32, TrueType>,
    /// The deviation applied this round, if this is a deviating run.
    pub deviation: Option<Deviation>,
}

/// A scenario's bidder population: a pure per-round generator.
#[derive(Debug)]
pub struct Population<'a> {
    scenario: &'a Scenario,
    curve: &'a ArrivalCurve,
    shocks: Option<&'a ShockField>,
    factors: Vec<f64>,
}

impl<'a> Population<'a> {
    /// A population over `scenario` with its materialised arrival curve
    /// and (optional) shock field.
    pub fn new(
        scenario: &'a Scenario,
        curve: &'a ArrivalCurve,
        shocks: Option<&'a ShockField>,
    ) -> Population<'a> {
        let factors = scenario
            .strategy
            .as_ref()
            .map(|s| misreport_factor_grid(&s.epsilons))
            .unwrap_or_default();
        Population {
            scenario,
            curve,
            shocks,
            factors,
        }
    }

    /// The misreport factor grid this population sweeps when deviating.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Generates round `round`. With `deviate` set (and a `[strategy]`
    /// section present), the round's scheduled deviator misreports.
    pub fn round(&self, round: u64, deviate: bool) -> RoundPopulation {
        let seed = self.scenario.seed;
        let tasks = self.scenario.tasks.count as u32;
        let (cost_lo, cost_hi) = (
            self.scenario.population.cost_min,
            self.scenario.population.cost_max,
        );
        let (pos_lo, pos_hi) = (
            self.scenario.population.pos_min,
            self.scenario.population.pos_max,
        );

        let mut bids = Vec::new();
        let mut truths = BTreeMap::new();
        let mut users: Vec<u32> = (0..self.curve.base_count(round)).collect();
        let burst_offset = self.curve.burst_offset(round);
        for k in 0..self.curve.burst_count(round) as u64 {
            users.push(BURST_USER_BASE + (burst_offset + k) as u32);
        }

        let mut deviation = None;
        let deviator = match (&self.scenario.strategy, deviate) {
            (Some(strategy), true) if !self.factors.is_empty() => {
                let pool = strategy.deviators as u64;
                let user = (round % pool) as u32;
                let factor = self.factors[((round / pool) % self.factors.len() as u64) as usize];
                Some((user, factor))
            }
            _ => None,
        };

        for user in users {
            let key = round.wrapping_mul(0x1_0000).wrapping_add(user as u64);
            let cost = cost_lo + (cost_hi - cost_lo) * unit(seed ^ SALT_COST, key, 0);
            let mut declared: Vec<(u32, f64)> = Vec::with_capacity(tasks as usize);
            let mut miss_all = 1.0;
            let mut believed_miss_all = 1.0;
            for task in 0..tasks {
                let pos = pos_lo + (pos_hi - pos_lo) * unit(seed ^ SALT_POS, key, task as u64);
                let true_pos = match self.shocks {
                    Some(field) => field.shocked(round, user, pos),
                    None => pos,
                };
                miss_all *= 1.0 - true_pos;
                believed_miss_all *= 1.0 - pos;
                declared.push((task, pos));
            }
            truths.insert(
                user,
                TrueType {
                    cost,
                    p_any: 1.0 - miss_all,
                },
            );
            if let Some((deviating_user, factor)) = deviator {
                if user == deviating_user {
                    // Scale in CONTRIBUTION space (p ← 1 − (1−p)^factor),
                    // bit-for-bit the way `UserType::with_scaled_contributions`
                    // does — the misreport family the mechanism's
                    // strategy-proofness theorem (and the offline
                    // `misreport_factor_grid` checks) quantify over.
                    // Scaling raw p instead changes the declaration's
                    // *shape* in contribution space, which the greedy
                    // critical value is legitimately sensitive to.
                    for entry in &mut declared {
                        let scaled = Pos::saturating(entry.1).contribution().value() * factor;
                        entry.1 = Contribution::new(scaled)
                            .map(Contribution::pos)
                            .unwrap_or(Pos::MAX)
                            .value()
                            .min(POS_CAP);
                    }
                    deviation = Some(Deviation {
                        round,
                        user,
                        factor,
                        true_cost: cost,
                        believed_any: 1.0 - believed_miss_all,
                    });
                }
            }
            bids.push(Bid {
                user,
                cost,
                tasks: declared,
            });
        }

        RoundPopulation {
            bids,
            truths,
            deviation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::spec::ScenarioMode;
    use super::super::spec::{ArrivalSpec, EngineSpec, PopulationSpec, StrategySpec, TaskSpec};
    use super::*;

    fn scenario(strategy: Option<StrategySpec>) -> Scenario {
        Scenario {
            name: "unit".into(),
            version: 1,
            seed: 11,
            rounds: 6,
            mode: ScenarioMode::Platform,
            tasks: TaskSpec {
                count: 2,
                requirement: 0.6,
            },
            population: PopulationSpec {
                users: 16,
                cost_min: 1.0,
                cost_max: 3.0,
                pos_min: 0.35,
                pos_max: 0.8,
            },
            arrival: ArrivalSpec {
                base: 6.0,
                amplitude: 0.25,
                period: 6,
                phase: 0.0,
                bursts: 1,
                burst_mass: 4,
                burst_width: 2,
            },
            shocks: None,
            strategy,
            engine: EngineSpec::default(),
            admission: None,
            campaign: None,
            chaos: None,
            baseline: None,
        }
    }

    #[test]
    fn rounds_are_pure_and_ids_never_collide() {
        let sc = scenario(None);
        let curve = ArrivalCurve::generate(&sc.arrival, sc.seed, sc.rounds);
        let population = Population::new(&sc, &curve, None);
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..sc.rounds {
            let a = population.round(round, false);
            let b = population.round(round, false);
            assert_eq!(a, b);
            assert_eq!(a.bids.len(), curve.count(round) as usize);
            for bid in &a.bids {
                assert!(bid.cost >= 1.0 && bid.cost < 3.0);
                assert_eq!(bid.tasks.len(), 2);
                for &(_, pos) in &bid.tasks {
                    assert!((0.35..0.8).contains(&pos));
                }
                if bid.user >= BURST_USER_BASE {
                    // Burst ids must be globally fresh.
                    assert!(seen.insert(bid.user), "burst id {} repeated", bid.user);
                }
                let truth = a.truths[&bid.user];
                assert_eq!(truth.cost, bid.cost);
                assert!((0.0..1.0).contains(&truth.p_any));
            }
        }
    }

    #[test]
    fn truthful_runs_declare_their_true_types() {
        let sc = scenario(None);
        let curve = ArrivalCurve::generate(&sc.arrival, sc.seed, sc.rounds);
        let population = Population::new(&sc, &curve, None);
        let round = population.round(2, false);
        for bid in &round.bids {
            let p_any = 1.0 - bid.tasks.iter().map(|&(_, pos)| 1.0 - pos).product::<f64>();
            assert_eq!(round.truths[&bid.user].p_any.to_bits(), p_any.to_bits());
        }
    }

    #[test]
    fn exactly_one_unilateral_deviation_per_round() {
        let strategy = StrategySpec {
            epsilons: vec![0.5, 0.1],
            deviators: 3,
        };
        let sc = scenario(Some(strategy));
        let curve = ArrivalCurve::generate(&sc.arrival, sc.seed, sc.rounds);
        let population = Population::new(&sc, &curve, None);
        assert_eq!(population.factors(), &[0.0, 0.5, 0.9, 1.1, 1.5]);
        for round in 0..sc.rounds {
            let truthful = population.round(round, false);
            let deviating = population.round(round, true);
            let deviation = deviating.deviation.expect("scheduled every round");
            assert_eq!(deviation.user, (round % 3) as u32);
            assert!(population.factors().contains(&deviation.factor));
            // Truths never change under deviation.
            assert_eq!(truthful.truths, deviating.truths);
            let mut differing = 0;
            for (t, d) in truthful.bids.iter().zip(&deviating.bids) {
                assert_eq!(t.user, d.user);
                assert_eq!(t.cost, d.cost, "costs stay truthful");
                if t.tasks != d.tasks {
                    differing += 1;
                    assert_eq!(d.user, deviation.user);
                    for (&(_, truthful_pos), &(_, declared_pos)) in t.tasks.iter().zip(&d.tasks) {
                        // Bit-identical to with_scaled_contributions.
                        let expected =
                            Pos::saturating(truthful_pos).contribution().value() * deviation.factor;
                        let expected = Contribution::new(expected)
                            .map(Contribution::pos)
                            .unwrap_or(Pos::MAX)
                            .value()
                            .min(POS_CAP);
                        assert_eq!(declared_pos.to_bits(), expected.to_bits());
                    }
                }
            }
            assert!(differing <= 1, "deviation must stay unilateral");
        }
    }

    #[test]
    fn shocked_truths_diverge_from_declarations_only_under_weather() {
        use super::super::spec::ShockSpec;
        let mut sc = scenario(None);
        sc.shocks = Some(ShockSpec {
            grid_width: 4,
            grid_height: 4,
            count: 6,
            multiplier_min: 0.1,
            multiplier_max: 0.5,
            duration_min: 3,
            duration_max: 6,
            region_width: 3,
            region_height: 3,
        });
        let curve = ArrivalCurve::generate(&sc.arrival, sc.seed, sc.rounds);
        let field = ShockField::generate(sc.shocks.as_ref().unwrap(), sc.seed, sc.rounds);
        let population = Population::new(&sc, &curve, Some(&field));
        let mut shocked_somewhere = false;
        for round in 0..sc.rounds {
            let generated = population.round(round, false);
            for bid in &generated.bids {
                let declared_any =
                    1.0 - bid.tasks.iter().map(|&(_, pos)| 1.0 - pos).product::<f64>();
                let truth = generated.truths[&bid.user];
                assert!(truth.p_any <= declared_any + 1e-12);
                if truth.p_any < declared_any - 1e-12 {
                    shocked_somewhere = true;
                    assert!(field.multiplier(round, field.home_cell(bid.user)) < 1.0);
                }
            }
        }
        assert!(shocked_somewhere, "this seed should shock someone");
    }
}
