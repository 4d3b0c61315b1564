//! The campaign runner: the closed loop of publish → clear → settle →
//! observe → re-auction.
//!
//! A *campaign* is one quality target pursued across many auction
//! rounds. Each round the runner: (1) publishes the currently uncovered
//! tasks at their residual requirements, (2) collects bids from a
//! [`BidSource`] and screens them through the
//! [`PosCalibrator`](crate::calibrate::PosCalibrator), (3) runs one
//! engine round to clear and settle them, (4) feeds the settled
//! execution outcomes back into the
//! [`SuccessHistory`](crate::history::SuccessHistory) and the
//! [`ResidualTracker`](crate::residual::ResidualTracker), and (5) while
//! residual requirement remains and the budget allows, enqueues a
//! residual re-auction restricted to the uncovered tasks.
//!
//! ## Determinism contract
//!
//! Everything the loop consumes is deterministic: the bid source is
//! seeded, execution draws come from the engine's per-round RNG,
//! injected failures hash `(seed, round, user)`, and every store is a
//! `BTreeMap`. The campaign [`fingerprint`](CampaignReport::fingerprint)
//! is therefore bitwise-identical across worker and payment-thread
//! counts — the same contract the single-round engine upholds, extended
//! over the whole loop.
//!
//! The engine is rebuilt per round via
//! [`Engine::restore`](mcs_platform::prelude::Engine::restore), which
//! carries the ledger and round-id sequence forward while accepting the
//! shrunken residual task list — exactly the checkpoint/restore seam the
//! platform already exposes.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcs_core::indexed::ContextPool;
use mcs_core::types::{Pos, Task, TaskId, UserId};
use mcs_obs::digest::Fnv1a;
use mcs_obs::{EventKind, RawEvent};
use mcs_platform::prelude::{Engine, EngineCheckpoint, EngineConfig, FaultInjector};

use crate::calibrate::{CalibrationDecision, CalibratorConfig, PosCalibrator};
use crate::history::SuccessHistory;
use crate::inject::FailureInjector;
use crate::metrics::{CampaignMetrics, RoundEcon};
use crate::residual::ResidualTracker;
use crate::source::BidSource;

/// A whole campaign's knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Per-round engine configuration (seed, workers, payment threads,
    /// admission). The batch capacity is overridden per round to fit
    /// the submitted bids.
    pub engine: EngineConfig,
    /// The published tasks with their full quality requirements.
    pub tasks: Vec<Task>,
    /// Hard cap on rounds (initial + residual). Must be ≥ 1.
    pub max_rounds: u64,
    /// Optional slot deadline; each round consumes one slot, so a
    /// deadline below `max_rounds` binds first. `None` leaves
    /// `max_rounds` as the only budget.
    pub deadline: Option<u64>,
    /// Calibration knobs.
    pub calibration: CalibratorConfig,
    /// Injected execution-failure probability in `[0, 1]` (0 = off).
    pub failure_rate: f64,
    /// Seed of the failure-injection hash stream.
    pub failure_seed: u64,
    /// Per-user mobility evidence for [`CalibrationMode::Mobility`](crate::calibrate::CalibrationMode::Mobility):
    /// the predicted probability of visiting a task cell within the
    /// sensing window, e.g. from
    /// [`mcs_mobility::serve::VisitOracle`]. Ignored in other modes.
    pub mobility_visits: BTreeMap<UserId, f64>,
}

impl CampaignConfig {
    /// A campaign over `tasks` with default calibration, no injected
    /// failures, and a budget of `max_rounds`.
    pub fn new(engine: EngineConfig, tasks: Vec<Task>, max_rounds: u64) -> Self {
        CampaignConfig {
            engine,
            tasks,
            max_rounds,
            deadline: None,
            calibration: CalibratorConfig::default(),
            failure_rate: 0.0,
            failure_seed: 0,
            mobility_visits: BTreeMap::new(),
        }
    }

    /// The effective round budget: `max_rounds` clamped by the deadline.
    pub fn round_budget(&self) -> u64 {
        self.deadline.unwrap_or(u64::MAX).min(self.max_rounds)
    }
}

/// One campaign round, as the runner saw it end to end.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRoundRecord {
    /// Campaign round index (0-based).
    pub index: u64,
    /// Engine round id this round ran under.
    pub engine_round: u64,
    /// Residual requirement per open task when the round was published.
    pub residual_before: BTreeMap<TaskId, f64>,
    /// Residual requirement per task after absorbing the round.
    pub residual_after: BTreeMap<TaskId, f64>,
    /// Bids the source offered (after restricting to open tasks).
    pub bids_offered: usize,
    /// Bids the calibrator gated out.
    pub bids_gated: usize,
    /// Bids submitted to the engine.
    pub bids_submitted: usize,
    /// Winners, in id order.
    pub winners: Vec<UserId>,
    /// Settled execution outcome per winner.
    pub outcomes: BTreeMap<UserId, bool>,
    /// Settled payout total.
    pub payout: f64,
    /// Social cost `Σ c_i` of the allocation.
    pub social_cost: f64,
    /// Whether the round was quarantined instead of cleared.
    pub quarantined: bool,
}

impl CampaignRoundRecord {
    /// Successful executions this round.
    pub fn successes(&self) -> usize {
        self.outcomes.values().filter(|&&ok| ok).count()
    }

    /// Total residual before the round.
    pub fn total_residual_before(&self) -> f64 {
        self.residual_before.values().sum()
    }

    /// Total residual after the round.
    pub fn total_residual_after(&self) -> f64 {
        self.residual_after.values().sum()
    }
}

/// The outcome of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every round, in order.
    pub rounds: Vec<CampaignRoundRecord>,
    /// Whether every task reached full coverage.
    pub covered: bool,
    /// Campaign-scoped payout total (scope accounting, so back-to-back
    /// campaigns on one ledger each report their own spend).
    pub total_paid: f64,
    /// Sum of allocation social costs over cleared rounds.
    pub total_social_cost: f64,
    /// Campaign-scoped per-user payouts.
    pub balances: BTreeMap<UserId, f64>,
    /// Final residual per task (all zero iff `covered`).
    pub residual_final: BTreeMap<TaskId, f64>,
    /// The success history accumulated over the campaign.
    pub history: SuccessHistory,
    /// The engine checkpoint after the last round — hand it to
    /// [`CampaignRunner::resume`] to chain another campaign on the same
    /// ledger.
    pub checkpoint: EngineCheckpoint,
    /// The calibration knobs the campaign ran under (for oracles that
    /// recompute posteriors).
    pub calibration: CalibratorConfig,
}

impl CampaignReport {
    /// Rounds actually run.
    pub fn rounds_run(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// An FNV-1a digest of everything economically meaningful: round
    /// ids, residuals, winners, payouts, outcomes, and final balances.
    /// Bitwise-identical across worker/payment-thread counts.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv1a::new();
        for round in &self.rounds {
            fnv.write_u64(round.index);
            fnv.write_u64(round.engine_round);
            fnv.write_u64(round.bids_offered as u64);
            fnv.write_u64(round.bids_gated as u64);
            fnv.write_u64(round.bids_submitted as u64);
            fnv.write_u64(round.quarantined as u64);
            for (&task, &residual) in &round.residual_before {
                fnv.write_u64(task.index() as u64);
                fnv.write_u64(residual.to_bits());
            }
            for (&task, &residual) in &round.residual_after {
                fnv.write_u64(task.index() as u64);
                fnv.write_u64(residual.to_bits());
            }
            for &winner in &round.winners {
                fnv.write_u64(winner.index() as u64);
            }
            for (&user, &completed) in &round.outcomes {
                fnv.write_u64(user.index() as u64);
                fnv.write_u64(completed as u64);
            }
            fnv.write_u64(round.payout.to_bits());
            fnv.write_u64(round.social_cost.to_bits());
        }
        fnv.write_u64(self.covered as u64);
        fnv.write_u64(self.total_paid.to_bits());
        for (&user, &balance) in &self.balances {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(balance.to_bits());
        }
        for (&task, &residual) in &self.residual_final {
            fnv.write_u64(task.index() as u64);
            fnv.write_u64(residual.to_bits());
        }
        for (user, record) in self.history.users() {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(record.successes);
            fnv.write_u64(record.attempts);
        }
        fnv.finish()
    }
}

/// Drives a campaign to full coverage or budget exhaustion.
#[derive(Debug)]
pub struct CampaignRunner {
    config: CampaignConfig,
    injector: Arc<dyn FaultInjector>,
    metrics: Arc<CampaignMetrics>,
}

impl CampaignRunner {
    /// A runner whose only fault source is the configured execution
    /// failure rate.
    pub fn new(config: CampaignConfig) -> Self {
        let injector = Arc::new(FailureInjector::new(
            config.failure_seed,
            config.failure_rate,
        ));
        CampaignRunner {
            config,
            injector,
            metrics: Arc::new(CampaignMetrics::new()),
        }
    }

    /// A runner composing the configured failure rate over `inner`'s
    /// chaos faults (shard panics, bid corruption, reordering).
    pub fn with_injector(config: CampaignConfig, inner: Arc<dyn FaultInjector>) -> Self {
        let injector = Arc::new(FailureInjector::wrapping(
            config.failure_seed,
            config.failure_rate,
            inner,
        ));
        CampaignRunner {
            config,
            injector,
            metrics: Arc::new(CampaignMetrics::new()),
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// A shared handle to the campaign metrics, e.g. for an
    /// [`ExportServer`](mcs_obs::ExportServer).
    pub fn metrics_handle(&self) -> Arc<CampaignMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Runs the campaign on a fresh ledger.
    pub fn run(&self, source: &mut dyn BidSource) -> CampaignReport {
        self.drive(source, None)
    }

    /// Runs the campaign continuing from `checkpoint`: the ledger's
    /// lifetime balances and the round-id sequence carry over, but a new
    /// accounting scope is opened so this campaign's spend is reported
    /// separately (see [`Ledger::begin_scope`](mcs_platform::prelude::Ledger::begin_scope)).
    pub fn resume(
        &self,
        source: &mut dyn BidSource,
        checkpoint: EngineCheckpoint,
    ) -> CampaignReport {
        self.drive(source, Some(checkpoint))
    }

    fn drive(
        &self,
        source: &mut dyn BidSource,
        mut checkpoint: Option<EngineCheckpoint>,
    ) -> CampaignReport {
        if let Some(checkpoint) = checkpoint.as_mut() {
            checkpoint.ledger.begin_scope();
        }
        let mut calibrator = PosCalibrator::new(self.config.calibration);
        for (&user, &visit) in &self.config.mobility_visits {
            calibrator.register_visit(user, visit);
        }
        let calibrator = calibrator;
        let mut tracker = ResidualTracker::new(&self.config.tasks);
        let mut history = SuccessHistory::new();
        let mut rounds: Vec<CampaignRoundRecord> = Vec::new();
        let mut total_social_cost = 0.0;
        let budget = self.config.round_budget();
        // One set of clearing arenas for the whole campaign. Each
        // round's engine is rebuilt via restore, but adopting this pool
        // lets its shard workers delta-patch the previous round's CSR
        // index instead of re-flattening — residual re-auction
        // populations are mostly carry-over bidders. Bitwise neutral:
        // a synced index equals a fresh rebuild (`IndexedProfile::sync_with`).
        let clear_contexts = ContextPool::new();

        let mut index = 0;
        while index < budget && !tracker.is_covered() {
            let open_tasks = if index == 0 {
                self.config.tasks.clone()
            } else {
                tracker.uncovered_tasks()
            };
            let open_ids: std::collections::BTreeSet<u32> = open_tasks
                .iter()
                .map(|task| task.id().index() as u32)
                .collect();
            let residual_before: BTreeMap<TaskId, f64> = open_tasks
                .iter()
                .map(|task| (task.id(), tracker.residual(task.id()).value()))
                .collect();

            // Collect and screen bids before the engine exists: the
            // calibrator needs only history, and the engine wants its
            // batch capacity sized to the admitted bid count so one
            // campaign round is exactly one engine round.
            let mut offered = source.bids(index, &open_tasks);
            for bid in &mut offered {
                bid.tasks.retain(|&(task, _)| open_ids.contains(&task));
            }
            offered.retain(|bid| !bid.tasks.is_empty());
            let mut admitted = Vec::new();
            let mut decisions: Vec<(UserId, CalibrationDecision)> = Vec::new();
            let mut divergence_sum = 0.0f64;
            for bid in offered.iter() {
                let user = UserId::new(bid.user);
                let declared_any = 1.0
                    - bid
                        .tasks
                        .iter()
                        .fold(1.0, |acc, &(_, pos)| acc * (1.0 - pos));
                let decision = calibrator.decide(&history, user, Pos::saturating(declared_any));
                self.metrics
                    .calibration(decision.divergence().abs(), !decision.admitted);
                divergence_sum += decision.divergence().abs();
                decisions.push((user, decision));
                if decision.admitted {
                    admitted.push(bid.clone());
                }
            }
            let round_divergence_mean = if decisions.is_empty() {
                0.0
            } else {
                divergence_sum / decisions.len() as f64
            };

            let mut engine_config = self.config.engine;
            engine_config.batch.max_bids = admitted.len().max(1);
            let mut engine = match checkpoint.take() {
                None => Engine::with_injector(
                    engine_config,
                    open_tasks.clone(),
                    Arc::clone(&self.injector),
                ),
                Some(checkpoint) => Engine::restore(
                    engine_config,
                    open_tasks.clone(),
                    checkpoint,
                    Arc::clone(&self.injector),
                ),
            };
            engine.adopt_clear_contexts(clear_contexts.clone());
            let engine_round = engine.next_round_id();
            self.metrics.round_opened();
            engine.recorder().record(RawEvent::new(
                EventKind::CampaignRoundOpened,
                engine_round.0,
                index,
                open_tasks.len() as u64,
                tracker.total_residual().value().to_bits(),
            ));
            for (user, decision) in &decisions {
                engine.recorder().record(RawEvent::new(
                    EventKind::PosCalibrated,
                    engine_round.0,
                    user.index() as u64,
                    decision.declared.value().to_bits(),
                    decision.calibrated.value().to_bits(),
                ));
            }

            let mut submitted = 0;
            for bid in &admitted {
                if engine.submit(bid).is_ok() {
                    submitted += 1;
                }
            }
            engine.flush();
            engine.drain();

            let mut record = CampaignRoundRecord {
                index,
                engine_round: engine_round.0,
                residual_before,
                bids_offered: offered.len(),
                bids_gated: offered.len() - admitted.len(),
                bids_submitted: submitted,
                winners: Vec::new(),
                outcomes: BTreeMap::new(),
                payout: 0.0,
                social_cost: 0.0,
                quarantined: !engine.quarantine().is_empty(),
                residual_after: BTreeMap::new(),
            };

            if let Some(cleared) = engine.results().get(&engine_round) {
                record.winners = cleared.allocation.winners().collect();
                record.social_cost = cleared.social_cost;
                total_social_cost += cleared.social_cost;
                let settlement = engine
                    .settlements()
                    .get(&engine_round)
                    .expect("cleared rounds are settled");
                record.payout = settlement.total;
                record.outcomes = settlement.outcomes.clone();
                history.observe(settlement);
                for (&user, &completed) in &settlement.outcomes {
                    self.metrics.execution(completed);
                    if !completed {
                        continue;
                    }
                    // Credit the winner's declared per-task contributions.
                    if let Some(bid) = admitted.iter().find(|bid| bid.user == user.index() as u32) {
                        for &(task, pos) in &bid.tasks {
                            tracker.absorb(TaskId::new(task), Pos::saturating(pos).contribution());
                        }
                    }
                }
            }
            record.residual_after = record
                .residual_before
                .keys()
                .map(|&task| (task, tracker.residual(task).value()))
                .collect();

            let reauction = !tracker.is_covered() && index + 1 < budget;
            if reauction {
                self.metrics.residual_reauction();
                engine.recorder().record(RawEvent::new(
                    EventKind::ResidualReauction,
                    engine_round.0,
                    tracker.uncovered_tasks().len() as u64,
                    tracker.total_residual().value().to_bits(),
                    record.successes() as u64,
                ));
            }

            self.metrics.record_round(RoundEcon {
                index,
                engine_round: engine_round.0,
                tasks_open: open_tasks.len(),
                bids_submitted: record.bids_submitted,
                bids_gated: record.bids_gated,
                winners: record.winners.len(),
                successes: record.successes(),
                payout: record.payout,
                residual_before: record.total_residual_before(),
                residual_after: record.total_residual_after(),
                pos_divergence_mean: round_divergence_mean,
                quarantined: record.quarantined,
            });
            rounds.push(record);
            checkpoint = Some(engine.checkpoint());
            index += 1;
        }

        let checkpoint = checkpoint.unwrap_or_else(|| {
            // A zero-budget campaign never built an engine; synthesize
            // an empty checkpoint so chaining still works.
            Engine::new(self.config.engine, self.config.tasks.clone()).checkpoint()
        });
        let covered = tracker.is_covered();
        self.metrics.campaign_finished(covered);
        CampaignReport {
            rounds,
            covered,
            total_paid: checkpoint.ledger.scope_paid(),
            total_social_cost,
            balances: checkpoint.ledger.scope_balances().clone(),
            residual_final: tracker
                .residuals()
                .iter()
                .map(|(&task, residual)| (task, residual.value()))
                .collect(),
            history,
            checkpoint,
            calibration: self.config.calibration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SyntheticBidSource;
    use mcs_core::types::Task;

    fn tasks() -> Vec<Task> {
        vec![
            Task::with_requirement(TaskId::new(0), 0.95).unwrap(),
            Task::with_requirement(TaskId::new(1), 0.9).unwrap(),
            Task::with_requirement(TaskId::new(2), 0.85).unwrap(),
        ]
    }

    fn config(seed: u64, failure_rate: f64) -> CampaignConfig {
        let engine = EngineConfig::default().with_seed(seed);
        let mut config = CampaignConfig::new(engine, tasks(), 24);
        config.failure_rate = failure_rate;
        config.failure_seed = seed ^ 0xC0FFEE;
        config
    }

    #[test]
    fn failure_free_campaigns_cover_quickly() {
        let runner = CampaignRunner::new(config(5, 0.0));
        let mut source = SyntheticBidSource::new(5, 12);
        let report = runner.run(&mut source);
        assert!(report.covered);
        assert!(report.residual_final.values().all(|&r| r < 1e-9));
        assert!(report.rounds_run() >= 1);
    }

    #[test]
    fn injected_failures_force_residual_rounds() {
        let clean = CampaignRunner::new(config(5, 0.0));
        let mut source = SyntheticBidSource::new(5, 12);
        let clean_rounds = clean.run(&mut source).rounds_run();

        let faulty = CampaignRunner::new(config(5, 0.5));
        let mut source = SyntheticBidSource::new(5, 12);
        let report = faulty.run(&mut source);
        assert!(report.covered, "residual rounds should still converge");
        assert!(
            report.rounds_run() > clean_rounds,
            "50% failures must cost extra rounds ({} vs {clean_rounds})",
            report.rounds_run()
        );
        assert!(faulty.metrics_handle().residual_reauction_count() > 0);
    }

    #[test]
    fn residuals_never_increase() {
        let runner = CampaignRunner::new(config(11, 0.4));
        let mut source = SyntheticBidSource::new(11, 10);
        let report = runner.run(&mut source);
        for round in &report.rounds {
            for (task, &after) in &round.residual_after {
                assert!(after <= round.residual_before[task] + 1e-12);
            }
        }
    }

    #[test]
    fn deadline_binds_before_max_rounds() {
        let mut config = config(7, 0.95);
        config.max_rounds = 50;
        config.deadline = Some(3);
        let runner = CampaignRunner::new(config);
        let mut source = SyntheticBidSource::new(7, 8);
        let report = runner.run(&mut source);
        assert!(report.rounds_run() <= 3);
    }

    #[test]
    fn fingerprints_are_stable_across_worker_counts() {
        let mut fingerprints = Vec::new();
        for workers in [1usize, 2, 8] {
            let mut config = config(13, 0.3);
            config.engine = config.engine.with_workers(workers);
            let runner = CampaignRunner::new(config);
            let mut source = SyntheticBidSource::new(13, 12);
            fingerprints.push(runner.run(&mut source).fingerprint());
        }
        assert_eq!(fingerprints[0], fingerprints[1]);
        assert_eq!(fingerprints[1], fingerprints[2]);
    }

    #[test]
    fn resumed_campaigns_scope_their_accounting() {
        let runner = CampaignRunner::new(config(17, 0.2));
        let mut source = SyntheticBidSource::new(17, 10);
        let first = runner.run(&mut source);
        let second = runner.resume(&mut source, first.checkpoint.clone());
        // Scoped totals are per campaign; the lifetime ledger holds both.
        let lifetime = second.checkpoint.ledger.total_paid();
        assert!((first.total_paid + second.total_paid - lifetime).abs() < 1e-9);
        // Round ids continue instead of restarting.
        assert!(second.rounds[0].engine_round > first.rounds.last().unwrap().engine_round);
    }
}
