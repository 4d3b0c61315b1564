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
//! A campaign runs on one engine, built once per [`CampaignRunner::run`]
//! (or restored from a checkpoint by [`CampaignRunner::resume`]). Each
//! residual round republishes the shrunken task list on it with
//! [`Engine::publish`], so the ledger, the round-id sequence, the
//! admission controller and the warm clearing arenas all carry across
//! rounds, and the round closes by an explicit flush.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcs_core::types::{Pos, Task, TaskId, UserId};
use mcs_obs::digest::Fnv1a;
use mcs_obs::{EventKind, RawEvent};
use mcs_platform::batch::{residual_tasks, restrict_bids};
use mcs_platform::prelude::{
    Admission, BatchPolicy, Engine, EngineCheckpoint, EngineConfig, FaultInjector, NoFaults,
    PostMortem,
};

use crate::calibrate::{CalibrationDecision, CalibratorConfig, PosCalibrator};
use crate::history::SuccessHistory;
use crate::inject::FailureInjector;
use crate::metrics::{CampaignMetrics, RoundEcon};
use crate::residual::ResidualTracker;
use crate::source::BidSource;

/// A whole campaign's knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Configuration of the campaign's engine (seed, workers, payment
    /// threads, admission). Its batch policy is replaced by
    /// [`BatchPolicy::FLUSH_ONLY`]: the runner closes each round itself.
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
    /// Bids the engine admitted into the round (shed bids excluded).
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
    /// One post-mortem per quarantined round, in quarantine order: why
    /// the round was set aside, with its admitted bids and trace. Not
    /// part of the fingerprint (the trace holds wall-clock times).
    pub post_mortems: Vec<PostMortem>,
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
        CampaignRunner::with_injector(config, Arc::new(NoFaults))
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
        checkpoint: Option<EngineCheckpoint>,
    ) -> CampaignReport {
        let mut engine_config = self.config.engine;
        engine_config.batch = BatchPolicy::FLUSH_ONLY;
        let tasks = self.config.tasks.clone();
        let injector = Arc::clone(&self.injector);
        let mut engine = match checkpoint {
            None => Engine::with_injector(engine_config, tasks, injector),
            Some(mut checkpoint) => {
                checkpoint.ledger.begin_scope();
                Engine::restore(engine_config, tasks, checkpoint, injector)
            }
        };
        let mut calibrator = PosCalibrator::new(self.config.calibration);
        for (&user, &visit) in &self.config.mobility_visits {
            calibrator.register_visit(user, visit);
        }
        let mut tracker = ResidualTracker::new(&self.config.tasks);
        let uncovered = |tracker: &ResidualTracker| residual_tasks(tracker.residuals().clone());
        let mut history = SuccessHistory::new();
        let mut rounds: Vec<CampaignRoundRecord> = Vec::new();
        let mut total_social_cost = 0.0;
        let budget = self.config.round_budget();

        let mut index = 0;
        while index < budget && !tracker.is_covered() {
            // Round 0 publishes the configured tasks as given:
            // republishing them from the tracker's `Q_j` could move a
            // requirement by an ulp.
            let open_tasks = if index == 0 {
                self.config.tasks.clone()
            } else {
                uncovered(&tracker)
            };
            engine
                .publish(open_tasks.clone())
                .expect("every round opens empty on an uncovered task");
            let residual_before: BTreeMap<TaskId, f64> = open_tasks
                .iter()
                .map(|task| (task.id(), tracker.residual(task.id()).value()))
                .collect();

            let mut offered = source.bids(index, &open_tasks);
            restrict_bids(&mut offered, &open_tasks);
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
                if let Ok(Admission::Admitted) = engine.submit(bid) {
                    submitted += 1;
                }
            }
            engine.flush();
            engine.drain();

            // Every read is keyed by this round's id: the engine keeps
            // the whole campaign's results, settlements and quarantine.
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
                quarantined: engine
                    .quarantine()
                    .iter()
                    .any(|quarantined| quarantined.id == engine_round),
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
                    uncovered(&tracker).len() as u64,
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
            index += 1;
        }

        let checkpoint = engine.checkpoint();
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
            post_mortems: engine.post_mortems().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FnBidSource, SyntheticBidSource};
    use mcs_core::types::Task;
    use mcs_platform::prelude::Bid;

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
    fn a_panicked_round_marks_only_itself_quarantined() {
        use mcs_platform::prelude::{PanicRounds, RoundId};
        // Every success is downgraded, so the campaign runs its whole
        // budget; round 1 panics in the shard.
        let mut config = config(19, 1.0);
        config.max_rounds = 4;
        config.calibration = CalibratorConfig::off();
        let panics = Arc::new(PanicRounds::new([RoundId(1)]));
        let runner = CampaignRunner::with_injector(config, panics);
        let report = runner.run(&mut SyntheticBidSource::new(19, 12));
        assert_eq!(report.rounds_run(), 4);
        let quarantined: Vec<u64> = report
            .rounds
            .iter()
            .filter(|round| round.quarantined)
            .map(|round| round.engine_round)
            .collect();
        assert_eq!(quarantined, [1]);
        // The quarantined round's post-mortem outlives the campaign's
        // engine and accounts for every bid the round admitted.
        let record = &report.rounds[1];
        assert_eq!(report.post_mortems.len(), 1);
        let post_mortem = &report.post_mortems[0];
        assert_eq!(post_mortem.round, record.engine_round);
        assert_eq!(post_mortem.bidders, record.bids_submitted as u64);
        assert_eq!(post_mortem.bids.len(), record.bids_submitted);
        assert!(post_mortem.complete, "{post_mortem:?}");
        assert!(report.rounds[2..].iter().all(|round| round.payout != 0.0));
        let paid: f64 = report
            .rounds
            .iter()
            .filter(|round| !round.quarantined)
            .map(|round| round.payout)
            .sum();
        assert!(
            (paid - report.total_paid).abs() < 1e-9,
            "{paid} vs {}",
            report.total_paid
        );
    }

    /// Logs the users admitted to each engine round.
    #[derive(Debug, Default)]
    struct AdmitLog(std::sync::Mutex<BTreeMap<u64, Vec<u32>>>);

    impl FaultInjector for AdmitLog {
        fn observe_admitted(&self, round: mcs_platform::prelude::RoundId, bid: &Bid) {
            let mut log = self.0.lock().unwrap();
            log.entry(round.0).or_default().push(bid.user);
        }
    }

    #[test]
    fn seeded_uniform_shedding_flips_one_coin_stream_over_the_campaign() {
        use mcs_platform::prelude::{AdmissionConfig, SeededUniform, ShedPolicy};
        let mut config = config(23, 1.0);
        config.max_rounds = 3;
        config.calibration = CalibratorConfig::off();
        config.engine.admission = AdmissionConfig {
            high_watermark: 4,
            low_watermark: 2,
            policy: ShedPolicy::SeededUniform(SeededUniform { seed: 5, rate: 0.5 }),
            clear_budget: 0,
        };
        // The same twelve bids every round.
        let bids: Vec<Bid> = (0..12)
            .map(|user| Bid {
                user,
                cost: 1.0 + f64::from(user) / 8.0,
                tasks: vec![(0, 0.7), (1, 0.6), (2, 0.65)],
            })
            .collect();
        let mut source = FnBidSource::new("fixed", |_, _: &[Task]| bids.clone());
        let log = Arc::new(AdmitLog::default());
        let report = CampaignRunner::with_injector(config, log.clone()).run(&mut source);
        assert_eq!(report.rounds_run(), 3);
        // Shedding engaged every round, and the coin went on from one
        // round's arrivals to the next instead of restarting.
        let admitted = log.0.lock().unwrap();
        assert_eq!(admitted.len(), 3);
        for users in admitted.values() {
            assert!(users.len() < bids.len(), "{users:?}");
        }
        let sets: Vec<&Vec<u32>> = admitted.values().collect();
        assert_ne!(sets[0], sets[1]);
        assert_ne!(sets[1], sets[2]);
        // Each round reports the bids its engine round admitted, not the
        // ones offered to admission control.
        for round in &report.rounds {
            assert_eq!(
                round.bids_submitted,
                admitted[&round.engine_round].len(),
                "round {}",
                round.index
            );
        }
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
