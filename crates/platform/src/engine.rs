//! The round-based serving engine: ingest → batch → shard → settle.
//!
//! [`Engine`] is single-writer on the control path (submit/tick) and
//! fans rounds out to the shard pool on [`Engine::drain`]. It never dies
//! on a bad round: failures are quarantined (see [`crate::degrade`]) and
//! serving continues.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mcs_core::types::{Task, TypeProfile};
use mcs_obs::{ClockMode, EventKind, FlightRecorder, PostMortem, RawEvent, TraceEvent};

use crate::admission::{Admission, AdmissionController};
use crate::batch::{Batcher, PublishError, Round, RoundId};
use crate::config::EngineConfig;
use crate::degrade::{QuarantinedRound, RoundError};
use crate::fault::{FaultInjector, NoFaults};
use crate::ingest::{Bid, IngestError};
use crate::metrics::{timed, Metrics, Stage};
use crate::settle::{Ledger, RoundSettlement};
use crate::shard::{ClearedRound, ShardPool};

/// The durable state needed to rebuild an engine mid-stream: the signed
/// ledger and the next round id. Everything else (results, settlements,
/// quarantine records, metrics) is derived history a supervisor keeps for
/// itself; a rebuilt engine starts those empty while round ids and
/// balances continue seamlessly.
///
/// Take a checkpoint *after* [`Engine::drain`]: closed-but-undrained
/// rounds and the partially filled batch are not captured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineCheckpoint {
    /// The per-user balance ledger at checkpoint time.
    pub ledger: Ledger,
    /// The id the next closed round will receive.
    pub next_round_id: u64,
}

/// The auction-serving runtime.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    batcher: Batcher,
    admission: AdmissionController,
    pool: ShardPool,
    pending: Vec<Round>,
    /// Bids inside `pending` rounds (closed but not yet drained); summed
    /// with the open round's queue depth this is the backlog admission
    /// control keys on.
    pending_backlog: usize,
    results: BTreeMap<RoundId, ClearedRound>,
    settlements: BTreeMap<RoundId, RoundSettlement>,
    quarantine: Vec<QuarantinedRound>,
    post_mortems: Vec<PostMortem>,
    ledger: Ledger,
    metrics: Arc<Metrics>,
    recorder: Arc<FlightRecorder>,
    injector: Arc<dyn FaultInjector>,
}

impl Engine {
    /// Creates an engine whose rounds publish `tasks`, with fault
    /// injection disabled ([`NoFaults`]).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn new(config: EngineConfig, tasks: Vec<Task>) -> Self {
        Engine::with_injector(config, tasks, Arc::new(NoFaults))
    }

    /// Creates an engine with a [`FaultInjector`] wired into every stage
    /// boundary. Production code wants [`Engine::new`]; this constructor
    /// exists for chaos harnesses and degrade-path tests.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn with_injector(
        config: EngineConfig,
        tasks: Vec<Task>,
        injector: Arc<dyn FaultInjector>,
    ) -> Self {
        let mode = if config.trace.logical_clock {
            ClockMode::Logical
        } else {
            ClockMode::Wall
        };
        let metrics = Arc::new(Metrics::new());
        let recorder = Arc::new(FlightRecorder::new(config.trace.capacity, mode));
        Engine {
            config,
            batcher: Batcher::new(config.batch, tasks),
            admission: AdmissionController::new(config.admission),
            pool: ShardPool::new(
                config,
                Arc::clone(&injector),
                Arc::clone(&metrics),
                Arc::clone(&recorder),
            ),
            pending: Vec::new(),
            pending_backlog: 0,
            results: BTreeMap::new(),
            settlements: BTreeMap::new(),
            quarantine: Vec::new(),
            post_mortems: Vec::new(),
            ledger: Ledger::new(),
            metrics,
            recorder,
            injector,
        }
    }

    /// Rebuilds an engine from a [`checkpoint`](Engine::checkpoint): the
    /// ledger and round-id sequence continue where the old engine
    /// stopped; results, settlements, quarantine records, and metrics
    /// start empty.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn restore(
        config: EngineConfig,
        tasks: Vec<Task>,
        checkpoint: EngineCheckpoint,
        injector: Arc<dyn FaultInjector>,
    ) -> Self {
        let mut engine = Engine::with_injector(config, tasks, injector);
        engine.batcher.resume_at(checkpoint.next_round_id);
        engine.ledger = checkpoint.ledger;
        engine
    }

    /// Captures the durable state a supervisor needs to rebuild this
    /// engine with [`Engine::restore`]. Intended to be taken right after
    /// [`Engine::drain`]: pending rounds and partially filled batches are
    /// not part of a checkpoint.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            ledger: self.ledger.clone(),
            next_round_id: self.batcher.next_round_id(),
        }
    }

    /// The id the next closed round will get. Multi-round supervisors
    /// (campaign runners) read this before submitting a round's bids so
    /// they can address the round in fault plans and trace queries
    /// without cloning a full checkpoint.
    pub fn next_round_id(&self) -> RoundId {
        RoundId(self.batcher.next_round_id())
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Replaces the task list of the open round and every later one
    /// (see [`Batcher::publish`]), so one engine serves a campaign's
    /// residual rounds. Closed-but-undrained rounds keep their profile,
    /// and the shard arenas follow the new list through
    /// `IndexedProfile::sync_with`, as between any two rounds.
    ///
    /// # Errors
    ///
    /// As [`Batcher::publish`]; the engine is unchanged on error.
    pub fn publish(&mut self, tasks: Vec<Task>) -> Result<(), PublishError> {
        self.batcher.publish(tasks)
    }

    /// The engine's metrics (shared with the shard workers).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The metrics snapshot rendered as pretty JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }

    /// A shared handle to the metrics, e.g. for an
    /// [`ExportServer`](mcs_obs::ExportServer).
    pub fn metrics_handle(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The engine's flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// A shared handle to the flight recorder, e.g. for an SLO watchdog
    /// that outlives a borrow of the engine.
    pub fn recorder_handle(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Every surviving trace event, in recording order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.recorder.snapshot()
    }

    /// JSON post-mortems of every quarantined round, in quarantine
    /// order (parallel to [`Engine::quarantine`]).
    pub fn post_mortems(&self) -> &[PostMortem] {
        &self.post_mortems
    }

    /// Bids currently held by the engine but not yet cleared: the open
    /// round's queue plus every closed-but-undrained round. This is the
    /// backlog admission control keys on, and — under
    /// [`ShedPolicy::TailDrop`](crate::config::ShedPolicy::TailDrop) —
    /// the quantity that can never exceed the high watermark.
    pub fn backlog_bids(&self) -> usize {
        self.batcher.pending_bids() + self.pending_backlog
    }

    /// Submits one bid to the round currently being filled.
    ///
    /// Admission control runs *before* validation and never reads the
    /// bid: when the backlog is over the watermark, the bid is shed and
    /// `Ok(Admission::Shed(..))` is returned — accounted for in metrics
    /// and the flight recorder but invisible to the auction.
    ///
    /// # Errors
    ///
    /// The typed [`IngestError`] the bid was rejected with; the engine
    /// keeps serving either way.
    pub fn submit(&mut self, bid: &Bid) -> Result<Admission, IngestError> {
        self.metrics.bid_received();
        let backlog = self.backlog_bids();
        // Only an enabled controller sheds, so only then is the clock read.
        let shed_start = self.config.admission.is_enabled().then(Instant::now);
        let (arrival, decision) = self.admission.admit(backlog);
        if let Admission::Shed(reason) = decision {
            self.metrics.bid_shed();
            let elapsed = shed_start.map(|start| start.elapsed()).unwrap_or_default();
            self.metrics.record(Stage::Shed, elapsed);
            self.recorder.record(RawEvent::new(
                EventKind::BidShed,
                self.batcher.next_round_id(),
                arrival,
                reason.code(),
                reason.backlog() as u64,
            ));
            return Ok(decision);
        }
        // The round currently being filled will close under this id, so
        // the bid's trace events carry it even though the round object
        // does not exist yet.
        let round_id = self.batcher.next_round_id();
        let start = Instant::now();
        let outcome = self.batcher.submit(bid);
        self.metrics.record(Stage::Ingest, start.elapsed());
        match outcome {
            Ok(closed) => {
                self.injector.observe_admitted(RoundId(round_id), bid);
                // One run: the bid's events stay contiguous and share
                // one ring claim and one clock reading.
                self.recorder.record_run(
                    RawEvent::new(
                        EventKind::BidAdmitted,
                        round_id,
                        bid.user as u64,
                        bid.cost.to_bits(),
                        bid.tasks.len() as u64,
                    ),
                    bid.tasks.iter().map(|&(task, pos)| {
                        RawEvent::new(
                            EventKind::BidTask,
                            round_id,
                            bid.user as u64,
                            task as u64,
                            pos.to_bits(),
                        )
                    }),
                );
                self.enqueue(closed);
                Ok(Admission::Admitted)
            }
            Err(error) => {
                self.metrics.bid_rejected();
                self.recorder.record(RawEvent::new(
                    EventKind::BidRejected,
                    round_id,
                    bid.user as u64,
                    bid.cost.to_bits(),
                    0,
                ));
                Err(error)
            }
        }
    }

    /// Advances the batch clock, closing a round whose tick budget
    /// elapsed.
    pub fn tick(&mut self) {
        let closed = self.timed_close(Batcher::tick);
        self.enqueue(closed);
    }

    /// Force-closes the partially filled round, if any.
    pub fn flush(&mut self) {
        let closed = self.timed_close(Batcher::flush);
        self.enqueue(closed);
    }

    /// Runs one batcher close call as [`Stage::Batch`]: a metrics sample
    /// per call, and a span keyed by the open round's id whenever that
    /// round holds bids (closing builds its type profile). An empty call
    /// records no span.
    fn timed_close(&mut self, close: fn(&mut Batcher) -> Option<Round>) -> Option<Round> {
        let id = RoundId(self.batcher.next_round_id());
        let trace = (self.batcher.pending_bids() > 0).then_some(&*self.recorder);
        timed(Stage::Batch, id, Some(&self.metrics), trace, || {
            close(&mut self.batcher)
        })
    }

    /// Rounds closed but not yet drained.
    pub fn pending_rounds(&self) -> usize {
        self.pending.len()
    }

    /// Clears every pending round across the worker pool and settles the
    /// results in round-id order. Returns how many rounds cleared
    /// successfully this drain.
    ///
    /// The calling thread is one of the pool's workers; the others are
    /// helper threads parked between drains (see [`crate::shard`]). A
    /// one-round drain, or an engine with one worker, starts no thread.
    ///
    /// When a round holds more bids than the configured clearing budget
    /// (`admission.clear_budget`, 0 = unlimited), it is *partially*
    /// cleared: the admitted prefix clears normally under the round's
    /// id and the remainder is quarantined with
    /// [`RoundError::DeadlineExceeded`] instead of blocking subsequent
    /// rounds. Such a round appears in both [`Engine::results`] and
    /// [`Engine::quarantine`].
    pub fn drain(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let mut rounds = std::mem::take(&mut self.pending);
        self.pending_backlog = 0;
        self.injector.reorder_pending(&mut rounds);
        for round in &mut rounds {
            self.enforce_clear_budget(round);
        }
        let outcomes = self.pool.clear_all(rounds.drain(..));
        // The emptied vector keeps its capacity for the next rounds.
        self.pending = rounds;
        let mut cleared = 0;
        // BTreeMap iteration settles in round-id order no matter which
        // worker finished first, keeping the ledger deterministic.
        for (id, (bidders, outcome)) in outcomes {
            match outcome {
                Ok(mut round) => {
                    self.metrics.round_cleared(round.allocation.winner_count());
                    self.metrics.record_economics(&round.economics);
                    self.recorder.record(RawEvent::new(
                        EventKind::RoundCleared,
                        id.0,
                        round.allocation.winner_count() as u64,
                        round.social_cost.to_bits(),
                        0,
                    ));
                    // Settle-stage hook: reports may be flipped, but the
                    // stored round and its settlement always agree.
                    for (&user, completed) in round.reports.iter_mut() {
                        *completed = self.injector.flip_report(id, user, *completed);
                    }
                    let trace = Some(&*self.recorder);
                    let settlement = timed(Stage::Settle, id, Some(&self.metrics), trace, || {
                        self.ledger.settle(&round)
                    });
                    self.recorder.record(RawEvent::new(
                        EventKind::RoundSettled,
                        id.0,
                        settlement.payouts.len() as u64,
                        settlement.total.to_bits(),
                        0,
                    ));
                    self.settlements.insert(id, settlement);
                    self.results.insert(id, round);
                    cleared += 1;
                }
                Err(error) => {
                    self.quarantine_round(QuarantinedRound { id, bidders, error }, bidders);
                }
            }
        }
        cleared
    }

    /// All cleared rounds, keyed by round id.
    pub fn results(&self) -> &BTreeMap<RoundId, ClearedRound> {
        &self.results
    }

    /// All settlements, keyed by round id.
    pub fn settlements(&self) -> &BTreeMap<RoundId, RoundSettlement> {
        &self.settlements
    }

    /// Rounds the degrade path set aside.
    pub fn quarantine(&self) -> &[QuarantinedRound] {
        &self.quarantine
    }

    /// The per-user balance ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Deadline-aware partial clearing: truncates `round` to the
    /// clearing budget, quarantining the deferred suffix with a typed
    /// reason. The suffix cut is positional (admission order), so —
    /// like shedding — it never reads declared types.
    fn enforce_clear_budget(&mut self, round: &mut Round) {
        let budget = self.config.admission.clear_budget;
        let total = round.profile.user_count();
        if budget == 0 || total <= budget {
            return;
        }
        let deferred = total - budget;
        let prefix = TypeProfile::new(
            round.profile.users()[..budget].to_vec(),
            round.profile.tasks().to_vec(),
        )
        .expect("a prefix of a valid profile is a valid profile");
        self.metrics.round_partial(deferred);
        self.recorder.record(RawEvent::new(
            EventKind::RoundPartialClear,
            round.id.0,
            budget as u64,
            deferred as u64,
            0,
        ));
        let record = QuarantinedRound {
            id: round.id,
            bidders: deferred,
            error: RoundError::DeadlineExceeded {
                budget,
                cleared: budget,
                deferred,
            },
        };
        // The post-mortem documents the *whole* round (every admitted
        // bid), not just the deferred suffix: an operator debugging a
        // partial clear needs the full instance.
        self.quarantine_round(record, total);
        round.profile = prefix;
    }

    /// Sets a round (or its deferred tail) aside: counts it degraded,
    /// traces the quarantine, dumps a post-mortem of the round's
    /// surviving trace as a round of `dumped` bidders, and tells the
    /// fault hooks.
    fn quarantine_round(&mut self, record: QuarantinedRound, dumped: usize) {
        let id = record.id.0;
        self.metrics.round_degraded();
        self.recorder.record(RawEvent::new(
            EventKind::RoundQuarantined,
            id,
            record.bidders as u64,
            0,
            0,
        ));
        // Dump-on-quarantine: package the round's surviving causal trace
        // before anything can overwrite it.
        self.post_mortems.push(PostMortem::from_trace(
            id,
            dumped as u64,
            record.error.to_string(),
            self.recorder.round_trace(id),
            self.recorder.wrapped(),
        ));
        self.injector.on_quarantine(&record);
        self.quarantine.push(record);
    }

    fn enqueue(&mut self, closed: Option<Round>) {
        if let Some(round) = closed {
            self.metrics.round_closed();
            self.recorder.record(RawEvent::new(
                EventKind::RoundClosed,
                round.id.0,
                round.profile.user_count() as u64,
                0,
                0,
            ));
            self.pending_backlog += round.profile.user_count();
            self.pending.push(round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::types::TaskId;

    fn engine(max_bids: usize) -> Engine {
        let mut config = EngineConfig::default().with_seed(3);
        config.batch.max_bids = max_bids;
        Engine::new(
            config,
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
        )
    }

    fn bid(user: u32, cost: f64, pos: f64) -> Bid {
        Bid {
            user,
            cost,
            tasks: vec![(0, pos)],
        }
    }

    #[test]
    fn submit_close_drain_settle_lifecycle() {
        let mut e = engine(4);
        for (i, &(c, p)) in [(2.0, 0.6), (2.5, 0.7), (3.0, 0.5), (1.5, 0.6)]
            .iter()
            .enumerate()
        {
            e.submit(&bid(i as u32, c, p)).unwrap();
        }
        assert_eq!(e.pending_rounds(), 1);
        assert_eq!(e.drain(), 1);
        assert_eq!(e.results().len(), 1);
        assert_eq!(e.settlements().len(), 1);
        assert!(e.quarantine().is_empty());
        let round = e.results().values().next().unwrap();
        let settlement = &e.settlements()[&round.id];
        assert!((settlement.total - e.ledger().total_paid()).abs() < 1e-12);
    }

    #[test]
    fn rejected_bids_do_not_stop_the_round() {
        let mut e = engine(2);
        assert!(e.submit(&bid(0, -1.0, 0.5)).is_err());
        e.submit(&bid(0, 2.0, 0.6)).unwrap();
        e.submit(&bid(1, 2.0, 0.7)).unwrap();
        assert_eq!(e.pending_rounds(), 1);
        let snap = e.metrics().snapshot();
        assert_eq!(snap.bids_received, 3);
        assert_eq!(snap.bids_rejected, 1);
    }

    #[test]
    fn empty_drain_is_a_noop() {
        let mut e = engine(4);
        assert_eq!(e.drain(), 0);
        e.tick();
        assert_eq!(e.pending_rounds(), 0);
    }

    fn submit_feasible_round(e: &mut Engine, offset: u32) {
        for (i, &(c, p)) in [(2.0, 0.6), (2.5, 0.7), (3.0, 0.5), (1.5, 0.6)]
            .iter()
            .enumerate()
        {
            e.submit(&bid(offset + i as u32, c, p)).unwrap();
        }
    }

    #[test]
    fn restored_engine_continues_round_ids_and_ledger() {
        let mut e = engine(4);
        submit_feasible_round(&mut e, 0);
        e.drain();
        let checkpoint = e.checkpoint();
        assert_eq!(checkpoint.next_round_id, 1);
        let total_before = checkpoint.ledger.total_paid();
        assert!(total_before != 0.0);

        let config = *e.config();
        drop(e);
        let mut rebuilt = Engine::restore(
            config,
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
            checkpoint,
            Arc::new(NoFaults),
        );
        assert!(rebuilt.results().is_empty());
        submit_feasible_round(&mut rebuilt, 0);
        rebuilt.drain();
        // The new round got the next id, not a recycled one.
        assert_eq!(
            rebuilt.results().keys().copied().collect::<Vec<_>>(),
            vec![RoundId(1)]
        );
        // Balances carried over and kept accumulating.
        assert_eq!(rebuilt.ledger().rounds_settled(), 2);
        let delta = rebuilt.ledger().total_paid() - total_before;
        assert!((delta - rebuilt.settlements()[&RoundId(1)].total).abs() < 1e-12);
    }

    #[test]
    fn skipped_rounds_keep_seeds_aligned() {
        // An engine that skips a quiet round derives the same per-round
        // seed for the next round as one that cleared it: outcomes of
        // round 2 are bitwise equal whether round 1 happened or not.
        let mut busy = engine(4);
        submit_feasible_round(&mut busy, 0);
        busy.drain(); // round 0
        submit_feasible_round(&mut busy, 0);
        busy.drain(); // round 1
        submit_feasible_round(&mut busy, 4);
        busy.drain(); // round 2

        let mut quiet = engine(4);
        submit_feasible_round(&mut quiet, 0);
        quiet.drain(); // round 0
        let mut checkpoint = quiet.checkpoint();
        checkpoint.next_round_id = 2; // round 1 never happened here
        let mut quiet = Engine::restore(
            *quiet.config(),
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
            checkpoint,
            Arc::new(NoFaults),
        );
        submit_feasible_round(&mut quiet, 4);
        quiet.drain(); // round 2

        let lhs = &busy.results()[&RoundId(2)];
        let rhs = &quiet.results()[&RoundId(2)];
        assert_eq!(lhs.allocation, rhs.allocation);
        assert_eq!(lhs.quotes, rhs.quotes);
        assert_eq!(lhs.reports, rhs.reports);
        assert_eq!(lhs.social_cost.to_bits(), rhs.social_cost.to_bits());
    }

    #[test]
    fn trace_spans_cover_the_round_lifecycle() {
        use crate::config::TraceConfig;
        use mcs_obs::EventKind;
        let mut config = EngineConfig::default()
            .with_seed(3)
            .with_trace(TraceConfig {
                capacity: 256,
                logical_clock: true,
            });
        config.batch.max_bids = 4;
        let mut e = Engine::new(
            config,
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
        );
        submit_feasible_round(&mut e, 0);
        e.drain();
        let trace = e.recorder().round_trace(0);
        let kinds: Vec<EventKind> = trace.iter().map(|event| event.kind).collect();
        // 4 bids, each one admission + one task declaration, then the
        // full lifecycle: close → shard[allocate, pay] → clear →
        // settle → settled.
        assert_eq!(
            kinds,
            vec![
                EventKind::BidAdmitted,
                EventKind::BidTask,
                EventKind::BidAdmitted,
                EventKind::BidTask,
                EventKind::BidAdmitted,
                EventKind::BidTask,
                EventKind::BidAdmitted,
                EventKind::BidTask,
                EventKind::RoundClosed,
                EventKind::StageEnter, // shard
                EventKind::StageEnter, // allocate
                EventKind::StageExit,
                EventKind::StageEnter, // pay
                EventKind::StageExit,
                EventKind::StageExit, // shard
                EventKind::RoundCleared,
                EventKind::StageEnter, // settle
                EventKind::StageExit,
                EventKind::RoundSettled,
            ]
        );
        // The cleared event carries the winner count and social cost.
        let cleared = trace
            .iter()
            .find(|event| event.kind == EventKind::RoundCleared)
            .unwrap();
        let round = &e.results()[&RoundId(0)];
        assert_eq!(cleared.a, round.allocation.winner_count() as u64);
        assert_eq!(f64::from_bits(cleared.b), round.social_cost);
    }

    #[test]
    fn quarantined_round_yields_a_complete_post_mortem() {
        use crate::config::TraceConfig;
        use crate::fault::PanicRounds;
        let mut config = EngineConfig::default()
            .with_seed(3)
            .with_trace(TraceConfig {
                capacity: 256,
                logical_clock: true,
            });
        config.batch.max_bids = 4;
        let tasks = vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()];
        let mut e = Engine::with_injector(config, tasks, Arc::new(PanicRounds::new([RoundId(0)])));
        let bids = [(2.0, 0.6), (2.5, 0.7), (3.0, 0.5), (1.5, 0.6)];
        for (i, &(c, p)) in bids.iter().enumerate() {
            e.submit(&bid(i as u32, c, p)).unwrap();
        }
        e.drain();
        assert_eq!(e.quarantine().len(), 1);
        assert_eq!(e.post_mortems().len(), 1);
        let pm = &e.post_mortems()[0];
        assert_eq!(pm.round, 0);
        assert_eq!(pm.bidders, 4);
        assert!(pm.complete, "{pm:?}");
        assert!(!pm.wrapped);
        // Every bid of the quarantined round is reconstructed exactly.
        assert_eq!(pm.bids.len(), 4);
        for (i, &(cost, pos)) in bids.iter().enumerate() {
            let record = &pm.bids[i];
            assert_eq!(record.user, i as u32);
            assert_eq!(record.cost, cost);
            assert_eq!(record.tasks.len(), 1);
            assert_eq!(record.tasks[0].task, 0);
            assert_eq!(record.tasks[0].pos, pos);
        }
        assert!(pm.error.contains("panicked"));
        // The artifact serializes for operators.
        assert!(pm.to_json().contains("\"complete\": true"));
    }

    #[test]
    fn disabled_tracing_still_clears_rounds() {
        use crate::config::TraceConfig;
        let mut config = EngineConfig::default()
            .with_seed(3)
            .with_trace(TraceConfig {
                capacity: 0,
                logical_clock: false,
            });
        config.batch.max_bids = 4;
        let mut e = Engine::new(
            config,
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
        );
        submit_feasible_round(&mut e, 0);
        assert_eq!(e.drain(), 1);
        assert!(e.trace_events().is_empty());
        assert_eq!(e.recorder().recorded(), 0);
    }

    #[test]
    fn tail_drop_sheds_above_the_watermark_and_bounds_the_backlog() {
        use crate::config::{AdmissionConfig, ShedPolicy, TraceConfig};
        let mut config = EngineConfig::default()
            .with_seed(3)
            .with_trace(TraceConfig {
                capacity: 256,
                logical_clock: true,
            });
        config.batch.max_bids = 4;
        config.admission = AdmissionConfig {
            high_watermark: 6,
            low_watermark: 2,
            policy: ShedPolicy::TailDrop,
            clear_budget: 0,
        };
        let mut e = Engine::new(
            config,
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
        );
        let mut shed = 0u64;
        let mut admitted = 0u64;
        for i in 0..32u32 {
            match e.submit(&bid(i, 2.0, 0.6)).unwrap() {
                crate::admission::Admission::Admitted => admitted += 1,
                crate::admission::Admission::Shed(reason) => {
                    shed += 1;
                    assert!(reason.backlog() >= config.admission.high_watermark);
                }
            }
            // The tail-drop memory bound: the backlog never exceeds the
            // high watermark.
            assert!(e.backlog_bids() <= config.admission.high_watermark);
        }
        assert!(shed > 0, "sustained submission must shed");
        // Conservation: every submitted bid is admitted, rejected, or
        // shed — exactly once.
        let snap = e.metrics().snapshot();
        assert_eq!(snap.bids_received, 32);
        assert_eq!(snap.bids_shed, shed);
        assert_eq!(snap.bids_received, admitted + snap.bids_rejected + shed);
        // Shed bids are visible in the trace but invisible to rounds.
        let sheds = e
            .trace_events()
            .iter()
            .filter(|event| event.kind == EventKind::BidShed)
            .count() as u64;
        assert_eq!(sheds, shed);
        e.flush();
        e.drain();
        // Every admitted bid reached a closed round; no shed bid did.
        let closed_bids: u64 = e
            .trace_events()
            .iter()
            .filter(|event| event.kind == EventKind::RoundClosed)
            .map(|event| event.a)
            .sum();
        assert_eq!(closed_bids, admitted);
    }

    #[test]
    fn over_budget_rounds_clear_partially_and_match_the_prefix() {
        use crate::config::AdmissionConfig;
        let bids = [
            (2.0, 0.6),
            (2.5, 0.7),
            (3.0, 0.5),
            (1.5, 0.6),
            (2.2, 0.6),
            (2.8, 0.55),
        ];

        // Engine A: all six bids, clearing budget of four.
        let mut config = EngineConfig::default().with_seed(3);
        config.batch.max_bids = 6;
        config.admission = AdmissionConfig {
            clear_budget: 4,
            ..AdmissionConfig::default()
        };
        let mut budgeted = Engine::new(
            config,
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
        );
        for (i, &(c, p)) in bids.iter().enumerate() {
            budgeted.submit(&bid(i as u32, c, p)).unwrap();
        }
        assert_eq!(budgeted.drain(), 1);

        // The deferred suffix is quarantined with the typed reason…
        assert_eq!(budgeted.quarantine().len(), 1);
        let quarantined = &budgeted.quarantine()[0];
        assert_eq!(quarantined.id, RoundId(0));
        assert_eq!(quarantined.bidders, 2);
        assert_eq!(
            quarantined.error,
            crate::degrade::RoundError::DeadlineExceeded {
                budget: 4,
                cleared: 4,
                deferred: 2,
            }
        );
        let snap = budgeted.metrics().snapshot();
        assert_eq!(snap.rounds_partial, 1);
        assert_eq!(snap.bids_deferred, 2);
        assert_eq!(snap.rounds_degraded, 1);
        assert_eq!(snap.rounds_cleared, 1);

        // …and the cleared part is bitwise the round the prefix alone
        // would have produced.
        let mut config = EngineConfig::default().with_seed(3);
        config.batch.max_bids = 4;
        let mut prefix = Engine::new(
            config,
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
        );
        for (i, &(c, p)) in bids.iter().take(4).enumerate() {
            prefix.submit(&bid(i as u32, c, p)).unwrap();
        }
        assert_eq!(prefix.drain(), 1);
        assert_eq!(
            budgeted.results()[&RoundId(0)],
            prefix.results()[&RoundId(0)]
        );
        assert_eq!(
            budgeted.settlements()[&RoundId(0)],
            prefix.settlements()[&RoundId(0)]
        );
    }

    #[test]
    fn dropping_an_engine_joins_its_shard_helpers() {
        let mut e = engine(4);
        submit_feasible_round(&mut e, 0);
        submit_feasible_round(&mut e, 4);
        assert_eq!(e.drain(), 2);
        // Each shard helper holds the engine's metrics; once the engine
        // is gone, nothing may.
        let metrics = Arc::downgrade(&e.metrics_handle());
        drop(e);
        assert!(
            metrics.upgrade().is_none(),
            "a shard helper outlived its engine"
        );
    }

    fn two_tasks() -> Vec<Task> {
        vec![
            Task::with_requirement(TaskId::new(0), 0.8).unwrap(),
            Task::with_requirement(TaskId::new(1), 0.6).unwrap(),
        ]
    }

    #[test]
    fn publish_is_refused_over_an_open_round_and_for_no_tasks() {
        let mut e = engine(8);
        e.submit(&bid(0, 2.0, 0.6)).unwrap();
        assert_eq!(
            e.publish(two_tasks()),
            Err(PublishError::OpenRoundHoldsBids(1))
        );
        // Refused means unchanged: the open round still takes task 0.
        e.submit(&bid(1, 2.5, 0.7)).unwrap();
        e.flush();
        // A closed-but-undrained round does not block a publish…
        assert_eq!(e.pending_rounds(), 1);
        assert_eq!(e.publish(Vec::new()), Err(PublishError::NoTasks));
        e.publish(two_tasks()).unwrap();
        // …and keeps the profile it closed with.
        assert_eq!(e.drain(), 1);
        assert_eq!(e.results()[&RoundId(0)].quotes.len(), 2);
    }

    #[test]
    fn published_tasks_gate_ingest() {
        let mut e = engine(8);
        let on_task_one = Bid {
            user: 0,
            cost: 2.0,
            tasks: vec![(1, 0.5)],
        };
        assert_eq!(
            e.submit(&on_task_one),
            Err(IngestError::UnknownTask { task: 1 })
        );
        e.publish(two_tasks()).unwrap();
        e.submit(&on_task_one).unwrap();
        e.flush();
        e.drain();
        e.publish(vec![Task::with_requirement(TaskId::new(1), 0.5).unwrap()])
            .unwrap();
        // Task 0 is no longer published.
        assert_eq!(
            e.submit(&bid(1, 2.0, 0.6)),
            Err(IngestError::UnknownTask { task: 0 })
        );
    }

    #[test]
    fn a_round_after_publish_clears_as_on_a_restored_engine() {
        let task = |id: u32, requirement: f64| {
            Task::with_requirement(TaskId::new(id), requirement).unwrap()
        };
        let first_tasks = vec![task(0, 0.8), task(1, 0.6), task(2, 0.7)];
        // Residual requirements, as a re-auction republishes them.
        let second_tasks = vec![task(0, 0.5), task(2, 0.4)];
        let specs: [(f64, [f64; 3]); 5] = [
            (2.0, [0.5, 0.3, 0.4]),
            (1.5, [0.4, 0.4, 0.3]),
            (3.0, [0.6, 0.2, 0.5]),
            (1.0, [0.3, 0.5, 0.2]),
            (2.5, [0.5, 0.5, 0.6]),
        ];
        let round = |tasks: &[u32]| -> Vec<Bid> {
            (0u32..)
                .zip(specs)
                .map(|(user, (cost, pos))| Bid {
                    user,
                    cost,
                    tasks: tasks.iter().map(|&t| (t, pos[t as usize])).collect(),
                })
                .collect()
        };
        let clear = |e: &mut Engine, bids: &[Bid]| {
            for bid in bids {
                e.submit(bid).unwrap();
            }
            e.flush();
            assert_eq!(e.drain(), 1);
        };
        let mut config = EngineConfig::default().with_seed(3);
        config.batch = crate::config::BatchPolicy::FLUSH_ONLY;

        // One engine: a three-task round warms its arena, then the
        // carried-over users bid again on the republished tasks.
        let mut published = Engine::new(config, first_tasks.clone());
        clear(&mut published, &round(&[0, 1, 2]));
        let checkpoint = published.checkpoint();
        published.publish(second_tasks.clone()).unwrap();
        clear(&mut published, &round(&[0, 2]));

        // The same first round, then a fresh engine restored on the
        // second round's tasks.
        let mut rebuilt = Engine::new(config, first_tasks);
        clear(&mut rebuilt, &round(&[0, 1, 2]));
        assert_eq!(rebuilt.checkpoint(), checkpoint);
        let mut restored = Engine::restore(config, second_tasks, checkpoint, Arc::new(NoFaults));
        clear(&mut restored, &round(&[0, 2]));

        let id = RoundId(1);
        assert_eq!(published.results()[&id], restored.results()[&id]);
        assert_eq!(published.settlements()[&id], restored.settlements()[&id]);
        assert_eq!(published.checkpoint(), restored.checkpoint());
        assert_eq!(
            published.ledger().total_paid().to_bits(),
            restored.ledger().total_paid().to_bits()
        );
    }

    #[test]
    fn each_flush_adds_one_batch_sample() {
        let mut e = engine(4);
        let batch = |e: &Engine| {
            let snap = e.metrics().snapshot();
            snap.stages
                .iter()
                .find(|s| s.stage == "batch")
                .unwrap()
                .count
        };
        assert_eq!(batch(&e), 0);
        e.submit(&bid(0, 2.0, 0.6)).unwrap();
        e.submit(&bid(1, 2.5, 0.7)).unwrap();
        e.flush();
        assert_eq!(e.pending_rounds(), 1);
        assert_eq!(batch(&e), 1);
        // A flush with nothing open closes nothing but is still timed.
        e.flush();
        assert_eq!(e.pending_rounds(), 1);
        assert_eq!(batch(&e), 2);
    }

    #[test]
    fn rounds_closed_by_flush_or_tick_get_a_batch_span() {
        use crate::config::TraceConfig;
        use mcs_obs::EventKind::{RoundClosed, StageEnter, StageExit};
        let mut config = EngineConfig::default()
            .with_seed(3)
            .with_trace(TraceConfig {
                capacity: 256,
                logical_clock: true,
            });
        config.batch.max_bids = 8;
        config.batch.max_ticks = 2;
        let mut e = Engine::new(
            config,
            vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
        );
        // Calls on an empty round are timed but record no span.
        e.tick();
        e.flush();
        assert!(e.trace_events().is_empty());

        // Round 0 closes by flush, round 1 by its second tick; each tick
        // of the non-empty round is one span.
        submit_feasible_round(&mut e, 0);
        e.flush();
        submit_feasible_round(&mut e, 10);
        e.tick();
        e.tick();
        e.tick();
        let tail = |round: u64, n: usize| -> Vec<_> {
            let trace = e.recorder().round_trace(round);
            let closed = trace.iter().position(|ev| ev.kind == RoundClosed).unwrap();
            trace[closed + 1 - n..=closed]
                .iter()
                .map(|ev| (ev.kind, ev.stage))
                .collect()
        };
        let span = [
            (StageEnter, Some(Stage::Batch)),
            (StageExit, Some(Stage::Batch)),
        ];
        assert_eq!(tail(0, 3), [&span[..], &[(RoundClosed, None)]].concat());
        assert_eq!(
            tail(1, 5),
            [&span[..], &span[..], &[(RoundClosed, None)]].concat()
        );
        // The trailing tick found round 2 empty: no span, no event.
        assert!(e.recorder().round_trace(2).is_empty());
        assert_eq!(e.pending_rounds(), 2);
    }

    /// An injector logging every admitted bid it observes, to prove the
    /// ingest observation hook fires only for admitted bids and carries
    /// the round id the bid will clear under.
    #[derive(Debug, Default)]
    struct AdmitLog(std::sync::Mutex<Vec<(u64, u32)>>);

    impl crate::fault::FaultInjector for AdmitLog {
        fn observe_admitted(&self, round: RoundId, bid: &Bid) {
            self.0.lock().unwrap().push((round.0, bid.user));
        }
    }

    #[test]
    fn observe_admitted_sees_exactly_the_admitted_bids() {
        let mut config = EngineConfig::default().with_seed(3);
        config.batch.max_bids = 2;
        let tasks = vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()];
        let log = Arc::new(AdmitLog::default());
        let mut e = Engine::with_injector(config, tasks, log.clone());
        // A rejected bid is never observed.
        assert!(e.submit(&bid(0, -1.0, 0.5)).is_err());
        e.submit(&bid(0, 2.0, 0.6)).unwrap();
        e.submit(&bid(1, 2.0, 0.7)).unwrap(); // closes round 0
        e.submit(&bid(2, 2.0, 0.6)).unwrap(); // opens round 1
        assert_eq!(*log.0.lock().unwrap(), vec![(0u64, 0u32), (0, 1), (1, 2)]);
    }

    /// An injector flipping every report, to prove results and
    /// settlements stay mutually consistent under settle-stage faults.
    #[derive(Debug)]
    struct FlipAll;

    impl crate::fault::FaultInjector for FlipAll {
        fn flip_report(
            &self,
            _round: RoundId,
            _user: mcs_core::types::UserId,
            completed: bool,
        ) -> bool {
            !completed
        }
    }

    #[test]
    fn flipped_reports_settle_consistently() {
        let mut config = EngineConfig::default().with_seed(3);
        config.batch.max_bids = 4;
        let tasks = vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()];
        let mut flipped = Engine::with_injector(config, tasks.clone(), Arc::new(FlipAll));
        let mut straight = Engine::new(config, tasks);
        submit_feasible_round(&mut flipped, 0);
        submit_feasible_round(&mut straight, 0);
        flipped.drain();
        straight.drain();
        let f = &flipped.results()[&RoundId(0)];
        let s = &straight.results()[&RoundId(0)];
        for (user, report) in &s.reports {
            // The stored report is the flipped one…
            assert_eq!(f.reports[user], !report);
            // …and the payout matches the stored report's quoted branch.
            let payout = flipped.settlements()[&RoundId(0)].payouts[user];
            assert_eq!(payout, f.quotes[user].payout(f.reports[user]));
        }
    }
}
