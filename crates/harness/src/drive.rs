//! The one mirrored drive: a real [`Engine`] plus the mirror that
//! oracle-checks it. The scenario driver ([`crate::scenario::driver`]),
//! chaos included, is a thin loop over its bid source on top of a
//! [`Drive`].
//!
//! ## The mirror
//!
//! The engine never exposes the declared profile of a round it cleared,
//! and batch faults (delayed ticks) can split a logical round across
//! engine rounds — so the drive runs a *mirror* [`Batcher`] with the
//! same policy, fed the exact same submissions, ticks and flushes, and a
//! mirror [`AdmissionController`] fed the same backlog. Because batching,
//! validation and shedding are deterministic, the mirror closes
//! bitwise-identical rounds with identical ids, giving the drive a
//! per-round [`TypeProfile`] to hand the oracle and a ground truth for
//! which bids must be rejected or shed. Any engine/mirror disagreement is
//! itself reported, as an [`OracleViolation::StreamDesync`] or an
//! [`OracleViolation::ShedUnaccounted`].
//!
//! ## The checks
//!
//! Every drive runs all of these, whatever feeds it:
//!
//! * After each drain, for every newly cleared round: [`check_round`]
//!   against the mirrored profile (for a round over the clearing budget,
//!   against its admitted prefix, and its deferred tail must be
//!   quarantined as `DeadlineExceeded`), and [`check_round_trace`] while
//!   the ring has not wrapped. Every newly quarantined round needs a
//!   complete post-mortem.
//! * At the end of each engine incarnation (a rebuild, or the finish):
//!   admission conservation (the engine's received/rejected/shed
//!   counters equal the drive's own tally, which partitions every
//!   submitted bid), the recorder-vs-log cross-check (the admitted bids
//!   the flight recorder reconstructs equal the ones the drive admitted,
//!   bit for bit), the kernel-counter laws of [`check_kernel`] (all
//!   counters zero with profiling off), and the memory bounds of
//!   [`check_bounds`]: the trace ring holds its configured capacity and
//!   never wrapped, and a tail-drop backlog never outgrew the high
//!   watermark.
//! * At the finish: engine and mirror agree on the next round id, every
//!   mirrored round was cleared or quarantined, and the ledger equals the
//!   summed settlements in total and per user, across every rebuild.
//!
//! Two checks stay with the scenario driver, which owns what they read:
//! the injector's quarantine observations, and the SP deviations.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcs_core::types::{Task, TypeProfile, UserId};
use mcs_obs::digest::Fnv1a;
use mcs_obs::replay::{admitted_bids, ReplayBid};
use mcs_obs::PostMortem;
use mcs_platform::admission::{Admission, AdmissionController};
use mcs_platform::batch::{Batcher, Round, RoundId};
use mcs_platform::config::{EngineConfig, TraceConfig};
use mcs_platform::degrade::{QuarantinedRound, RoundError};
use mcs_platform::engine::Engine;
use mcs_platform::fault::FaultInjector;
use mcs_platform::ingest::Bid;
use mcs_platform::metrics::{EconSnapshot, MetricsSnapshot};
use mcs_platform::settle::{fold_rounds, RoundSettlement};
use mcs_platform::shard::ClearedRound;

use crate::oracle::{check_bounds, check_kernel, check_round, check_round_trace, OracleViolation};

/// A logical-clock trace ring sized so the recorder never wraps
/// mid-run: the trace oracle needs every round's events to survive until
/// the final drain. Each round emits one event per admitted bid plus one
/// per declared task, a handful of rejections, and a fixed budget of
/// span/milestone events; doubled for headroom (delayed ticks split
/// rounds), and clamped to keep the upfront allocation bounded. Logical
/// timestamps are sequence numbers, so traces and post-mortems stay
/// bitwise identical for any worker count.
pub(crate) fn logical_trace(bids_per_round: usize, tasks: usize, rounds: u64) -> TraceConfig {
    let per_round = bids_per_round * (tasks + 2) + 32;
    TraceConfig {
        capacity: ((rounds as usize + 2) * per_round * 2).clamp(1024, 1 << 20),
        logical_clock: true,
    }
}

/// What the drive tracks per engine incarnation: a rebuilt engine starts
/// fresh metrics, a fresh ring and empty result logs, so all of this
/// restarts with it.
#[derive(Debug, Default)]
struct Incarnation {
    submitted: u64,
    rejected: u64,
    shed: u64,
    /// The deepest engine backlog observed after any submission.
    max_backlog: usize,
    /// Every admitted bid, in admission order.
    admitted: Vec<ReplayBid>,
    /// How much of the engine's quarantine and post-mortem logs the
    /// outcome already holds.
    absorbed_quarantine: usize,
    absorbed_post_mortems: usize,
}

/// Everything a finished drive produced, accumulated across mid-run
/// engine rebuilds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveOutcome {
    /// Every cleared round, keyed by engine round id.
    pub results: BTreeMap<RoundId, ClearedRound>,
    /// Every settlement, keyed by engine round id.
    pub settlements: BTreeMap<RoundId, RoundSettlement>,
    /// Every quarantined round, in settlement order.
    pub quarantine: Vec<QuarantinedRound>,
    /// One JSON-ready post-mortem per quarantined round, rebuilt from the
    /// flight recorder's trace (deliberately excluded from
    /// [`fingerprint`](DriveOutcome::fingerprint): the quarantine
    /// records above already pin the observable outcome).
    pub post_mortems: Vec<PostMortem>,
    /// Final per-user ledger balances (carried across rebuilds).
    pub balances: BTreeMap<UserId, f64>,
    /// Final ledger total.
    pub total_paid: f64,
    /// Every oracle violation, in detection order. Empty means the run
    /// upheld all of the paper's invariants.
    pub violations: Vec<OracleViolation>,
    /// Bids submitted (admitted + rejected + shed).
    pub submitted: u64,
    /// Bids admitted into a round.
    pub admitted: u64,
    /// Bids rejected at ingest (each verified to reject identically on
    /// the engine and the mirror).
    pub rejections: u64,
    /// Bids shed by admission control (each verified to shed identically
    /// on the engine and the mirror controller).
    pub sheds: u64,
    /// Rounds that cleared only their admitted prefix because they
    /// exceeded the clearing budget.
    pub partial_rounds: u64,
    /// Bidders deferred (quarantined) by those partial clears.
    pub deferred: u64,
    /// The deepest engine backlog observed after any submission — under
    /// tail-drop admission this never exceeds the high watermark
    /// ([`check_bounds`]).
    pub max_backlog: usize,
    /// Mid-run checkpoint/drop/rebuild cycles executed.
    pub rebuilds: u64,
    /// Engine rounds the mirror closed over the whole run.
    pub rounds_closed: u64,
    /// Shard/settle/batch faults a `[chaos]` run armed onto concrete
    /// engine rounds (zero for runs that arm none).
    pub faults_armed: u64,
    /// The final engine incarnation's economics.
    pub economics: Option<EconSnapshot>,
}

impl DriveOutcome {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// An FNV-1a digest over the run's observable outcomes: round ids,
    /// winners, quotes, reports, payouts, balances, quarantine records,
    /// and the rejection/shed/partial-clear/rebuild counters. Two runs
    /// with the same seed and plan must fingerprint identically for any
    /// worker or payment-thread count — with or without admission
    /// control engaged.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv1a::new();
        fold_rounds(&mut fnv, &self.results, &self.settlements, |fnv, id| {
            fnv.write_u64(id.0)
        });
        for record in &self.quarantine {
            fnv.write_u64(record.id.0);
            fnv.write_u64(record.bidders as u64);
            fnv.write_bytes(record.error.to_string().as_bytes());
        }
        for (user, balance) in &self.balances {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(balance.to_bits());
        }
        fnv.write_u64(self.total_paid.to_bits());
        fnv.write_u64(self.rejections);
        fnv.write_u64(self.sheds);
        fnv.write_u64(self.partial_rounds);
        fnv.write_u64(self.deferred);
        fnv.write_u64(self.max_backlog as u64);
        fnv.write_u64(self.rebuilds);
        fnv.write_u64(self.rounds_closed);
        fnv.finish()
    }
}

/// An engine under test, its mirror, and the running checks.
#[derive(Debug)]
pub struct Drive {
    engine: Engine,
    injector: Arc<dyn FaultInjector>,
    mirror: Batcher,
    admission: AdmissionController,
    /// Bids in rounds the mirror closed that the engine has not drained
    /// yet — the mirror-side equivalent of `Engine::backlog_bids`.
    mirror_pending: usize,
    profiles: BTreeMap<RoundId, TypeProfile>,
    incarnation: Incarnation,
    out: DriveOutcome,
}

impl Drive {
    /// A drive of a fresh engine with `injector` wired into its stages.
    pub fn new(config: EngineConfig, tasks: Vec<Task>, injector: Arc<dyn FaultInjector>) -> Drive {
        Drive {
            engine: Engine::with_injector(config, tasks.clone(), injector.clone()),
            mirror: Batcher::new(config.batch, tasks),
            admission: AdmissionController::new(config.admission),
            injector,
            mirror_pending: 0,
            profiles: BTreeMap::new(),
            incarnation: Incarnation::default(),
            out: DriveOutcome::default(),
        }
    }

    /// Submits `bid` to the engine and the mirror. Returns the id of the
    /// round the mirror closed on it, if it closed one.
    pub fn submit(&mut self, bid: &Bid) -> Option<RoundId> {
        self.incarnation.submitted += 1;
        let at = RoundId(self.mirror.next_round_id());
        // The mirror controller decides first, on the mirror-side
        // backlog; the engine must agree.
        let backlog = self.mirror.pending_bids() + self.mirror_pending;
        let (_, predicted) = self.admission.admit(backlog);
        let engine_side = self.engine.submit(bid);
        let backlog = self.engine.backlog_bids();
        self.incarnation.max_backlog = self.incarnation.max_backlog.max(backlog);
        self.out.max_backlog = self.out.max_backlog.max(backlog);
        if let Admission::Shed(reason) = predicted {
            // A shed bid never reaches the mirror batcher.
            match engine_side {
                Ok(Admission::Shed(_)) => self.incarnation.shed += 1,
                other => self.out.violations.push(OracleViolation::ShedUnaccounted {
                    detail: format!(
                        "{at} user u{}: mirror shed ({reason}) but engine returned {other:?}",
                        bid.user
                    ),
                }),
            }
            return None;
        }
        match (engine_side, self.mirror.submit(bid)) {
            (Ok(Admission::Admitted), Ok(closed)) => {
                self.incarnation.admitted.push(replay_bid(bid));
                return closed.map(|round| self.mirrored(round));
            }
            // Compare rejections by rendered message, not PartialEq: a
            // NaN-cost rejection carries the NaN in its payload, and
            // NaN != NaN.
            (Err(engine_error), Err(mirror_error))
                if engine_error.to_string() == mirror_error.to_string() =>
            {
                self.incarnation.rejected += 1;
            }
            (Ok(Admission::Shed(reason)), _) => {
                self.out.violations.push(OracleViolation::ShedUnaccounted {
                    detail: format!(
                        "{at} user u{}: engine shed ({reason}) a bid the mirror admitted",
                        bid.user
                    ),
                });
            }
            (engine_side, mirror_side) => {
                self.out.violations.push(OracleViolation::StreamDesync {
                    detail: format!(
                        "{at} user u{}: engine {engine_side:?} vs mirror {:?}",
                        bid.user,
                        mirror_side.map(|closed| closed.map(|round| round.id))
                    ),
                });
            }
        }
        None
    }

    /// Advances both batch clocks one tick. Returns the id of the round
    /// the mirror closed, if it closed one.
    pub fn tick(&mut self) -> Option<RoundId> {
        self.engine.tick();
        self.mirror.tick().map(|round| self.mirrored(round))
    }

    /// Force-closes the partially filled round on both sides. Returns
    /// the id of the round the mirror closed, if it held any bids.
    pub fn flush(&mut self) -> Option<RoundId> {
        self.engine.flush();
        self.mirror.flush().map(|round| self.mirrored(round))
    }

    /// Clears and settles every closed round, then absorbs and checks
    /// what the engine produced.
    pub fn drain(&mut self) {
        self.engine.drain();
        self.mirror_pending = 0;
        self.absorb();
    }

    /// Checkpoints the engine, drops it, and continues on an engine
    /// restored from the checkpoint. A checkpoint captures neither
    /// closed-but-undrained rounds nor the partially filled batch, so
    /// flush and drain first.
    pub fn rebuild(&mut self) {
        self.close_incarnation();
        let config = *self.engine.config();
        let checkpoint = self.engine.checkpoint();
        let tasks = self.mirror.tasks().to_vec();
        self.engine = Engine::restore(config, tasks, checkpoint, self.injector.clone());
        // A restored engine starts a fresh admission controller; the
        // mirror must do the same.
        self.admission = AdmissionController::new(config.admission);
        self.out.rebuilds += 1;
    }

    /// Runs the end-of-incarnation and whole-run checks and returns
    /// everything the drive produced. Flushes and drains nothing: a
    /// mirrored round the engine still holds undrained is reported as a
    /// silent drop.
    pub fn finish(mut self) -> DriveOutcome {
        let snapshot = self.close_incarnation();
        let mut out = self.out;
        // Stream synchronisation: after identical drive sequences the
        // engine and the mirror must agree on the next round id.
        let engine_next = self.engine.next_round_id().0;
        if engine_next != self.mirror.next_round_id() {
            out.violations.push(OracleViolation::StreamDesync {
                detail: format!(
                    "engine next round id {engine_next} != mirror {}",
                    self.mirror.next_round_id()
                ),
            });
        }
        // Zero silent drops: every round the mirror closed must have been
        // cleared or quarantined.
        for &id in self.profiles.keys() {
            if !out.results.contains_key(&id) && !out.quarantine.iter().any(|q| q.id == id) {
                out.violations
                    .push(OracleViolation::SilentDrop { round: id });
            }
        }

        // Ledger conservation: balances equal summed payouts, in total
        // and per user, across every rebuild.
        let ledger = self.engine.ledger();
        let mut expected: BTreeMap<UserId, f64> = BTreeMap::new();
        let mut expected_total = 0.0;
        for settlement in out.settlements.values() {
            for (&user, &payout) in &settlement.payouts {
                *expected.entry(user).or_insert(0.0) += payout;
            }
            expected_total += settlement.total;
        }
        if (ledger.total_paid() - expected_total).abs() > 1e-9 {
            out.violations.push(OracleViolation::LedgerDrift {
                detail: format!(
                    "ledger total {} != summed settlements {expected_total}",
                    ledger.total_paid()
                ),
            });
        }
        if ledger.balances().keys().ne(expected.keys()) {
            out.violations.push(OracleViolation::LedgerDrift {
                detail: "ledger and settlements pay different user sets".to_string(),
            });
        }
        for (&user, &sum) in &expected {
            if (ledger.balance(user) - sum).abs() > 1e-9 {
                out.violations.push(OracleViolation::LedgerDrift {
                    detail: format!(
                        "{user}: balance {} != summed payouts {sum}",
                        ledger.balance(user)
                    ),
                });
            }
        }
        out.balances = ledger.balances().clone();
        out.total_paid = ledger.total_paid();
        out.economics = Some(snapshot.economics);
        out
    }

    /// Records a round the mirror closed.
    fn mirrored(&mut self, round: Round) -> RoundId {
        self.mirror_pending += round.profile.user_count();
        self.out.rounds_closed += 1;
        self.profiles.insert(round.id, round.profile);
        round.id
    }

    /// The end-of-incarnation checks; returns the incarnation's metrics.
    fn close_incarnation(&mut self) -> MetricsSnapshot {
        let snapshot = self.engine.metrics().snapshot();
        let ended = std::mem::take(&mut self.incarnation);
        let violations = &mut self.out.violations;
        // Admission conservation, under any load: every bid this
        // incarnation received is exactly one of admitted/rejected/shed,
        // and the engine's own counters agree with the drive's tally.
        let counters = [
            ("bids_received", snapshot.bids_received, ended.submitted),
            ("bids_rejected", snapshot.bids_rejected, ended.rejected),
            ("bids_shed", snapshot.bids_shed, ended.shed),
            (
                "admitted + rejected + shed",
                ended.admitted.len() as u64 + ended.rejected + ended.shed,
                ended.submitted,
            ),
        ];
        for (what, observed, expected) in counters {
            if observed != expected {
                violations.push(OracleViolation::ShedUnaccounted {
                    detail: format!("{what}: observed {observed}, expected {expected}"),
                });
            }
        }
        // With profiling on, the drained kernel counters must satisfy
        // their conservation laws; with it off they must all be zero
        // (nothing may leak into metrics without the flag).
        if self.engine.config().profiling {
            violations.extend(check_kernel(&snapshot.kernel));
        } else if snapshot.kernel != Default::default() {
            violations.push(OracleViolation::KernelUnbalanced {
                detail: format!(
                    "profiling is off but kernel counters drained anyway: {:?}",
                    snapshot.kernel
                ),
            });
        }
        let recorder = self.engine.recorder();
        violations.extend(check_bounds(
            self.engine.config(),
            recorder,
            ended.max_backlog,
        ));
        // The recorder's story must match the drive's: every admitted bid
        // reconstructs from the trace, in order, bit for bit.
        if recorder.capacity() > 0 && !recorder.wrapped() {
            let traced = admitted_bids(&recorder.snapshot());
            if traced != ended.admitted {
                violations.push(OracleViolation::StreamDesync {
                    detail: format!(
                        "flight recorder reconstructs {} admitted bids, drive admitted {}",
                        traced.len(),
                        ended.admitted.len()
                    ),
                });
            }
        }
        self.out.submitted += ended.submitted;
        self.out.admitted += ended.admitted.len() as u64;
        self.out.rejections += ended.rejected;
        self.out.sheds += ended.shed;
        snapshot
    }

    /// Copies everything the engine produced since the last absorption
    /// into the outcome, checking each newly cleared round's results and
    /// trace and each newly quarantined round's post-mortem.
    fn absorb(&mut self) {
        let engine = &self.engine;
        let out = &mut self.out;
        let recorder = engine.recorder();
        // A lapped ring loses old events, so a wrap disables the trace
        // oracle; the wrap itself is reported once per incarnation, by
        // `check_bounds`.
        let trace_intact = recorder.capacity() > 0 && !recorder.wrapped();
        for (&id, round) in engine.results() {
            if out.results.contains_key(&id) {
                continue;
            }
            let settlement = &engine.settlements()[&id];
            match self.profiles.get(&id) {
                Some(profile) => {
                    // A round over the clearing budget cleared only its
                    // admitted prefix; the oracle must replay exactly
                    // that prefix. The trace still documents the whole
                    // round.
                    let budget = engine.config().admission.clear_budget;
                    let full_count = profile.user_count();
                    let prefix;
                    let checked = if budget > 0 && full_count > budget {
                        prefix = TypeProfile::new(
                            profile.users()[..budget].to_vec(),
                            profile.tasks().to_vec(),
                        )
                        .expect("a prefix of a valid profile is a valid profile");
                        let deferred = full_count - budget;
                        let accounted = engine.quarantine().iter().any(|q| {
                            q.id == id
                                && q.bidders == deferred
                                && matches!(q.error, RoundError::DeadlineExceeded {
                                    budget: b, cleared, deferred: d,
                                } if b == budget && cleared == budget && d == deferred)
                        });
                        if !accounted {
                            out.violations.push(OracleViolation::ShedUnaccounted {
                                detail: format!(
                                    "{id}: cleared {budget} of {full_count} bidders but the \
                                     {deferred} deferred are not quarantined as DeadlineExceeded"
                                ),
                            });
                        }
                        &prefix
                    } else {
                        profile
                    };
                    out.violations
                        .extend(check_round(checked, round, settlement, engine.config()));
                    if trace_intact {
                        out.violations.extend(check_round_trace(
                            id,
                            &recorder.round_trace(id.0),
                            full_count,
                            round.allocation.winner_count(),
                        ));
                    }
                }
                None => out.violations.push(OracleViolation::StreamDesync {
                    detail: format!("{id} cleared but was never mirrored"),
                }),
            }
            out.results.insert(id, round.clone());
            out.settlements.insert(id, settlement.clone());
        }
        let incarnation = &mut self.incarnation;
        for record in &engine.quarantine()[incarnation.absorbed_quarantine..] {
            if let RoundError::DeadlineExceeded { deferred, .. } = record.error {
                out.partial_rounds += 1;
                out.deferred += deferred as u64;
            }
            let post_mortem = engine
                .post_mortems()
                .iter()
                .find(|pm| pm.round == record.id.0);
            match post_mortem {
                Some(pm) if trace_intact && !pm.wrapped && !pm.complete => {
                    out.violations.push(OracleViolation::TraceIncomplete {
                        round: record.id,
                        detail: format!(
                            "post-mortem rebuilt {} of {} bids",
                            pm.bids.len(),
                            record.bidders
                        ),
                    });
                }
                Some(_) => {}
                None => out.violations.push(OracleViolation::TraceIncomplete {
                    round: record.id,
                    detail: "quarantined without a post-mortem".to_string(),
                }),
            }
            out.quarantine.push(record.clone());
        }
        incarnation.absorbed_quarantine = engine.quarantine().len();
        out.post_mortems
            .extend_from_slice(&engine.post_mortems()[incarnation.absorbed_post_mortems..]);
        incarnation.absorbed_post_mortems = engine.post_mortems().len();
    }
}

/// A bid in replay-log wire form: `f64`s as bit patterns.
pub(crate) fn replay_bid(bid: &Bid) -> ReplayBid {
    ReplayBid {
        user: bid.user,
        cost_bits: bid.cost.to_bits(),
        tasks: bid
            .tasks
            .iter()
            .map(|&(task, pos)| (task, pos.to_bits()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::types::TaskId;
    use mcs_platform::fault::NoFaults;

    fn drive(max_bids: usize) -> Drive {
        let mut config = EngineConfig::default().with_seed(5);
        config.batch.max_bids = max_bids;
        config.trace = logical_trace(max_bids, 1, 4);
        let tasks = vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()];
        Drive::new(config, tasks, Arc::new(NoFaults))
    }

    fn bid(user: u32) -> Bid {
        Bid {
            user,
            cost: 1.0 + user as f64,
            tasks: vec![(0, 0.6)],
        }
    }

    #[test]
    fn submit_and_flush_return_the_rounds_the_mirror_closes() {
        let mut drive = drive(3);
        assert_eq!(drive.submit(&bid(0)), None);
        assert_eq!(drive.submit(&bid(1)), None);
        assert_eq!(drive.submit(&bid(2)), Some(RoundId(0)));
        assert_eq!(drive.submit(&bid(0)), None);
        assert_eq!(drive.submit(&bid(1)), None);
        assert_eq!(drive.flush(), Some(RoundId(1)));
        assert_eq!(drive.flush(), None);
        drive.drain();
        let out = drive.finish();
        assert!(out.is_clean(), "{:?}", out.violations);
        assert_eq!((out.submitted, out.admitted, out.rounds_closed), (5, 5, 2));
        assert_eq!(out.results.len(), 2);
        assert!(out.economics.is_some());
    }

    #[test]
    fn finishing_with_an_undrained_round_reports_a_silent_drop() {
        let mut drive = drive(2);
        drive.submit(&bid(0));
        assert_eq!(drive.submit(&bid(1)), Some(RoundId(0)));
        let out = drive.finish();
        assert!(out
            .violations
            .contains(&OracleViolation::SilentDrop { round: RoundId(0) }));
    }

    #[test]
    fn a_lapped_trace_ring_is_reported_unbounded() {
        let mut config = EngineConfig::default().with_seed(5);
        config.batch.max_bids = 2;
        config.trace = TraceConfig {
            capacity: 8,
            logical_clock: true,
        };
        let tasks = vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()];
        let mut drive = Drive::new(config, tasks, Arc::new(NoFaults));
        for user in 0..4 {
            drive.submit(&bid(user));
        }
        drive.drain();
        let out = drive.finish();
        assert!(
            out.violations.iter().any(|v| matches!(v,
                OracleViolation::Unbounded { detail } if detail.contains("wrapped"))),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn a_rebuild_keeps_the_ledger_and_the_round_ids() {
        let mut drive = drive(2);
        drive.submit(&bid(0));
        drive.submit(&bid(1));
        drive.drain();
        drive.rebuild();
        drive.submit(&bid(2));
        assert_eq!(drive.submit(&bid(3)), Some(RoundId(1)));
        drive.drain();
        let out = drive.finish();
        assert!(out.is_clean(), "{:?}", out.violations);
        assert_eq!(out.rebuilds, 1);
        assert_eq!(out.results.len(), 2);
        let settled: f64 = out.settlements.values().map(|s| s.total).sum();
        assert!((out.total_paid - settled).abs() < 1e-9);
    }
}
