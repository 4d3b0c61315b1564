//! Economic-invariant oracles: the paper's guarantees, checked round by
//! round against what the platform actually produced.
//!
//! After every surviving round the drive calls [`check_round`] with the
//! round's declared profile (from its mirror batcher), the
//! engine's [`ClearedRound`], and its [`RoundSettlement`]. The oracle
//! re-derives what the mechanism *should* have done and reports every
//! discrepancy as a typed [`OracleViolation`]:
//!
//! * **Coverage feasibility** — winners jointly meet `Σ q_i^j ≥ Q_j` for
//!   every published task.
//! * **Allocation fidelity** — re-running winner determination on the
//!   declared profile reproduces the engine's allocation exactly.
//! * **Quote structure** — `success − failure = α` for every quote (both
//!   branches price the same critical bid).
//! * **Ex-post individual rationality** — each winner's expected utility
//!   from her quoted rewards is non-negative.
//! * **Critical-bid monotonicity** — padding a winner's declared PoS
//!   toward the critical value implied by her quote keeps her winning at
//!   an unchanged payment.
//! * **Settlement consistency** — each payout equals the quoted branch of
//!   the stored report, and the round total adds up.
//! * **Trace completeness** ([`check_round_trace`]) — the flight
//!   recorder's per-round trace holds every admitted bid, a balanced and
//!   correctly nested stage-span tree, and the clearing/settlement
//!   milestones with the right payloads.
//!
//! Run-level checks (admission and ledger conservation, zero silent
//! round drops, stream synchronisation) live in [`crate::drive`] and
//! reuse the same violation type; the drive also holds every engine
//! incarnation to the memory bounds of [`check_bounds`].

use std::fmt;

use mcs_obs::{EventKind, FlightRecorder, Stage, TraceEvent};

use mcs_core::analysis::{
    check_critical_bid_padding, expected_utility_from_quotes, implied_critical_pos,
    meets_all_requirements, social_cost, CriticalPadViolation,
};
use mcs_core::multi_task::MultiTaskMechanism;
use mcs_core::single_task::SingleTaskMechanism;
use mcs_core::types::{TypeProfile, UserId};
use mcs_core::McsError;
use mcs_platform::batch::RoundId;
use mcs_platform::config::{EngineConfig, ShedPolicy};
use mcs_platform::settle::RoundSettlement;
use mcs_platform::shard::ClearedRound;

/// Absolute tolerance for payment and utility comparisons.
pub const TOLERANCE: f64 = 1e-6;

/// Pad fractions for the critical-bid monotonicity check: each moves the
/// winner's declaration this fraction of the way toward her critical
/// value.
pub const PADS: [f64; 2] = [0.5, 0.9];

/// How many winners per round get the (mechanism-re-running) critical-bid
/// check; the cheap checks always cover all of them.
pub const MAX_PADDED_WINNERS: usize = 2;

/// One violated invariant, attributed to a round (and user, where it
/// applies).
#[derive(Debug, Clone, PartialEq)]
pub enum OracleViolation {
    /// The winner set does not cover some task's PoS requirement.
    CoverageShortfall {
        /// The offending round.
        round: RoundId,
    },
    /// Re-running winner determination disagrees with the engine's
    /// allocation.
    AllocationMismatch {
        /// The offending round.
        round: RoundId,
        /// Winners the engine recorded.
        engine: Vec<UserId>,
        /// Winners the oracle recomputed.
        oracle: Vec<UserId>,
    },
    /// The recorded social cost drifted from `Σ c_i` over the winners.
    SocialCostDrift {
        /// The offending round.
        round: RoundId,
        /// The engine's recorded social cost.
        recorded: f64,
        /// The oracle's recomputed social cost.
        recomputed: f64,
    },
    /// A quote's branches are not exactly `α` apart.
    QuoteSpread {
        /// The offending round.
        round: RoundId,
        /// The quoted winner.
        user: UserId,
        /// The observed `success − failure` spread.
        spread: f64,
    },
    /// A winner's expected utility from her quotes is negative.
    IrViolation {
        /// The offending round.
        round: RoundId,
        /// The losing winner.
        user: UserId,
        /// Her expected utility.
        utility: f64,
    },
    /// Padding a winner toward her critical value demoted her.
    Demoted {
        /// The offending round.
        round: RoundId,
        /// The demoted winner.
        user: UserId,
        /// The pad fraction that demoted her.
        pad: f64,
    },
    /// Padding a winner toward her critical value moved her payment.
    PaymentChanged {
        /// The offending round.
        round: RoundId,
        /// The affected winner.
        user: UserId,
        /// The pad fraction at which the payment moved.
        pad: f64,
        /// The truthful success reward.
        reference: f64,
        /// The padded success reward.
        padded: f64,
    },
    /// A payout disagrees with the quoted branch of the stored report.
    ReportPayoutMismatch {
        /// The offending round.
        round: RoundId,
        /// The mis-paid winner.
        user: UserId,
    },
    /// Money created or destroyed between settlements and the ledger.
    LedgerDrift {
        /// What drifted and by how much.
        detail: String,
    },
    /// A closed round vanished: neither cleared nor quarantined.
    SilentDrop {
        /// The dropped round.
        round: RoundId,
    },
    /// The drive's mirror batcher and the engine disagreed — an
    /// accepted/rejected bid mismatch or a round-id drift.
    StreamDesync {
        /// What went out of sync.
        detail: String,
    },
    /// Bid conservation broke under load shedding: the engine's
    /// admitted/rejected/shed counters do not partition the submitted
    /// bids, or a shed decision diverged from the mirror's.
    ShedUnaccounted {
        /// Which counter (or decision) broke and by how much.
        detail: String,
    },
    /// The round's flight-recorder trace is missing events or its span
    /// tree is malformed.
    TraceIncomplete {
        /// The offending round.
        round: RoundId,
        /// What the trace is missing or got wrong.
        detail: String,
    },
    /// The clearing-kernel profiling counters do not satisfy their
    /// conservation laws (see [`check_kernel`]) — the profiler is
    /// miscounting, or a drain lost part of a round's counts.
    KernelUnbalanced {
        /// Which conservation law broke and the numbers involved.
        detail: String,
    },
    /// A memory bound broke: the flight recorder lapped its ring or does
    /// not hold its configured capacity, or the backlog outgrew the
    /// tail-drop high watermark (see [`check_bounds`]).
    Unbounded {
        /// Which bound broke and the numbers involved.
        detail: String,
    },
    /// The oracle itself failed to evaluate an invariant.
    OracleError {
        /// The offending round.
        round: RoundId,
        /// The rendered error.
        detail: String,
    },
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::CoverageShortfall { round } => {
                write!(f, "{round}: winners do not cover every task requirement")
            }
            OracleViolation::AllocationMismatch {
                round,
                engine,
                oracle,
            } => write!(
                f,
                "{round}: engine allocation {engine:?} != recomputed {oracle:?}"
            ),
            OracleViolation::SocialCostDrift {
                round,
                recorded,
                recomputed,
            } => write!(
                f,
                "{round}: social cost {recorded} != recomputed {recomputed}"
            ),
            OracleViolation::QuoteSpread {
                round,
                user,
                spread,
            } => write!(
                f,
                "{round}: {user} quote spread {spread} is not the reward scale α"
            ),
            OracleViolation::IrViolation {
                round,
                user,
                utility,
            } => write!(f, "{round}: {user} has negative expected utility {utility}"),
            OracleViolation::Demoted { round, user, pad } => write!(
                f,
                "{round}: {user} padded {pad} of the way to critical stopped winning"
            ),
            OracleViolation::PaymentChanged {
                round,
                user,
                pad,
                reference,
                padded,
            } => write!(
                f,
                "{round}: {user} payment moved {reference} -> {padded} at pad {pad}"
            ),
            OracleViolation::ReportPayoutMismatch { round, user } => {
                write!(f, "{round}: {user} payout disagrees with quoted branch")
            }
            OracleViolation::LedgerDrift { detail } => write!(f, "ledger drift: {detail}"),
            OracleViolation::SilentDrop { round } => {
                write!(f, "{round}: closed but neither cleared nor quarantined")
            }
            OracleViolation::StreamDesync { detail } => write!(f, "stream desync: {detail}"),
            OracleViolation::ShedUnaccounted { detail } => {
                write!(f, "shed unaccounted: {detail}")
            }
            OracleViolation::TraceIncomplete { round, detail } => {
                write!(f, "{round}: trace incomplete: {detail}")
            }
            OracleViolation::KernelUnbalanced { detail } => {
                write!(f, "kernel counters unbalanced: {detail}")
            }
            OracleViolation::Unbounded { detail } => write!(f, "unbounded: {detail}"),
            OracleViolation::OracleError { round, detail } => {
                write!(f, "{round}: oracle error: {detail}")
            }
        }
    }
}

/// Checks the clearing-kernel profiling counters' conservation laws
/// over a drained [`KernelSnapshot`](mcs_platform::metrics::KernelSnapshot):
///
/// * every bisection probe is accounted for exactly once —
///   `probes_saved_warm_start + probes_saved_loss_scan + probes_run ==
///   probes_requested`, where `probes_saved_loss_scan` counts the probes
///   decided from the base run: certain losses and certified wins;
/// * every prepare resolved to exactly one sync mode —
///   `reuse_hits + sync_patched + sync_reflattened == prepares`
///   (which also gives `reuse_hits ≤ prepares`, the checkout bound);
/// * a stale-bound re-evaluation implies a pop —
///   `stale_reevals ≤ heap_pops`.
///
/// The counters are pure telemetry, so a broken law never means wrong
/// payments — it means the profiler itself is lying, which would poison
/// every perf conclusion drawn from it.
pub fn check_kernel(kernel: &mcs_platform::metrics::KernelSnapshot) -> Vec<OracleViolation> {
    let mut violations = Vec::new();
    let probes_accounted =
        kernel.probes_saved_warm_start + kernel.probes_saved_loss_scan + kernel.probes_run;
    if probes_accounted != kernel.probes_requested {
        violations.push(OracleViolation::KernelUnbalanced {
            detail: format!(
                "probes: saved_warm_start {} + saved_loss_scan {} + run {} = {probes_accounted} \
                 != requested {}",
                kernel.probes_saved_warm_start,
                kernel.probes_saved_loss_scan,
                kernel.probes_run,
                kernel.probes_requested
            ),
        });
    }
    let prepares_accounted = kernel.reuse_hits + kernel.sync_patched + kernel.sync_reflattened;
    if prepares_accounted != kernel.prepares {
        violations.push(OracleViolation::KernelUnbalanced {
            detail: format!(
                "prepares: reuse_hits {} + sync_patched {} + sync_reflattened {} = \
                 {prepares_accounted} != prepares {}",
                kernel.reuse_hits, kernel.sync_patched, kernel.sync_reflattened, kernel.prepares
            ),
        });
    }
    if kernel.stale_reevals > kernel.heap_pops {
        violations.push(OracleViolation::KernelUnbalanced {
            detail: format!(
                "stale_reevals {} exceeds heap_pops {}",
                kernel.stale_reevals, kernel.heap_pops
            ),
        });
    }
    violations
}

/// Checks the memory bounds of one engine incarnation run under
/// `config`:
///
/// * its flight `recorder` holds exactly the configured ring capacity —
///   tracing never allocates past it, however long the run;
/// * the ring never lapped, so no round's evidence was overwritten (runs
///   size their rings never to wrap);
/// * under tail-drop admission, the deepest backlog observed after any
///   submission (`max_backlog`) stayed at or below the high watermark.
pub fn check_bounds(
    config: &EngineConfig,
    recorder: &FlightRecorder,
    max_backlog: usize,
) -> Vec<OracleViolation> {
    let mut violations = Vec::new();
    if recorder.capacity() != config.trace.capacity {
        violations.push(OracleViolation::Unbounded {
            detail: format!(
                "trace ring holds {} slots, configured {}",
                recorder.capacity(),
                config.trace.capacity
            ),
        });
    }
    if recorder.wrapped() {
        violations.push(OracleViolation::Unbounded {
            detail: format!(
                "trace ring wrapped: {} events into {} slots",
                recorder.recorded(),
                recorder.capacity()
            ),
        });
    }
    let admission = config.admission;
    if admission.is_enabled()
        && admission.policy == ShedPolicy::TailDrop
        && max_backlog > admission.high_watermark
    {
        violations.push(OracleViolation::Unbounded {
            detail: format!(
                "backlog reached {max_backlog}; tail-drop bounds it at {}",
                admission.high_watermark
            ),
        });
    }
    violations
}

/// Checks every per-round invariant; see the module docs for the list.
/// Returns all violations found (empty = the round is clean).
pub fn check_round(
    profile: &TypeProfile,
    cleared: &ClearedRound,
    settlement: &RoundSettlement,
    engine: &EngineConfig,
) -> Vec<OracleViolation> {
    let round = cleared.id;
    let oracle_error = |error: McsError| OracleViolation::OracleError {
        round,
        detail: error.to_string(),
    };
    let mut violations = Vec::new();

    if !meets_all_requirements(profile, &cleared.allocation) {
        violations.push(OracleViolation::CoverageShortfall { round });
    }

    match social_cost(profile, &cleared.allocation) {
        Ok(recomputed) if (recomputed - cleared.social_cost).abs() > 1e-9 => {
            violations.push(OracleViolation::SocialCostDrift {
                round,
                recorded: cleared.social_cost,
                recomputed,
            });
        }
        Ok(_) => {}
        Err(error) => violations.push(oracle_error(error)),
    }

    // The engine picks the mechanism by the round's task count; rebuild
    // the same one to replay its decisions.
    let mechanism: mcs_core::Result<Box<dyn ReplayMechanism>> = if profile.is_single_task() {
        SingleTaskMechanism::new(engine.epsilon, engine.alpha).map(|m| Box::new(m) as _)
    } else {
        MultiTaskMechanism::new(engine.alpha).map(|m| Box::new(m) as _)
    };
    let mechanism = match mechanism {
        Ok(mechanism) => mechanism,
        Err(error) => {
            violations.push(oracle_error(error));
            return violations;
        }
    };

    match mechanism.winners(profile) {
        Ok(oracle_winners) => {
            let engine_winners: Vec<UserId> = cleared.allocation.winners().collect();
            if engine_winners != oracle_winners {
                violations.push(OracleViolation::AllocationMismatch {
                    round,
                    engine: engine_winners,
                    oracle: oracle_winners,
                });
            }
        }
        Err(error) => violations.push(oracle_error(error)),
    }

    for (padded_so_far, (&user, quote)) in cleared.quotes.iter().enumerate() {
        let spread = quote.success - quote.failure;
        if (spread - engine.alpha).abs() > TOLERANCE {
            violations.push(OracleViolation::QuoteSpread {
                round,
                user,
                spread,
            });
        }

        let user_type = match profile.user(user) {
            Ok(t) => t,
            Err(error) => {
                violations.push(oracle_error(error));
                continue;
            }
        };
        let cost = user_type.cost().value();
        let utility = expected_utility_from_quotes(
            user_type.any_task_pos().value(),
            quote.success,
            quote.failure,
            cost,
        );
        if utility < -TOLERANCE {
            violations.push(OracleViolation::IrViolation {
                round,
                user,
                utility,
            });
        }

        if let Some(&completed) = cleared.reports.get(&user) {
            let paid = settlement.payouts.get(&user).copied();
            if paid != Some(quote.payout(completed)) {
                violations.push(OracleViolation::ReportPayoutMismatch { round, user });
            }
        } else {
            violations.push(OracleViolation::ReportPayoutMismatch { round, user });
        }

        if padded_so_far < MAX_PADDED_WINNERS {
            let padded =
                implied_critical_pos(engine.alpha, quote.success, cost).and_then(|critical| {
                    mechanism.padding(profile, user, critical, quote.success, &PADS, TOLERANCE)
                });
            match padded {
                Ok(pad_violations) => {
                    violations.extend(pad_violations.into_iter().map(|violation| match violation {
                        CriticalPadViolation::Demoted { user, pad } => {
                            OracleViolation::Demoted { round, user, pad }
                        }
                        CriticalPadViolation::PaymentChanged {
                            user,
                            pad,
                            reference,
                            padded,
                        } => OracleViolation::PaymentChanged {
                            round,
                            user,
                            pad,
                            reference,
                            padded,
                        },
                    }))
                }
                Err(error) => violations.push(oracle_error(error)),
            }
        }
    }

    let paid_total: f64 = settlement.payouts.values().sum();
    if (paid_total - settlement.total).abs() > 1e-9 {
        violations.push(OracleViolation::LedgerDrift {
            detail: format!(
                "{round}: settlement total {} != summed payouts {paid_total}",
                settlement.total
            ),
        });
    }

    violations
}

/// Validates a cleared round's flight-recorder trace: every admitted bid
/// was recorded, the stage span tree is balanced and correctly nested
/// (`Allocate` and `Pay` inside the `Shard` span, `Settle` strictly after
/// it), and the clearing/settlement milestones carry the right payloads.
///
/// Callers must pass a per-round trace (e.g. `FlightRecorder::round_trace`)
/// from a recorder that has **not** wrapped — a lapped ring legitimately
/// loses old events and would produce false positives here.
pub fn check_round_trace(
    round: RoundId,
    events: &[TraceEvent],
    bidders: usize,
    winners: usize,
) -> Vec<OracleViolation> {
    let mut defects: Vec<String> = Vec::new();
    let mut admitted = 0usize;
    let mut closed: Option<u64> = None;
    let mut cleared: Option<u64> = None;
    let mut settled = false;
    let mut enters = [0usize; Stage::ALL.len()];
    let mut exits = [0usize; Stage::ALL.len()];
    let mut shard_open = false;
    let mut shard_done = false;

    for event in events {
        if event.round != round.0 {
            defects.push(format!(
                "event for round {} leaked into this round's trace",
                event.round
            ));
            continue;
        }
        match event.kind {
            EventKind::BidAdmitted => admitted += 1,
            EventKind::RoundClosed => closed = Some(event.a),
            EventKind::RoundCleared => cleared = Some(event.a),
            EventKind::RoundSettled => settled = true,
            EventKind::StageEnter | EventKind::StageExit => {
                let Some(stage) = event.stage else {
                    defects.push("span event without a stage".to_string());
                    continue;
                };
                let index = stage.index();
                if event.kind == EventKind::StageEnter {
                    enters[index] += 1;
                    match stage {
                        Stage::Shard => shard_open = true,
                        Stage::Allocate | Stage::Pay if !shard_open => defects.push(format!(
                            "{} span opened outside the shard span",
                            stage.name()
                        )),
                        Stage::Settle if !shard_done => defects
                            .push("settle span opened before the shard span closed".to_string()),
                        _ => {}
                    }
                } else {
                    exits[index] += 1;
                    if exits[index] > enters[index] {
                        defects.push(format!("{} span exited before entering", stage.name()));
                    }
                    if stage == Stage::Shard {
                        shard_open = false;
                        shard_done = true;
                    }
                }
            }
            _ => {}
        }
    }

    if admitted != bidders {
        defects.push(format!(
            "recorded {admitted} admitted bids, round held {bidders}"
        ));
    }
    match closed {
        None => defects.push("no RoundClosed event".to_string()),
        Some(count) if count != bidders as u64 => {
            defects.push(format!(
                "RoundClosed counted {count} bidders, round held {bidders}"
            ));
        }
        Some(_) => {}
    }
    for stage in [Stage::Shard, Stage::Allocate, Stage::Pay, Stage::Settle] {
        let index = stage.index();
        if enters[index] != 1 || exits[index] != 1 {
            defects.push(format!(
                "{} span unbalanced: {} enter(s), {} exit(s)",
                stage.name(),
                enters[index],
                exits[index]
            ));
        }
    }
    match cleared {
        None => defects.push("no RoundCleared event".to_string()),
        Some(count) if count != winners as u64 => {
            defects.push(format!(
                "RoundCleared counted {count} winners, round had {winners}"
            ));
        }
        Some(_) => {}
    }
    if !settled {
        defects.push("no RoundSettled event".to_string());
    }

    defects
        .into_iter()
        .map(|detail| OracleViolation::TraceIncomplete { round, detail })
        .collect()
}

/// Object-safe facade over the two concrete mechanisms, so [`check_round`]
/// can hold either behind one reference.
trait ReplayMechanism {
    fn winners(&self, profile: &TypeProfile) -> mcs_core::Result<Vec<UserId>>;

    #[allow(clippy::too_many_arguments)]
    fn padding(
        &self,
        profile: &TypeProfile,
        user: UserId,
        critical: mcs_core::types::Pos,
        reference_success: f64,
        pads: &[f64],
        tolerance: f64,
    ) -> mcs_core::Result<Vec<CriticalPadViolation>>;
}

impl<M: mcs_core::mechanism::Mechanism> ReplayMechanism for M {
    fn winners(&self, profile: &TypeProfile) -> mcs_core::Result<Vec<UserId>> {
        Ok(self.select_winners(profile)?.winners().collect())
    }

    fn padding(
        &self,
        profile: &TypeProfile,
        user: UserId,
        critical: mcs_core::types::Pos,
        reference_success: f64,
        pads: &[f64],
        tolerance: f64,
    ) -> mcs_core::Result<Vec<CriticalPadViolation>> {
        check_critical_bid_padding(
            self,
            profile,
            user,
            critical,
            reference_success,
            pads,
            tolerance,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::types::{Task, TaskId};
    use mcs_platform::engine::Engine;
    use mcs_platform::ingest::Bid;

    /// Runs one real engine round and returns everything the oracle needs.
    fn cleared_round() -> (TypeProfile, ClearedRound, RoundSettlement, EngineConfig) {
        let mut config = EngineConfig::default().with_seed(5);
        config.batch.max_bids = 4;
        let tasks = vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()];
        let mut engine = Engine::new(config, tasks.clone());
        let bids = [
            (0u32, 2.0, 0.6),
            (1, 2.5, 0.7),
            (2, 3.0, 0.5),
            (3, 1.5, 0.6),
        ];
        let mut queue = mcs_platform::ingest::IngestQueue::new(tasks.iter().map(|t| t.id()));
        for &(user, cost, pos) in &bids {
            let bid = Bid {
                user,
                cost,
                tasks: vec![(0, pos)],
            };
            engine.submit(&bid).unwrap();
            queue.push(&bid).unwrap();
        }
        engine.drain();
        let profile = TypeProfile::new(queue.drain(), tasks).unwrap();
        let cleared = engine.results().values().next().unwrap().clone();
        let settlement = engine.settlements().values().next().unwrap().clone();
        (profile, cleared, settlement, config)
    }

    #[test]
    fn a_real_round_passes_every_check() {
        let (profile, cleared, settlement, config) = cleared_round();
        let violations = check_round(&profile, &cleared, &settlement, &config);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn doctored_quotes_are_caught() {
        let (profile, mut cleared, settlement, config) = cleared_round();
        let user = *cleared.quotes.keys().next().unwrap();
        cleared.quotes.get_mut(&user).unwrap().success += 3.0;
        let violations = check_round(&profile, &cleared, &settlement, &config);
        assert!(violations
            .iter()
            .any(|v| matches!(v, OracleViolation::QuoteSpread { .. })));
        // The inflated success branch also breaks report/payout agreement
        // when the user succeeded, or survives when she failed — either
        // way the spread check alone must have fired.
        assert!(!violations.is_empty());
    }

    #[test]
    fn doctored_allocation_is_caught() {
        let (profile, mut cleared, settlement, config) = cleared_round();
        // Claim an empty allocation while keeping the quotes.
        cleared.allocation = mcs_core::mechanism::Allocation::from_winners(Vec::<UserId>::new());
        cleared.social_cost = 0.0;
        let violations = check_round(&profile, &cleared, &settlement, &config);
        assert!(violations
            .iter()
            .any(|v| matches!(v, OracleViolation::CoverageShortfall { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, OracleViolation::AllocationMismatch { .. })));
    }

    #[test]
    fn violations_render_for_humans() {
        let text = OracleViolation::SilentDrop { round: RoundId(9) }.to_string();
        assert!(text.contains("r9"));
        let text = OracleViolation::TraceIncomplete {
            round: RoundId(3),
            detail: "no RoundSettled event".to_string(),
        }
        .to_string();
        assert!(text.contains("r3") && text.contains("RoundSettled"));
    }

    /// A recorder under a `capacity`-slot logical-clock config that
    /// recorded `events` events.
    fn recorder(capacity: usize, events: u64) -> (EngineConfig, FlightRecorder) {
        let mut config = EngineConfig::default();
        config.trace = mcs_platform::config::TraceConfig {
            capacity,
            logical_clock: true,
        };
        let recorder = FlightRecorder::new(capacity, mcs_obs::ClockMode::Logical);
        for round in 0..events {
            recorder.record(mcs_obs::RawEvent::new(
                EventKind::RoundClosed,
                round,
                0,
                0,
                0,
            ));
        }
        (config, recorder)
    }

    fn unbounded(violations: &[OracleViolation], needle: &str) -> bool {
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::Unbounded { detail } if detail.contains(needle)))
    }

    #[test]
    fn a_bounded_incarnation_passes() {
        let (config, recorder) = recorder(16, 16);
        assert!(check_bounds(&config, &recorder, 1_000).is_empty());
    }

    #[test]
    fn a_lapped_ring_trips_the_bound() {
        let (config, recorder) = recorder(16, 17);
        let violations = check_bounds(&config, &recorder, 0);
        assert!(unbounded(&violations, "wrapped"), "{violations:?}");
    }

    #[test]
    fn a_ring_off_its_configured_capacity_trips_the_bound() {
        let (mut config, recorder) = recorder(16, 4);
        config.trace.capacity = 32;
        let violations = check_bounds(&config, &recorder, 0);
        assert!(unbounded(&violations, "configured 32"), "{violations:?}");
    }

    #[test]
    fn a_backlog_over_the_tail_drop_watermark_trips_the_bound() {
        let (mut config, recorder) = recorder(16, 4);
        config.admission = mcs_platform::config::AdmissionConfig {
            high_watermark: 12,
            low_watermark: 6,
            policy: ShedPolicy::TailDrop,
            clear_budget: 0,
        };
        assert!(check_bounds(&config, &recorder, 12).is_empty());
        let violations = check_bounds(&config, &recorder, 13);
        assert!(
            unbounded(&violations, "backlog reached 13"),
            "{violations:?}"
        );
        // Seeded-uniform shedding only thins the stream: no bound to hold.
        config.admission.policy =
            ShedPolicy::SeededUniform(mcs_platform::config::SeededUniform { seed: 1, rate: 0.5 });
        assert!(check_bounds(&config, &recorder, 13).is_empty());
    }

    /// Runs one traced engine round and returns its per-round trace.
    fn traced_round() -> Vec<mcs_obs::TraceEvent> {
        let mut config = EngineConfig::default().with_seed(5);
        config.batch.max_bids = 4;
        config.trace = mcs_platform::config::TraceConfig {
            capacity: 256,
            logical_clock: true,
        };
        let tasks = vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()];
        let mut engine = Engine::new(config, tasks);
        for (user, cost, pos) in [
            (0u32, 2.0, 0.6),
            (1, 2.5, 0.7),
            (2, 3.0, 0.5),
            (3, 1.5, 0.6),
        ] {
            engine
                .submit(&Bid {
                    user,
                    cost,
                    tasks: vec![(0, pos)],
                })
                .unwrap();
        }
        engine.drain();
        assert!(!engine.recorder().wrapped());
        engine.recorder().round_trace(0)
    }

    #[test]
    fn a_real_round_trace_is_complete() {
        let trace = traced_round();
        let winners = trace
            .iter()
            .find(|e| e.kind == mcs_obs::EventKind::RoundCleared)
            .map(|e| e.a as usize)
            .unwrap();
        let violations = check_round_trace(RoundId(0), &trace, 4, winners);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn truncated_and_doctored_traces_are_caught() {
        let trace = traced_round();
        let winners = trace
            .iter()
            .find(|e| e.kind == mcs_obs::EventKind::RoundCleared)
            .map(|e| e.a as usize)
            .unwrap();

        // Drop the tail: settle span and RoundSettled vanish.
        let truncated = &trace[..trace.len() - 3];
        let violations = check_round_trace(RoundId(0), truncated, 4, winners);
        assert!(violations
            .iter()
            .any(|v| v.to_string().contains("RoundSettled")));
        assert!(violations
            .iter()
            .any(|v| v.to_string().contains("settle span unbalanced")));

        // Claim one more bidder than the trace recorded.
        let violations = check_round_trace(RoundId(0), &trace, 5, winners);
        assert!(violations
            .iter()
            .any(|v| matches!(v, OracleViolation::TraceIncomplete { .. })));

        // Claim the wrong winner count.
        let violations = check_round_trace(RoundId(0), &trace, 4, winners + 1);
        assert!(violations
            .iter()
            .any(|v| v.to_string().contains("RoundCleared")));
    }
}
