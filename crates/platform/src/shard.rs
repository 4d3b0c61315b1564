//! Sharded round clearing: a fixed worker pool running winner
//! determination, reward quoting, and execution draws.
//!
//! ## Determinism contract
//!
//! For a fixed engine seed, clearing is **bitwise identical for every
//! worker count**. Three properties make that hold:
//!
//! 1. [`clear_round`] is a pure function of `(round, config)` — the
//!    mechanisms are deterministic and float evaluation order is fixed.
//! 2. Execution draws come from a private RNG seeded from
//!    `(config.seed, round id)`, never from a shared stream that worker
//!    interleaving could perturb.
//! 3. Results are collected into a `BTreeMap` keyed by [`RoundId`], so
//!    completion order — the only thing the worker count changes — is
//!    erased before anyone observes the results.
//!
//! Workers clear consecutive rounds on a persistent [`ClearContext`]
//! (delta-patched CSR index, heap seeds, pooled workspaces) checked out
//! of the pool's [`ContextPool`]. This never perturbs the contract:
//! syncing an arena to a round's profile is bitwise identical to
//! building it fresh (`mcs_core::indexed::sync_with`'s tested
//! invariant), so which worker — with whatever arena history — clears a
//! round is unobservable.
//!
//! Workers wrap each round in `catch_unwind`: a panicking round becomes a
//! [`RoundError::Panicked`] and the pool keeps serving (see
//! [`crate::degrade`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcs_core::indexed::{ClearContext, ContextPool};
use mcs_core::mechanism::{contingent_reward, Allocation};
use mcs_core::multi_task::MultiTaskMechanism;
use mcs_core::single_task::SingleTaskMechanism;
use mcs_core::types::UserId;
use mcs_core::McsError;
use mcs_obs::{FlightRecorder, RawEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{Round, RoundId};
use crate::config::EngineConfig;
use crate::degrade::{panic_message, RoundError};
use crate::fault::FaultInjector;
use crate::metrics::{Metrics, RoundEconomics, Stage};
use crate::settle::RewardQuote;

/// A successfully cleared round, ready for settlement.
#[derive(Debug, Clone, PartialEq)]
pub struct ClearedRound {
    /// The round.
    pub id: RoundId,
    /// The winning users.
    pub allocation: Allocation,
    /// Each winner's contingent reward quotes.
    pub quotes: BTreeMap<UserId, RewardQuote>,
    /// Execution reports: whether each winner completed at least one of
    /// her tasks (independent Bernoulli draws from her declared PoS).
    pub reports: BTreeMap<UserId, bool>,
    /// Social cost `Σ c_i` over the winners.
    pub social_cost: f64,
    /// The round's economic quality (overpayment, slack, redundancy),
    /// computed at clearing time from the declared types.
    pub economics: RoundEconomics,
}

/// Per-round RNG seed: a SplitMix64-style mix of the engine seed and the
/// round id, so every round gets an independent, reproducible stream.
fn round_seed(engine_seed: u64, id: RoundId) -> u64 {
    let mut z = engine_seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f` as one `stage` of round `id`: an enter/exit span pair when a
/// recorder is attached, one histogram sample when metrics are (probes
/// from `clear_round`'s public, unmetered entry point pass neither).
fn timed<T>(
    stage: Stage,
    id: RoundId,
    metrics: Option<&Metrics>,
    trace: Option<&FlightRecorder>,
    f: impl FnOnce() -> T,
) -> T {
    span_enter(trace, stage, id);
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    if let Some(metrics) = metrics {
        metrics.record(stage, elapsed);
    }
    span_exit(trace, stage, id, elapsed);
    out
}

/// Emits a [`Stage`] enter event when a recorder is attached.
fn span_enter(trace: Option<&FlightRecorder>, stage: Stage, id: RoundId) {
    if let Some(recorder) = trace {
        recorder.record(RawEvent::enter(stage, id.0));
    }
}

/// Emits a [`Stage`] exit event. The duration payload is zeroed in
/// logical-clock mode: wall durations would make otherwise-deterministic
/// traces differ run to run.
fn span_exit(
    trace: Option<&FlightRecorder>,
    stage: Stage,
    id: RoundId,
    elapsed: std::time::Duration,
) {
    if let Some(recorder) = trace {
        let ns = if recorder.is_logical() {
            0
        } else {
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
        };
        recorder.record(RawEvent::exit(stage, id.0, ns));
    }
}

/// Prices one round for either mechanism: the [`Stage::Allocate`] span
/// yields the winners, the [`Stage::Pay`] span one critical PoS `p̄_i`
/// per winner, and both [`RewardQuote`] branches come from that one value
/// via [`contingent_reward`] — bitwise what
/// [`RewardScheme::reward`](mcs_core::mechanism::RewardScheme::reward)
/// quotes for each branch, at one critical-bid search per winner.
///
/// Single-task rounds use the FPTAS mechanism (`ε` from the config): the
/// allocate span prepares the round and runs the FPTAS once; the pay
/// span bisects each winner's critical bid on that prepared round,
/// every probe an in-place rerun on its one DP table.
/// Multi-task rounds use the greedy mechanism on `context`: the allocate
/// span syncs the context's persistent index to this round's profile
/// (delta-patching when the population carried over) and runs the greedy
/// once; the pay span prices exactly those winners on the same index,
/// heap seeds, and pooled workspaces, over
/// [`EngineConfig::payment_threads`] threads.
fn price_round(
    round: &Round,
    config: &EngineConfig,
    context: &mut ClearContext,
    metrics: Option<&Metrics>,
    trace: Option<&FlightRecorder>,
) -> Result<(Allocation, BTreeMap<UserId, RewardQuote>), McsError> {
    let (profile, id) = (&round.profile, round.id);
    let (allocation, criticals) = if profile.is_single_task() {
        let mechanism = SingleTaskMechanism::new(config.epsilon, config.alpha)?;
        let mut allocated = timed(Stage::Allocate, id, metrics, trace, || {
            mechanism.allocate(profile)
        })?;
        let criticals = timed(Stage::Pay, id, metrics, trace, || allocated.criticals())?;
        (allocated.into_allocation(), criticals)
    } else {
        let mechanism =
            MultiTaskMechanism::new(config.alpha)?.with_payment_threads(config.payment_threads);
        let allocated = timed(Stage::Allocate, id, metrics, trace, || {
            mechanism.allocate_with(context, profile)
        })?;
        let criticals = timed(Stage::Pay, id, metrics, trace, || allocated.criticals())?;
        (allocated.into_allocation(), criticals)
    };
    let mut quotes = BTreeMap::new();
    for (winner, critical) in criticals {
        let cost = profile.user(winner)?.cost();
        quotes.insert(
            winner,
            RewardQuote {
                success: contingent_reward(config.alpha, critical, cost, true),
                failure: contingent_reward(config.alpha, critical, cost, false),
            },
        );
    }
    Ok((allocation, quotes))
}

/// Clears one round: winner determination, reward quotes for both
/// outcomes from one critical-bid search per winner, and one set of
/// execution draws.
///
/// # Errors
///
/// A typed [`RoundError`] — most commonly
/// [`RoundError::Infeasible`] when the round's bidders cannot cover some
/// task's requirement.
pub fn clear_round(round: &Round, config: &EngineConfig) -> Result<ClearedRound, RoundError> {
    clear_round_metered(round, config, &mut ClearContext::new(), None, None)
}

/// [`clear_round`] with optional allocate/pay stage timing and span
/// tracing, used by the pool so the two sub-spans of [`Stage::Shard`]
/// show up in metrics and in the flight recorder.
///
/// `context` is the worker's clearing arena. The pool hands each worker
/// a persistent context so consecutive rounds delta-patch the CSR index
/// instead of rebuilding it; [`clear_round`] passes a fresh one, which
/// keeps it a pure function of `(round, config)` — the two are bitwise
/// identical by the `sync_with` contract.
fn clear_round_metered(
    round: &Round,
    config: &EngineConfig,
    context: &mut ClearContext,
    metrics: Option<&Metrics>,
    trace: Option<&FlightRecorder>,
) -> Result<ClearedRound, RoundError> {
    let (allocation, quotes) = price_round(round, config, context, metrics, trace)?;
    let profile = &round.profile;

    let mut rng = StdRng::seed_from_u64(round_seed(config.seed, round.id));
    let mut reports = BTreeMap::new();
    let mut social_cost = 0.0;
    let mut expected_payment = 0.0;
    for winner in allocation.winners() {
        let user = profile.user(winner)?;
        let mut completed = false;
        for (_, pos) in user.tasks() {
            // Draw every task so the stream's shape does not depend on
            // earlier outcomes.
            let done = rng.gen_bool(pos.value());
            completed |= done;
        }
        reports.insert(winner, completed);
        social_cost += user.cost().value();
        let quote = &quotes[&winner];
        expected_payment += mcs_core::analysis::expected_payment_from_quotes(
            user.any_task_pos().value(),
            quote.success,
            quote.failure,
        );
    }
    let economics = RoundEconomics {
        expected_payment,
        social_cost,
        coverage_slack: mcs_core::analysis::coverage_slack(profile, &allocation),
        winner_redundancy: mcs_core::analysis::winner_redundancy(profile, &allocation),
    };

    Ok(ClearedRound {
        id: round.id,
        allocation,
        quotes,
        reports,
        social_cost,
        economics,
    })
}

/// A fixed-size pool of shard workers sharing a [`ContextPool`] of
/// clearing arenas.
///
/// Each worker checks a [`ClearContext`] out for the duration of a
/// [`ShardPool::clear_all`] call and returns it afterwards, so the
/// contexts — and the delta-patched indexes inside them — survive across
/// drains. Cloning the pool clones the context-pool *handle*: clones
/// share arenas.
#[derive(Debug, Clone)]
pub struct ShardPool {
    workers: usize,
    contexts: ContextPool,
}

impl ShardPool {
    /// A pool with `workers` threads (clamped to ≥ 1) and an empty
    /// context pool.
    pub fn new(workers: usize) -> Self {
        ShardPool {
            workers: workers.max(1),
            contexts: ContextPool::new(),
        }
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A shared handle to the pool's clearing arenas. Campaign runners
    /// grab this before tearing an engine down so the warmed indexes
    /// survive an [`Engine::restore`](crate::engine::Engine::restore).
    pub fn contexts(&self) -> ContextPool {
        self.contexts.clone()
    }

    /// Replaces the pool's clearing arenas with `contexts` — the adopt
    /// half of the [`ShardPool::contexts`] hand-off.
    pub fn adopt_contexts(&mut self, contexts: ContextPool) {
        self.contexts = contexts;
    }

    /// Clears every round across the pool, catching panics at the round
    /// boundary. Each worker consults
    /// [`FaultInjector::shard_panic`] before clearing, so a chaos
    /// harness can panic chosen rounds deliberately; production passes
    /// [`NoFaults`](crate::fault::NoFaults).
    ///
    /// The result map is keyed by round id and is identical for every
    /// worker count (see the module docs). The second tuple element is
    /// the round's bidder count, kept for quarantine records.
    ///
    /// Every round gets a [`Stage::Shard`] enter/exit span pair in the
    /// flight recorder; the exit is recorded even when the round panics,
    /// since the span sits outside `catch_unwind`.
    pub fn clear_all(
        &self,
        rounds: Vec<Round>,
        config: &EngineConfig,
        injector: &dyn FaultInjector,
        metrics: &Metrics,
        recorder: &FlightRecorder,
    ) -> BTreeMap<RoundId, (usize, Result<ClearedRound, RoundError>)> {
        let (round_tx, round_rx) = mpsc::channel::<Round>();
        for round in rounds {
            round_tx.send(round).expect("receiver alive");
        }
        drop(round_tx);
        let round_rx = Arc::new(Mutex::new(round_rx));

        let (result_tx, result_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                let round_rx = Arc::clone(&round_rx);
                let result_tx = result_tx.clone();
                let contexts = self.contexts.clone();
                scope.spawn(move || {
                    // One clearing arena per worker for the whole drain:
                    // consecutive rounds on this worker delta-patch its
                    // persistent index.
                    let mut context = contexts.checkout();
                    loop {
                        // Take the lock only to pop; clearing runs unlocked.
                        let next = round_rx.lock().expect("queue lock").recv();
                        let Ok(round) = next else { break };
                        let bidders = round.profile.user_count();
                        span_enter(Some(recorder), Stage::Shard, round.id);
                        let start = Instant::now();
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            if let Some(message) = injector.shard_panic(round.id) {
                                panic!("{message}");
                            }
                            clear_round_metered(
                                &round,
                                config,
                                &mut context,
                                Some(metrics),
                                Some(recorder),
                            )
                        }));
                        // Drain this round's kernel counters before any panic
                        // cleanup can discard the arena (a panicked
                        // round's partial counts still count the work it
                        // did). Gated: draining is the only profiling
                        // cost that leaves the worker's cache lines.
                        if config.profiling {
                            metrics.record_kernel(&context.take_prof());
                        }
                        if caught.is_err() {
                            // A panic can leave the arena half-patched
                            // (e.g. mid seed rebuild); discard it rather
                            // than reason about its state.
                            context = ClearContext::new();
                        }
                        let outcome = caught.unwrap_or_else(|payload| {
                            Err(RoundError::Panicked {
                                message: panic_message(payload.as_ref()),
                            })
                        });
                        metrics.record(Stage::Shard, start.elapsed());
                        span_exit(Some(recorder), Stage::Shard, round.id, start.elapsed());
                        if result_tx.send((round.id, bidders, outcome)).is_err() {
                            break;
                        }
                    }
                    contexts.give_back(context);
                });
            }
        });
        drop(result_tx);

        result_rx
            .into_iter()
            .map(|(id, bidders, outcome)| (id, (bidders, outcome)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NoFaults;
    use mcs_core::types::{Cost, Pos, TypeProfile, UserType};
    use mcs_core::types::{Task, TaskId};

    fn round(id: u64, costs_and_pos: &[(f64, f64)]) -> Round {
        let users = costs_and_pos
            .iter()
            .enumerate()
            .map(|(i, &(cost, pos))| {
                UserType::builder(UserId::new(i as u32))
                    .cost(Cost::new(cost).unwrap())
                    .task(TaskId::new(0), Pos::new(pos).unwrap())
                    .build()
                    .unwrap()
            })
            .collect();
        Round {
            id: RoundId(id),
            profile: TypeProfile::new(
                users,
                vec![Task::with_requirement(TaskId::new(0), 0.8).unwrap()],
            )
            .unwrap(),
        }
    }

    fn feasible_round(id: u64) -> Round {
        round(id, &[(2.0, 0.6), (2.5, 0.7), (3.0, 0.5), (1.5, 0.6)])
    }

    #[test]
    fn cleared_round_is_internally_consistent() {
        let cleared = clear_round(&feasible_round(0), &EngineConfig::default()).unwrap();
        assert!(!cleared.allocation.is_empty());
        assert_eq!(cleared.quotes.len(), cleared.allocation.winner_count());
        assert_eq!(cleared.reports.len(), cleared.allocation.winner_count());
        assert!(cleared.social_cost > 0.0);
        for quote in cleared.quotes.values() {
            assert!(quote.success > quote.failure);
        }
    }

    #[test]
    fn infeasible_round_degrades_with_typed_error() {
        let thin = round(1, &[(1.0, 0.2)]);
        let error = clear_round(&thin, &EngineConfig::default()).unwrap_err();
        assert!(matches!(error, RoundError::Infeasible { .. }));
    }

    #[test]
    fn round_seeds_are_engine_and_round_dependent() {
        assert_ne!(round_seed(1, RoundId(0)), round_seed(1, RoundId(1)));
        assert_ne!(round_seed(1, RoundId(0)), round_seed(2, RoundId(0)));
    }

    #[test]
    fn pool_results_do_not_depend_on_worker_count() {
        let config = EngineConfig::default().with_seed(11);
        let rounds: Vec<Round> = (0..12).map(feasible_round).collect();
        let one = ShardPool::new(1).clear_all(
            rounds.clone(),
            &config,
            &NoFaults,
            &Metrics::new(),
            &FlightRecorder::disabled(),
        );
        let many = ShardPool::new(4).clear_all(
            rounds,
            &config,
            &NoFaults,
            &Metrics::new(),
            &FlightRecorder::disabled(),
        );
        assert_eq!(one, many);
        assert_eq!(one.len(), 12);
    }

    fn multi_task_round(id: u64) -> Round {
        let specs: [(f64, &[(u32, f64)]); 5] = [
            (2.0, &[(0, 0.3), (1, 0.4)]),
            (1.5, &[(0, 0.2), (2, 0.3)]),
            (3.0, &[(1, 0.5), (2, 0.5)]),
            (1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
            (2.5, &[(0, 0.4), (2, 0.4)]),
        ];
        let users = specs
            .iter()
            .enumerate()
            .map(|(i, &(cost, tasks))| {
                let mut b = UserType::builder(UserId::new(i as u32)).cost(Cost::new(cost).unwrap());
                for &(t, p) in tasks {
                    b = b.task(TaskId::new(t), Pos::new(p).unwrap());
                }
                b.build().unwrap()
            })
            .collect();
        Round {
            id: RoundId(id),
            profile: TypeProfile::new(
                users,
                vec![
                    Task::with_requirement(TaskId::new(0), 0.5).unwrap(),
                    Task::with_requirement(TaskId::new(1), 0.6).unwrap(),
                    Task::with_requirement(TaskId::new(2), 0.55).unwrap(),
                ],
            )
            .unwrap(),
        }
    }

    /// Like [`multi_task_round`] but with every PoS scaled, so
    /// consecutive rounds exercise the delta-patch path with real row
    /// changes instead of `SyncMode::Unchanged` hits.
    fn multi_task_round_scaled(id: u64, scale: f64) -> Round {
        let specs: [(f64, &[(u32, f64)]); 5] = [
            (2.0, &[(0, 0.3), (1, 0.4)]),
            (1.5, &[(0, 0.2), (2, 0.3)]),
            (3.0, &[(1, 0.5), (2, 0.5)]),
            (1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
            (2.5, &[(0, 0.4), (2, 0.4)]),
        ];
        let users = specs
            .iter()
            .enumerate()
            .map(|(i, &(cost, tasks))| {
                let mut b = UserType::builder(UserId::new(i as u32)).cost(Cost::new(cost).unwrap());
                for &(t, p) in tasks {
                    b = b.task(TaskId::new(t), Pos::new(p * scale).unwrap());
                }
                b.build().unwrap()
            })
            .collect();
        Round {
            id: RoundId(id),
            profile: TypeProfile::new(
                users,
                vec![
                    Task::with_requirement(TaskId::new(0), 0.5).unwrap(),
                    Task::with_requirement(TaskId::new(1), 0.6).unwrap(),
                    Task::with_requirement(TaskId::new(2), 0.55).unwrap(),
                ],
            )
            .unwrap(),
        }
    }

    #[test]
    fn persistent_contexts_match_pure_clearing_across_changing_rounds() {
        let config = EngineConfig::default().with_seed(7);
        let rounds: Vec<Round> = (0..5)
            .map(|i| multi_task_round_scaled(i, 0.8 + 0.04 * i as f64))
            .collect();
        let pool = ShardPool::new(1);
        let pooled = pool.clear_all(
            rounds.clone(),
            &config,
            &NoFaults,
            &Metrics::new(),
            &FlightRecorder::disabled(),
        );
        // The worker's warmed arena is parked for the next drain…
        assert_eq!(pool.contexts().idle(), 1);
        // …and a second drain starting from it clears identically.
        let again = pool.clear_all(
            rounds.clone(),
            &config,
            &NoFaults,
            &Metrics::new(),
            &FlightRecorder::disabled(),
        );
        assert_eq!(pooled, again);
        // Every round matches the pure, fresh-context function bitwise,
        // even though the pooled path delta-patched across rounds.
        for round in &rounds {
            let pure = clear_round(round, &config).unwrap();
            assert_eq!(*pooled[&round.id].1.as_ref().unwrap(), pure);
        }
    }

    #[test]
    fn adopted_contexts_are_shared_handles() {
        let config = EngineConfig::default().with_seed(2);
        let first = ShardPool::new(1);
        first.clear_all(
            vec![multi_task_round(0)],
            &config,
            &NoFaults,
            &Metrics::new(),
            &FlightRecorder::disabled(),
        );
        assert_eq!(first.contexts().idle(), 1);
        let mut second = ShardPool::new(1);
        second.adopt_contexts(first.contexts());
        let outcomes = second.clear_all(
            vec![multi_task_round(1)],
            &config,
            &NoFaults,
            &Metrics::new(),
            &FlightRecorder::disabled(),
        );
        assert!(outcomes[&RoundId(1)].1.is_ok());
        // The adopted handle still points at the same free list: the
        // warmed context went out and came back.
        assert_eq!(first.contexts().idle(), 1);
    }

    #[test]
    fn payment_thread_count_never_changes_cleared_rounds() {
        let base = EngineConfig::default().with_seed(3);
        let sequential = clear_round(&multi_task_round(0), &base).unwrap();
        assert!(!sequential.allocation.is_empty());
        for threads in [2, 4, 8] {
            let parallel =
                clear_round(&multi_task_round(0), &base.with_payment_threads(threads)).unwrap();
            assert_eq!(sequential, parallel, "{threads} payment threads diverged");
        }
    }

    #[test]
    fn pool_times_allocate_and_pay_subspans() {
        let config = EngineConfig::default().with_seed(5);
        let metrics = Metrics::new();
        let rounds = vec![multi_task_round(0), feasible_round(1)];
        ShardPool::new(2).clear_all(
            rounds,
            &config,
            &NoFaults,
            &metrics,
            &FlightRecorder::disabled(),
        );
        let snap = metrics.snapshot();
        let stage = |name: &str| snap.stages.iter().find(|s| s.stage == name).unwrap();
        assert_eq!(stage("allocate").count, 2);
        assert_eq!(stage("pay").count, 2);
        assert_eq!(stage("shard").count, 2);
    }

    #[test]
    fn profiling_drains_kernel_counters_without_changing_outcomes() {
        let config = EngineConfig::default().with_seed(7);
        let rounds: Vec<Round> = (0..4).map(multi_task_round).collect();
        let plain_metrics = Metrics::new();
        let plain = ShardPool::new(2).clear_all(
            rounds.clone(),
            &config,
            &NoFaults,
            &plain_metrics,
            &FlightRecorder::disabled(),
        );
        let prof_metrics = Metrics::new();
        let profiled = ShardPool::new(2).clear_all(
            rounds,
            &config.with_profiling(true),
            &NoFaults,
            &prof_metrics,
            &FlightRecorder::disabled(),
        );
        assert_eq!(plain, profiled);
        // Profiling off: the kernel families stay zero.
        assert_eq!(plain_metrics.snapshot().kernel.prepares, 0);
        // Profiling on: every round prepared an arena, payments probed,
        // and the conservation laws hold over the drained sums.
        // One prepare per multi-task round: the allocate phase syncs the
        // arena and the pay phase prices on that same index.
        let k = prof_metrics.snapshot().kernel;
        assert_eq!(k.prepares, 4);
        assert_eq!(
            k.reuse_hits + k.sync_patched + k.sync_reflattened,
            k.prepares
        );
        assert!(k.heap_pops > 0);
        assert!(k.probes_requested > 0);
        assert_eq!(k.probes_saved() + k.probes_run, k.probes_requested);
        assert!(k.arena_resident_bytes > 0);
        // Identical rounds on a persistent arena: each worker's first
        // round flattens its fresh arena, later rounds are reuse hits.
        assert!(k.sync_reflattened <= 2, "{k:?}");
        assert_eq!(k.reuse_hits, 4 - k.sync_reflattened, "{k:?}");
    }

    #[test]
    fn quotes_equal_reward_scheme_branches_bitwise() {
        // One critical search per winner yields both quote branches; each
        // must equal the per-branch `RewardScheme::reward` bit for bit.
        use mcs_core::mechanism::Mechanism;
        let config = EngineConfig::default().with_seed(4);
        let single = SingleTaskMechanism::new(config.epsilon, config.alpha).unwrap();
        let multi = MultiTaskMechanism::new(config.alpha).unwrap();
        let cases: [(Round, &dyn Mechanism); 2] =
            [(feasible_round(0), &single), (multi_task_round(1), &multi)];
        for (round, mechanism) in cases {
            let cleared = clear_round(&round, &config).unwrap();
            let profile = &round.profile;
            assert_eq!(
                cleared.allocation,
                mechanism.select_winners(profile).unwrap()
            );
            assert!(!cleared.quotes.is_empty());
            assert_eq!(cleared.quotes.len(), cleared.allocation.winner_count());
            for (&winner, quote) in &cleared.quotes {
                let allocation = &cleared.allocation;
                let success = mechanism.reward(profile, allocation, winner, true).unwrap();
                let failure = mechanism
                    .reward(profile, allocation, winner, false)
                    .unwrap();
                assert_eq!(quote.success.to_bits(), success.to_bits(), "{winner}");
                assert_eq!(quote.failure.to_bits(), failure.to_bits(), "{winner}");
            }
        }
    }

    #[test]
    fn cleared_rounds_carry_consistent_economics() {
        let cleared = clear_round(&feasible_round(0), &EngineConfig::default()).unwrap();
        let econ = cleared.economics;
        assert_eq!(econ.social_cost, cleared.social_cost);
        // IR: expected payment at least covers social cost.
        assert!(econ.expected_payment >= econ.social_cost);
        // A feasible single-task round has non-negative slack and at
        // least one winner covering the task.
        assert!(econ.coverage_slack >= -1e-9);
        assert!(econ.winner_redundancy >= 1.0);
    }

    #[test]
    fn pool_records_round_causal_spans() {
        use mcs_obs::{ClockMode, EventKind};
        let config = EngineConfig::default().with_seed(5);
        let recorder = FlightRecorder::new(256, ClockMode::Logical);
        let rounds = vec![multi_task_round(0), feasible_round(1)];
        ShardPool::new(2).clear_all(rounds, &config, &NoFaults, &Metrics::new(), &recorder);
        for round in [0u64, 1] {
            let trace = recorder.round_trace(round);
            let spans: Vec<(EventKind, Option<Stage>)> =
                trace.iter().map(|e| (e.kind, e.stage)).collect();
            // Shard wraps the allocate and pay sub-spans.
            assert_eq!(
                spans,
                vec![
                    (EventKind::StageEnter, Some(Stage::Shard)),
                    (EventKind::StageEnter, Some(Stage::Allocate)),
                    (EventKind::StageExit, Some(Stage::Allocate)),
                    (EventKind::StageEnter, Some(Stage::Pay)),
                    (EventKind::StageExit, Some(Stage::Pay)),
                    (EventKind::StageExit, Some(Stage::Shard)),
                ],
                "round {round}"
            );
            // Logical mode zeroes span durations.
            assert!(trace
                .iter()
                .filter(|e| e.kind == EventKind::StageExit)
                .all(|e| e.a == 0));
        }
    }

    #[test]
    fn panicking_round_still_closes_its_shard_span() {
        use crate::fault::PanicRounds;
        use mcs_obs::{ClockMode, EventKind};
        let config = EngineConfig::default().with_seed(5);
        let recorder = FlightRecorder::new(256, ClockMode::Logical);
        let injector = PanicRounds::new([RoundId(0)]);
        let outcomes = ShardPool::new(2).clear_all(
            vec![feasible_round(0)],
            &config,
            &injector,
            &Metrics::new(),
            &recorder,
        );
        assert!(outcomes[&RoundId(0)].1.is_err());
        let trace = recorder.round_trace(0);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].kind, EventKind::StageEnter);
        assert_eq!(trace[1].kind, EventKind::StageExit);
        assert_eq!(trace[1].stage, Some(Stage::Shard));
    }
}
