//! Sharded round clearing: a fixed worker pool running winner
//! determination, reward quoting, and execution draws.
//!
//! ## Who clears
//!
//! The thread that calls [`ShardPool::clear_all`] — the engine's
//! [`drain`](crate::engine::Engine::drain) — is one of the pool's
//! workers and clears rounds itself. The other `workers − 1` are helper
//! threads, spawned once, the first time a drain holds more than one
//! round. Between drains they are parked on a channel, so a drain hands
//! out work instead of spawning threads. A one-round drain, or a pool of
//! one worker, clears inline and starts no thread. Dropping the pool
//! closes the helpers' channels and joins them.
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
//! Which thread clears a round is as unobservable as which order the
//! rounds finish in: the caller and the helpers run the same worker
//! body on the same configuration, fault hooks and telemetry sinks.
//!
//! On each drain, every worker clears its rounds on a persistent
//! [`ClearContext`] (delta-patched CSR index, heap seeds, pooled
//! workspaces) checked out of the pool's own [`ContextPool`], fixed when
//! the pool is built, and given back when the drain's queue runs dry.
//! This never perturbs the contract:
//! syncing an arena to a round's profile is bitwise identical to
//! building it fresh (`mcs_core::indexed::sync_with`'s tested
//! invariant), so which worker — with whatever arena history — clears a
//! round is unobservable.
//!
//! Workers wrap each round in `catch_unwind`: a panicking round becomes a
//! [`RoundError::Panicked`] and the pool keeps serving (see
//! [`crate::degrade`]). A helper that panics outside that guard fails
//! the drain it broke: the drain re-raises the helper's panic rather
//! than return with a round missing.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mcs_core::indexed::{ClearContext, ContextPool};
use mcs_core::mechanism::{contingent_reward, Allocation};
use mcs_core::multi_task::MultiTaskMechanism;
use mcs_core::single_task::SingleTaskMechanism;
use mcs_core::types::UserId;
use mcs_core::McsError;
use mcs_obs::digest::mix64;
use mcs_obs::FlightRecorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{Round, RoundId};
use crate::config::EngineConfig;
use crate::degrade::{panic_message, RoundError};
use crate::fault::FaultInjector;
use crate::metrics::{timed, Metrics, RoundEconomics, Stage};
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

/// Per-round RNG seed: the SplitMix64 mix of the engine seed and the
/// round id, so every round gets an independent, reproducible stream.
fn round_seed(engine_seed: u64, id: RoundId) -> u64 {
    mix64(engine_seed, id.0, 0)
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
        let mut allocated = timed(Stage::Allocate, id, metrics, trace, || {
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

/// One round's result as a worker reports it: the round id, then the
/// round's bidder count (kept for quarantine records) and its outcome.
type Cleared = (RoundId, (usize, Result<ClearedRound, RoundError>));

/// A drain's rounds, popped from the front by every worker in turn.
type Queue = Mutex<std::vec::IntoIter<Round>>;

/// What every worker of a pool reads: the engine's configuration, fault
/// hooks, telemetry sinks and clearing arenas. The pool and each of its
/// helpers hold one handle, so helpers borrow nothing from the drain
/// that wakes them.
#[derive(Debug)]
struct Shared {
    config: EngineConfig,
    injector: Arc<dyn FaultInjector>,
    metrics: Arc<Metrics>,
    recorder: Arc<FlightRecorder>,
    contexts: ContextPool,
}

impl Shared {
    /// The worker body, run by the draining thread and by every woken
    /// helper alike: checks a clearing arena out of the pool's arenas,
    /// clears rounds off `rounds` until the queue is empty, and gives
    /// the arena back. One arena per worker for the whole drain:
    /// consecutive rounds on this worker delta-patch its persistent
    /// index.
    fn work(&self, rounds: &Mutex<impl Iterator<Item = Round>>) -> Vec<Cleared> {
        let mut context = self.contexts.checkout();
        let mut cleared = Vec::new();
        loop {
            // Take the lock only to pop; clearing runs unlocked.
            let next = rounds.lock().expect("round queue lock").next();
            let Some(round) = next else { break };
            cleared.push(self.clear_one(&round, &mut context));
        }
        self.contexts.give_back(context);
        cleared
    }

    /// Clears one round inside the [`Stage::Shard`] span, catching a
    /// panic at the round boundary.
    fn clear_one(&self, round: &Round, context: &mut ClearContext) -> Cleared {
        let (metrics, recorder) = (&*self.metrics, &*self.recorder);
        let bidders = round.profile.user_count();
        let outcome = timed(
            Stage::Shard,
            round.id,
            Some(metrics),
            Some(recorder),
            || {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(message) = self.injector.shard_panic(round.id) {
                        panic!("{message}");
                    }
                    clear_round_metered(round, &self.config, context, Some(metrics), Some(recorder))
                }));
                // Drain this round's kernel counters before any panic cleanup
                // can discard the arena (a panicked round's partial counts
                // still count the work it did). Gated: draining is the only
                // profiling cost that leaves the worker's cache lines.
                if self.config.profiling {
                    metrics.record_kernel(&context.take_prof());
                }
                if caught.is_err() {
                    // A panic can leave the arena half-patched (e.g. mid seed
                    // rebuild); discard it rather than reason about its state.
                    *context = ClearContext::new();
                }
                caught.unwrap_or_else(|payload| {
                    Err(RoundError::Panicked {
                        message: panic_message(payload.as_ref()),
                    })
                })
            },
        );
        (round.id, (bidders, outcome))
    }
}

/// One drain's call on a parked helper: the drain's round queue and
/// where to report.
struct Job {
    rounds: Arc<Queue>,
    report: mpsc::Sender<Vec<Cleared>>,
}

/// A parked helper thread and the channel that wakes it.
#[derive(Debug)]
struct Helper {
    jobs: mpsc::Sender<Job>,
    thread: JoinHandle<()>,
}

/// A fixed-size pool of shard workers sharing a [`ContextPool`] of
/// clearing arenas.
///
/// The thread calling [`ShardPool::clear_all`] is one worker; the other
/// `workers − 1` are helper threads that the pool spawns the first time
/// a drain holds more than one round, parks between drains, and joins
/// when it is dropped (see the module docs). A drain wakes only as many
/// helpers as it has rounds beyond the first.
///
/// Each worker checks a [`ClearContext`] out for the duration of a
/// drain and returns it afterwards, so the contexts — and the
/// delta-patched indexes inside them — survive across drains.
#[derive(Debug)]
pub struct ShardPool {
    workers: usize,
    shared: Arc<Shared>,
    helpers: Vec<Helper>,
}

impl ShardPool {
    /// A pool of `config.workers` workers (clamped to ≥ 1) that clears
    /// with `config`, consults `injector`, and reports into `metrics` and
    /// `recorder`. Its context pool starts empty, and no helper thread
    /// exists until the first drain of more than one round.
    pub fn new(
        config: EngineConfig,
        injector: Arc<dyn FaultInjector>,
        metrics: Arc<Metrics>,
        recorder: Arc<FlightRecorder>,
    ) -> Self {
        ShardPool {
            workers: config.workers.max(1),
            shared: Arc::new(Shared {
                config,
                injector,
                metrics,
                recorder,
                contexts: ContextPool::new(),
            }),
            helpers: Vec::new(),
        }
    }

    /// Clears every round across the pool, catching panics at the round
    /// boundary. Each worker consults
    /// [`FaultInjector::shard_panic`] before clearing, so a chaos
    /// harness can panic chosen rounds deliberately; production passes
    /// [`NoFaults`](crate::fault::NoFaults).
    ///
    /// The calling thread clears rounds too; a drain of one round, or a
    /// pool of one worker, runs entirely on it, taking the rounds straight
    /// off `rounds` — so a caller draining its own vector
    /// (`pending.drain(..)`) keeps that vector's capacity. A drain that
    /// wakes helpers first collects the rounds into their shared queue.
    ///
    /// The result map is keyed by round id and is identical for every
    /// worker count (see the module docs). The second tuple element is
    /// the round's bidder count, kept for quarantine records.
    ///
    /// Every round gets a [`Stage::Shard`] enter/exit span pair in the
    /// flight recorder; the exit is recorded even when the round panics,
    /// since the span sits outside `catch_unwind`.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a helper that died outside the round
    /// guard, so no round goes missing in silence. The pool stays
    /// usable: the next drain of more than one round spawns fresh
    /// helpers.
    pub fn clear_all<R>(
        &mut self,
        rounds: R,
    ) -> BTreeMap<RoundId, (usize, Result<ClearedRound, RoundError>)>
    where
        R: IntoIterator<Item = Round>,
        R::IntoIter: ExactSizeIterator,
    {
        let rounds = rounds.into_iter();
        // A worker beyond the round count would find the queue empty.
        let woken = self.workers.min(rounds.len()).saturating_sub(1);
        if woken == 0 {
            return self.shared.work(&Mutex::new(rounds)).into_iter().collect();
        }
        let queue: Arc<Queue> = Arc::new(Mutex::new(rounds.collect::<Vec<_>>().into_iter()));
        if self.helpers.is_empty() {
            self.spawn_helpers();
        }
        let (report, reports) = mpsc::channel();
        for helper in &self.helpers[..woken] {
            // A dead helper refuses the job; its missing report is
            // caught below.
            let _ = helper.jobs.send(Job {
                rounds: Arc::clone(&queue),
                report: report.clone(),
            });
        }
        drop(report);
        let mut cleared = self.shared.work(&queue);
        // Ends once every woken helper has reported or died.
        let mut reported = 0;
        for batch in reports {
            reported += 1;
            cleared.extend(batch);
        }
        if reported < woken {
            let payload = self.join_helpers();
            resume_unwind(payload.unwrap_or_else(|| Box::new("a shard helper stopped unreported")));
        }
        cleared.into_iter().collect()
    }

    /// Spawns the `workers − 1` helpers, each parked on its own channel.
    fn spawn_helpers(&mut self) {
        self.helpers = (1..self.workers)
            .map(|i| {
                let (jobs, parked) = mpsc::channel::<Job>();
                let shared = Arc::clone(&self.shared);
                let thread = std::thread::Builder::new()
                    .name(format!("shard-helper-{i}"))
                    .spawn(move || {
                        for job in parked {
                            let cleared = shared.work(&job.rounds);
                            // Reporting is the job's last act, so a helper
                            // that dies at any point of it leaves its
                            // report missing.
                            let _ = job.report.send(cleared);
                        }
                    })
                    .expect("spawn a shard helper");
                Helper { jobs, thread }
            })
            .collect();
    }

    /// Closes every helper's channel and joins it, returning the first
    /// helper panic found.
    fn join_helpers(&mut self) -> Option<Box<dyn Any + Send>> {
        let mut panicked = None;
        for Helper { jobs, thread } in self.helpers.drain(..) {
            drop(jobs);
            if let Err(payload) = thread.join() {
                panicked.get_or_insert(payload);
            }
        }
        panicked
    }
}

impl Drop for ShardPool {
    /// Joins every helper, so no thread outlives its pool. A helper
    /// that panicked has already failed the drain it broke.
    fn drop(&mut self) {
        let _ = self.join_helpers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NoFaults;
    use mcs_core::types::{Cost, Pos, TypeProfile, UserType};
    use mcs_core::types::{Task, TaskId};

    /// A pool of `workers` clearing with `config` and `injector` into
    /// fresh metrics and `recorder`.
    fn pool_with(
        workers: usize,
        config: EngineConfig,
        injector: Arc<dyn FaultInjector>,
        recorder: FlightRecorder,
    ) -> ShardPool {
        ShardPool::new(
            config.with_workers(workers),
            injector,
            Arc::new(Metrics::new()),
            Arc::new(recorder),
        )
    }

    /// A fault-free, untraced pool of `workers` clearing with `config`.
    fn pool(workers: usize, config: EngineConfig) -> ShardPool {
        pool_with(
            workers,
            config,
            Arc::new(NoFaults),
            FlightRecorder::disabled(),
        )
    }

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
        let one = pool(1, config).clear_all(rounds.clone());
        let many = pool(4, config).clear_all(rounds);
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
        let mut pool = pool(1, config);
        let pooled = pool.clear_all(rounds.clone());
        // The worker's warmed arena is parked for the next drain…
        assert_eq!(pool.shared.contexts.idle(), 1);
        // …and a second drain starting from it clears identically.
        let again = pool.clear_all(rounds.clone());
        assert_eq!(pooled, again);
        // Every round matches the pure, fresh-context function bitwise,
        // even though the pooled path delta-patched across rounds.
        for round in &rounds {
            let pure = clear_round(round, &config).unwrap();
            assert_eq!(*pooled[&round.id].1.as_ref().unwrap(), pure);
        }
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
        let rounds = vec![multi_task_round(0), feasible_round(1)];
        let mut pool = pool(2, config);
        pool.clear_all(rounds);
        let snap = pool.shared.metrics.snapshot();
        let stage = |name: &str| snap.stages.iter().find(|s| s.stage == name).unwrap();
        assert_eq!(stage("allocate").count, 2);
        assert_eq!(stage("pay").count, 2);
        assert_eq!(stage("shard").count, 2);
    }

    #[test]
    fn profiling_drains_kernel_counters_without_changing_outcomes() {
        let config = EngineConfig::default().with_seed(7);
        let rounds: Vec<Round> = (0..4).map(multi_task_round).collect();
        let mut plain_pool = pool(2, config);
        let plain = plain_pool.clear_all(rounds.clone());
        let mut prof_pool = pool(2, config.with_profiling(true));
        let profiled = prof_pool.clear_all(rounds);
        assert_eq!(plain, profiled);
        // Profiling off: the kernel families stay zero.
        assert_eq!(plain_pool.shared.metrics.snapshot().kernel.prepares, 0);
        // Profiling on: every round prepared an arena, payments probed,
        // and the conservation laws hold over the drained sums.
        // One prepare per multi-task round: the allocate phase syncs the
        // arena and the pay phase prices on that same index.
        let k = prof_pool.shared.metrics.snapshot().kernel;
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
        let mut pool = pool_with(2, config, Arc::new(NoFaults), recorder);
        pool.clear_all(rounds);
        for round in [0u64, 1] {
            let trace = pool.shared.recorder.round_trace(round);
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
        let injector = Arc::new(PanicRounds::new([RoundId(0)]));
        let mut pool = pool_with(2, config, injector, recorder);
        let outcomes = pool.clear_all(vec![feasible_round(0)]);
        assert!(outcomes[&RoundId(0)].1.is_err());
        let trace = pool.shared.recorder.round_trace(0);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].kind, EventKind::StageEnter);
        assert_eq!(trace[1].kind, EventKind::StageExit);
        assert_eq!(trace[1].stage, Some(Stage::Shard));
    }

    /// Panics rounds like [`PanicRounds`](crate::fault::PanicRounds),
    /// logs the thread that clears each round, and holds every round in
    /// `gate` until all of them are held. A drain whose first rounds are
    /// the gate, one per worker, so hands one gated round to each worker:
    /// the caller and every helper.
    #[derive(Debug)]
    struct Spread {
        panics: crate::fault::PanicRounds,
        gate: std::collections::BTreeSet<RoundId>,
        held: Mutex<usize>,
        all_held: std::sync::Condvar,
        log: Mutex<Vec<(RoundId, std::thread::ThreadId)>>,
    }

    impl Spread {
        fn new(panics: &[u64], gate: &[u64]) -> Self {
            Spread {
                panics: crate::fault::PanicRounds::new(panics.iter().map(|&id| RoundId(id))),
                gate: gate.iter().map(|&id| RoundId(id)).collect(),
                held: Mutex::new(0),
                all_held: std::sync::Condvar::new(),
                log: Mutex::new(Vec::new()),
            }
        }

        /// The thread that cleared round `id`.
        fn thread_of(&self, id: u64) -> std::thread::ThreadId {
            let log = self.log.lock().unwrap();
            log.iter().find(|(round, _)| round.0 == id).unwrap().1
        }
    }

    impl FaultInjector for Spread {
        fn shard_panic(&self, round: RoundId) -> Option<String> {
            self.log
                .lock()
                .unwrap()
                .push((round, std::thread::current().id()));
            if self.gate.contains(&round) {
                let mut held = self.held.lock().unwrap();
                *held += 1;
                self.all_held.notify_all();
                let (_held, wait) = self
                    .all_held
                    .wait_timeout_while(held, std::time::Duration::from_secs(60), |held| {
                        *held < self.gate.len()
                    })
                    .unwrap();
                assert!(!wait.timed_out(), "a worker never took its gated round");
            }
            self.panics.shard_panic(round)
        }
    }

    #[test]
    fn one_pool_serves_consecutive_drains_identically_for_every_worker_count() {
        let config = EngineConfig::default().with_seed(13);
        // Drains of 0 rounds, 1 round, fewer rounds than (most) workers,
        // 10 rounds, then 3 and 1 again; single- and multi-task rounds
        // alternate, and ids run on across drains.
        let sizes = [0usize, 1, 2, 10, 3, 1];
        let mut next = 0u64;
        let drains: Vec<Vec<Round>> = sizes
            .iter()
            .map(|&size| {
                (0..size)
                    .map(|_| {
                        let id = next;
                        next += 1;
                        if id.is_multiple_of(2) {
                            feasible_round(id)
                        } else {
                            multi_task_round_scaled(id, 0.8 + 0.02 * id as f64)
                        }
                    })
                    .collect()
            })
            .collect();
        // The 10-round drain holds ids 3..13. Its first four rounds panic
        // for every worker count; a pool of w workers gates the first w
        // of them, so each worker panics one. Round 0 (a one-round drain,
        // on the caller) and round 14 panic too.
        let big = 3u64;
        let panics = [0, big, big + 1, big + 2, big + 3, 14];
        let mut by_workers = Vec::new();
        for workers in 1..=4usize {
            let gate: Vec<u64> = (big..big + workers as u64).collect();
            let spread = Arc::new(Spread::new(&panics, &gate));
            let mut pool = pool_with(workers, config, spread.clone(), FlightRecorder::disabled());
            let mut multi_round_seen = false;
            let mut outcomes = Vec::new();
            for rounds in &drains {
                let drained = pool.clear_all(rounds.clone());
                assert_eq!(drained.len(), rounds.len(), "{workers} workers");
                for round in rounds {
                    let (bidders, outcome) = &drained[&round.id];
                    assert_eq!(*bidders, round.profile.user_count());
                    let expected = if panics.contains(&round.id.0) {
                        Err(RoundError::Panicked {
                            message: format!("injected fault in round {}", round.id),
                        })
                    } else {
                        Ok(clear_round(round, &config).unwrap())
                    };
                    assert_eq!(*outcome, expected, "{workers} workers, {}", round.id);
                }
                multi_round_seen |= rounds.len() > 1;
                // Helpers appear with the first drain of more than one
                // round, never before, and their number never grows.
                let helpers = if multi_round_seen { workers - 1 } else { 0 };
                assert_eq!(pool.helpers.len(), helpers, "{workers} workers");
                outcomes.push(drained);
            }
            let caller = std::thread::current().id();
            // One-round drains clear on the caller.
            assert_eq!(spread.thread_of(0), caller);
            assert_eq!(spread.thread_of(16), caller);
            // Each worker, the caller included, panicked one gated round.
            let mut gated: Vec<_> = gate.iter().map(|&id| spread.thread_of(id)).collect();
            assert!(gated.contains(&caller), "{workers} workers");
            gated.sort_by_key(|thread| format!("{thread:?}"));
            gated.dedup();
            assert_eq!(gated.len(), workers);
            if workers == 1 {
                let log = spread.log.lock().unwrap();
                assert!(log.iter().all(|&(_, thread)| thread == caller));
            }
            by_workers.push(outcomes);
        }
        for (i, outcomes) in by_workers.iter().enumerate() {
            assert_eq!(*outcomes, by_workers[0], "{} workers", i + 1);
        }
    }

    #[test]
    fn dropping_the_pool_joins_its_helpers() {
        let config = EngineConfig::default().with_seed(3);
        let mut pool = pool(3, config);
        pool.clear_all((0..5).map(feasible_round).collect::<Vec<_>>());
        assert_eq!(pool.helpers.len(), 2);
        // The pool and each helper hold the shared state.
        assert_eq!(Arc::strong_count(&pool.shared), 3);
        let shared = Arc::downgrade(&pool.shared);
        drop(pool);
        assert!(shared.upgrade().is_none(), "a helper outlived its pool");
    }

    #[test]
    fn a_helper_dying_outside_the_round_guard_fails_the_drain() {
        let config = EngineConfig::default().with_seed(3);
        let rounds: Vec<Round> = (0..4).map(feasible_round).collect();
        let mut pool = pool(2, config);
        let clean = pool.clear_all(rounds.clone());
        assert_eq!(pool.helpers.len(), 1);
        // Kill the helper outside any round: hand it a queue whose lock
        // is poisoned.
        let poisoned: Arc<Queue> = Arc::new(Mutex::new(Vec::new().into_iter()));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _held = poisoned.lock().unwrap();
            panic!("poison the round queue");
        }));
        let (report, _reports) = mpsc::channel();
        pool.helpers[0]
            .jobs
            .send(Job {
                rounds: poisoned,
                report,
            })
            .unwrap();
        // The next drain re-raises the helper's own panic instead of
        // returning.
        let failed = catch_unwind(AssertUnwindSafe(|| pool.clear_all(rounds.clone())));
        let payload = failed.expect_err("a drain with a dead helper must panic");
        assert!(
            panic_message(payload.as_ref()).contains("round queue lock"),
            "{}",
            panic_message(payload.as_ref())
        );
        // The pool keeps serving on fresh helpers.
        assert!(pool.helpers.is_empty());
        assert_eq!(pool.clear_all(rounds), clean);
        assert_eq!(pool.helpers.len(), 1);
    }
}
