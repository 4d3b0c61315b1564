//! The scenario driver: one engine round per logical round, every round
//! oracle-checked, every run traced and bit-exactly replayable.
//!
//! ## Execution truth vs. declared truth
//!
//! The engine draws execution reports from *declared* PoS — it knows
//! nothing else. Scenarios model worlds where the truth differs
//! (regional shocks). The driver closes the gap through the
//! [`FaultInjector`] settle hook: before each round's bids are
//! submitted it stages every bidder's true `p_any` with the injector;
//! the engine's `observe_admitted` ingest hook keys the staged truth to
//! the concrete engine round the bid actually landed in; and at
//! settlement `flip_report` redraws the outcome from the *true*
//! probability on a `(exec seed, round, user)` stream. The redraw runs
//! on the single-threaded drain path, so outcomes stay bitwise
//! identical for any worker count.
//!
//! ## Record and replay
//!
//! Every run records its full drive sequence — every submitted bid
//! (admitted, rejected, or shed), every flush, every drain — into a
//! checksummed [`ReplayLog`]. [`replay_scenario`] feeds the logged bids
//! through a fresh engine under the same scenario; because truth
//! staging is regenerated from the spec and execution redraws key on
//! `(round, user)`, the replay reproduces the original outcome bit for
//! bit: same fingerprint, same settlements, same economics.
//!
//! Every run goes through the mirrored [`Drive`], so it gets every
//! round, trace, post-mortem, conservation and recorder-vs-log check
//! the chaos campaigns get; the SP deviations are the scenario's own.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mcs_core::types::UserId;
use mcs_obs::digest::{mix64, unit, Fnv1a};
use mcs_obs::replay::{ReplayLog, ReplayOp};
use mcs_platform::batch::RoundId;
use mcs_platform::config::EngineConfig;
use mcs_platform::fault::FaultInjector;
use mcs_platform::ingest::Bid;
use mcs_platform::prelude::EconSnapshot;
use mcs_platform::settle::RoundSettlement;
use mcs_platform::shard::ClearedRound;

use mcs_campaign::prelude::FnBidSource;
use mcs_campaign::runner::{CampaignConfig as LoopConfig, CampaignRunner};

use crate::closed_loop::{check_campaign, ClosedLoopViolation};
use crate::drive::{fold_rounds, replay_bid, Drive};
use crate::oracle::OracleViolation;

use super::arrival::ArrivalCurve;
use super::population::{Deviation, Population, TrueType};
use super::shock::ShockField;
use super::spec::{Baseline, Scenario, ScenarioMode};
use super::ScenarioError;

/// Domain salt for the execution-redraw stream.
const SALT_EXEC: u64 = 0x4558_4543;

/// Per-run options layered over a scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Override the scenario's shard worker count (determinism sweeps).
    pub workers: Option<usize>,
    /// Override the scenario's payment fan-out.
    pub payment_threads: Option<usize>,
    /// Play the `[strategy]` deviations instead of the truthful stream.
    pub deviate: bool,
    /// Drain kernel profiling counters into metrics during the run. The
    /// counters are pure telemetry, so the fingerprint is unchanged;
    /// the drive additionally holds them to their conservation laws
    /// (see [`crate::oracle::check_kernel`]).
    pub profiling: bool,
}

impl RunOptions {
    /// The scenario's engine configuration with these overrides applied.
    fn engine_config(&self, scenario: &Scenario) -> EngineConfig {
        let config = scenario.engine_config();
        config
            .with_workers(self.workers.unwrap_or(config.workers))
            .with_payment_threads(self.payment_threads.unwrap_or(config.payment_threads))
            .with_profiling(self.profiling)
    }
}

/// Everything one scenario run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Scenario corpus version.
    pub version: u32,
    /// Every cleared round, keyed by engine round id (platform mode).
    pub results: BTreeMap<RoundId, ClearedRound>,
    /// Every settlement, keyed by engine round id (platform mode).
    pub settlements: BTreeMap<RoundId, RoundSettlement>,
    /// Final per-user ledger balances.
    pub balances: BTreeMap<UserId, f64>,
    /// Round-oracle and stream violations (platform mode).
    pub violations: Vec<OracleViolation>,
    /// Closed-loop violations (campaign mode).
    pub campaign_violations: Vec<ClosedLoopViolation>,
    /// Deviations played (deviating runs only).
    pub deviations: Vec<Deviation>,
    /// The recorded drive log (platform mode; empty in campaign mode).
    pub log: ReplayLog,
    /// Bids submitted (admitted + rejected + shed).
    pub bids_submitted: u64,
    /// Bids admitted.
    pub admitted: u64,
    /// Bids shed by admission control.
    pub sheds: u64,
    /// Bids rejected at ingest.
    pub rejections: u64,
    /// Quarantine records (including partial-clear remainders).
    pub quarantined: u64,
    /// Rounds cleared.
    pub rounds_cleared: u64,
    /// Total payments (ledger total, or campaign `total_paid`).
    pub payment_total: f64,
    /// Total social cost over cleared rounds.
    pub social_cost_total: f64,
    /// The engine's economics snapshot (platform mode).
    pub economics: Option<EconSnapshot>,
    /// The closed-loop report fingerprint (campaign mode).
    pub campaign_fingerprint: Option<u64>,
}

impl ScenarioOutcome {
    /// Whether every oracle held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.campaign_violations.is_empty()
    }

    /// An FNV-1a digest over everything observable: name, version,
    /// round results, settlements, balances, counters, and totals.
    /// Bitwise identical for any worker / payment-thread count; pinned
    /// by the corpus baselines.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv1a::new();
        fnv.write_bytes(self.name.as_bytes());
        fnv.write_u64(self.version as u64);
        fold_rounds(&mut fnv, &self.results, &self.settlements);
        for (user, balance) in &self.balances {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(balance.to_bits());
        }
        if let Some(campaign) = self.campaign_fingerprint {
            fnv.write_u64(campaign);
        }
        fnv.write_u64(self.bids_submitted);
        fnv.write_u64(self.admitted);
        fnv.write_u64(self.sheds);
        fnv.write_u64(self.rejections);
        fnv.write_u64(self.quarantined);
        fnv.write_u64(self.rounds_cleared);
        fnv.write_u64(self.payment_total.to_bits());
        fnv.write_u64(self.social_cost_total.to_bits());
        fnv.finish()
    }

    /// The observed baseline of this run, comparable against the pinned
    /// `[baseline]` block.
    pub fn baseline(&self) -> Baseline {
        Baseline {
            fingerprint: self.fingerprint(),
            rounds_cleared: self.rounds_cleared,
            bids_submitted: self.bids_submitted,
            admitted: self.admitted,
            sheds: self.sheds,
            rejections: self.rejections,
            quarantined: self.quarantined,
            payment_total_bits: self.payment_total.to_bits(),
            social_cost_total_bits: self.social_cost_total.to_bits(),
        }
    }

    fn empty(scenario: &Scenario) -> ScenarioOutcome {
        ScenarioOutcome {
            name: scenario.name.clone(),
            version: scenario.version,
            log: ReplayLog::new(scenario.seed, &scenario.name),
            ..ScenarioOutcome::default()
        }
    }
}

/// The scenario fault injector: stages true types per logical round,
/// keys them onto concrete engine rounds at admission, and redraws
/// every execution report from the *true* probability.
#[derive(Debug)]
struct ScenarioInjector {
    exec_seed: u64,
    /// user → true `p_any` bits for the round being submitted.
    staged: Mutex<BTreeMap<u32, u64>>,
    /// (engine round, user) → true `p_any` bits, pinned at admission.
    truths: Mutex<BTreeMap<(u64, u32), u64>>,
}

impl ScenarioInjector {
    fn new(exec_seed: u64) -> ScenarioInjector {
        ScenarioInjector {
            exec_seed,
            staged: Mutex::new(BTreeMap::new()),
            truths: Mutex::new(BTreeMap::new()),
        }
    }

    fn stage(&self, truths: &BTreeMap<u32, TrueType>) {
        let mut staged = self.staged.lock().expect("injector lock");
        staged.clear();
        for (&user, truth) in truths {
            staged.insert(user, truth.p_any.to_bits());
        }
    }
}

impl FaultInjector for ScenarioInjector {
    fn observe_admitted(&self, round: RoundId, bid: &Bid) {
        if let Some(&bits) = self.staged.lock().expect("injector lock").get(&bid.user) {
            self.truths
                .lock()
                .expect("injector lock")
                .insert((round.0, bid.user), bits);
        }
    }

    fn flip_report(&self, round: RoundId, user: UserId, completed: bool) -> bool {
        let truths = self.truths.lock().expect("injector lock");
        match truths.get(&(round.0, user.index() as u32)) {
            // Redraw from the true probability on a stream keyed only by
            // (round, user): deterministic, worker-count independent,
            // and identical between twin runs — so truthful and
            // deviating twins face the same world.
            Some(&bits) => {
                unit(self.exec_seed, round.0, user.index() as u64) < f64::from_bits(bits)
            }
            None => completed,
        }
    }
}

/// Runs a scenario truthfully with its own engine knobs.
///
/// # Errors
///
/// Propagates [`ScenarioError`]s from campaign-mode setup; platform
/// runs report problems as outcome violations instead.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioOutcome, ScenarioError> {
    run_scenario_with(scenario, &RunOptions::default())
}

/// Runs a scenario with thread-count overrides and/or live deviations.
///
/// # Errors
///
/// As [`run_scenario`].
pub fn run_scenario_with(
    scenario: &Scenario,
    options: &RunOptions,
) -> Result<ScenarioOutcome, ScenarioError> {
    match scenario.mode {
        ScenarioMode::Platform => run_platform(scenario, options, None),
        ScenarioMode::Campaign => run_campaign_mode(scenario, options),
    }
}

/// Replays a recorded drive log through a fresh engine under the same
/// scenario. The outcome must be bitwise identical to the recording
/// run's — callers assert `fingerprint()` equality.
///
/// # Errors
///
/// [`ScenarioError::Trace`] if the log does not belong to this scenario
/// or has an unreplayable shape.
pub fn replay_scenario(
    scenario: &Scenario,
    log: &ReplayLog,
) -> Result<ScenarioOutcome, ScenarioError> {
    if scenario.mode != ScenarioMode::Platform {
        return Err(ScenarioError::Trace {
            message: "campaign-mode scenarios do not record drive traces".to_string(),
        });
    }
    if log.seed != scenario.seed {
        return Err(ScenarioError::Trace {
            message: format!(
                "log seed {} does not match scenario seed {}",
                log.seed, scenario.seed
            ),
        });
    }
    // Regroup the flat op stream into per-round submissions. Scenario
    // traces are strictly (Submit*, Flush, Drain)* — anything else did
    // not come from this driver.
    let mut rounds: Vec<Vec<Bid>> = Vec::new();
    let mut current: Vec<Bid> = Vec::new();
    let mut awaiting_drain = false;
    for op in &log.ops {
        match op {
            ReplayOp::Submit(bid) if !awaiting_drain => current.push(Bid {
                user: bid.user,
                cost: bid.cost(),
                tasks: bid
                    .tasks
                    .iter()
                    .map(|&(task, bits)| (task, f64::from_bits(bits)))
                    .collect(),
            }),
            ReplayOp::Flush if !awaiting_drain => awaiting_drain = true,
            ReplayOp::Drain if awaiting_drain => {
                rounds.push(std::mem::take(&mut current));
                awaiting_drain = false;
            }
            other => {
                return Err(ScenarioError::Trace {
                    message: format!("unexpected {other:?} in scenario trace"),
                })
            }
        }
    }
    if awaiting_drain || !current.is_empty() {
        return Err(ScenarioError::Trace {
            message: "trace ends mid-round".to_string(),
        });
    }
    if rounds.len() as u64 != scenario.rounds {
        return Err(ScenarioError::Trace {
            message: format!(
                "trace holds {} rounds, scenario runs {}",
                rounds.len(),
                scenario.rounds
            ),
        });
    }
    run_platform(scenario, &RunOptions::default(), Some(rounds))
}

/// The platform-mode driver: generate (or replay) each round's bids,
/// stage truths, and submit, flush and drain them through a [`Drive`],
/// recording the drive log as it goes.
fn run_platform(
    scenario: &Scenario,
    options: &RunOptions,
    replay_rounds: Option<Vec<Vec<Bid>>>,
) -> Result<ScenarioOutcome, ScenarioError> {
    let curve = ArrivalCurve::generate(&scenario.arrival, scenario.seed, scenario.rounds);
    let field = scenario
        .shocks
        .as_ref()
        .map(|spec| ShockField::generate(spec, scenario.seed, scenario.rounds));
    let population = Population::new(scenario, &curve, field.as_ref());
    let injector = Arc::new(ScenarioInjector::new(mix64(scenario.seed, SALT_EXEC, 0)));
    let mut drive = Drive::new(
        options.engine_config(scenario),
        scenario.published_tasks(),
        injector.clone(),
    );
    let mut outcome = ScenarioOutcome::empty(scenario);
    let replaying = replay_rounds.is_some();

    for round in 0..scenario.rounds {
        let generated = population.round(round, options.deviate && !replaying);
        injector.stage(&generated.truths);
        let bids: &[Bid] = match &replay_rounds {
            Some(rounds) => &rounds[round as usize],
            None => &generated.bids,
        };
        for bid in bids {
            outcome.log.push(ReplayOp::Submit(replay_bid(bid)));
            drive.submit(bid);
        }
        outcome.log.push(ReplayOp::Flush);
        if let Some(id) = drive.flush() {
            // Pin the played deviation to the engine round it actually
            // ran in, so the SP oracle looks up the right quotes even
            // if shedding ever desynchronised logical and engine
            // rounds.
            if let Some(mut deviation) = generated.deviation.filter(|_| !replaying) {
                deviation.round = id.0;
                outcome.deviations.push(deviation);
            }
        }
        outcome.log.push(ReplayOp::Drain);
        drive.drain();
    }

    let out = drive.finish();
    outcome.rounds_cleared = out.results.len() as u64;
    outcome.results = out.results;
    outcome.settlements = out.settlements;
    outcome.balances = out.balances;
    outcome.violations = out.violations;
    outcome.bids_submitted = out.submitted;
    outcome.admitted = out.admitted;
    outcome.sheds = out.sheds;
    outcome.rejections = out.rejections;
    outcome.quarantined = out.quarantine.len() as u64;
    outcome.payment_total = out.total_paid;
    outcome.social_cost_total = out.economics.as_ref().map_or(0.0, |e| e.social_cost_total);
    outcome.economics = out.economics;
    Ok(outcome)
}

/// The campaign-mode driver: the scenario population becomes the bid
/// source of a closed-loop campaign, and the closed-loop oracles check
/// the report.
fn run_campaign_mode(
    scenario: &Scenario,
    options: &RunOptions,
) -> Result<ScenarioOutcome, ScenarioError> {
    let campaign_spec = scenario
        .campaign
        .as_ref()
        .expect("validated: campaign mode carries a [campaign] section");
    // The population must cover every campaign round (initial +
    // residual re-auctions), whatever the scenario horizon says.
    let horizon = scenario.rounds.max(campaign_spec.max_rounds);
    let curve = ArrivalCurve::generate(&scenario.arrival, scenario.seed, horizon);
    let field = scenario
        .shocks
        .as_ref()
        .map(|spec| ShockField::generate(spec, scenario.seed, horizon));
    let population = Population::new(scenario, &curve, field.as_ref());

    let mut config = LoopConfig::new(
        options.engine_config(scenario),
        scenario.published_tasks(),
        campaign_spec.max_rounds,
    );
    config.failure_rate = campaign_spec.failure_rate;
    config.failure_seed = scenario.seed;
    let budget = config.round_budget();

    // The runner restricts each round's bids to its open tasks.
    let mut source = FnBidSource::new("scenario", |round, _: &[mcs_core::types::Task]| {
        population.round(round, false).bids
    });
    let runner = CampaignRunner::new(config);
    let report = runner.run(&mut source);

    let mut outcome = ScenarioOutcome::empty(scenario);
    outcome.campaign_violations = check_campaign(&report, budget);
    for record in &report.rounds {
        outcome.bids_submitted += record.bids_offered as u64;
        outcome.admitted += record.bids_submitted as u64;
        outcome.quarantined += record.quarantined as u64;
    }
    outcome.rounds_cleared = report.rounds_run();
    outcome.payment_total = report.total_paid;
    outcome.social_cost_total = report.total_social_cost;
    outcome.balances = report.balances.clone();
    outcome.campaign_fingerprint = Some(report.fingerprint());
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::super::spec::tests_support::minimal_scenario;
    use super::*;

    #[test]
    fn minimal_scenarios_run_clean_and_reproducibly() {
        let scenario = minimal_scenario();
        let a = run_scenario(&scenario).expect("runs");
        let b = run_scenario(&scenario).expect("runs");
        assert!(a.is_clean(), "{:?}", a.violations);
        assert_eq!(a.rounds_cleared, scenario.rounds);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        assert!(a.payment_total > 0.0);
        assert_eq!(a.log.submit_count() as u64, a.bids_submitted);
    }

    #[test]
    fn worker_counts_never_change_the_fingerprint() {
        let scenario = minimal_scenario();
        let base = run_scenario(&scenario).expect("runs");
        for (workers, payment_threads) in [(1, 1), (2, 4), (8, 2)] {
            let other = run_scenario_with(
                &scenario,
                &RunOptions {
                    workers: Some(workers),
                    payment_threads: Some(payment_threads),
                    deviate: false,
                    profiling: true,
                },
            )
            .expect("runs");
            assert_eq!(base.fingerprint(), other.fingerprint(), "{workers}w");
        }
    }

    #[test]
    fn recorded_logs_replay_bitwise() {
        let scenario = minimal_scenario();
        let recorded = run_scenario(&scenario).expect("runs");
        let replayed = replay_scenario(&scenario, &recorded.log).expect("replays");
        assert_eq!(recorded.fingerprint(), replayed.fingerprint());
        assert_eq!(recorded.results, replayed.results);
        assert_eq!(recorded.settlements, replayed.settlements);
        assert_eq!(recorded.economics, replayed.economics);
        assert_eq!(recorded.log, replayed.log);
    }

    #[test]
    fn foreign_logs_are_refused_with_typed_errors() {
        let scenario = minimal_scenario();
        let wrong_seed = ReplayLog::new(scenario.seed + 1, &scenario.name);
        assert!(matches!(
            replay_scenario(&scenario, &wrong_seed),
            Err(ScenarioError::Trace { .. })
        ));
        let mut truncated = run_scenario(&scenario).expect("runs").log;
        truncated.ops.pop();
        assert!(matches!(
            replay_scenario(&scenario, &truncated),
            Err(ScenarioError::Trace { .. })
        ));
    }
}
