//! The scenario driver: every logical round submitted, closed and
//! oracle-checked on one mirrored [`Drive`], every fault-free platform run
//! traced and bit-exactly replayable.
//!
//! ## Execution truth vs. declared truth
//!
//! Before each round's bids are submitted the driver stages every
//! bidder's true `p_any` on the [`ScenarioInjector`], which redraws each
//! execution report from it at settlement (see [`crate::inject`]).
//!
//! ## Chaos
//!
//! A `[chaos]` section arms its fault plan on the same drive and the same
//! injector: [`round_stream`] weaves ingest and batch faults into the
//! round's bids, the shard, settle and reorder faults are armed on every
//! engine round the logical round closed, [`Fault::DropAndRebuild`]
//! drains and rebuilds the engine, and rounds drain every
//! `drain_every` logical rounds. Every round still closes at its end.
//!
//! ## Record and replay
//!
//! Every run records its drive sequence — every submitted bid (admitted,
//! rejected, or shed), every tick, flush and drain — into a checksummed
//! [`ReplayLog`]. [`replay_scenario`] feeds the logged bids of a
//! [traceable](Scenario::traceable) scenario through a fresh engine;
//! because truth staging is regenerated from the spec and execution
//! redraws key on `(round, user)`, the replay reproduces the original
//! outcome bit for bit: same fingerprint, same settlements, same
//! economics.
//!
//! Every platform run goes through the mirrored [`Drive`], so every run
//! gets the same round, trace, post-mortem, conservation, bound and
//! recorder-vs-log checks; the SP deviations and the injector's
//! quarantine observations are the driver's own.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcs_core::types::UserId;
use mcs_obs::digest::{mix64, Fnv1a};
use mcs_obs::replay::{ReplayLog, ReplayOp};
use mcs_platform::batch::RoundId;
use mcs_platform::config::EngineConfig;
use mcs_platform::ingest::Bid;
use mcs_platform::settle::fold_rounds;

use mcs_campaign::prelude::FnBidSource;
use mcs_campaign::runner::{CampaignConfig, CampaignRunner};

use crate::closed_loop::{check_campaign, ClosedLoopViolation};
use crate::drive::{replay_bid, Drive, DriveOutcome};
use crate::inject::{silence_injected_panics, ScenarioInjector};
use crate::oracle::OracleViolation;
use crate::plan::Fault;
use crate::stream::round_stream;

use super::arrival::ArrivalCurve;
use super::population::{Deviation, Population};
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
    /// The platform run's drive outcome: every cleared round, settlement,
    /// quarantine record and post-mortem, the oracle violations, and the
    /// shed, partial-clear, backlog and rebuild counters (empty in
    /// campaign mode).
    pub drive: DriveOutcome,
    /// Final per-user ledger balances (the drive's, or the campaign's).
    pub balances: BTreeMap<UserId, f64>,
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
    /// The closed-loop report fingerprint (campaign mode).
    pub campaign_fingerprint: Option<u64>,
}

impl ScenarioOutcome {
    /// Whether every oracle held.
    pub fn is_clean(&self) -> bool {
        self.drive.is_clean() && self.campaign_violations.is_empty()
    }

    /// An FNV-1a digest over everything observable: name, version,
    /// round results, settlements, balances, counters, and totals.
    /// Bitwise identical for any worker / payment-thread count; pinned
    /// by the corpus baselines.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv1a::new();
        fnv.write_bytes(self.name.as_bytes());
        fnv.write_u64(self.version as u64);
        let (results, settlements) = (&self.drive.results, &self.drive.settlements);
        fold_rounds(&mut fnv, results, settlements, |fnv, id| {
            fnv.write_u64(id.0)
        });
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
    if scenario.chaos.is_some() {
        silence_injected_panics();
    }
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
/// [`ScenarioError::Trace`] if the scenario is not
/// [traceable](Scenario::traceable), or the log does not belong to it or
/// has an unreplayable shape.
pub fn replay_scenario(
    scenario: &Scenario,
    log: &ReplayLog,
) -> Result<ScenarioOutcome, ScenarioError> {
    scenario.traceable()?;
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
/// stage truths, weave in the round's faults, and submit, close and
/// drain them through a [`Drive`], recording the drive log as it goes.
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
    let plan = scenario.fault_plan();
    let drain_every = scenario.chaos.as_ref().map_or(1, |chaos| chaos.drain_every);
    let injector = Arc::new(ScenarioInjector::new(mix64(scenario.seed, SALT_EXEC, 0)));
    let mut drive = Drive::new(
        options.engine_config(scenario),
        scenario.published_tasks(),
        injector.clone(),
    );
    let mut outcome = ScenarioOutcome::empty(scenario);
    let replaying = replay_rounds.is_some();
    let mut replay_rounds = replay_rounds.map(Vec::into_iter);
    let mut faults_armed = 0;

    for round in 0..scenario.rounds {
        let generated = population.round(round, options.deviate && !replaying);
        injector.stage(generated.truths.iter().map(|(&user, t)| (user, t.p_any)));
        let faults = plan.faults_for(round);
        let bids = match &mut replay_rounds {
            Some(rounds) => rounds.next().expect("replay holds every round"),
            None => generated.bids,
        };
        let stream = round_stream(
            bids,
            faults,
            scenario.tasks.count,
            scenario.population.users,
        );
        let mut closed = Vec::new();
        for (at, bid) in stream.bids.iter().enumerate() {
            if at == stream.tick_at {
                for _ in 0..stream.ticks {
                    outcome.log.push(ReplayOp::Tick);
                    closed.extend(drive.tick());
                }
            }
            outcome.log.push(ReplayOp::Submit(replay_bid(bid)));
            closed.extend(drive.submit(bid));
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
            closed.push(id);
        }
        // Arm the round's shard, settle and reorder faults onto every
        // engine round it closed.
        for &fault in faults {
            for &id in &closed {
                faults_armed += u64::from(injector.arm(fault, id));
            }
        }
        let rebuild = faults.contains(&Fault::DropAndRebuild);
        if rebuild || (round + 1) % drain_every == 0 || round + 1 == scenario.rounds {
            outcome.log.push(ReplayOp::Drain);
            drive.drain();
        }
        if rebuild {
            drive.rebuild();
        }
    }

    let mut out = drive.finish();
    out.faults_armed = faults_armed;
    // The injector observed exactly the quarantines the engine recorded.
    if injector.observed_quarantines() != out.quarantine {
        out.violations.push(OracleViolation::StreamDesync {
            detail: "quarantine observations diverge from engine records".to_string(),
        });
    }
    outcome.rounds_cleared = out.results.len() as u64;
    outcome.balances = out.balances.clone();
    outcome.bids_submitted = out.submitted;
    outcome.admitted = out.admitted;
    outcome.sheds = out.sheds;
    outcome.rejections = out.rejections;
    outcome.quarantined = out.quarantine.len() as u64;
    outcome.payment_total = out.total_paid;
    outcome.social_cost_total = out.economics.as_ref().map_or(0.0, |e| e.social_cost_total);
    outcome.drive = out;
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

    let mut config = CampaignConfig::new(
        options.engine_config(scenario),
        scenario.published_tasks(),
        campaign_spec.max_rounds,
    );
    config.failure_rate = campaign_spec.failure_rate;
    config.failure_seed = scenario.seed;
    let budget = config.round_budget();

    // One campaign round is exactly one engine round and a fresh run's
    // ids start at 0, so the `[chaos]` rounds arm up front.
    let injector = Arc::new(ScenarioInjector::default());
    let plan = scenario.fault_plan();
    for round in plan.rounds() {
        for &fault in plan.faults_for(round) {
            injector.arm(fault, RoundId(round));
        }
    }
    // The runner restricts each round's bids to its open tasks.
    let mut source = FnBidSource::new("scenario", |round, _: &[mcs_core::types::Task]| {
        population.round(round, false).bids
    });
    let runner = CampaignRunner::with_injector(config, injector);
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
        assert!(a.is_clean(), "{:?}", a.drive.violations);
        assert_eq!(a.rounds_cleared, scenario.rounds);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        assert!(a.payment_total > 0.0);
        assert_eq!(a.log.submit_count() as u64, a.bids_submitted);
    }

    #[test]
    fn different_seeds_fingerprint_differently() {
        let scenario = minimal_scenario();
        let mut reseeded = scenario.clone();
        reseeded.seed += 1;
        let a = run_scenario(&scenario).expect("runs");
        let b = run_scenario(&reseeded).expect("runs");
        assert!(b.is_clean(), "{:?}", b.drive.violations);
        assert_ne!(a.fingerprint(), b.fingerprint());
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
        assert_eq!(recorded.drive, replayed.drive);
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
