//! The scenario schema: typed specs parsed from corpus TOML, validated
//! field by field, with pinned baselines.
//!
//! A scenario file is a complete, self-contained description of one
//! adversarial world: identity (`[scenario]`), the published tasks
//! (`[tasks]`), the bidder population and its draw ranges
//! (`[population]`), the arrival curve (`[arrival]`), optional
//! correlated PoS shocks (`[shocks]`), optional strategic bidders
//! (`[strategy]`), engine and admission knobs (`[engine]`,
//! `[admission]`), optional closed-loop campaign mode (`[campaign]`),
//! an optional fault plan (`[chaos]`), and the pinned `[baseline]` the
//! corpus CI enforces.
//!
//! Parsing is strict: unknown keys, missing required fields, and
//! out-of-range values are all typed [`ScenarioError::Schema`] errors
//! naming the dotted field path — a corpus typo fails loudly, never by
//! silently running a different experiment.

use std::path::Path;

use serde::Value;

use mcs_platform::config::{AdmissionConfig, EngineConfig, SeededUniform, ShedPolicy};

use crate::drive::logical_trace;
use crate::plan::{Fault, FaultPlan};

use super::{toml, ScenarioError};

/// How a scenario drives the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioMode {
    /// Drive an [`Engine`](mcs_platform::engine::Engine) directly, one
    /// auction round per logical round, with per-round oracle checks,
    /// trace record/replay, and (optionally) the online SP twin.
    Platform,
    /// Drive a closed-loop
    /// [`CampaignRunner`](mcs_campaign::runner::CampaignRunner) with the
    /// scenario's population as its bid source.
    Campaign,
}

impl ScenarioMode {
    /// The TOML spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ScenarioMode::Platform => "platform",
            ScenarioMode::Campaign => "campaign",
        }
    }
}

/// `[tasks]`: the published task set.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Number of tasks published every round.
    pub count: usize,
    /// Coverage requirement `Q_j` shared by all tasks.
    pub requirement: f64,
}

/// `[population]`: the base bidder population and its draw ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Size of the stable base-user id space (`u0..users`); the arrival
    /// curve picks a per-round prefix of it.
    pub users: u32,
    /// Cost draw range `[cost_min, cost_max)`.
    pub cost_min: f64,
    /// Upper cost bound.
    pub cost_max: f64,
    /// Per-task PoS draw range `[pos_min, pos_max)`.
    pub pos_min: f64,
    /// Upper PoS bound (≤ 0.95 so deviations can scale up and stay
    /// valid probabilities).
    pub pos_max: f64,
}

/// `[arrival]`: the diurnal + burst arrival curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSpec {
    /// Mean bids per round of the diurnal component.
    pub base: f64,
    /// Relative swing of the sinusoid, in `[0, 1)`; the trough
    /// `base·(1 − amplitude)` must stay ≥ 1 so every round has load.
    pub amplitude: f64,
    /// Rounds per diurnal cycle.
    pub period: u64,
    /// Cycle offset in `[0, 1)` turns.
    pub phase: f64,
    /// Number of seeded bursts.
    pub bursts: u32,
    /// Extra bids per burst — integer mass, conserved exactly.
    pub burst_mass: u32,
    /// Rounds each burst spreads its mass over.
    pub burst_width: u64,
}

/// `[shocks]`: correlated regional PoS shocks over a mobility grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ShockSpec {
    /// Grid width in cells.
    pub grid_width: u32,
    /// Grid height in cells.
    pub grid_height: u32,
    /// Number of seeded shock events.
    pub count: u32,
    /// Lower bound of the PoS multiplier (⊂ `[0, 1]`).
    pub multiplier_min: f64,
    /// Upper bound of the PoS multiplier.
    pub multiplier_max: f64,
    /// Shortest event window, in rounds.
    pub duration_min: u64,
    /// Longest event window, in rounds.
    pub duration_max: u64,
    /// Maximum region width, in cells.
    pub region_width: u32,
    /// Maximum region height, in cells.
    pub region_height: u32,
}

/// `[strategy]`: live strategic bidders.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategySpec {
    /// Relative misreport magnitudes ε fed to
    /// [`misreport_factor_grid`](mcs_core::analysis::misreport_factor_grid).
    pub epsilons: Vec<f64>,
    /// Size of the deviator pool (`u0..deviators` take turns); each
    /// round deviates at most one bidder, keeping the test unilateral.
    pub deviators: u32,
}

/// `[engine]`: mechanism and threading knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Shard worker count (outcomes must not depend on it).
    pub workers: usize,
    /// Per-round payment fan-out (ditto).
    pub payment_threads: usize,
    /// Reward scaling factor α.
    pub alpha: f64,
    /// FPTAS ε for single-task rounds.
    pub epsilon: f64,
}

impl Default for EngineSpec {
    fn default() -> Self {
        let defaults = EngineConfig::default();
        EngineSpec {
            workers: defaults.workers,
            payment_threads: defaults.payment_threads,
            alpha: defaults.alpha,
            epsilon: defaults.epsilon,
        }
    }
}

/// `[campaign]`: closed-loop campaign mode knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Round budget (initial + residual re-auction rounds).
    pub max_rounds: u64,
    /// Injected execution-failure probability in `[0, 1]`.
    pub failure_rate: f64,
}

/// `[chaos]`: a fault plan armed on the scenario's run, and the drain
/// cadence that lets closed rounds queue up between drains (what
/// [`Fault::ReorderPending`] and cross-round worker parallelism need).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Per-round fault probability in `[0, 1]`: the plan is drawn from
    /// the scenario seed ([`FaultPlan::generate`]), so re-seeding the
    /// scenario re-draws it. `None` arms the listed `rounds` instead.
    pub intensity: Option<f64>,
    /// The listed plan — `[chaos.rounds]`, one `round = ["fault", …]`
    /// line per faulty round, faults spelled as [`Fault::parse`] reads
    /// them. Empty when `intensity` draws the plan.
    pub rounds: FaultPlan,
    /// Drain (clear + settle + oracle-check) every this many logical
    /// rounds; each round still closes at its end.
    pub drain_every: u64,
}

/// `[baseline]`: the pinned fingerprint + economics a corpus scenario
/// must reproduce bit for bit.
///
/// Floating-point totals are pinned as raw `f64` bit patterns (hex
/// integers in the TOML), so a baseline comparison is exact — no
/// tolerance to hide drift inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Baseline {
    /// The run's FNV-1a outcome fingerprint.
    pub fingerprint: u64,
    /// Rounds cleared.
    pub rounds_cleared: u64,
    /// Bids submitted (admitted + rejected + shed).
    pub bids_submitted: u64,
    /// Bids admitted.
    pub admitted: u64,
    /// Bids shed by admission control.
    pub sheds: u64,
    /// Bids rejected at ingest.
    pub rejections: u64,
    /// Rounds quarantined (including partial-clear remainders).
    pub quarantined: u64,
    /// Total payments, as `f64::to_bits`.
    pub payment_total_bits: u64,
    /// Total social cost, as `f64::to_bits`.
    pub social_cost_total_bits: u64,
}

impl Baseline {
    /// Renders the block exactly as it should appear in the scenario
    /// file (hex integers, bit-exact totals).
    pub fn to_toml(&self) -> String {
        format!(
            "[baseline]\n\
             fingerprint = {:#018x}\n\
             rounds_cleared = {}\n\
             bids_submitted = {}\n\
             admitted = {}\n\
             sheds = {}\n\
             rejections = {}\n\
             quarantined = {}\n\
             # f64::to_bits of the payment / social-cost totals ({} / {})\n\
             payment_total_bits = {:#018x}\n\
             social_cost_total_bits = {:#018x}\n",
            self.fingerprint,
            self.rounds_cleared,
            self.bids_submitted,
            self.admitted,
            self.sheds,
            self.rejections,
            self.quarantined,
            f64::from_bits(self.payment_total_bits),
            f64::from_bits(self.social_cost_total_bits),
            self.payment_total_bits,
            self.social_cost_total_bits,
        )
    }

    /// Compares a pinned baseline against an observed one, reporting the
    /// first diverging field.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BaselineMismatch`] naming the field.
    pub fn check(&self, name: &str, observed: &Baseline) -> Result<(), ScenarioError> {
        let fields: [(&'static str, u64, u64); 9] = [
            ("fingerprint", self.fingerprint, observed.fingerprint),
            (
                "rounds_cleared",
                self.rounds_cleared,
                observed.rounds_cleared,
            ),
            (
                "bids_submitted",
                self.bids_submitted,
                observed.bids_submitted,
            ),
            ("admitted", self.admitted, observed.admitted),
            ("sheds", self.sheds, observed.sheds),
            ("rejections", self.rejections, observed.rejections),
            ("quarantined", self.quarantined, observed.quarantined),
            (
                "payment_total_bits",
                self.payment_total_bits,
                observed.payment_total_bits,
            ),
            (
                "social_cost_total_bits",
                self.social_cost_total_bits,
                observed.social_cost_total_bits,
            ),
        ];
        for (field, expected, actual) in fields {
            if expected != actual {
                return Err(ScenarioError::BaselineMismatch {
                    name: name.to_string(),
                    field,
                    expected: format!("{expected:#x}"),
                    actual: format!("{actual:#x}"),
                });
            }
        }
        Ok(())
    }
}

/// One fully validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (the corpus file stem).
    pub name: String,
    /// Corpus version of this scenario; bump it whenever the spec
    /// changes meaningfully.
    pub version: u32,
    /// Master seed: drives arrivals, draws, shocks, and execution.
    pub seed: u64,
    /// Logical rounds to run.
    pub rounds: u64,
    /// Platform or campaign mode.
    pub mode: ScenarioMode,
    /// Published tasks.
    pub tasks: TaskSpec,
    /// Bidder population.
    pub population: PopulationSpec,
    /// Arrival curve.
    pub arrival: ArrivalSpec,
    /// Correlated PoS shocks, if any.
    pub shocks: Option<ShockSpec>,
    /// Strategic bidders, if any.
    pub strategy: Option<StrategySpec>,
    /// Engine knobs.
    pub engine: EngineSpec,
    /// Admission control, if any.
    pub admission: Option<AdmissionConfig>,
    /// Campaign-mode knobs (required iff `mode = "campaign"`).
    pub campaign: Option<CampaignSpec>,
    /// The fault plan, if any.
    pub chaos: Option<ChaosSpec>,
    /// The pinned baseline, if committed.
    pub baseline: Option<Baseline>,
}

/// The current scenario schema version; files must declare it.
pub const SCHEMA_VERSION: u64 = 1;

impl Scenario {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Toml`] for syntax, [`ScenarioError::Schema`] for
    /// anything structurally or numerically invalid.
    pub fn from_toml_str(input: &str) -> Result<Scenario, ScenarioError> {
        let value = toml::parse(input)?;
        let root = Doc::new(&value)?;

        let scenario = root.require_table("scenario")?;
        let schema = scenario.u64("schema")?;
        if schema != SCHEMA_VERSION {
            return Err(schema_error(
                "scenario.schema",
                format!("unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"),
            ));
        }
        let name = scenario.string("name")?;
        let version = scenario.u64("version")? as u32;
        let seed = scenario.u64("seed")?;
        let rounds = scenario.u64("rounds")?;
        let mode = match scenario.string_or("mode", "platform")?.as_str() {
            "platform" => ScenarioMode::Platform,
            "campaign" => ScenarioMode::Campaign,
            other => {
                return Err(schema_error(
                    "scenario.mode",
                    format!("unknown mode {other:?} (platform | campaign)"),
                ))
            }
        };
        scenario.finish()?;

        let tasks_section = root.require_table("tasks")?;
        let tasks = TaskSpec {
            count: tasks_section.u64("count")? as usize,
            requirement: tasks_section.f64("requirement")?,
        };
        tasks_section.finish()?;

        let population_section = root.require_table("population")?;
        let population = PopulationSpec {
            users: population_section.u64("users")? as u32,
            cost_min: population_section.f64("cost_min")?,
            cost_max: population_section.f64("cost_max")?,
            pos_min: population_section.f64("pos_min")?,
            pos_max: population_section.f64("pos_max")?,
        };
        population_section.finish()?;

        let arrival_section = root.require_table("arrival")?;
        let arrival = ArrivalSpec {
            base: arrival_section.f64("base")?,
            amplitude: arrival_section.f64_or("amplitude", 0.0)?,
            period: arrival_section.u64_or("period", 24)?,
            phase: arrival_section.f64_or("phase", 0.0)?,
            bursts: arrival_section.u64_or("bursts", 0)? as u32,
            burst_mass: arrival_section.u64_or("burst_mass", 0)? as u32,
            burst_width: arrival_section.u64_or("burst_width", 1)?,
        };
        arrival_section.finish()?;

        let shocks = match root.table("shocks")? {
            None => None,
            Some(section) => {
                let spec = ShockSpec {
                    grid_width: section.u64("grid_width")? as u32,
                    grid_height: section.u64("grid_height")? as u32,
                    count: section.u64("count")? as u32,
                    multiplier_min: section.f64("multiplier_min")?,
                    multiplier_max: section.f64("multiplier_max")?,
                    duration_min: section.u64("duration_min")?,
                    duration_max: section.u64("duration_max")?,
                    region_width: section.u64("region_width")? as u32,
                    region_height: section.u64("region_height")? as u32,
                };
                section.finish()?;
                Some(spec)
            }
        };

        let strategy = match root.table("strategy")? {
            None => None,
            Some(section) => {
                let spec = StrategySpec {
                    epsilons: section.list("epsilons", "a number", |v| {
                        section.coerce_f64("epsilons", v).ok()
                    })?,
                    deviators: section.u64("deviators")? as u32,
                };
                section.finish()?;
                Some(spec)
            }
        };

        let engine = match root.table("engine")? {
            None => EngineSpec::default(),
            Some(section) => {
                let defaults = EngineSpec::default();
                let spec = EngineSpec {
                    workers: section.u64_or("workers", defaults.workers as u64)? as usize,
                    payment_threads: section
                        .u64_or("payment_threads", defaults.payment_threads as u64)?
                        as usize,
                    alpha: section.f64_or("alpha", defaults.alpha)?,
                    epsilon: section.f64_or("epsilon", defaults.epsilon)?,
                };
                section.finish()?;
                spec
            }
        };

        let admission = match root.table("admission")? {
            None => None,
            Some(section) => {
                let high = section.u64("high_watermark")? as usize;
                let low = section.u64_or("low_watermark", (high / 2) as u64)? as usize;
                let policy = match section.string_or("policy", "tail-drop")?.as_str() {
                    "tail-drop" => ShedPolicy::TailDrop,
                    "seeded-uniform" => ShedPolicy::SeededUniform(SeededUniform {
                        seed: section.u64_or("shed_seed", seed)?,
                        rate: section.f64_or("shed_rate", 0.1)?,
                    }),
                    other => {
                        return Err(schema_error(
                            "admission.policy",
                            format!("unknown policy {other:?} (tail-drop | seeded-uniform)"),
                        ))
                    }
                };
                let config = AdmissionConfig {
                    high_watermark: high,
                    low_watermark: low,
                    policy,
                    clear_budget: section.u64_or("clear_budget", 0)? as usize,
                };
                section.finish()?;
                Some(config)
            }
        };

        let campaign = match root.table("campaign")? {
            None => None,
            Some(section) => {
                let spec = CampaignSpec {
                    max_rounds: section.u64("max_rounds")?,
                    failure_rate: section.f64_or("failure_rate", 0.0)?,
                };
                section.finish()?;
                Some(spec)
            }
        };

        let chaos = match root.table("chaos")? {
            None => None,
            Some(section) => {
                let intensity = match section.get("intensity") {
                    None => None,
                    Some(value) => Some(section.coerce_f64("intensity", value)?),
                };
                let mut rounds = FaultPlan::new();
                if let Some(list) = section.table("rounds")? {
                    for (key, _) in list.entries {
                        let round: u64 = key.parse().map_err(|_| {
                            schema_error(&list.field(key), "expected a round number as the key")
                        })?;
                        let faults = list.list(key, "a fault name", |value| match value {
                            Value::Str(name) => Fault::parse(name),
                            _ => None,
                        })?;
                        for fault in faults {
                            rounds.schedule(round, fault);
                        }
                    }
                    list.finish()?;
                }
                let spec = ChaosSpec {
                    intensity,
                    rounds,
                    drain_every: section.u64_or("drain_every", 1)?,
                };
                section.finish()?;
                Some(spec)
            }
        };

        let baseline = match root.table("baseline")? {
            None => None,
            Some(section) => {
                let pinned = Baseline {
                    fingerprint: section.u64("fingerprint")?,
                    rounds_cleared: section.u64("rounds_cleared")?,
                    bids_submitted: section.u64("bids_submitted")?,
                    admitted: section.u64("admitted")?,
                    sheds: section.u64("sheds")?,
                    rejections: section.u64("rejections")?,
                    quarantined: section.u64("quarantined")?,
                    payment_total_bits: section.u64("payment_total_bits")?,
                    social_cost_total_bits: section.u64("social_cost_total_bits")?,
                };
                section.finish()?;
                Some(pinned)
            }
        };

        root.finish()?;

        let scenario = Scenario {
            name,
            version,
            seed,
            rounds,
            mode,
            tasks,
            population,
            arrival,
            shocks,
            strategy,
            engine,
            admission,
            campaign,
            chaos,
            baseline,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Loads and validates a scenario file.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Io`] if unreadable, else as
    /// [`Scenario::from_toml_str`].
    pub fn load(path: &Path) -> Result<Scenario, ScenarioError> {
        let input = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Scenario::from_toml_str(&input)
    }

    /// The engine configuration this scenario runs under: logical-clock
    /// tracing sized to never wrap, batch capacity above the largest
    /// possible round so capacity never closes a round mid-submission.
    pub fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::default()
            .with_seed(self.seed)
            .with_workers(self.engine.workers)
            .with_payment_threads(self.engine.payment_threads);
        config.alpha = self.engine.alpha;
        config.epsilon = self.engine.epsilon;
        config.batch.max_bids = self.max_round_bids();
        if let Some(admission) = self.admission {
            config.admission = admission;
        }
        config.trace = logical_trace(self.max_round_bids(), self.tasks.count, self.rounds);
        config
    }

    /// The fault plan a run arms: `[chaos]`'s listed rounds, or one drawn
    /// from the scenario seed at its intensity. Empty without `[chaos]`.
    pub fn fault_plan(&self) -> FaultPlan {
        match &self.chaos {
            Some(ChaosSpec {
                intensity: Some(intensity),
                ..
            }) => FaultPlan::generate(self.seed, self.rounds, *intensity),
            Some(chaos) => chaos.rounds.clone(),
            None => FaultPlan::new(),
        }
    }

    /// Whether runs record a drive log that replays.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Trace`] for campaign-mode scenarios (the campaign
    /// runner owns the engine) and `[chaos]` scenarios (rebuilds and armed
    /// faults are not drive operations, so a log cannot replay them).
    pub fn traceable(&self) -> Result<(), ScenarioError> {
        let why = match (self.mode, &self.chaos) {
            (ScenarioMode::Campaign, _) => "campaign-mode scenarios do not record drive traces",
            (_, Some(_)) => "chaos scenarios do not record drive traces",
            (ScenarioMode::Platform, None) => return Ok(()),
        };
        Err(ScenarioError::Trace {
            message: format!("{}: {why}", self.name),
        })
    }

    /// An upper bound on bids any single round can submit: the diurnal
    /// crest plus every burst landing at once.
    pub fn max_round_bids(&self) -> usize {
        let crest = (self.arrival.base * (1.0 + self.arrival.amplitude)).ceil() as usize + 1;
        let burst = self.arrival.bursts as usize * self.arrival.burst_mass as usize;
        crest + burst
    }

    /// The published tasks.
    ///
    /// # Panics
    ///
    /// Never — validation pinned `requirement` to a valid probability.
    pub fn published_tasks(&self) -> Vec<mcs_core::types::Task> {
        use mcs_core::types::{Task, TaskId};
        (0..self.tasks.count as u32)
            .map(|i| {
                Task::with_requirement(TaskId::new(i), self.tasks.requirement)
                    .expect("validated requirement is a valid probability")
            })
            .collect()
    }

    /// Field-by-field range validation.
    fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(schema_error("scenario.name", "must not be empty"));
        }
        if self.rounds == 0 {
            return Err(schema_error("scenario.rounds", "must be at least 1"));
        }
        if self.tasks.count == 0 {
            return Err(schema_error("tasks.count", "must be at least 1"));
        }
        if !(self.tasks.requirement > 0.0 && self.tasks.requirement < 1.0) {
            return Err(schema_error("tasks.requirement", "must lie in (0, 1)"));
        }
        let p = &self.population;
        if p.users == 0 {
            return Err(schema_error("population.users", "must be at least 1"));
        }
        if !(p.cost_min.is_finite() && p.cost_min >= 0.0 && p.cost_max >= p.cost_min) {
            return Err(schema_error(
                "population.cost_min",
                "need 0 ≤ cost_min ≤ cost_max, finite",
            ));
        }
        if !(p.pos_min >= 0.0 && p.pos_max >= p.pos_min && p.pos_max <= 0.95) {
            return Err(schema_error(
                "population.pos_min",
                "need 0 ≤ pos_min ≤ pos_max ≤ 0.95",
            ));
        }
        let a = &self.arrival;
        if !(a.base.is_finite() && a.base > 0.0) {
            return Err(schema_error("arrival.base", "must be positive and finite"));
        }
        if !(0.0..1.0).contains(&a.amplitude) {
            return Err(schema_error("arrival.amplitude", "must lie in [0, 1)"));
        }
        if a.base * (1.0 - a.amplitude) < 1.0 {
            return Err(schema_error(
                "arrival.amplitude",
                "the trough base·(1 − amplitude) must stay ≥ 1 \
                 so every round submits at least one bid",
            ));
        }
        if a.period == 0 {
            return Err(schema_error("arrival.period", "must be at least 1"));
        }
        if !(0.0..1.0).contains(&a.phase) {
            return Err(schema_error("arrival.phase", "must lie in [0, 1)"));
        }
        if a.bursts > 0 && a.burst_width == 0 {
            return Err(schema_error("arrival.burst_width", "must be at least 1"));
        }
        let crest = (a.base * (1.0 + a.amplitude)).ceil() as u64 + 1;
        if crest > p.users as u64 {
            return Err(schema_error(
                "population.users",
                format!("must cover the diurnal crest (≥ {crest})"),
            ));
        }
        if let Some(s) = &self.shocks {
            if s.grid_width == 0 || s.grid_height == 0 {
                return Err(schema_error("shocks.grid_width", "grid must be non-empty"));
            }
            if !(s.multiplier_min >= 0.0
                && s.multiplier_max >= s.multiplier_min
                && s.multiplier_max <= 1.0)
            {
                return Err(schema_error(
                    "shocks.multiplier_min",
                    "need 0 ≤ multiplier_min ≤ multiplier_max ≤ 1",
                ));
            }
            if s.duration_min == 0 || s.duration_max < s.duration_min {
                return Err(schema_error(
                    "shocks.duration_min",
                    "need 1 ≤ duration_min ≤ duration_max",
                ));
            }
            if s.region_width == 0
                || s.region_height == 0
                || s.region_width > s.grid_width
                || s.region_height > s.grid_height
            {
                return Err(schema_error(
                    "shocks.region_width",
                    "regions must be non-empty and fit the grid",
                ));
            }
        }
        if let Some(s) = &self.strategy {
            if s.epsilons.is_empty() {
                return Err(schema_error("strategy.epsilons", "must not be empty"));
            }
            if s.epsilons.iter().any(|&e| !(e > 0.0 && e < 1.0)) {
                return Err(schema_error(
                    "strategy.epsilons",
                    "every ε must lie in (0, 1)",
                ));
            }
            if s.deviators == 0 || s.deviators > p.users {
                return Err(schema_error(
                    "strategy.deviators",
                    "need 1 ≤ deviators ≤ population.users",
                ));
            }
            if self.mode == ScenarioMode::Campaign {
                return Err(schema_error(
                    "strategy",
                    "online SP testing needs per-round quotes; \
                     it runs in platform mode only",
                ));
            }
        }
        if self.engine.workers == 0 || self.engine.payment_threads == 0 {
            return Err(schema_error(
                "engine.workers",
                "workers and payment_threads must be at least 1",
            ));
        }
        if !(self.engine.alpha.is_finite() && self.engine.alpha > 0.0) {
            return Err(schema_error("engine.alpha", "must be positive and finite"));
        }
        if !(self.engine.epsilon > 0.0 && self.engine.epsilon < 1.0) {
            return Err(schema_error("engine.epsilon", "must lie in (0, 1)"));
        }
        if let Some(admission) = &self.admission {
            if admission.low_watermark > admission.high_watermark {
                return Err(schema_error(
                    "admission.low_watermark",
                    "must not exceed high_watermark",
                ));
            }
            if let ShedPolicy::SeededUniform(u) = admission.policy {
                if !(0.0..=1.0).contains(&u.rate) {
                    return Err(schema_error("admission.shed_rate", "must lie in [0, 1]"));
                }
            }
            if self.mode == ScenarioMode::Campaign {
                return Err(schema_error(
                    "admission",
                    "campaign mode sizes its own batches; admission control \
                     applies to platform mode only",
                ));
            }
        }
        match (self.mode, &self.campaign) {
            (ScenarioMode::Campaign, None) => {
                return Err(schema_error(
                    "campaign",
                    "mode = \"campaign\" requires a [campaign] section",
                ));
            }
            (ScenarioMode::Platform, Some(_)) => {
                return Err(schema_error(
                    "campaign",
                    "a [campaign] section requires mode = \"campaign\"",
                ));
            }
            (ScenarioMode::Campaign, Some(c)) => {
                if c.max_rounds == 0 {
                    return Err(schema_error("campaign.max_rounds", "must be at least 1"));
                }
                if !(0.0..=1.0).contains(&c.failure_rate) {
                    return Err(schema_error("campaign.failure_rate", "must lie in [0, 1]"));
                }
            }
            (ScenarioMode::Platform, None) => {}
        }
        if let Some(chaos) = &self.chaos {
            self.validate_chaos(chaos)?;
        }
        Ok(())
    }

    /// `[chaos]` validation: a sane cadence, one plan source, listed rounds
    /// inside the run, no SP twins (chaos splits, drops and panics the
    /// rounds they compare), and in campaign mode only the faults a
    /// campaign round can carry.
    fn validate_chaos(&self, chaos: &ChaosSpec) -> Result<(), ScenarioError> {
        if chaos.drain_every == 0 {
            return Err(schema_error("chaos.drain_every", "must be at least 1"));
        }
        if let Some(intensity) = chaos.intensity {
            if !(0.0..=1.0).contains(&intensity) {
                return Err(schema_error("chaos.intensity", "must lie in [0, 1]"));
            }
            if chaos.rounds.fault_count() > 0 {
                return Err(schema_error(
                    "chaos.intensity",
                    "draw the plan or list [chaos.rounds], not both",
                ));
            }
        }
        if let Some(round) = chaos.rounds.rounds().find(|&round| round >= self.rounds) {
            return Err(schema_error(
                "chaos.rounds",
                format!("round {round} is beyond scenario.rounds"),
            ));
        }
        if self.strategy.is_some() {
            return Err(schema_error(
                "chaos",
                "online SP twins compare one engine round per logical round; \
                 chaos splits, drops and panics rounds",
            ));
        }
        let plan = &chaos.rounds;
        let armable = |fault: &Fault| {
            matches!(
                fault,
                Fault::ShardPanic | Fault::FlipReports | Fault::ReorderPending
            )
        };
        if self.mode == ScenarioMode::Campaign
            && (chaos.intensity.is_some()
                || chaos.drain_every != 1
                || !plan.rounds().flat_map(|r| plan.faults_for(r)).all(armable))
        {
            return Err(schema_error(
                "chaos",
                "campaign rounds drain one at a time and arm only listed \
                 shard-panic, flip-reports and reorder-pending faults",
            ));
        }
        Ok(())
    }
}

fn schema_error(field: &str, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Schema {
        field: field.to_string(),
        message: message.into(),
    }
}

/// A schema cursor over one TOML table: typed getters that mark keys as
/// consumed, so [`Doc::finish`] can reject unknown keys with the full
/// dotted path.
struct Doc<'a> {
    path: String,
    entries: &'a [(String, Value)],
    used: std::cell::RefCell<Vec<bool>>,
}

impl<'a> Doc<'a> {
    fn new(value: &'a Value) -> Result<Doc<'a>, ScenarioError> {
        let entries = value
            .as_map()
            .ok_or_else(|| schema_error("<root>", "document must be a table"))?;
        Ok(Doc {
            path: String::new(),
            entries,
            used: std::cell::RefCell::new(vec![false; entries.len()]),
        })
    }

    fn field(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn get(&self, key: &str) -> Option<&'a Value> {
        let index = self.entries.iter().position(|(k, _)| k == key)?;
        self.used.borrow_mut()[index] = true;
        Some(&self.entries[index].1)
    }

    fn require(&self, key: &str) -> Result<&'a Value, ScenarioError> {
        self.get(key)
            .ok_or_else(|| schema_error(&self.field(key), "missing required field"))
    }

    fn table(&self, key: &str) -> Result<Option<Doc<'a>>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(value) => {
                let entries = value.as_map().ok_or_else(|| {
                    schema_error(&self.field(key), format!("expected a table, got {value:?}"))
                })?;
                Ok(Some(Doc {
                    path: self.field(key),
                    entries,
                    used: std::cell::RefCell::new(vec![false; entries.len()]),
                }))
            }
        }
    }

    fn require_table(&self, key: &str) -> Result<Doc<'a>, ScenarioError> {
        self.table(key)?
            .ok_or_else(|| schema_error(&self.field(key), "missing required section"))
    }

    fn u64(&self, key: &str) -> Result<u64, ScenarioError> {
        match self.require(key)? {
            Value::U64(v) => Ok(*v),
            other => Err(schema_error(
                &self.field(key),
                format!("expected a non-negative integer, got {other:?}"),
            )),
        }
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        match self.get(key) {
            None => Ok(default),
            Some(Value::U64(v)) => Ok(*v),
            Some(other) => Err(schema_error(
                &self.field(key),
                format!("expected a non-negative integer, got {other:?}"),
            )),
        }
    }

    fn coerce_f64(&self, key: &str, value: &Value) -> Result<f64, ScenarioError> {
        match value {
            Value::F64(v) => Ok(*v),
            Value::U64(v) => Ok(*v as f64),
            Value::I64(v) => Ok(*v as f64),
            other => Err(schema_error(
                &self.field(key),
                format!("expected a number, got {other:?}"),
            )),
        }
    }

    fn f64(&self, key: &str) -> Result<f64, ScenarioError> {
        let value = self.require(key)?;
        self.coerce_f64(key, value)
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, ScenarioError> {
        match self.get(key) {
            None => Ok(default),
            Some(value) => self.coerce_f64(key, value),
        }
    }

    /// The array at `key`, each element read by `item`, which returns
    /// `None` for an element that is not `what`.
    fn list<T>(
        &self,
        key: &str,
        what: &str,
        item: impl Fn(&Value) -> Option<T>,
    ) -> Result<Vec<T>, ScenarioError> {
        let value = self.require(key)?;
        let seq = value.as_seq().ok_or_else(|| {
            schema_error(
                &self.field(key),
                format!("expected an array, got {value:?}"),
            )
        })?;
        seq.iter()
            .map(|v| {
                item(v).ok_or_else(|| {
                    schema_error(&self.field(key), format!("expected {what}, got {v:?}"))
                })
            })
            .collect()
    }

    fn string(&self, key: &str) -> Result<String, ScenarioError> {
        match self.require(key)? {
            Value::Str(s) => Ok(s.clone()),
            other => Err(schema_error(
                &self.field(key),
                format!("expected a string, got {other:?}"),
            )),
        }
    }

    fn string_or(&self, key: &str, default: &str) -> Result<String, ScenarioError> {
        match self.get(key) {
            None => Ok(default.to_string()),
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(other) => Err(schema_error(
                &self.field(key),
                format!("expected a string, got {other:?}"),
            )),
        }
    }

    fn finish(&self) -> Result<(), ScenarioError> {
        let used = self.used.borrow();
        for (index, (key, _)) in self.entries.iter().enumerate() {
            if !used[index] {
                return Err(schema_error(
                    &self.field(key),
                    "unknown field (schema is strict; check for typos)",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid platform scenario.
    pub(crate) fn minimal() -> String {
        r#"
[scenario]
schema = 1
name = "unit"
version = 1
seed = 7
rounds = 4

[tasks]
count = 2
requirement = 0.6

[population]
users = 12
cost_min = 1.0
cost_max = 3.0
pos_min = 0.35
pos_max = 0.8

[arrival]
base = 6.0
"#
        .to_string()
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let sc = Scenario::from_toml_str(&minimal()).expect("parses");
        assert_eq!(sc.name, "unit");
        assert_eq!(sc.mode, ScenarioMode::Platform);
        assert_eq!(sc.engine, EngineSpec::default());
        assert!(sc.shocks.is_none() && sc.strategy.is_none());
        assert!(sc.admission.is_none() && sc.baseline.is_none());
        assert_eq!(sc.arrival.amplitude, 0.0);
        assert!(sc.max_round_bids() >= 6);
    }

    #[test]
    fn unknown_fields_and_sections_are_rejected() {
        let doc = minimal() + "\n[arrivalx]\nfoo = 1\n";
        let error = Scenario::from_toml_str(&doc).expect_err("rejects");
        assert!(matches!(error, ScenarioError::Schema { ref field, .. } if field == "arrivalx"));
        let doc = minimal() + "\n[engine]\nworker_count = 2\n";
        let error = Scenario::from_toml_str(&doc).expect_err("rejects");
        assert!(
            matches!(error, ScenarioError::Schema { ref field, .. } if field == "engine.worker_count"),
            "{error}"
        );
    }

    #[test]
    fn range_violations_name_their_field() {
        let cases = [
            ("rounds = 4", "rounds = 0", "scenario.rounds"),
            (
                "requirement = 0.6",
                "requirement = 1.5",
                "tasks.requirement",
            ),
            ("pos_max = 0.8", "pos_max = 0.99", "population.pos_min"),
            ("base = 6.0", "base = -1.0", "arrival.base"),
            ("users = 12", "users = 3", "population.users"),
        ];
        for (from, to, field) in cases {
            let doc = minimal().replace(from, to);
            let error = Scenario::from_toml_str(&doc).expect_err(to);
            assert!(
                matches!(error, ScenarioError::Schema { field: ref f, .. } if f == field),
                "{to}: {error}"
            );
        }
    }

    #[test]
    fn amplitude_trough_must_keep_load() {
        let doc = minimal() + "\n";
        let doc = doc.replace("base = 6.0", "base = 6.0\namplitude = 0.99");
        let error = Scenario::from_toml_str(&doc).expect_err("rejects");
        assert!(
            matches!(error, ScenarioError::Schema { ref field, .. } if field == "arrival.amplitude")
        );
    }

    #[test]
    fn campaign_mode_requires_its_section_and_excludes_strategy() {
        let doc = minimal().replace("rounds = 4", "rounds = 4\nmode = \"campaign\"");
        let error = Scenario::from_toml_str(&doc).expect_err("rejects");
        assert!(matches!(error, ScenarioError::Schema { ref field, .. } if field == "campaign"));

        let doc = minimal().replace("rounds = 4", "rounds = 4\nmode = \"campaign\"")
            + "\n[campaign]\nmax_rounds = 6\n[strategy]\nepsilons = [0.1]\ndeviators = 2\n";
        let error = Scenario::from_toml_str(&doc).expect_err("rejects");
        assert!(matches!(error, ScenarioError::Schema { ref field, .. } if field == "strategy"));
    }

    #[test]
    fn baselines_round_trip_through_their_toml_rendering() {
        let pinned = Baseline {
            fingerprint: 0xDEAD_BEEF_F00D_CAFE,
            rounds_cleared: 12,
            bids_submitted: 96,
            admitted: 90,
            sheds: 4,
            rejections: 2,
            quarantined: 1,
            payment_total_bits: 123.456f64.to_bits(),
            social_cost_total_bits: 78.9f64.to_bits(),
        };
        let doc = minimal() + "\n" + &pinned.to_toml();
        let sc = Scenario::from_toml_str(&doc).expect("parses");
        assert_eq!(sc.baseline, Some(pinned));
        pinned.check("unit", &pinned).expect("identical matches");
        let mut other = pinned;
        other.sheds = 5;
        let error = pinned.check("unit", &other).expect_err("diverges");
        assert!(
            matches!(
                error,
                ScenarioError::BaselineMismatch { field: "sheds", .. }
            ),
            "{error}"
        );
    }

    #[test]
    fn chaos_plans_are_listed_or_drawn_and_validated() {
        let listed = minimal()
            + "\n[chaos]\ndrain_every = 2\n[chaos.rounds]\n\
               1 = [\"shard-panic\", \"delayed-ticks:3\"]\n3 = [\"nan-cost-bid\"]\n";
        let sc = Scenario::from_toml_str(&listed).expect("parses");
        let plan = sc.fault_plan();
        assert_eq!(
            plan.faults_for(1),
            &[Fault::ShardPanic, Fault::DelayedTicks(3)]
        );
        assert_eq!(plan.faults_for(3), &[Fault::NanCostBid]);
        assert_eq!(sc.chaos.as_ref().unwrap().drain_every, 2);
        assert!(matches!(sc.traceable(), Err(ScenarioError::Trace { .. })));

        let drawn = minimal() + "\n[chaos]\nintensity = 1.0\n";
        let sc = Scenario::from_toml_str(&drawn).expect("parses");
        assert_eq!(sc.fault_plan(), FaultPlan::generate(7, 4, 1.0));
        let mut reseeded = sc.clone();
        reseeded.seed = 8;
        assert_eq!(reseeded.fault_plan(), FaultPlan::generate(8, 4, 1.0));
        assert_eq!(sc.chaos.as_ref().unwrap().drain_every, 1);
        assert!(Scenario::from_toml_str(&minimal())
            .unwrap()
            .traceable()
            .is_ok());

        let campaign = |chaos: &str| {
            minimal().replace("rounds = 4", "rounds = 4\nmode = \"campaign\"")
                + "\n[campaign]\nmax_rounds = 6\n"
                + chaos
        };
        let ok = campaign("[chaos.rounds]\n1 = [\"flip-reports\", \"reorder-pending\"]\n");
        assert!(Scenario::from_toml_str(&ok).is_ok());
        let cases = [
            (listed.replace("shard-panic", "node-loss"), "chaos.rounds.1"),
            (listed.replace("3 = ", "4 = "), "chaos.rounds"),
            (
                listed.replace("drain_every = 2", "drain_every = 0"),
                "chaos.drain_every",
            ),
            (drawn.replace("1.0", "1.5"), "chaos.intensity"),
            (
                listed.replace("drain_every = 2", "intensity = 0.5"),
                "chaos.intensity",
            ),
            (
                drawn.clone() + "[strategy]\nepsilons = [0.1]\ndeviators = 2\n",
                "chaos",
            ),
            (campaign("[chaos]\nintensity = 0.5\n"), "chaos"),
            (
                campaign("[chaos.rounds]\n1 = [\"nan-cost-bid\"]\n"),
                "chaos",
            ),
        ];
        for (doc, field) in cases {
            let error = Scenario::from_toml_str(&doc).expect_err(field);
            assert!(
                matches!(error, ScenarioError::Schema { field: ref f, .. } if f == field),
                "{field}: {error}"
            );
        }
    }

    #[test]
    fn admission_policies_parse_both_spellings() {
        let doc = minimal() + "\n[admission]\nhigh_watermark = 10\n";
        let sc = Scenario::from_toml_str(&doc).expect("parses");
        let admission = sc.admission.expect("present");
        assert_eq!(admission.policy, ShedPolicy::TailDrop);
        assert_eq!(admission.low_watermark, 5);

        let doc = minimal()
            + "\n[admission]\nhigh_watermark = 10\npolicy = \"seeded-uniform\"\nshed_rate = 0.2\n";
        let sc = Scenario::from_toml_str(&doc).expect("parses");
        match sc.admission.expect("present").policy {
            ShedPolicy::SeededUniform(u) => {
                assert_eq!(u.rate, 0.2);
                assert_eq!(u.seed, 7);
            }
            other => panic!("wrong policy {other:?}"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::Scenario;

    /// The minimal platform scenario, parsed — shared by cross-module
    /// driver and oracle tests.
    pub(crate) fn minimal_scenario() -> Scenario {
        Scenario::from_toml_str(&super::tests::minimal()).expect("minimal fixture parses")
    }
}
