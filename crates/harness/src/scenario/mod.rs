//! Scenario corpus & trace replay: adversarial, non-i.i.d. load with
//! online strategy-proofness testing.
//!
//! Real deployments fail in structured ways: load is diurnal and bursty,
//! probabilities of success are spatially correlated (weather over a
//! district), bidders probe the mechanism with live misreports, and the
//! platform itself meets malformed bids, worker panics and crashes. This
//! module packages those worlds as *scenarios* — named, versioned,
//! pinned-seed TOML files under the repository's `scenarios/` tree — and
//! runs them through a real
//! [`Engine`](mcs_platform::engine::Engine) with these oracles on top of
//! the drive's per-round checks:
//!
//! * **Arrival curves** ([`arrival`]) — a deterministic diurnal sinusoid
//!   plus seeded bursts with exactly conserved integer mass, feeding the
//!   bounded-admission layer.
//! * **Correlated PoS shocks** ([`shock`]) — seeded "weather" events
//!   keyed on [`Region`](mcs_mobility::grid::Region)s of a
//!   [`CityGrid`](mcs_mobility::grid::CityGrid): every user homed inside
//!   a shocked region has her *true* execution probability multiplied
//!   down for the event's window while her declaration is untouched.
//! * **Strategic populations** ([`population`]) — live replays of the
//!   [`misreport_factor_grid`](mcs_core::analysis::misreport_factor_grid)
//!   deviations against the engine, one unilateral deviation per round,
//!   with a truthful twin run in lockstep and an online
//!   strategy-proofness oracle ([`sp`]) asserting no deviator's expected
//!   utility under her true type beats her truthful twin's.
//! * **Chaos** (`[chaos]`) — a [`FaultPlan`](crate::plan::FaultPlan),
//!   drawn from the seed at an intensity or listed round by round, armed
//!   on the run: malformed bids, delayed ticks, infeasible rounds, shard
//!   panics, flipped reports, queue reorders and mid-run rebuilds, with
//!   multi-round drains. Campaign-mode scenarios arm the shard, settle
//!   and reorder faults on campaign rounds.
//! * **Trace replay** ([`driver`]) — every platform run without `[chaos]`
//!   records a checksummed [`ReplayLog`](mcs_obs::replay::ReplayLog) of
//!   engine drive operations that replays bit-exactly: same fingerprint,
//!   same economics, byte for byte.
//!
//! Each shipped scenario pins a `[baseline]` block (fingerprint plus
//! economics totals as bit-exact integers). Editing a scenario without
//! re-pinning its baseline in the same change is a CI failure, so the
//! corpus can never drift silently.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod arrival;
pub mod driver;
pub mod population;
pub mod shock;
pub mod spec;
pub mod toml;

pub use arrival::ArrivalCurve;
pub use driver::{replay_scenario, run_scenario, run_scenario_with, RunOptions, ScenarioOutcome};
pub use population::{Deviation, Population, RoundPopulation};
pub use shock::{ShockEvent, ShockField};
pub use spec::{Baseline, ChaosSpec, Scenario, ScenarioMode};
pub use toml::TomlError;

pub mod sp;
pub use sp::{check_online_sp, deviation_gain, SpReport, SpViolation};

/// Everything that can go wrong loading, validating, or replaying a
/// scenario. Every variant is a *typed* error: corpus problems surface
/// as diagnostics, never as panics.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error, rendered.
        message: String,
    },
    /// The file is not valid scenario TOML.
    Toml {
        /// 1-based line of the offending input.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The TOML parsed but violates the scenario schema.
    Schema {
        /// Dotted path of the offending field (e.g. `arrival.base`).
        field: String,
        /// Why it was rejected.
        message: String,
    },
    /// A name was requested that the corpus does not contain.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// The corpus directory searched.
        dir: String,
    },
    /// The scenario ships no `[baseline]` block but one was required
    /// (CI refuses corpus entries without a pinned baseline).
    MissingBaseline {
        /// The offending scenario.
        name: String,
    },
    /// The run diverged from the scenario's pinned baseline.
    BaselineMismatch {
        /// The offending scenario.
        name: String,
        /// Which baseline field diverged.
        field: &'static str,
        /// The pinned value.
        expected: String,
        /// The observed value.
        actual: String,
    },
    /// A trace could not be recorded or replayed against this scenario.
    Trace {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io { path, message } => write!(f, "{path}: {message}"),
            ScenarioError::Toml { line, message } => write!(f, "line {line}: {message}"),
            ScenarioError::Schema { field, message } => write!(f, "{field}: {message}"),
            ScenarioError::UnknownScenario { name, dir } => {
                write!(f, "unknown scenario {name:?} (searched {dir})")
            }
            ScenarioError::MissingBaseline { name } => write!(
                f,
                "scenario {name:?} has no [baseline] block; run \
                 `mcs-fuzz --scenario {name} --print-baseline` and commit it"
            ),
            ScenarioError::BaselineMismatch {
                name,
                field,
                expected,
                actual,
            } => write!(
                f,
                "scenario {name:?} diverged from its pinned baseline: \
                 {field} expected {expected}, got {actual} (a deliberate \
                 change must re-pin the baseline in the same commit)"
            ),
            ScenarioError::Trace { message } => write!(f, "trace: {message}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TomlError> for ScenarioError {
    fn from(error: TomlError) -> Self {
        ScenarioError::Toml {
            line: error.line,
            message: error.message,
        }
    }
}

/// The directory holding the shipped scenario corpus: `scenarios/` under
/// the current directory if present (running from the repository root),
/// else resolved relative to this crate's manifest (running under
/// `cargo test`).
pub fn corpus_dir() -> PathBuf {
    let local = Path::new("scenarios");
    if local.is_dir() {
        return local.to_path_buf();
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Every `*.toml` file in the corpus, sorted by file name so sweeps are
/// deterministic.
///
/// # Errors
///
/// [`ScenarioError::Io`] if the corpus directory cannot be listed.
pub fn corpus_paths() -> Result<Vec<PathBuf>, ScenarioError> {
    let dir = corpus_dir();
    let entries = std::fs::read_dir(&dir).map_err(|e| ScenarioError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Loads a scenario by corpus name or explicit path: anything containing
/// a path separator or ending in `.toml` is treated as a path; a bare
/// name resolves to `<corpus>/<name>.toml`.
///
/// # Errors
///
/// [`ScenarioError::UnknownScenario`] for a bare name not in the corpus;
/// otherwise whatever loading the file produces.
pub fn load(name_or_path: &str) -> Result<Scenario, ScenarioError> {
    let is_path = name_or_path.contains('/') || name_or_path.ends_with(".toml");
    if is_path {
        return Scenario::load(Path::new(name_or_path));
    }
    let dir = corpus_dir();
    let path = dir.join(format!("{name_or_path}.toml"));
    if !path.is_file() {
        return Err(ScenarioError::UnknownScenario {
            name: name_or_path.to_string(),
            dir: dir.display().to_string(),
        });
    }
    Scenario::load(&path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_for_humans() {
        let cases: Vec<(ScenarioError, &str)> = vec![
            (
                ScenarioError::Io {
                    path: "x.toml".into(),
                    message: "gone".into(),
                },
                "x.toml",
            ),
            (
                ScenarioError::Toml {
                    line: 7,
                    message: "bad".into(),
                },
                "line 7",
            ),
            (
                ScenarioError::Schema {
                    field: "arrival.base".into(),
                    message: "must be positive".into(),
                },
                "arrival.base",
            ),
            (
                ScenarioError::UnknownScenario {
                    name: "nope".into(),
                    dir: "scenarios".into(),
                },
                "unknown scenario",
            ),
            (
                ScenarioError::MissingBaseline { name: "x".into() },
                "--print-baseline",
            ),
            (
                ScenarioError::BaselineMismatch {
                    name: "x".into(),
                    field: "fingerprint",
                    expected: "1".into(),
                    actual: "2".into(),
                },
                "re-pin",
            ),
            (
                ScenarioError::Trace {
                    message: "seed mismatch".into(),
                },
                "trace",
            ),
        ];
        for (error, needle) in cases {
            let rendered = error.to_string();
            assert!(rendered.contains(needle), "{rendered:?} vs {needle:?}");
        }
    }

    #[test]
    fn unit_draws_are_deterministic_and_in_range() {
        use mcs_obs::digest::unit;
        for i in 0..100 {
            let draw = unit(42, i, i * 3);
            assert!((0.0..1.0).contains(&draw));
            assert_eq!(draw.to_bits(), unit(42, i, i * 3).to_bits());
        }
    }
}
