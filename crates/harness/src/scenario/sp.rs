//! Online strategy-proofness: the twin-run oracle.
//!
//! The offline checks in `mcs_core::analysis` re-run the *mechanism* on
//! a profile and its misreports. This oracle tests the claim where it
//! actually matters — against the live platform: a truthful run and a
//! deviating run execute in lockstep (same seed, same arrivals, same
//! shocks, same execution draws), differing only in the one scheduled
//! deviator's declared PoS vector per round. For every played deviation
//! the oracle compares the deviator's *expected utility under her true
//! type* across the twins:
//!
//! ```text
//! EU(run) = p_any · success + (1 − p_any) · failure − cost   (0 if she lost)
//! ```
//!
//! with `p_any` her *believed* truth (the unshocked declaration — the
//! type the paper's Theorem quantifies over; regional weather she
//! cannot observe is environment, not type) and the quotes taken from
//! whichever rewards the engine actually issued in each run. The
//! mechanism is strategy-proof iff no deviation's utility exceeds the
//! truthful twin's beyond tolerance.
//!
//! The decision itself lives in [`deviation_gain`], a pure function of
//! the two quotes and the true type — so a test can hand it a doctored
//! quote and watch the oracle trip, proving the assertion has teeth.

use std::fmt;

use mcs_core::analysis::expected_utility_from_quotes;
use mcs_core::types::UserId;
use mcs_platform::batch::RoundId;

use super::driver::{run_scenario_with, RunOptions, ScenarioOutcome};
use super::population::Deviation;
use super::spec::{Scenario, ScenarioMode};
use super::ScenarioError;

/// A profitable live deviation — the online SP oracle tripping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpViolation {
    /// The round the deviation was played in.
    pub round: u64,
    /// The deviating user.
    pub user: u32,
    /// The PoS scaling factor she played.
    pub factor: f64,
    /// Her expected utility in the truthful twin.
    pub truthful_utility: f64,
    /// Her expected utility under the deviation.
    pub deviating_utility: f64,
}

impl SpViolation {
    /// How much the deviation gained.
    pub fn gain(&self) -> f64 {
        self.deviating_utility - self.truthful_utility
    }
}

impl fmt::Display for SpViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "round {} user u{}: factor {} gains {} ({} truthful vs {} deviating)",
            self.round,
            self.user,
            self.factor,
            self.gain(),
            self.truthful_utility,
            self.deviating_utility
        )
    }
}

/// The pure SP decision: expected utilities of the truthful and
/// deviating twin given the quotes each run issued (or `None` where she
/// lost), evaluated at her true type. Returns `Some((truthful,
/// deviating))` iff the deviation profits beyond `tolerance`.
///
/// Kept quote-shaped (`(success, failure)` pairs) rather than
/// engine-shaped so the mutation-check test can feed it a deliberately
/// sweetened quote and assert the oracle trips.
pub fn deviation_gain(
    truthful_quote: Option<(f64, f64)>,
    deviating_quote: Option<(f64, f64)>,
    true_any: f64,
    true_cost: f64,
    tolerance: f64,
) -> Option<(f64, f64)> {
    let utility = |quote: Option<(f64, f64)>| match quote {
        Some((success, failure)) => {
            expected_utility_from_quotes(true_any, success, failure, true_cost)
        }
        None => 0.0,
    };
    let truthful = utility(truthful_quote);
    let deviating = utility(deviating_quote);
    (deviating > truthful + tolerance).then_some((truthful, deviating))
}

/// The outcome of one online SP sweep.
#[derive(Debug)]
pub struct SpReport {
    /// Deviations played and compared.
    pub checked: u64,
    /// Every profitable deviation found (empty = the mechanism held).
    pub violations: Vec<SpViolation>,
    /// The truthful twin's full outcome.
    pub truthful: ScenarioOutcome,
    /// The deviating twin's full outcome.
    pub deviating: ScenarioOutcome,
}

impl SpReport {
    /// Whether the mechanism survived the sweep.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The quote a run issued to `user` in `round`, if she won.
fn issued_quote(outcome: &ScenarioOutcome, round: u64, user: u32) -> Option<(f64, f64)> {
    outcome
        .drive
        .results
        .get(&RoundId(round))
        .and_then(|r| r.quotes.get(&UserId::new(user)))
        .map(|q| (q.success, q.failure))
}

/// Extracts the oracle verdict for one played deviation from the two
/// twin outcomes.
pub(crate) fn check_deviation(
    truthful: &ScenarioOutcome,
    deviating: &ScenarioOutcome,
    deviation: &Deviation,
    tolerance: f64,
) -> Option<SpViolation> {
    let truthful_quote = issued_quote(truthful, deviation.round, deviation.user);
    let deviating_quote = issued_quote(deviating, deviation.round, deviation.user);
    deviation_gain(
        truthful_quote,
        deviating_quote,
        deviation.believed_any,
        deviation.true_cost,
        tolerance,
    )
    .map(|(truthful_utility, deviating_utility)| SpViolation {
        round: deviation.round,
        user: deviation.user,
        factor: deviation.factor,
        truthful_utility,
        deviating_utility,
    })
}

/// Runs the truthful and deviating twins of `scenario` and checks every
/// played deviation. `tolerance` bounds acceptable utility noise
/// (quote round-off); `1e-6` matches the round oracles.
///
/// # Errors
///
/// [`ScenarioError::Schema`] if the scenario has no `[strategy]`
/// section or is not in platform mode; otherwise whatever the runs
/// produce.
pub fn check_online_sp(scenario: &Scenario, tolerance: f64) -> Result<SpReport, ScenarioError> {
    if scenario.mode != ScenarioMode::Platform || scenario.strategy.is_none() {
        return Err(ScenarioError::Schema {
            field: "strategy".to_string(),
            message: "online SP testing needs a platform-mode scenario \
                      with a [strategy] section"
                .to_string(),
        });
    }
    let truthful = run_scenario_with(
        scenario,
        &RunOptions {
            deviate: false,
            ..RunOptions::default()
        },
    )?;
    let deviating = run_scenario_with(
        scenario,
        &RunOptions {
            deviate: true,
            ..RunOptions::default()
        },
    )?;
    let mut violations = Vec::new();
    let mut checked = 0u64;
    for deviation in &deviating.deviations {
        checked += 1;
        if let Some(violation) = check_deviation(&truthful, &deviating, deviation, tolerance) {
            violations.push(violation);
        }
    }
    Ok(SpReport {
        checked,
        violations,
        truthful,
        deviating,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winning_twice_at_the_same_quote_never_trips() {
        // Critical-value payments are declaration-independent on the
        // winning side, so identical quotes must never profit.
        let quote = Some((12.0, 2.0));
        assert_eq!(deviation_gain(quote, quote, 0.7, 1.5, 1e-6), None);
    }

    #[test]
    fn losing_when_truth_would_win_profitably_never_trips() {
        // Deviating out of a profitable win loses utility; fine.
        assert_eq!(
            deviation_gain(Some((12.0, 2.0)), None, 0.7, 1.5, 1e-6),
            None
        );
    }

    #[test]
    fn a_sweetened_quote_trips_the_oracle() {
        // The mutation check: if the engine ever quoted a deviator more
        // than her truthful twin, the oracle MUST notice.
        let truthful = Some((12.0, 2.0));
        let sweetened = Some((13.0, 3.0));
        let (t, d) = deviation_gain(truthful, sweetened, 0.7, 1.5, 1e-6).expect("must trip");
        assert!(d > t);
        assert!((d - t - 1.0).abs() < 1e-12, "gain is the quote bump");
    }

    #[test]
    fn winning_only_by_overbidding_into_a_loss_makes_deviation_positive_only_if_quote_pays() {
        // Truthful lost (EU 0); deviation won at a quote that covers the
        // cost in expectation — that WOULD be a violation, and the
        // oracle must say so.
        let violation = deviation_gain(None, Some((20.0, 10.0)), 0.5, 2.0, 1e-6);
        let (t, d) = violation.expect("profitable win from nothing must trip");
        assert_eq!(t, 0.0);
        assert!(d > 0.0);
        // ...whereas winning at a quote below cost is a loss, not a win.
        assert_eq!(deviation_gain(None, Some((2.0, 0.5)), 0.5, 2.0, 1e-6), None);
    }
}
