//! Bounded admission: the type-blind overload valve in front of ingest.
//!
//! [`AdmissionController`] decides, per arriving bid, whether the engine
//! accepts it for validation or sheds it. The decision is a pure
//! function of `(AdmissionConfig, arrival sequence, backlog depth)` —
//! the bid itself is **never** inspected. That blindness is a mechanism
//! property, not an implementation shortcut: a shedder that read the
//! declared cost or PoS would give users a new lever (shade your report
//! to dodge the drop), reopening exactly the manipulation channel the
//! critical-bid payments close. See DESIGN.md §10.
//!
//! Because the controller is pure and self-contained, the chaos
//! harness runs a second instance in lockstep with the engine's and
//! cross-checks every decision — the shed-determinism oracle.

use mcs_obs::digest::unit;

use crate::config::{AdmissionConfig, ShedPolicy};

/// Why a bid was shed. Carries the backlog depth observed at the
/// decision for the trace event; never anything from the bid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The backlog was over the watermark under [`ShedPolicy::TailDrop`].
    TailDrop {
        /// Backlog depth (in bids) when the bid arrived.
        backlog: usize,
    },
    /// The seeded coin came up "drop" under
    /// [`ShedPolicy::SeededUniform`].
    SeededCoin {
        /// Backlog depth (in bids) when the bid arrived.
        backlog: usize,
    },
}

impl ShedReason {
    /// Dense reason code, as carried in [`BidShed`] trace events.
    ///
    /// [`BidShed`]: mcs_obs::EventKind::BidShed
    pub fn code(self) -> u64 {
        match self {
            ShedReason::TailDrop { .. } => 0,
            ShedReason::SeededCoin { .. } => 1,
        }
    }

    /// The backlog depth observed when the decision was made.
    pub fn backlog(self) -> usize {
        match self {
            ShedReason::TailDrop { backlog } | ShedReason::SeededCoin { backlog } => backlog,
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::TailDrop { backlog } => {
                write!(f, "tail-dropped at backlog {backlog}")
            }
            ShedReason::SeededCoin { backlog } => {
                write!(f, "shed by seeded coin at backlog {backlog}")
            }
        }
    }
}

/// What [`Engine::submit`](crate::engine::Engine::submit) did with a bid
/// that did not fail validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The bid passed admission control and validation and joined the
    /// open round.
    Admitted,
    /// Admission control dropped the bid before validation.
    Shed(ShedReason),
}

impl Admission {
    /// Whether the bid actually joined the open round.
    pub fn is_admitted(self) -> bool {
        matches!(self, Admission::Admitted)
    }

    /// The shed reason, if the bid was shed.
    pub fn shed_reason(self) -> Option<ShedReason> {
        match self {
            Admission::Admitted => None,
            Admission::Shed(reason) => Some(reason),
        }
    }
}

/// Hysteresis state machine deciding admission per arriving bid.
///
/// Stateful only in ways that are themselves deterministic functions of
/// the arrival stream: the engaged flag and the arrival counter. Two
/// controllers with the same config fed the same backlog sequence make
/// bitwise-identical decisions.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    engaged: bool,
    arrivals: u64,
}

impl AdmissionController {
    /// A controller in the disengaged state.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            engaged: false,
            arrivals: 0,
        }
    }

    /// Whether shedding is currently engaged.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// Bids seen so far (admitted, shed, or later rejected alike).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Decides admission for the next arriving bid, given the engine's
    /// current backlog in bids. Returns the bid's arrival sequence
    /// number and the decision.
    ///
    /// Shedding engages when `backlog >= high_watermark` and disengages
    /// when `backlog <= low_watermark`; while engaged the configured
    /// [`ShedPolicy`] decides. Under [`ShedPolicy::TailDrop`] the check
    /// runs *before* the bid is enqueued, so the backlog can never
    /// exceed the high watermark — the memory bound the soak tests
    /// assert.
    pub fn admit(&mut self, backlog: usize) -> (u64, Admission) {
        let arrival = self.arrivals;
        self.arrivals += 1;
        if !self.config.is_enabled() {
            return (arrival, Admission::Admitted);
        }
        if self.engaged {
            if backlog <= self.config.low_watermark {
                self.engaged = false;
            }
        } else if backlog >= self.config.high_watermark {
            self.engaged = true;
        }
        if !self.engaged {
            return (arrival, Admission::Admitted);
        }
        let decision = match self.config.policy {
            ShedPolicy::TailDrop => Admission::Shed(ShedReason::TailDrop { backlog }),
            ShedPolicy::SeededUniform(uniform_policy) => {
                // The seeded coin keyed on (policy seed, arrival
                // sequence): the top 53 bits of its mix, in [0, 1).
                let uniform = unit(uniform_policy.seed, arrival, 0);
                if uniform < uniform_policy.rate {
                    Admission::Shed(ShedReason::SeededCoin { backlog })
                } else {
                    Admission::Admitted
                }
            }
        };
        (arrival, decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeededUniform;

    fn tail_drop(high: usize, low: usize) -> AdmissionConfig {
        AdmissionConfig {
            high_watermark: high,
            low_watermark: low,
            policy: ShedPolicy::TailDrop,
            clear_budget: 0,
        }
    }

    #[test]
    fn disabled_config_admits_everything() {
        let mut controller = AdmissionController::new(AdmissionConfig::default());
        for backlog in [0, 10, 1_000_000] {
            let (_, decision) = controller.admit(backlog);
            assert!(decision.is_admitted());
        }
        assert_eq!(controller.arrivals(), 3);
    }

    #[test]
    fn tail_drop_engages_at_high_and_disengages_at_low() {
        let mut controller = AdmissionController::new(tail_drop(8, 2));
        assert!(controller.admit(7).1.is_admitted());
        assert!(!controller.engaged());
        // Hits the high watermark: engage and shed this very bid.
        let (_, decision) = controller.admit(8);
        assert_eq!(
            decision.shed_reason(),
            Some(ShedReason::TailDrop { backlog: 8 })
        );
        assert!(controller.engaged());
        // Still over the low watermark: keep shedding (hysteresis).
        assert!(!controller.admit(5).1.is_admitted());
        // Back at the low watermark: disengage and admit again.
        assert!(controller.admit(2).1.is_admitted());
        assert!(!controller.engaged());
    }

    #[test]
    fn seeded_coin_is_deterministic_and_type_blind() {
        let config = AdmissionConfig {
            high_watermark: 1,
            low_watermark: 0,
            policy: ShedPolicy::SeededUniform(SeededUniform {
                seed: 42,
                rate: 0.5,
            }),
            clear_budget: 0,
        };
        let run = |backlogs: &[usize]| {
            let mut controller = AdmissionController::new(config);
            backlogs
                .iter()
                .map(|&b| controller.admit(b).1.is_admitted())
                .collect::<Vec<_>>()
        };
        let backlogs: Vec<usize> = (1..64).collect();
        let first = run(&backlogs);
        assert_eq!(first, run(&backlogs), "same stream, same decisions");
        assert!(first.iter().any(|&admitted| admitted));
        assert!(first.iter().any(|&admitted| !admitted));
    }

    #[test]
    fn seeded_rate_extremes_shed_none_or_all() {
        for (rate, expect_admit) in [(0.0, true), (1.1, false)] {
            let mut controller = AdmissionController::new(AdmissionConfig {
                high_watermark: 1,
                low_watermark: 0,
                policy: ShedPolicy::SeededUniform(SeededUniform { seed: 7, rate }),
                clear_budget: 0,
            });
            for _ in 0..32 {
                assert_eq!(controller.admit(3).1.is_admitted(), expect_admit);
            }
        }
    }

    #[test]
    fn reason_codes_and_display_are_stable() {
        let tail = ShedReason::TailDrop { backlog: 4 };
        let chance = ShedReason::SeededCoin { backlog: 9 };
        assert_eq!(tail.code(), 0);
        assert_eq!(chance.code(), 1);
        assert_eq!(tail.backlog(), 4);
        assert_eq!(chance.backlog(), 9);
        assert_eq!(tail.to_string(), "tail-dropped at backlog 4");
        assert_eq!(chance.to_string(), "shed by seeded coin at backlog 9");
        assert_eq!(Admission::Shed(tail).shed_reason(), Some(tail));
        assert_eq!(Admission::Admitted.shed_reason(), None);
    }
}
