//! # mcs-campaign — the closed-loop campaign engine
//!
//! The platform crate clears one auction round at a time and forgets
//! the outcome; the paper's setting is a *campaign*: a quality target
//! per task that survives execution failures. This crate closes that
//! loop over the existing engine in three stages:
//!
//! 1. **Outcome feedback** ([`history`]) — every settled round's
//!    per-user execution outcomes (now carried on
//!    [`RoundSettlement`](mcs_platform::prelude::RoundSettlement)) feed
//!    a [`SuccessHistory`](history::SuccessHistory).
//! 2. **PoS calibration** ([`calibrate`]) — declared success
//!    probabilities are blended with a Laplace-smoothed posterior over
//!    that history (and, in mobility mode, with
//!    [`mcs_mobility::serve::VisitOracle`] visit predictions). The
//!    calibrated value only *gates admission*; payments still quote
//!    against declarations, preserving the paper's truthfulness
//!    analysis. The divergence is exported as a metric.
//! 3. **Residual re-auction** ([`residual`], [`runner`]) — after
//!    settlement the uncovered remainder `Q_j' = Q_j − Σ q_i` over
//!    successful executions is re-published as a restricted round,
//!    until full coverage or the campaign budget runs out.
//!
//! Campaign outcomes are bitwise-deterministic across worker and
//! payment-thread counts; [`CampaignReport::fingerprint`](runner::CampaignReport::fingerprint)
//! is the digest the chaos harness and CI pin.
//!
//! The chaos harness (`mcs-harness`) runs these campaigns as
//! campaign-mode corpus scenarios, chaos faults included
//! (`scenarios/chaos-campaign.toml`), against its closed-loop oracles.
//!
//! ## Example
//!
//! ```
//! use mcs_campaign::prelude::*;
//! use mcs_core::types::{Task, TaskId};
//! use mcs_platform::prelude::EngineConfig;
//!
//! let tasks = vec![
//!     Task::with_requirement(TaskId::new(0), 0.9).unwrap(),
//!     Task::with_requirement(TaskId::new(1), 0.85).unwrap(),
//! ];
//! let mut config = CampaignConfig::new(EngineConfig::default().with_seed(42), tasks, 16);
//! config.failure_rate = 0.3; // 30% of successes are downgraded
//! config.failure_seed = 7;
//! let runner = CampaignRunner::new(config);
//! let mut source = SyntheticBidSource::new(42, 10);
//! let report = runner.run(&mut source);
//! assert!(report.covered); // residual re-auctions closed the gap
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod history;
pub mod inject;
pub mod metrics;
pub mod residual;
pub mod runner;
pub mod source;

/// The API most campaign drivers need.
pub mod prelude {
    pub use crate::calibrate::{
        CalibrationDecision, CalibrationMode, CalibratorConfig, PosCalibrator,
    };
    pub use crate::history::{SuccessHistory, UserRecord};
    pub use crate::inject::FailureInjector;
    pub use crate::metrics::{CampaignMetrics, RoundEcon};
    pub use crate::residual::ResidualTracker;
    pub use crate::runner::{CampaignConfig, CampaignReport, CampaignRoundRecord, CampaignRunner};
    pub use crate::source::{BidSource, FnBidSource, SyntheticBidSource};
}
