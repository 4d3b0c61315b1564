//! The single-task mechanism (paper Section III-B).
//!
//! One task, requirement `T`; users bid `(c_i, p_i)`. Winner determination
//! is a minimum-knapsack FPTAS ([`FptasWinnerDetermination`], Algorithm 2);
//! rewards are critical-bid based and execution contingent
//! ([`SingleTaskMechanism`], Algorithm 3). A round is prepared once
//! ([`AllocatedRound`]): its base run and every critical-bid probe share
//! one flat DP table. [`critical_contribution`] is the clone-and-rerun
//! search against any monotone winner determination, kept as the
//! reference the prepared probes are tested against.

mod mechanism;
mod reward;
mod round;
mod winner;

pub use self::mechanism::SingleTaskMechanism;
pub use self::reward::critical_contribution;
pub use self::round::{AllocatedRound, MAX_DP_LEVELS};
pub use self::winner::FptasWinnerDetermination;
