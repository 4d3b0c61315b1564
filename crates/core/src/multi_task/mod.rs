//! The multi-task, single-minded mechanism (paper Section III-C).
//!
//! Many tasks, each with its own PoS requirement; single-minded users bid a
//! task set, a per-task PoS vector, and one cost for the whole set. Winner
//! determination is the greedy submodular set cover
//! ([`GreedyWinnerDetermination`], Algorithm 4); rewards come from
//! per-iteration critical bids on a rerun without the winner
//! ([`MultiTaskMechanism`], Algorithm 5).

mod mechanism;
pub mod reference;
mod reward;
mod winner;

pub use self::mechanism::{AllocatedRound, MultiTaskMechanism};
pub(crate) use self::reward::COVERAGE_MARGIN;
pub use self::reward::{algorithm5_critical_contribution, critical_contribution, critical_pos};
pub use self::winner::{GreedyIteration, GreedyRun, GreedyWinnerDetermination};
