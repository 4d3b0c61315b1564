//! Core domain types: identifiers, probabilities, costs, tasks, user types,
//! and validated auction instances.
//!
//! Everything in this module is a *value* type: cheap to clone, fully
//! validated at the boundary, and serializable so experiment configurations
//! and recorded instances round-trip through JSON.

mod cost;
mod ids;
pub(crate) mod order;
mod probability;
mod profile;
mod task;
mod user;

pub use self::cost::Cost;
pub use self::ids::{TaskId, UserId};
pub use self::probability::{Contribution, Pos, CONTRIBUTION_TOLERANCE};
pub use self::profile::TypeProfile;
pub use self::task::Task;
pub use self::user::{UserType, UserTypeBuilder};
