//! Error types for the `mcs-core` crate.

use std::fmt;

use crate::types::{TaskId, UserId};

/// The error type returned by fallible operations in this crate.
///
/// Every public function that can fail returns [`Result<T, McsError>`].
/// The variants are deliberately fine-grained so that callers (for example
/// the simulation harness) can distinguish "the instance is infeasible"
/// from "the input was malformed".
#[derive(Debug, Clone, PartialEq)]
pub enum McsError {
    /// A probability was outside the half-open interval `[0, 1)`.
    ///
    /// Probabilities of success must be strictly below 1 because the
    /// contribution transform `q = -ln(1 - p)` diverges at `p = 1`.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// A cost was negative, NaN, or infinite.
    InvalidCost {
        /// The offending value.
        value: f64,
    },
    /// A contribution was negative, NaN, or infinite.
    InvalidContribution {
        /// The offending value.
        value: f64,
    },
    /// The FPTAS approximation parameter `ε` was not a finite positive number.
    InvalidEpsilon {
        /// The offending value.
        value: f64,
    },
    /// A profile contained no users.
    EmptyUsers,
    /// A profile contained no tasks.
    EmptyTasks,
    /// A user declared a task outside the platform's task list.
    UnknownTask {
        /// The user whose declaration was invalid.
        user: UserId,
        /// The undeclared task she referenced.
        task: TaskId,
    },
    /// Two users (or two tasks) in one profile share an identifier.
    DuplicateUser {
        /// The repeated identifier.
        user: UserId,
    },
    /// Two tasks in one profile share an identifier.
    DuplicateTask {
        /// The repeated identifier.
        task: TaskId,
    },
    /// A user declared an empty task set.
    EmptyTaskSet {
        /// The user with no tasks.
        user: UserId,
    },
    /// Even recruiting *all* users cannot meet some task's PoS requirement.
    Infeasible {
        /// The first task whose contribution requirement cannot be met.
        task: TaskId,
    },
    /// A user id was looked up that does not exist in the profile.
    NoSuchUser {
        /// The missing identifier.
        user: UserId,
    },
    /// A task id was looked up that does not exist in the profile.
    NoSuchTask {
        /// The missing identifier.
        task: TaskId,
    },
    /// A reward was requested for a user that the allocation did not select.
    NotAWinner {
        /// The non-winning user.
        user: UserId,
    },
    /// An operation that requires a single-task profile received a
    /// multi-task profile.
    NotSingleTask {
        /// How many tasks the profile actually has.
        tasks: usize,
    },
    /// The exact optimal solver exceeded its node budget.
    ///
    /// Branch-and-bound is exponential in the worst case; callers give it a
    /// node budget and receive this error instead of an unbounded hang.
    SearchBudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// An FPTAS subproblem's scaled cost levels exceed
    /// [`MAX_DP_LEVELS`](crate::single_task::MAX_DP_LEVELS): `ε` is too
    /// fine for the round's costs to be solved in bounded memory.
    DpLevelsExceeded {
        /// The subproblem's level total, saturated at `u64::MAX` when it
        /// overflows.
        levels: u64,
    },
    /// A reward scaling factor `α` was not a finite non-negative number.
    InvalidAlpha {
        /// The offending value.
        value: f64,
    },
    /// A bisection probe inside a critical-bid search failed with an error
    /// other than [`McsError::Infeasible`] (which just means "loses").
    ///
    /// The wrapped source error alone does not say *whose* payment was
    /// being computed; platform quarantine logs need the probed user id to
    /// be actionable.
    CriticalProbeFailed {
        /// The winner whose critical bid was being probed.
        user: UserId,
        /// The underlying error raised inside the probe.
        source: Box<McsError>,
    },
}

impl fmt::Display for McsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McsError::InvalidProbability { value } => {
                write!(f, "probability {value} is not in [0, 1)")
            }
            McsError::InvalidCost { value } => {
                write!(f, "cost {value} is not a finite non-negative number")
            }
            McsError::InvalidContribution { value } => {
                write!(
                    f,
                    "contribution {value} is not a finite non-negative number"
                )
            }
            McsError::InvalidEpsilon { value } => {
                write!(
                    f,
                    "approximation parameter {value} is not a finite positive number"
                )
            }
            McsError::EmptyUsers => write!(f, "profile contains no users"),
            McsError::EmptyTasks => write!(f, "profile contains no tasks"),
            McsError::UnknownTask { user, task } => {
                write!(f, "user {user} declared unknown task {task}")
            }
            McsError::DuplicateUser { user } => write!(f, "duplicate user id {user}"),
            McsError::DuplicateTask { task } => write!(f, "duplicate task id {task}"),
            McsError::EmptyTaskSet { user } => write!(f, "user {user} declared an empty task set"),
            McsError::Infeasible { task } => {
                write!(
                    f,
                    "task {task} cannot meet its PoS requirement even with all users"
                )
            }
            McsError::NoSuchUser { user } => write!(f, "no user with id {user}"),
            McsError::NoSuchTask { task } => write!(f, "no task with id {task}"),
            McsError::NotAWinner { user } => {
                write!(f, "user {user} is not in the winning set")
            }
            McsError::NotSingleTask { tasks } => {
                write!(f, "expected a single-task profile, found {tasks} tasks")
            }
            McsError::SearchBudgetExhausted { budget } => {
                write!(f, "exact solver exhausted its node budget of {budget}")
            }
            McsError::DpLevelsExceeded { levels } => {
                write!(
                    f,
                    "an FPTAS subproblem spans {levels} DP levels, above the limit of {}; use a coarser ε",
                    crate::single_task::MAX_DP_LEVELS
                )
            }
            McsError::InvalidAlpha { value } => {
                write!(
                    f,
                    "reward scaling factor {value} is not a finite non-negative number"
                )
            }
            McsError::CriticalProbeFailed { user, source } => {
                write!(f, "critical-bid probe for user {user} failed: {source}")
            }
        }
    }
}

impl std::error::Error for McsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McsError::CriticalProbeFailed { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Convenient alias used throughout the crate.
pub type Result<T, E = McsError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = McsError::InvalidProbability { value: 1.5 };
        let msg = err.to_string();
        assert!(msg.contains("1.5"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<McsError>();
    }

    #[test]
    fn errors_compare_equal_by_value() {
        assert_eq!(
            McsError::NoSuchUser {
                user: UserId::new(3)
            },
            McsError::NoSuchUser {
                user: UserId::new(3)
            },
        );
        assert_ne!(
            McsError::NoSuchUser {
                user: UserId::new(3)
            },
            McsError::NoSuchUser {
                user: UserId::new(4)
            },
        );
    }

    #[test]
    fn critical_probe_failure_names_user_and_chains_the_source() {
        let err = McsError::CriticalProbeFailed {
            user: UserId::new(9),
            source: Box::new(McsError::EmptyUsers),
        };
        let msg = err.to_string();
        assert!(msg.contains('9'));
        assert!(msg.contains("no users"));
        let source = std::error::Error::source(&err).expect("wrapped source");
        assert_eq!(source.to_string(), McsError::EmptyUsers.to_string());
    }

    #[test]
    fn infeasible_display_names_the_task() {
        let err = McsError::Infeasible {
            task: TaskId::new(7),
        };
        assert!(err.to_string().contains('7'));
    }
}
