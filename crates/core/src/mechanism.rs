//! Mechanism abstractions: winner determination, reward schemes, and the
//! combined [`Mechanism`] trait.
//!
//! A mechanism `M = (A, R)` consists of an allocation algorithm `A` (here
//! [`WinnerDetermination`]) and a reward scheme `R` ([`RewardScheme`]).
//! The reward schemes in this crate are *execution contingent*: a winner is
//! paid a different amount depending on whether she actually completed her
//! task(s), which is what makes truthful PoS reporting optimal.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{McsError, Result};
use crate::types::{Cost, Pos, TypeProfile, UserId};

/// The outcome of winner determination: the set of selected (winning) users.
///
/// # Examples
///
/// ```
/// use mcs_core::mechanism::Allocation;
/// use mcs_core::types::UserId;
///
/// let allocation = Allocation::from_winners([UserId::new(2), UserId::new(0)]);
/// assert_eq!(allocation.winner_count(), 2);
/// assert!(allocation.contains(UserId::new(0)));
/// assert!(!allocation.contains(UserId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Allocation {
    winners: BTreeSet<UserId>,
}

impl Allocation {
    /// An empty allocation (no winners).
    pub fn empty() -> Self {
        Allocation::default()
    }

    /// Creates an allocation from winner ids.
    pub fn from_winners<I: IntoIterator<Item = UserId>>(winners: I) -> Self {
        Allocation {
            winners: winners.into_iter().collect(),
        }
    }

    /// Whether `user` was selected.
    pub fn contains(&self, user: UserId) -> bool {
        self.winners.contains(&user)
    }

    /// The number of selected users.
    pub fn winner_count(&self) -> usize {
        self.winners.len()
    }

    /// Whether no user was selected.
    pub fn is_empty(&self) -> bool {
        self.winners.is_empty()
    }

    /// Iterates over winners in ascending id order.
    pub fn winners(&self) -> impl Iterator<Item = UserId> + '_ {
        self.winners.iter().copied()
    }

    /// The social cost of the allocation under `profile`:
    /// `Σ_{i ∈ winners} c_i`.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::NoSuchUser`] if a winner does not appear in
    /// `profile` (e.g. an allocation from a different instance).
    pub fn social_cost(&self, profile: &TypeProfile) -> Result<Cost> {
        let mut total = Cost::ZERO;
        for &id in &self.winners {
            total += profile.user(id)?.cost();
        }
        Ok(total)
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (idx, id) in self.winners.iter().enumerate() {
            if idx > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<UserId> for Allocation {
    fn from_iter<I: IntoIterator<Item = UserId>>(iter: I) -> Self {
        Allocation::from_winners(iter)
    }
}

impl Extend<UserId> for Allocation {
    fn extend<I: IntoIterator<Item = UserId>>(&mut self, iter: I) {
        self.winners.extend(iter);
    }
}

/// A winner-determination (allocation) algorithm.
///
/// Implementations receive the *declared* type profile and select the
/// winning user set. For strategy-proofness the algorithm must be
/// *monotone*: a winner who raises a declared PoS must remain a winner
/// (paper Lemmas 1 and 2). All implementations in this crate are
/// deterministic, which the critical-bid search relies on.
pub trait WinnerDetermination {
    /// Selects the winning users for the declared `profile`.
    ///
    /// # Errors
    ///
    /// * [`McsError::Infeasible`] if even all users together cannot satisfy
    ///   some task's PoS requirement.
    /// * Implementation-specific validation errors (e.g.
    ///   [`McsError::NotSingleTask`] for the single-task algorithms).
    fn select_winners(&self, profile: &TypeProfile) -> Result<Allocation>;
}

impl<T: WinnerDetermination + ?Sized> WinnerDetermination for &T {
    fn select_winners(&self, profile: &TypeProfile) -> Result<Allocation> {
        (**self).select_winners(profile)
    }
}

/// An execution-contingent reward scheme.
///
/// The schemes in this crate follow the paper's template: find the winner's
/// *critical bid* `p̄_i` (the minimum PoS declaration that still wins), then
/// pay
///
/// * `(1 - p̄_i)·α + c_i` if the user completed (any of) her task(s), and
/// * `-p̄_i·α + c_i` if she completed none,
///
/// where `α` is the platform's reward scaling factor. A truthful winner's
/// expected utility is `(p_i - p̄_i)·α ≥ 0`.
pub trait RewardScheme {
    /// The reward scaling factor `α`.
    fn alpha(&self) -> f64;

    /// The winner's critical PoS `p̄_i` under `profile` given the realized
    /// `allocation`.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::NotAWinner`] if `user` is not in `allocation`,
    /// plus any error of the underlying re-run allocations.
    fn critical_pos(
        &self,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
    ) -> Result<Pos>;

    /// The reward paid to `user` given whether she `completed` her task(s).
    ///
    /// The default implementation applies the execution-contingent formula
    /// to [`RewardScheme::critical_pos`].
    ///
    /// # Errors
    ///
    /// Same as [`RewardScheme::critical_pos`].
    fn reward(
        &self,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
        completed: bool,
    ) -> Result<f64> {
        let critical = self.critical_pos(profile, allocation, user)?;
        let cost = profile.user(user)?.cost();
        Ok(contingent_reward(self.alpha(), critical, cost, completed))
    }
}

/// Bisection steps of every critical-bid search (single-task Algorithm 3,
/// the robust multi-task search, and its reference oracle): the interval
/// halves to ~`2^-60` of its start, far below any economically meaningful
/// difference.
pub(crate) const BISECTION_STEPS: u32 = 60;

/// The execution-contingent reward formula shared by every scheme:
/// `(1 - p̄_i)·α + c_i` on completion, `-p̄_i·α + c_i` otherwise.
///
/// Factored out so batch payment paths (e.g. the platform's shard workers,
/// which compute all of a round's critical bids at once) produce quotes
/// bitwise identical to the per-user [`RewardScheme::reward`] default.
pub fn contingent_reward(alpha: f64, critical: Pos, cost: Cost, completed: bool) -> f64 {
    let critical = critical.value();
    let cost = cost.value();
    if completed {
        (1.0 - critical) * alpha + cost
    } else {
        -critical * alpha + cost
    }
}

impl<T: RewardScheme + ?Sized> RewardScheme for &T {
    fn alpha(&self) -> f64 {
        (**self).alpha()
    }

    fn critical_pos(
        &self,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
    ) -> Result<Pos> {
        (**self).critical_pos(profile, allocation, user)
    }
}

/// A complete mechanism: winner determination plus a reward scheme.
///
/// Blanket-implemented for every type that implements both halves.
pub trait Mechanism: WinnerDetermination + RewardScheme {}

impl<T: WinnerDetermination + RewardScheme> Mechanism for T {}

/// Validates a reward scaling factor.
///
/// # Errors
///
/// Returns [`McsError::InvalidAlpha`] if `alpha` is NaN, negative, or
/// infinite.
pub fn validate_alpha(alpha: f64) -> Result<f64> {
    if alpha.is_finite() && alpha >= 0.0 {
        Ok(alpha)
    } else {
        Err(McsError::InvalidAlpha { value: alpha })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Pos, UserType};

    #[test]
    fn allocation_orders_and_dedups_winners() {
        let allocation =
            Allocation::from_winners(vec![UserId::new(3), UserId::new(1), UserId::new(3)]);
        assert_eq!(allocation.winner_count(), 2);
        let ids: Vec<UserId> = allocation.winners().collect();
        assert_eq!(ids, vec![UserId::new(1), UserId::new(3)]);
    }

    #[test]
    fn allocation_displays_as_set() {
        let allocation = Allocation::from_winners(vec![UserId::new(0), UserId::new(2)]);
        assert_eq!(allocation.to_string(), "{u0, u2}");
        assert_eq!(Allocation::empty().to_string(), "{}");
    }

    #[test]
    fn social_cost_sums_winner_costs() {
        let users = vec![
            UserType::single(UserId::new(0), 3.0, 0.5).unwrap(),
            UserType::single(UserId::new(1), 2.0, 0.5).unwrap(),
        ];
        let profile = TypeProfile::single_task(Pos::new(0.5).unwrap(), users).unwrap();
        let allocation = Allocation::from_winners(vec![UserId::new(0), UserId::new(1)]);
        assert_eq!(allocation.social_cost(&profile).unwrap().value(), 5.0);

        let foreign = Allocation::from_winners(vec![UserId::new(9)]);
        assert!(foreign.social_cost(&profile).is_err());
    }

    #[test]
    fn alpha_validation() {
        assert!(validate_alpha(10.0).is_ok());
        assert!(validate_alpha(0.0).is_ok());
        assert!(validate_alpha(-1.0).is_err());
        assert!(validate_alpha(f64::NAN).is_err());
        assert!(validate_alpha(f64::INFINITY).is_err());
    }

    #[test]
    fn allocation_collects_from_iterator() {
        let allocation: Allocation = (0..3).map(UserId::new).collect();
        assert_eq!(allocation.winner_count(), 3);
        let mut extended = allocation.clone();
        extended.extend([UserId::new(9)]);
        assert!(extended.contains(UserId::new(9)));
    }
}
