//! The clone-and-rerun critical-bid search of the single-task mechanism
//! (paper Algorithm 3).
//!
//! Because the winner determination is monotone in a user's declared
//! contribution (Lemma 1), each winner has a *critical contribution*
//! `q̄_i`: the infimum declaration that still wins. Algorithm 3 finds it by
//! binary search over `[0, Q]` — `Q` suffices because contributions are
//! saturated at the requirement inside the DP, so any declaration at or
//! above `Q` yields the identical allocation.
//!
//! [`critical_contribution`] clones the profile and reruns the winner
//! determination at every probe, so it works for any monotone rule. The
//! mechanism prices winners on a prepared round instead
//! ([`AllocatedRound::critical_contribution`]), which returns the same
//! bits; this search is the reference it is tested against.
//!
//! [`AllocatedRound::critical_contribution`]: crate::single_task::AllocatedRound::critical_contribution

use crate::error::{McsError, Result};
use crate::mechanism::{WinnerDetermination, BISECTION_STEPS};
use crate::types::{Contribution, TypeProfile, UserId};

/// Finds the critical contribution `q̄_i` of a winning user by binary
/// search against an arbitrary (monotone) winner-determination algorithm.
///
/// # Errors
///
/// * [`McsError::NotAWinner`] if `user` does not win under her current
///   declaration (losers have no critical bid).
/// * Any error of the underlying allocations.
///
/// # Panics
///
/// Panics if the winner determination is non-monotone in a way the search
/// detects (the declared-winning user fails to win at the saturated
/// requirement `Q`) — this indicates a broken algorithm, not bad input.
pub fn critical_contribution<W: WinnerDetermination>(
    winner_determination: &W,
    profile: &TypeProfile,
    user: UserId,
) -> Result<Contribution> {
    let task = profile.the_task()?;
    let requirement = task.requirement_contribution();
    let current = winner_determination.select_winners(profile)?;
    if !current.contains(user) {
        return Err(McsError::NotAWinner { user });
    }

    let declares = |q: Contribution| -> Result<bool> {
        let lie = profile.user(user)?.with_pos(task.id(), q.pos())?;
        match winner_determination.select_winners(&profile.with_user_type(lie)?) {
            Ok(outcome) => Ok(outcome.contains(user)),
            // Declaring so little that the whole instance becomes
            // infeasible certainly does not win.
            Err(McsError::Infeasible { .. }) => Ok(false),
            Err(other) => Err(other),
        }
    };

    // The user wins at her declaration, declarations ≥ Q are equivalent to
    // Q (saturation), so the predicate is true at Q…
    assert!(
        declares(requirement)?,
        "winner determination is not monotone: winner loses at the requirement"
    );
    // …and false at zero (zero-contribution users are never selected).
    let mut lo = 0.0f64;
    let mut hi = requirement.value();
    if hi == 0.0 {
        return Ok(Contribution::ZERO);
    }
    for _ in 0..BISECTION_STEPS {
        let mid = 0.5 * (lo + hi);
        if declares(Contribution::new(mid)?)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Contribution::new(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_task::FptasWinnerDetermination;
    use crate::types::{Pos, TaskId, UserType};

    fn profile(requirement: f64, users: &[(f64, f64)]) -> TypeProfile {
        let users = users
            .iter()
            .enumerate()
            .map(|(i, &(cost, pos))| UserType::single(UserId::new(i as u32), cost, pos).unwrap())
            .collect();
        TypeProfile::single_task(Pos::new(requirement).unwrap(), users).unwrap()
    }

    #[test]
    fn loser_has_no_critical_bid() {
        let p = profile(0.6, &[(10.0, 0.4), (10.0, 0.4), (3.0, 0.7)]);
        let wd = FptasWinnerDetermination::new(0.1).unwrap();
        let err = critical_contribution(&wd, &p, UserId::new(0)).unwrap_err();
        assert_eq!(
            err,
            McsError::NotAWinner {
                user: UserId::new(0)
            }
        );
    }

    #[test]
    fn critical_bid_is_at_most_declaration_and_winning() {
        let p = profile(0.9, &[(3.0, 0.7), (2.0, 0.7), (1.0, 0.5), (4.0, 0.8)]);
        let wd = FptasWinnerDetermination::new(0.1).unwrap();
        let allocation = wd.select_winners(&p).unwrap();
        for winner in allocation.winners() {
            let declared = p.user(winner).unwrap().contribution_for(TaskId::new(0));
            let critical = critical_contribution(&wd, &p, winner).unwrap();
            assert!(
                critical <= declared + Contribution::new(1e-6).unwrap(),
                "critical {critical} exceeds declaration {declared} for {winner}"
            );
            // Declaring just above the critical bid still wins…
            let above = Contribution::new(critical.value() + 1e-6).unwrap();
            let lie = p
                .user(winner)
                .unwrap()
                .with_pos(TaskId::new(0), above.pos())
                .unwrap();
            let outcome = wd.select_winners(&p.with_user_type(lie).unwrap()).unwrap();
            assert!(outcome.contains(winner));
            // …and well below it loses.
            if critical.value() > 1e-3 {
                let below = Contribution::new(critical.value() - 1e-3).unwrap();
                let lie = p
                    .user(winner)
                    .unwrap()
                    .with_pos(TaskId::new(0), below.pos())
                    .unwrap();
                let outcome = wd.select_winners(&p.with_user_type(lie).unwrap()).unwrap();
                assert!(
                    !outcome.contains(winner),
                    "{winner} still wins below critical bid"
                );
            }
        }
    }

    #[test]
    fn sole_feasible_user_has_critical_bid_at_requirement() {
        // One user must cover the whole requirement herself: her critical
        // contribution is Q.
        let p = profile(0.5, &[(1.0, 0.8)]);
        let wd = FptasWinnerDetermination::new(0.5).unwrap();
        let critical = critical_contribution(&wd, &p, UserId::new(0)).unwrap();
        let q = p.the_task().unwrap().requirement_contribution();
        assert!((critical.value() - q.value()).abs() < 1e-9);
    }

    #[test]
    fn competition_lowers_the_critical_bid() {
        // With a rival able to fill in, the winner's critical bid drops
        // below the full requirement.
        let p = profile(0.8, &[(1.0, 0.7), (1.0, 0.6)]);
        let wd = FptasWinnerDetermination::new(0.2).unwrap();
        let allocation = wd.select_winners(&p).unwrap();
        let q = p.the_task().unwrap().requirement_contribution();
        for winner in allocation.winners() {
            let critical = critical_contribution(&wd, &p, winner).unwrap();
            assert!(critical.value() < q.value());
        }
    }
}
