//! Settlement: execution-outcome reports become execution-contingent
//! payouts, posted to a per-user ledger.
//!
//! The shard stage quotes each winner both of her contingent rewards —
//! `(1 − p̄_i)·α + c_i` on success, `−p̄_i·α + c_i` on failure — before any
//! outcome is known (see [`RewardScheme`](mcs_core::mechanism::RewardScheme)).
//! Settlement is then a pure lookup: pick the quoted branch matching the
//! round's execution report and post it. Failure payouts can be negative
//! (the paper's mechanism fines unlucky winners through the `−p̄_i·α`
//! term), so balances are signed.

use std::collections::BTreeMap;

use mcs_core::types::UserId;
use mcs_obs::digest::Fnv1a;
use serde::{Deserialize, Serialize};

use crate::batch::RoundId;
use crate::shard::ClearedRound;

/// A winner's two contingent rewards, quoted at clearing time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardQuote {
    /// Paid when the winner completes at least one of her tasks.
    pub success: f64,
    /// Paid (possibly negative) when she completes none.
    pub failure: f64,
}

impl RewardQuote {
    /// The payout for an observed outcome.
    pub fn payout(&self, completed: bool) -> f64 {
        if completed {
            self.success
        } else {
            self.failure
        }
    }
}

/// The payouts of one settled round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSettlement {
    /// The settled round.
    pub round: RoundId,
    /// Per-winner payout this round.
    pub payouts: BTreeMap<UserId, f64>,
    /// Sum of the payouts (the platform's expense this round).
    pub total: f64,
    /// Per-winner execution outcome as settled (after any fault-injection
    /// flips): `true` iff the winner completed at least one of her tasks.
    /// This is the feedback signal closed-loop consumers (success-history
    /// stores, PoS calibrators) observe — it is always the outcome the
    /// payout branch was chosen by, so payments and feedback can never
    /// disagree.
    pub outcomes: BTreeMap<UserId, bool>,
}

/// Signed per-user balances accumulated across settled rounds.
///
/// Besides the lifetime totals, the ledger keeps *scope* accumulators for
/// campaign-scoped accounting: [`Ledger::begin_scope`] zeroes the scoped
/// totals while the lifetime ones keep accumulating, so back-to-back
/// campaigns on one ledger can each report their own spend without
/// bleeding state into each other. Conservation holds by construction:
/// the lifetime total always equals the sum of every scope's total.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    balances: BTreeMap<UserId, f64>,
    total_paid: f64,
    rounds_settled: u64,
    scope: u64,
    scope_paid: f64,
    scope_rounds: u64,
    scope_balances: BTreeMap<UserId, f64>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Settles `round`: pays every winner her quoted reward for the
    /// reported outcome and posts it to her balance.
    pub fn settle(&mut self, round: &ClearedRound) -> RoundSettlement {
        let mut payouts = BTreeMap::new();
        let mut outcomes = BTreeMap::new();
        let mut total = 0.0;
        for (&user, quote) in &round.quotes {
            let completed = round.reports.get(&user).copied().unwrap_or(false);
            let payout = quote.payout(completed);
            *self.balances.entry(user).or_insert(0.0) += payout;
            *self.scope_balances.entry(user).or_insert(0.0) += payout;
            total += payout;
            payouts.insert(user, payout);
            outcomes.insert(user, completed);
        }
        self.total_paid += total;
        self.rounds_settled += 1;
        self.scope_paid += total;
        self.scope_rounds += 1;
        RoundSettlement {
            round: round.id,
            payouts,
            total,
            outcomes,
        }
    }

    /// Replays a settlement produced by another ledger's
    /// [`Ledger::settle`], without the cleared round itself.
    ///
    /// The accumulation order is identical to [`Ledger::settle`]'s
    /// (ascending user id, per-round total summed user by user), so a
    /// ledger rebuilt purely from replayed settlements is bitwise equal
    /// to the one that settled the rounds first-hand.
    pub fn apply_settlement(&mut self, settlement: &RoundSettlement) {
        let mut total = 0.0;
        for (&user, &payout) in &settlement.payouts {
            *self.balances.entry(user).or_insert(0.0) += payout;
            *self.scope_balances.entry(user).or_insert(0.0) += payout;
            total += payout;
        }
        self.total_paid += total;
        self.rounds_settled += 1;
        self.scope_paid += total;
        self.scope_rounds += 1;
    }

    /// The user's accumulated balance (0 if she never won).
    pub fn balance(&self, user: UserId) -> f64 {
        self.balances.get(&user).copied().unwrap_or(0.0)
    }

    /// All non-trivial balances.
    pub fn balances(&self) -> &BTreeMap<UserId, f64> {
        &self.balances
    }

    /// Total paid out across all settled rounds.
    pub fn total_paid(&self) -> f64 {
        self.total_paid
    }

    /// Number of rounds settled.
    pub fn rounds_settled(&self) -> u64 {
        self.rounds_settled
    }

    /// Opens a new accounting scope and returns its id: the scoped
    /// totals reset to zero, the lifetime totals are untouched. Scope 0
    /// is open from construction, so a ledger that never scopes behaves
    /// exactly as before.
    pub fn begin_scope(&mut self) -> u64 {
        self.scope += 1;
        self.scope_paid = 0.0;
        self.scope_rounds = 0;
        self.scope_balances.clear();
        self.scope
    }

    /// The current scope id (0 until [`Ledger::begin_scope`] is called).
    pub fn scope(&self) -> u64 {
        self.scope
    }

    /// Total paid out within the current scope.
    pub fn scope_paid(&self) -> f64 {
        self.scope_paid
    }

    /// Rounds settled within the current scope.
    pub fn scope_rounds(&self) -> u64 {
        self.scope_rounds
    }

    /// Per-user payouts within the current scope.
    pub fn scope_balances(&self) -> &BTreeMap<UserId, f64> {
        &self.scope_balances
    }
}

/// Folds cleared rounds, then settlements, into `fnv`, each opened by
/// its map key as `key` writes it: winners, quote and report bits and
/// social cost per round, payouts and total per settlement. The one
/// per-round digest: every drive fingerprint and the cluster's open
/// their round sections with it.
pub fn fold_rounds<K>(
    fnv: &mut Fnv1a,
    results: &BTreeMap<K, ClearedRound>,
    settlements: &BTreeMap<K, RoundSettlement>,
    key: impl Fn(&mut Fnv1a, &K),
) {
    for (id, round) in results {
        key(fnv, id);
        for winner in round.allocation.winners() {
            fnv.write_u64(winner.index() as u64);
        }
        for (user, quote) in &round.quotes {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(quote.success.to_bits());
            fnv.write_u64(quote.failure.to_bits());
        }
        for (user, &completed) in &round.reports {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(completed as u64);
        }
        fnv.write_u64(round.social_cost.to_bits());
    }
    for (id, settlement) in settlements {
        key(fnv, id);
        for (user, payout) in &settlement.payouts {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(payout.to_bits());
        }
        fnv.write_u64(settlement.total.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RoundId;
    use mcs_core::mechanism::Allocation;

    fn cleared(id: u64, quotes: &[(u32, f64, f64)], completed: &[u32]) -> ClearedRound {
        ClearedRound {
            id: RoundId(id),
            allocation: Allocation::from_winners(quotes.iter().map(|&(u, _, _)| UserId::new(u))),
            quotes: quotes
                .iter()
                .map(|&(u, s, f)| {
                    (
                        UserId::new(u),
                        RewardQuote {
                            success: s,
                            failure: f,
                        },
                    )
                })
                .collect(),
            reports: quotes
                .iter()
                .map(|&(u, _, _)| (UserId::new(u), completed.contains(&u)))
                .collect(),
            social_cost: 0.0,
            economics: crate::metrics::RoundEconomics::default(),
        }
    }

    #[test]
    fn pays_the_quoted_branch() {
        let mut ledger = Ledger::new();
        let round = cleared(0, &[(0, 5.0, -1.0), (1, 4.0, -2.0)], &[0]);
        let settlement = ledger.settle(&round);
        assert_eq!(settlement.payouts[&UserId::new(0)], 5.0);
        assert_eq!(settlement.payouts[&UserId::new(1)], -2.0);
        assert!((settlement.total - 3.0).abs() < 1e-12);
        assert_eq!(ledger.balance(UserId::new(0)), 5.0);
        assert_eq!(ledger.balance(UserId::new(1)), -2.0);
    }

    #[test]
    fn settlements_report_the_paid_outcome() {
        let mut ledger = Ledger::new();
        let round = cleared(0, &[(0, 5.0, -1.0), (1, 4.0, -2.0)], &[0]);
        let settlement = ledger.settle(&round);
        assert!(settlement.outcomes[&UserId::new(0)]);
        assert!(!settlement.outcomes[&UserId::new(1)]);
        assert_eq!(settlement.outcomes.len(), settlement.payouts.len());
    }

    #[test]
    fn scopes_partition_the_lifetime_totals() {
        let mut ledger = Ledger::new();
        assert_eq!(ledger.scope(), 0);
        ledger.settle(&cleared(0, &[(0, 5.0, -1.0)], &[0]));
        ledger.settle(&cleared(1, &[(1, 4.0, -2.0)], &[]));
        let first_paid = ledger.scope_paid();
        let first_rounds = ledger.scope_rounds();
        assert_eq!(first_rounds, 2);
        assert!((first_paid - 3.0).abs() < 1e-12);

        assert_eq!(ledger.begin_scope(), 1);
        assert_eq!(ledger.scope_rounds(), 0);
        assert_eq!(ledger.scope_paid(), 0.0);
        assert!(ledger.scope_balances().is_empty());
        ledger.settle(&cleared(2, &[(0, 6.0, 0.5)], &[0]));

        // Conservation: the scopes partition the lifetime totals.
        assert!((first_paid + ledger.scope_paid() - ledger.total_paid()).abs() < 1e-12);
        assert_eq!(
            first_rounds + ledger.scope_rounds(),
            ledger.rounds_settled()
        );
        assert!((ledger.scope_balances()[&UserId::new(0)] - 6.0).abs() < 1e-12);
        assert!((ledger.balance(UserId::new(0)) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn replayed_settlements_rebuild_an_identical_ledger() {
        let rounds = [
            cleared(0, &[(0, 5.0, -1.0), (2, 3.25, -0.5)], &[0]),
            cleared(1, &[(1, 4.0, -2.0), (0, 0.1, -0.7)], &[1]),
            cleared(2, &[(2, 6.5, 0.25)], &[2]),
        ];
        let mut primary = Ledger::new();
        let settlements: Vec<RoundSettlement> =
            rounds.iter().map(|round| primary.settle(round)).collect();
        let mut follower = Ledger::new();
        for settlement in &settlements {
            follower.apply_settlement(settlement);
        }
        // Bitwise: same accumulation order, same values, same struct.
        assert_eq!(primary, follower);
        assert_eq!(
            primary.total_paid().to_bits(),
            follower.total_paid().to_bits()
        );
    }

    #[test]
    fn balances_accumulate_across_rounds() {
        let mut ledger = Ledger::new();
        let totals: f64 = [
            cleared(0, &[(0, 5.0, -1.0)], &[0]),
            cleared(1, &[(0, 5.0, -1.0)], &[]),
            cleared(2, &[(0, 6.0, 0.5)], &[0]),
        ]
        .iter()
        .map(|round| ledger.settle(round).total)
        .sum();
        assert_eq!(ledger.rounds_settled(), 3);
        assert!((ledger.balance(UserId::new(0)) - 10.0).abs() < 1e-12);
        assert!((ledger.total_paid() - totals).abs() < 1e-12);
    }
}
