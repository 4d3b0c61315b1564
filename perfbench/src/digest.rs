//! Outcome digests: every settled round folded into one FNV-1a hash.
//!
//! A round folds its winners, both quote branches and every report and
//! payout as raw bits, plus its social cost. A run folds the round
//! hashes in settlement order and then the ledger total, so any change
//! to who wins, what they are quoted, or what the ledger paid moves it.

use std::collections::BTreeMap;

use mcs_core::types::UserId;
use mcs_platform::shard::ClearedRound;

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The payouts settlement would post for `cleared`: each quoted winner
/// gets the branch matching her report (a missing report settles as a
/// failure, as `Ledger::settle` does).
pub fn quoted_payouts(cleared: &ClearedRound) -> BTreeMap<UserId, f64> {
    cleared
        .quotes
        .iter()
        .map(|(&user, quote)| {
            let completed = cleared.reports.get(&user).copied().unwrap_or(false);
            (user, quote.payout(completed))
        })
        .collect()
}

/// The hash of one settled round under `key` (round id, and the shard
/// for cluster sub-rounds). `mutate` flips the low bit of the first
/// payout: the deliberately altered outcome the self-test feeds the gate.
pub fn fold_round(
    key: &[u64],
    cleared: &ClearedRound,
    payouts: &BTreeMap<UserId, f64>,
    mutate: bool,
) -> u64 {
    let mut h = Fnv::default();
    for &k in key {
        h.u64(k);
    }
    for winner in cleared.allocation.winners() {
        h.u64(winner.index() as u64);
    }
    for (user, quote) in &cleared.quotes {
        h.u64(user.index() as u64);
        h.u64(quote.success.to_bits());
        h.u64(quote.failure.to_bits());
    }
    for (user, &completed) in &cleared.reports {
        h.u64(user.index() as u64);
        h.u64(u64::from(completed));
    }
    for (i, (user, payout)) in payouts.iter().enumerate() {
        let bits = payout.to_bits() ^ u64::from(mutate && i == 0);
        h.u64(user.index() as u64);
        h.u64(bits);
    }
    h.u64(cleared.social_cost.to_bits());
    h.finish()
}

/// The hash standing in for a round under `key` that was quarantined
/// instead of settled.
pub fn quarantined(key: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &k in key {
        h.u64(k);
    }
    h.u64(u64::MAX);
    h.finish()
}

/// Folds round hashes in settlement order, then the ledger total.
#[derive(Debug, Default)]
pub struct RunDigest {
    fnv: Fnv,
    rounds: usize,
}

impl RunDigest {
    pub fn push(&mut self, round_hash: u64) {
        self.fnv.u64(round_hash);
        self.rounds += 1;
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    pub fn finish(mut self, ledger_total: f64) -> u64 {
        self.fnv.u64(ledger_total.to_bits());
        self.fnv.finish()
    }
}
