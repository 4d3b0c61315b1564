//! Fault-injection hook points: deterministic chaos for every pipeline
//! stage, no-ops in production.
//!
//! The engine consults a [`FaultInjector`] at each stage boundary —
//! ingest ([`FaultInjector::observe_admitted`]), batch
//! ([`FaultInjector::reorder_pending`]), shard
//! ([`FaultInjector::shard_panic`]), settle
//! ([`FaultInjector::flip_report`]), and degrade
//! ([`FaultInjector::on_quarantine`]). Every hook defaults to doing
//! nothing, and [`Engine::new`](crate::engine::Engine::new) installs
//! [`NoFaults`], so production pays one virtual call per stage and no
//! behaviour change. A chaos harness (the `mcs-harness` crate) installs a
//! real injector via
//! [`Engine::with_injector`](crate::engine::Engine::with_injector).
//!
//! ## Determinism contract
//!
//! Shard workers call [`FaultInjector::shard_panic`] concurrently, so an
//! injector must be `Send + Sync`, and every hook must be a pure function
//! of its arguments (round id, user id, bid) — never of wall-clock time
//! or thread identity. Under that contract the engine's bitwise
//! determinism across worker counts extends to whole fault campaigns.

use std::collections::BTreeSet;

use mcs_core::types::UserId;

use crate::batch::{Round, RoundId};
use crate::degrade::QuarantinedRound;
use crate::ingest::Bid;

/// Stage-boundary hooks the engine offers to fault-injection harnesses.
///
/// All methods have no-op defaults; implement only the stages a campaign
/// attacks. See the module docs for the determinism contract.
pub trait FaultInjector: std::fmt::Debug + Send + Sync {
    /// Ingest hook: observes every bid *after* it was validated and
    /// admitted to the round that will close as `round`. It cannot alter
    /// the bid (chaos harnesses submit their malformed bids directly) —
    /// it exists so scenario harnesses can key per-user state (shocked
    /// true PoS, strategy assignments, replay logs) on the concrete
    /// engine round id the bid landed in. Runs on the single-threaded
    /// control path, in admission order.
    fn observe_admitted(&self, round: RoundId, bid: &Bid) {
        let _ = (round, bid);
    }

    /// Batch hook: may reorder the closed-but-undrained rounds handed to
    /// the shard pool. Results are keyed by round id, so a correct engine
    /// produces identical output for any order — chaos campaigns assert
    /// exactly that.
    fn reorder_pending(&self, pending: &mut [Round]) {
        let _ = pending;
    }

    /// Shard hook: returning `Some(message)` makes the worker clearing
    /// `round` panic with that message. The degrade path catches it at
    /// the round boundary and quarantines the round.
    fn shard_panic(&self, round: RoundId) -> Option<String> {
        let _ = round;
        None
    }

    /// Settle hook: every execution report passes through here before
    /// settlement; return the (possibly flipped) outcome to pay. The
    /// flipped report is stored back into the cleared round, so results
    /// and settlements stay mutually consistent.
    fn flip_report(&self, round: RoundId, user: UserId, completed: bool) -> bool {
        let _ = (round, user);
        completed
    }

    /// Degrade hook: observes every round the engine quarantines, in
    /// settlement (round-id) order.
    fn on_quarantine(&self, round: &QuarantinedRound) {
        let _ = round;
    }
}

/// The production injector: every hook is the default no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// An injector that panics the shard worker for a fixed set of rounds — a
/// reusable test double for the degrade path.
#[derive(Debug, Clone, Default)]
pub struct PanicRounds {
    rounds: BTreeSet<RoundId>,
}

impl PanicRounds {
    /// An injector panicking every round in `rounds`.
    pub fn new<I: IntoIterator<Item = RoundId>>(rounds: I) -> Self {
        PanicRounds {
            rounds: rounds.into_iter().collect(),
        }
    }
}

impl FaultInjector for PanicRounds {
    fn shard_panic(&self, round: RoundId) -> Option<String> {
        self.rounds
            .contains(&round)
            .then(|| format!("injected fault in round {round}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_passes_everything_through() {
        let injector = NoFaults;
        assert_eq!(injector.shard_panic(RoundId(3)), None);
        assert!(injector.flip_report(RoundId(3), UserId::new(0), true));
        assert!(!injector.flip_report(RoundId(3), UserId::new(0), false));
    }

    #[test]
    fn panic_rounds_targets_only_listed_rounds() {
        let injector = PanicRounds::new([RoundId(1), RoundId(4)]);
        assert!(injector.shard_panic(RoundId(1)).is_some());
        assert_eq!(injector.shard_panic(RoundId(2)), None);
        let message = injector.shard_panic(RoundId(4)).unwrap();
        assert!(message.contains("injected fault"));
        assert!(message.contains("r4"));
    }
}
