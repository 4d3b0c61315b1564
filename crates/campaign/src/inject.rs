//! Deterministic execution-failure injection for campaigns.
//!
//! Closed-loop behaviour only shows up when executions *fail*: residual
//! rounds exist to re-auction what failure left uncovered, and the
//! calibrator only diverges from declarations when observed success
//! rates do. [`FailureInjector`] supplies that failure signal through
//! the engine's existing [`FaultInjector::flip_report`] hook: each
//! success report is downgraded to a failure with probability
//! `rate`, decided by a pure hash of `(seed, round, user)` so the same
//! campaign always fails the same executions regardless of worker
//! count.
//!
//! The injector wraps an inner [`FaultInjector`] and delegates every
//! other hook to it, so chaos-harness faults (shard panics, report
//! flips, reordering) compose with execution failures instead of
//! competing for the single injector slot.

use std::sync::Arc;

use mcs_core::types::UserId;
use mcs_obs::digest::unit;
use mcs_platform::prelude::{Bid, FaultInjector, NoFaults, Round, RoundId};

/// Downgrades success reports with a seeded probability, delegating all
/// other fault hooks to an inner injector.
#[derive(Debug)]
pub struct FailureInjector {
    rate: f64,
    seed: u64,
    inner: Arc<dyn FaultInjector>,
}

impl FailureInjector {
    /// Fails each successful execution with probability `rate`.
    pub fn new(seed: u64, rate: f64) -> Self {
        FailureInjector::wrapping(seed, rate, Arc::new(NoFaults))
    }

    /// As [`FailureInjector::new`], composing over `inner`'s faults.
    /// `inner.flip_report` runs first; the failure coin applies to its
    /// output.
    pub fn wrapping(seed: u64, rate: f64, inner: Arc<dyn FaultInjector>) -> Self {
        FailureInjector {
            rate: rate.clamp(0.0, 1.0),
            seed,
            inner,
        }
    }
}

impl FaultInjector for FailureInjector {
    fn observe_admitted(&self, round: RoundId, bid: &Bid) {
        self.inner.observe_admitted(round, bid);
    }

    fn reorder_pending(&self, pending: &mut [Round]) {
        self.inner.reorder_pending(pending);
    }

    fn shard_panic(&self, round: RoundId) -> Option<String> {
        self.inner.shard_panic(round)
    }

    fn flip_report(&self, round: RoundId, user: UserId, completed: bool) -> bool {
        let completed = self.inner.flip_report(round, user, completed);
        if completed && self.rate > 0.0 {
            return unit(self.seed, round.0, user.index() as u64) >= self.rate;
        }
        completed
    }

    fn on_quarantine(&self, round: &mcs_platform::prelude::QuarantinedRound) {
        self.inner.on_quarantine(round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_transparent() {
        let injector = FailureInjector::new(1, 0.0);
        for user in 0..50 {
            assert!(injector.flip_report(RoundId(0), UserId::new(user), true));
            assert!(!injector.flip_report(RoundId(0), UserId::new(user), false));
        }
    }

    #[test]
    fn failures_land_near_the_rate_and_deterministically() {
        let injector = FailureInjector::new(9, 0.3);
        let flips: Vec<bool> = (0..1000)
            .map(|user| injector.flip_report(RoundId(2), UserId::new(user), true))
            .collect();
        let failures = flips.iter().filter(|&&ok| !ok).count();
        assert!((200..400).contains(&failures), "failures = {failures}");
        let again: Vec<bool> = (0..1000)
            .map(|user| injector.flip_report(RoundId(2), UserId::new(user), true))
            .collect();
        assert_eq!(flips, again);
        // A failure report is never promoted to success.
        assert!(!injector.flip_report(RoundId(2), UserId::new(0), false));
    }

    /// Panics chosen rounds and logs every admitted bid it observes.
    #[derive(Debug)]
    struct PanicAndLog {
        panics: mcs_platform::prelude::PanicRounds,
        admitted: std::sync::Mutex<Vec<(RoundId, u32)>>,
    }

    impl FaultInjector for PanicAndLog {
        fn shard_panic(&self, round: RoundId) -> Option<String> {
            self.panics.shard_panic(round)
        }

        fn observe_admitted(&self, round: RoundId, bid: &Bid) {
            self.admitted.lock().unwrap().push((round, bid.user));
        }
    }

    #[test]
    fn composes_with_an_inner_injector() {
        let inner = Arc::new(PanicAndLog {
            panics: mcs_platform::prelude::PanicRounds::new([RoundId(3)]),
            admitted: std::sync::Mutex::new(Vec::new()),
        });
        let injector = FailureInjector::wrapping(9, 0.5, inner.clone());
        assert!(injector.shard_panic(RoundId(3)).is_some());
        assert!(injector.shard_panic(RoundId(4)).is_none());
        let bid = Bid {
            user: 7,
            cost: 1.0,
            tasks: vec![(0, 0.5)],
        };
        injector.observe_admitted(RoundId(2), &bid);
        assert_eq!(*inner.admitted.lock().unwrap(), vec![(RoundId(2), 7)]);
    }
}
