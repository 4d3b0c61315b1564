//! The scenario driver's [`FaultInjector`]: staged execution truths plus
//! plan-armed hooks for the shard, settle, and batch stages.
//!
//! Logical scenario rounds and engine [`RoundId`]s drift apart once a
//! batch fault splits a round, so the injector cannot be armed up front
//! from a `[chaos]` plan. Instead the driver arms it *online*: whenever
//! its mirror batcher closes an engine round during a faulty logical
//! round, it arms that concrete round id here. Between drains the armed
//! sets are constant, so every hook is a pure function of its arguments
//! while the shard workers run — the determinism contract of
//! [`mcs_platform::fault`] holds and runs stay bitwise reproducible
//! across worker counts.
//!
//! ## Execution truth vs. declared truth
//!
//! The engine draws execution reports from *declared* PoS — it knows
//! nothing else. Scenarios model worlds where the truth differs
//! (regional shocks). Before each round's bids are submitted the driver
//! stages every bidder's true `p_any` here; the `observe_admitted` hook
//! keys the staged truth to the concrete engine round the bid actually
//! landed in; and at settlement `flip_report` redraws the outcome from
//! the *true* probability on a `(exec seed, round, user)` stream (then
//! flips it if the round is armed to). The redraw runs on the
//! single-threaded drain path, so outcomes stay bitwise identical for
//! any worker count.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, Once};

use mcs_core::types::UserId;
use mcs_obs::digest::unit;
use mcs_platform::batch::{Round, RoundId};
use mcs_platform::degrade::QuarantinedRound;
use mcs_platform::fault::FaultInjector;
use mcs_platform::ingest::Bid;

use crate::plan::Fault;

/// The prefix of every panic message this injector raises; the panic-hook
/// filter of [`silence_injected_panics`] recognises injected panics by it.
pub const CHAOS_PREFIX: &str = "chaos:";

/// Installs (once per process) a panic hook that swallows panics whose
/// payload carries the [`CHAOS_PREFIX`] and delegates everything else to
/// the previous hook. Injected shard panics are *expected* — without
/// this, every chaos run would spray backtraces over the test output.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !payload.contains(CHAOS_PREFIX) {
                previous(info);
            }
        }));
    });
}

/// A [`FaultInjector`] that redraws execution reports from staged true
/// types and fires the shard, settle and batch faults armed onto engine
/// round ids.
#[derive(Debug, Default)]
pub struct ScenarioInjector {
    exec_seed: u64,
    /// user → true `p_any` bits for the round being submitted.
    staged: Mutex<BTreeMap<u32, u64>>,
    /// (engine round, user) → true `p_any` bits, pinned at admission.
    truths: Mutex<BTreeMap<(u64, u32), u64>>,
    panic_rounds: Mutex<BTreeSet<RoundId>>,
    flip_rounds: Mutex<BTreeSet<RoundId>>,
    reorder_rounds: Mutex<BTreeSet<RoundId>>,
    quarantined: Mutex<Vec<QuarantinedRound>>,
}

impl ScenarioInjector {
    /// A fully disarmed injector with nothing staged, redrawing staged
    /// truths on the `exec_seed` stream.
    pub fn new(exec_seed: u64) -> Self {
        ScenarioInjector {
            exec_seed,
            ..ScenarioInjector::default()
        }
    }

    /// Stages the true `p_any` of every user bidding in the round about
    /// to be submitted (replacing the previous round's).
    pub fn stage(&self, truths: impl IntoIterator<Item = (u32, f64)>) {
        let mut staged = self.staged.lock().expect("injector lock");
        staged.clear();
        staged.extend(truths.into_iter().map(|(user, p)| (user, p.to_bits())));
    }

    /// Arms `fault` for engine round `id` if it is a shard, settle or
    /// batch-queue fault; returns whether it armed anything.
    pub fn arm(&self, fault: Fault, id: RoundId) -> bool {
        let rounds = match fault {
            Fault::ShardPanic => &self.panic_rounds,
            Fault::FlipReports => &self.flip_rounds,
            Fault::ReorderPending => &self.reorder_rounds,
            _ => return false,
        };
        rounds.lock().expect("injector lock").insert(id);
        true
    }

    /// Every quarantined round observed so far, in observation order.
    pub fn observed_quarantines(&self) -> Vec<QuarantinedRound> {
        self.quarantined.lock().expect("injector lock").clone()
    }
}

impl FaultInjector for ScenarioInjector {
    fn observe_admitted(&self, round: RoundId, bid: &Bid) {
        if let Some(&bits) = self.staged.lock().expect("injector lock").get(&bid.user) {
            self.truths
                .lock()
                .expect("injector lock")
                .insert((round.0, bid.user), bits);
        }
    }

    fn reorder_pending(&self, pending: &mut [Round]) {
        let armed = self.reorder_rounds.lock().expect("injector lock");
        if pending.iter().any(|round| armed.contains(&round.id)) {
            pending.reverse();
        }
    }

    fn shard_panic(&self, round: RoundId) -> Option<String> {
        self.panic_rounds
            .lock()
            .expect("injector lock")
            .contains(&round)
            .then(|| format!("{CHAOS_PREFIX} injected shard panic in {round}"))
    }

    fn flip_report(&self, round: RoundId, user: UserId, completed: bool) -> bool {
        // Redraw from the true probability on a stream keyed only by
        // (round, user): deterministic, worker-count independent, and
        // identical between twin runs — so truthful and deviating twins
        // face the same world.
        let user = user.index() as u32;
        let truth = self
            .truths
            .lock()
            .expect("injector lock")
            .get(&(round.0, user))
            .copied();
        let completed = match truth {
            Some(bits) => unit(self.exec_seed, round.0, user as u64) < f64::from_bits(bits),
            None => completed,
        };
        completed
            != self
                .flip_rounds
                .lock()
                .expect("injector lock")
                .contains(&round)
    }

    fn on_quarantine(&self, round: &QuarantinedRound) {
        self.quarantined
            .lock()
            .expect("injector lock")
            .push(round.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_platform::degrade::RoundError;

    #[test]
    fn armed_hooks_fire_only_for_their_rounds() {
        let injector = ScenarioInjector::new(0);
        assert!(injector.arm(Fault::ShardPanic, RoundId(2)));
        assert!(injector.arm(Fault::FlipReports, RoundId(3)));
        assert!(!injector.arm(Fault::NanCostBid, RoundId(4)));
        assert!(injector.shard_panic(RoundId(1)).is_none());
        let message = injector.shard_panic(RoundId(2)).unwrap();
        assert!(message.starts_with(CHAOS_PREFIX));
        assert!(!injector.flip_report(RoundId(3), UserId::new(0), true));
        assert!(injector.flip_report(RoundId(1), UserId::new(0), true));
    }

    #[test]
    fn staged_truths_redraw_reports_and_flips_still_apply() {
        let injector = ScenarioInjector::new(9);
        injector.stage([(0, 1.0), (1, 0.0)]);
        for user in [0, 1, 2] {
            let bid = Bid {
                user,
                cost: 1.0,
                tasks: vec![(0, 0.5)],
            };
            injector.observe_admitted(RoundId(5), &bid);
        }
        // A sure success and a sure failure, whatever the engine drew;
        // an unstaged user keeps the engine's draw.
        assert!(injector.flip_report(RoundId(5), UserId::new(0), false));
        assert!(!injector.flip_report(RoundId(5), UserId::new(1), true));
        assert!(!injector.flip_report(RoundId(5), UserId::new(2), false));
        injector.arm(Fault::FlipReports, RoundId(5));
        assert!(!injector.flip_report(RoundId(5), UserId::new(0), false));
        assert!(injector.flip_report(RoundId(5), UserId::new(2), false));
    }

    #[test]
    fn reorder_reverses_only_when_an_armed_round_is_pending() {
        let injector = ScenarioInjector::new(0);
        injector.arm(Fault::ReorderPending, RoundId(1));
        // No fixture rounds here: an empty queue must stay empty and the
        // call must not panic.
        injector.reorder_pending(&mut []);
    }

    #[test]
    fn quarantine_observations_accumulate() {
        let injector = ScenarioInjector::new(0);
        injector.on_quarantine(&QuarantinedRound {
            id: RoundId(5),
            bidders: 3,
            error: RoundError::Infeasible {
                task: mcs_core::types::TaskId::new(0),
            },
        });
        let seen = injector.observed_quarantines();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].id, RoundId(5));
    }
}
