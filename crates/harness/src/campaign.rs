//! Campaign execution: drive a faulted bid stream through a real
//! [`Engine`](mcs_platform::engine::Engine) on a mirrored
//! [`Drive`], arming each logical round's faults onto the engine rounds
//! it closes, and oracle-check every surviving round.
//!
//! ## Reproducibility
//!
//! A campaign is a pure function of `(CampaignConfig, FaultPlan)`: the
//! bid stream derives from the seed per round, faults arm by round id,
//! and the engine is bitwise deterministic across worker counts — so
//! [`CampaignOutcome::fingerprint`] must match for any `workers` /
//! `payment_threads` combination. The CI smoke test asserts exactly that.

use std::sync::{Arc, Once};

use mcs_core::types::{Task, TaskId};
use mcs_platform::config::{AdmissionConfig, EngineConfig};

use crate::drive::{logical_trace, Drive, DriveOutcome};
use crate::inject::{PlanInjector, CHAOS_PREFIX};
use crate::oracle::OracleViolation;
use crate::plan::{Fault, FaultPlan};
use crate::stream::{round_actions, Action};

/// Everything that parameterises one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed: drives the bid stream and the engine's execution
    /// draws.
    pub seed: u64,
    /// Number of logical rounds to synthesise.
    pub rounds: u64,
    /// Well-formed bids per logical round (also the batcher's bid
    /// capacity).
    pub bids_per_round: usize,
    /// Published tasks per round: 1 exercises the single-task FPTAS
    /// mechanism, more the multi-task greedy mechanism.
    pub task_count: usize,
    /// Shard worker count. Outcomes must not depend on it.
    pub workers: usize,
    /// Per-round payment fan-out. Outcomes must not depend on it.
    pub payment_threads: usize,
    /// Drain (clear + settle + oracle-check) every this many logical
    /// rounds.
    pub drain_every: u64,
    /// Admission control for the engine under test. The drive runs a
    /// *mirror* controller with the same configuration, fed the same
    /// backlog, so every shed decision is independently predicted — a
    /// divergence is an [`OracleViolation::ShedUnaccounted`].
    pub admission: AdmissionConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            rounds: 20,
            bids_per_round: 8,
            task_count: 1,
            workers: 4,
            payment_threads: 1,
            drain_every: 4,
            admission: AdmissionConfig::default(),
        }
    }
}

impl CampaignConfig {
    /// The engine configuration this campaign runs under `plan`. The
    /// trace ring is sized never to wrap, with the plan's overload
    /// headroom ([`FaultPlan::trace_headroom`]).
    pub fn engine_config(&self, plan: &FaultPlan) -> EngineConfig {
        let mut config = EngineConfig::default()
            .with_seed(self.seed)
            .with_workers(self.workers)
            .with_payment_threads(self.payment_threads);
        config.batch.max_bids = self.bids_per_round;
        config.admission = self.admission;
        config.trace = logical_trace(
            self.bids_per_round,
            self.task_count,
            self.rounds,
            plan.trace_headroom(self.rounds),
        );
        config
    }

    /// The tasks every round publishes: requirement 0.8 for the
    /// single-task setting, 0.6 each for multi-task (so the synthetic
    /// streams stay feasible).
    pub fn published_tasks(&self) -> Vec<Task> {
        let requirement = if self.task_count <= 1 { 0.8 } else { 0.6 };
        (0..self.task_count.max(1) as u32)
            .map(|i| {
                Task::with_requirement(TaskId::new(i), requirement)
                    .expect("campaign requirements are valid probabilities")
            })
            .collect()
    }
}

/// Everything a finished campaign produced: its drive's outcome, with
/// the faults the campaign armed.
pub type CampaignOutcome = DriveOutcome;

/// Installs (once per process) a panic hook that swallows panics whose
/// payload carries the [`CHAOS_PREFIX`] and delegates everything else to
/// the previous hook. Injected shard panics are *expected* — without
/// this, every campaign would spray backtraces over the test output.
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

/// Runs one campaign to completion. Pure in `(config, plan)`: see the
/// module docs for the reproducibility contract.
pub fn run_campaign(config: &CampaignConfig, plan: &FaultPlan) -> CampaignOutcome {
    silence_injected_panics();
    let injector = Arc::new(PlanInjector::new());
    let mut drive = Drive::new(
        config.engine_config(plan),
        config.published_tasks(),
        injector.clone(),
    );
    let mut faults_armed = 0;
    let mut pending_rebuild = false;

    for logical in 0..config.rounds {
        let faults = plan.faults_for(logical);
        pending_rebuild |= faults.contains(&Fault::DropAndRebuild);
        for action in round_actions(config, logical, faults) {
            let closed = match action {
                Action::Submit(bid) => drive.submit(&bid),
                Action::Tick => drive.tick(),
            };
            let Some(id) = closed else { continue };
            // Arm the logical round's shard/settle/batch faults onto
            // every concrete engine round it closes.
            for fault in faults {
                match fault {
                    Fault::ShardPanic => injector.arm_panic(id),
                    Fault::FlipReports => injector.arm_flip(id),
                    Fault::ReorderPending => injector.arm_reorder(id),
                    _ => continue,
                }
                faults_armed += 1;
            }
        }

        if (logical + 1) % config.drain_every.max(1) == 0 || pending_rebuild {
            drive.drain();
        }
        if pending_rebuild {
            // A checkpoint does not capture the partially filled batch, so
            // close it identically on both sides and drain it first.
            drive.flush();
            drive.drain();
            drive.rebuild();
            pending_rebuild = false;
        }
    }
    drive.flush();
    drive.drain();
    let mut out = drive.finish();
    out.faults_armed = faults_armed;
    // The injector observed exactly the quarantines the engine recorded.
    if injector.observed_quarantines() != out.quarantine {
        out.violations.push(OracleViolation::StreamDesync {
            detail: "quarantine observations diverge from engine records".to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_campaign_is_clean_and_reproducible() {
        let config = CampaignConfig {
            rounds: 8,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&config, &FaultPlan::new());
        let b = run_campaign(&config, &FaultPlan::new());
        assert!(a.is_clean(), "{:?}", a.violations);
        assert_eq!(a.results.len(), 8);
        assert!(a.quarantine.is_empty());
        assert!(a.post_mortems.is_empty());
        assert_eq!(a.rejections, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_fingerprint_differently() {
        let base = CampaignConfig {
            rounds: 4,
            ..CampaignConfig::default()
        };
        let other = CampaignConfig {
            seed: 1,
            ..base.clone()
        };
        let a = run_campaign(&base, &FaultPlan::new());
        let b = run_campaign(&other, &FaultPlan::new());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn multi_task_campaigns_run_clean() {
        let config = CampaignConfig {
            rounds: 6,
            task_count: 3,
            bids_per_round: 6,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(&config, &FaultPlan::new());
        assert!(outcome.is_clean(), "{:?}", outcome.violations);
        assert_eq!(outcome.results.len(), 6);
    }

    #[test]
    fn quarantine_log_renders_one_line_per_record() {
        let config = CampaignConfig {
            rounds: 6,
            ..CampaignConfig::default()
        };
        let mut plan = FaultPlan::new();
        plan.schedule(2, Fault::ShardPanic)
            .schedule(4, Fault::InfeasibleRound);
        let outcome = run_campaign(&config, &plan);
        assert!(outcome.is_clean(), "{:?}", outcome.violations);
        assert_eq!(outcome.quarantine.len(), 2);
        let log = outcome.quarantine_log();
        assert_eq!(log.lines().count(), 2);
        assert!(log.contains("panicked"));
        assert!(log.contains("infeasible"));
    }

    #[test]
    fn every_quarantine_yields_a_complete_post_mortem() {
        let config = CampaignConfig {
            rounds: 6,
            ..CampaignConfig::default()
        };
        let mut plan = FaultPlan::new();
        plan.schedule(1, Fault::ShardPanic)
            .schedule(3, Fault::ShardPanic)
            .schedule(4, Fault::InfeasibleRound);
        let outcome = run_campaign(&config, &plan);
        assert!(outcome.is_clean(), "{:?}", outcome.violations);
        assert_eq!(outcome.post_mortems.len(), outcome.quarantine.len());
        for (record, pm) in outcome.quarantine.iter().zip(&outcome.post_mortems) {
            assert_eq!(pm.round, record.id.0);
            assert!(pm.complete, "{}", pm.to_json());
            assert_eq!(pm.bids.len(), record.bidders);
            assert!(pm.error.contains("panicked") || pm.error.contains("infeasible"));
        }
    }

    #[test]
    fn post_mortems_are_deterministic_and_unfingerprinted() {
        let config = CampaignConfig {
            rounds: 5,
            ..CampaignConfig::default()
        };
        let mut plan = FaultPlan::new();
        plan.schedule(2, Fault::ShardPanic);
        let a = run_campaign(&config, &plan);
        let b = run_campaign(
            &CampaignConfig {
                workers: 1,
                payment_threads: 2,
                ..config.clone()
            },
            &plan,
        );
        // Logical-clock traces make the JSON dumps bitwise identical for
        // any worker count, and the fingerprint never sees them.
        assert_eq!(a.fingerprint(), b.fingerprint());
        let dump_a: Vec<String> = a.post_mortems.iter().map(|pm| pm.to_json()).collect();
        let dump_b: Vec<String> = b.post_mortems.iter().map(|pm| pm.to_json()).collect();
        assert!(!dump_a.is_empty());
        assert_eq!(dump_a, dump_b);
    }
}
