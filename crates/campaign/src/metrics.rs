//! Campaign-level telemetry: counters for the closed loop plus
//! per-round economics, exportable over the existing `/metrics`
//! endpoints.
//!
//! A campaign's one engine counts rounds, bids and stages in its own
//! [`Metrics`](mcs_platform::prelude::Metrics), but those know nothing
//! of calibration gates, residual requirements or re-auctions, and every
//! run or resume builds a new engine whose metrics start at zero. So the
//! closed loop keeps its own accumulator, owned by the runner and shared
//! by every campaign it runs. [`CampaignMetrics`] implements
//! [`MetricsSource`], so `platformd --campaign` serves it exactly like
//! the per-round engine metrics, under `mcs_campaign_*` families. The
//! per-round economics table is retained in full (campaigns are tens of
//! rounds, not millions) and rendered as `round="k"`-labelled gauges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mcs_obs::{MetricsSource, PromKind, PromWriter};
use serde::Serialize;

/// One campaign round's economics, as recorded after settlement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RoundEcon {
    /// Campaign round index (0-based).
    pub index: u64,
    /// Engine round id the round cleared under.
    pub engine_round: u64,
    /// Tasks open when the round was published.
    pub tasks_open: usize,
    /// Bids submitted after calibration gating.
    pub bids_submitted: usize,
    /// Bids the calibrator gated out.
    pub bids_gated: usize,
    /// Winners selected.
    pub winners: usize,
    /// Winners whose execution succeeded.
    pub successes: usize,
    /// Sum of payouts this round (can be negative: failure fines).
    pub payout: f64,
    /// Total residual requirement before the round.
    pub residual_before: f64,
    /// Total residual requirement after absorbing its executions.
    pub residual_after: f64,
    /// Mean |calibrated − declared| any-task PoS over this round's
    /// calibration decisions (0 when nothing was offered).
    pub pos_divergence_mean: f64,
    /// Whether the round was quarantined instead of cleared.
    pub quarantined: bool,
}

/// Lock-free campaign counters plus the per-round economics table.
#[derive(Debug, Default)]
pub struct CampaignMetrics {
    rounds_opened: AtomicU64,
    residual_reauctions: AtomicU64,
    bids_gated: AtomicU64,
    calibrations: AtomicU64,
    executions_succeeded: AtomicU64,
    executions_failed: AtomicU64,
    campaigns_completed: AtomicU64,
    campaigns_expired: AtomicU64,
    // f64 accumulators as bit-stored atomics (single-writer CAS add).
    divergence_abs_sum: AtomicU64,
    total_paid: AtomicU64,
    residual_open: AtomicU64,
    rounds: Mutex<Vec<RoundEcon>>,
}

fn f64_add(cell: &AtomicU64, delta: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + delta).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

impl CampaignMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        CampaignMetrics::default()
    }

    /// Records a campaign round opening.
    pub fn round_opened(&self) {
        self.rounds_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a residual re-auction being enqueued.
    pub fn residual_reauction(&self) {
        self.residual_reauctions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one calibration decision and its |calibrated − declared|
    /// divergence; `gated` marks the bid as kept out of the round.
    pub fn calibration(&self, divergence_abs: f64, gated: bool) {
        self.calibrations.fetch_add(1, Ordering::Relaxed);
        if gated {
            self.bids_gated.fetch_add(1, Ordering::Relaxed);
        }
        f64_add(&self.divergence_abs_sum, divergence_abs);
    }

    /// Records one settled execution outcome.
    pub fn execution(&self, succeeded: bool) {
        if succeeded {
            self.executions_succeeded.fetch_add(1, Ordering::Relaxed);
        } else {
            self.executions_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished campaign: `covered` says whether it ended by
    /// full coverage (vs. deadline expiry).
    pub fn campaign_finished(&self, covered: bool) {
        if covered {
            self.campaigns_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.campaigns_expired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends one round's economics and refreshes the aggregates.
    pub fn record_round(&self, econ: RoundEcon) {
        f64_add(&self.total_paid, econ.payout);
        self.residual_open
            .store(econ.residual_after.to_bits(), Ordering::Relaxed);
        self.rounds
            .lock()
            .expect("metrics lock poisoned")
            .push(econ);
    }

    /// Campaign rounds opened so far.
    pub fn rounds_opened_count(&self) -> u64 {
        self.rounds_opened.load(Ordering::Relaxed)
    }

    /// Residual re-auctions enqueued so far.
    pub fn residual_reauction_count(&self) -> u64 {
        self.residual_reauctions.load(Ordering::Relaxed)
    }

    /// Bids gated out by calibration so far.
    pub fn gated_count(&self) -> u64 {
        self.bids_gated.load(Ordering::Relaxed)
    }

    /// Mean |calibrated − declared| over all calibration decisions
    /// (0 before the first decision).
    pub fn mean_divergence(&self) -> f64 {
        let n = self.calibrations.load(Ordering::Relaxed);
        if n == 0 {
            return 0.0;
        }
        f64::from_bits(self.divergence_abs_sum.load(Ordering::Relaxed)) / n as f64
    }

    /// The recorded per-round economics, in round order.
    pub fn rounds(&self) -> Vec<RoundEcon> {
        self.rounds.lock().expect("metrics lock poisoned").clone()
    }
}

impl MetricsSource for CampaignMetrics {
    fn prometheus(&self) -> String {
        let mut w = PromWriter::new();
        let counters: [(&str, u64, &str); 8] = [
            (
                "mcs_campaign_rounds_total",
                self.rounds_opened.load(Ordering::Relaxed),
                "Campaign rounds opened (initial + residual).",
            ),
            (
                "mcs_campaign_residual_reauctions_total",
                self.residual_reauctions.load(Ordering::Relaxed),
                "Residual re-auction rounds enqueued after partial coverage.",
            ),
            (
                "mcs_campaign_bids_gated_total",
                self.bids_gated.load(Ordering::Relaxed),
                "Bids kept out of rounds by PoS calibration.",
            ),
            (
                "mcs_campaign_calibrations_total",
                self.calibrations.load(Ordering::Relaxed),
                "Calibration decisions taken.",
            ),
            (
                "mcs_campaign_executions_succeeded_total",
                self.executions_succeeded.load(Ordering::Relaxed),
                "Settled executions that completed a task.",
            ),
            (
                "mcs_campaign_executions_failed_total",
                self.executions_failed.load(Ordering::Relaxed),
                "Settled executions that completed nothing.",
            ),
            (
                "mcs_campaign_completed_total",
                self.campaigns_completed.load(Ordering::Relaxed),
                "Campaigns that ended with every task fully covered.",
            ),
            (
                "mcs_campaign_expired_total",
                self.campaigns_expired.load(Ordering::Relaxed),
                "Campaigns that hit their round/deadline budget uncovered.",
            ),
        ];
        for (name, value, help) in counters {
            w.family(name, PromKind::Counter, help);
            w.sample(name, value as f64);
        }
        w.family(
            "mcs_campaign_pos_divergence_mean",
            PromKind::Gauge,
            "Mean |calibrated - declared| any-task PoS over all decisions.",
        );
        w.sample("mcs_campaign_pos_divergence_mean", self.mean_divergence());
        w.family(
            "mcs_campaign_total_paid",
            PromKind::Gauge,
            "Sum of settled payouts across the campaign.",
        );
        w.sample(
            "mcs_campaign_total_paid",
            f64::from_bits(self.total_paid.load(Ordering::Relaxed)),
        );
        w.family(
            "mcs_campaign_residual_open",
            PromKind::Gauge,
            "Total residual requirement (log-domain contribution) after the latest round.",
        );
        w.sample(
            "mcs_campaign_residual_open",
            f64::from_bits(self.residual_open.load(Ordering::Relaxed)),
        );

        let rounds = self.rounds();
        // (family name, help text, per-round reader) for the labelled gauges.
        type PerRoundGauge = (&'static str, &'static str, fn(&RoundEcon) -> f64);
        let per_round: [PerRoundGauge; 6] = [
            (
                "mcs_campaign_round_payout",
                "Settled payout of each campaign round.",
                |r| r.payout,
            ),
            (
                "mcs_campaign_round_residual_after",
                "Total residual requirement after each campaign round.",
                |r| r.residual_after,
            ),
            (
                "mcs_campaign_round_winners",
                "Winners selected in each campaign round.",
                |r| r.winners as f64,
            ),
            (
                "mcs_campaign_round_successes",
                "Successful executions in each campaign round.",
                |r| r.successes as f64,
            ),
            (
                "mcs_campaign_round_bids_gated",
                "Calibration-gated bids in each campaign round.",
                |r| r.bids_gated as f64,
            ),
            (
                "mcs_campaign_round_pos_divergence",
                "Mean |calibrated - declared| any-task PoS per campaign round.",
                |r| r.pos_divergence_mean,
            ),
        ];
        for (name, help, read) in per_round {
            w.family(name, PromKind::Gauge, help);
            for econ in &rounds {
                w.labelled(name, "round", &econ.index.to_string(), read(econ));
            }
        }
        w.finish()
    }

    fn json(&self) -> String {
        #[derive(Serialize)]
        struct Snapshot {
            rounds_opened: u64,
            residual_reauctions: u64,
            bids_gated: u64,
            calibrations: u64,
            executions_succeeded: u64,
            executions_failed: u64,
            campaigns_completed: u64,
            campaigns_expired: u64,
            pos_divergence_mean: f64,
            total_paid: f64,
            residual_open: f64,
            economics: Vec<RoundEcon>,
        }
        let snapshot = Snapshot {
            rounds_opened: self.rounds_opened.load(Ordering::Relaxed),
            residual_reauctions: self.residual_reauctions.load(Ordering::Relaxed),
            bids_gated: self.bids_gated.load(Ordering::Relaxed),
            calibrations: self.calibrations.load(Ordering::Relaxed),
            executions_succeeded: self.executions_succeeded.load(Ordering::Relaxed),
            executions_failed: self.executions_failed.load(Ordering::Relaxed),
            campaigns_completed: self.campaigns_completed.load(Ordering::Relaxed),
            campaigns_expired: self.campaigns_expired.load(Ordering::Relaxed),
            pos_divergence_mean: self.mean_divergence(),
            total_paid: f64::from_bits(self.total_paid.load(Ordering::Relaxed)),
            residual_open: f64::from_bits(self.residual_open.load(Ordering::Relaxed)),
            economics: self.rounds(),
        };
        serde_json::to_string_pretty(&snapshot).expect("campaign snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_aggregates_accumulate() {
        let metrics = CampaignMetrics::new();
        metrics.round_opened();
        metrics.round_opened();
        metrics.residual_reauction();
        metrics.calibration(0.2, false);
        metrics.calibration(0.4, true);
        metrics.execution(true);
        metrics.execution(false);
        metrics.campaign_finished(true);
        assert_eq!(metrics.rounds_opened_count(), 2);
        assert_eq!(metrics.residual_reauction_count(), 1);
        assert_eq!(metrics.gated_count(), 1);
        assert!((metrics.mean_divergence() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn prometheus_payload_carries_per_round_economics() {
        let metrics = CampaignMetrics::new();
        metrics.record_round(RoundEcon {
            index: 0,
            payout: 12.5,
            residual_after: 1.25,
            winners: 3,
            pos_divergence_mean: 0.125,
            ..RoundEcon::default()
        });
        metrics.record_round(RoundEcon {
            index: 1,
            payout: 4.0,
            residual_after: 0.0,
            winners: 1,
            ..RoundEcon::default()
        });
        let prom = metrics.prometheus();
        assert!(prom.contains("# TYPE mcs_campaign_rounds_total counter"));
        assert!(prom.contains("mcs_campaign_round_payout{round=\"0\"} 12.5"));
        assert!(prom.contains("mcs_campaign_round_payout{round=\"1\"} 4"));
        assert!(prom.contains("mcs_campaign_round_residual_after{round=\"1\"} 0"));
        assert!(prom.contains("mcs_campaign_residual_open 0"));
        assert!(prom.contains("mcs_campaign_round_pos_divergence{round=\"0\"} 0.125"));
        let json = metrics.json();
        assert!(json.contains("\"economics\""));
        assert!(json.contains("residual_after"));
        assert!(json.contains("pos_divergence_mean"));
        // The exposition honours the offline lint: every family declared,
        // counters named *_total, no duplicate series.
        assert_eq!(mcs_obs::prom::lint(&prom), Vec::<String>::new());
    }
}
