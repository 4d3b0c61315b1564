//! What a run reports, and its JSON rendering.

use std::fmt::Write;

use crate::stats::{quantile, Slices};

/// One reported metric, with the samples its value summarizes (empty
/// for a single whole-run reading).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: Vec::new(),
        }
    }

    /// A metric whose value is the `q`-quantile of `samples`.
    pub fn quantile_of(name: &str, unit: &'static str, samples: Vec<f64>, q: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value: quantile(&samples, q),
            samples,
        }
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: Vec<f64>, slices: &Slices, peak_rss_mb: f64) -> Vec<Metric> {
    let latency = |name: &str, q: f64| {
        let (value, samples) = slices.latency_ms(q);
        Metric {
            name: name.to_string(),
            unit: "ms",
            value,
            samples,
        }
    };
    vec![
        Metric::quantile_of("bids_per_s", "1/s", slices.rates(), 0.5),
        latency("round_p50_ms", 0.5),
        latency("round_p90_ms", 0.9),
        Metric::quantile_of("cpu_us_per_bid", "us", slices.cpu_per_item_us(), 0.5),
        Metric::quantile_of("setup_s", "s", setup_s, 0.5),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// A total split into rows; the last row is the residual the other rows
/// do not cover, so the rows always sum to the total.
#[derive(Debug, Clone)]
pub struct Partition {
    pub name: &'static str,
    pub total_ns: f64,
    pub rows: Vec<(&'static str, f64)>,
}

impl Partition {
    /// Builds the partition of `total_ns` into `rows` plus the residual
    /// row `unattributed`.
    pub fn of(
        name: &'static str,
        total_ns: f64,
        rows: Vec<(&'static str, f64)>,
        unattributed: &'static str,
    ) -> Self {
        let covered: f64 = rows.iter().map(|(_, ns)| ns).sum();
        let mut rows = rows;
        rows.push((unattributed, total_ns - covered));
        Partition {
            name,
            total_ns,
            rows,
        }
    }
}

/// An outcome check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub digest_rounds: usize,
    pub rounds: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    pub partitions: Vec<Partition>,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (key, value) in header {
            let _ = write!(out, "{}: {}, ", string(key), value);
        }
        let _ = write!(
            out,
            "\"ok\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \
             \"digest_rounds\": {}, \"rounds\": {}, ",
            self.ok(),
            self.attempted,
            self.failed,
            self.digest,
            self.digest_rounds,
            self.rounds
        );
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    string(&c.name),
                    c.ok,
                    string(&c.detail)
                )
            })
            .collect();
        let _ = write!(out, "\"checks\": [{}], ", checks.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let (q1, median, q3) = if m.samples.is_empty() {
                    (m.value, m.value, m.value)
                } else {
                    (
                        quantile(&m.samples, 0.25),
                        quantile(&m.samples, 0.5),
                        quantile(&m.samples, 0.75),
                    )
                };
                // Short sample lists (slices, set-ups) are kept whole.
                let values: Vec<String> = if m.samples.len() <= 64 {
                    m.samples.iter().map(|&v| number(v)).collect()
                } else {
                    Vec::new()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"q1\": {}, \
                     \"median\": {}, \"q3\": {}, \"values\": [{}]}}",
                    string(&m.name),
                    number(m.value),
                    string(m.unit),
                    m.samples.len().max(1),
                    number(q1),
                    number(median),
                    number(q3),
                    values.join(", ")
                )
            })
            .collect();
        let _ = write!(out, "\"metrics\": {{{}}}, ", metrics.join(", "));
        let partitions: Vec<String> = self
            .partitions
            .iter()
            .map(|p| {
                let rows: Vec<String> = p
                    .rows
                    .iter()
                    .map(|(name, ns)| format!("[{}, {}]", string(name), number(*ns)))
                    .collect();
                format!(
                    "{{\"name\": {}, \"total_ns\": {}, \"rows\": [{}]}}",
                    string(p.name),
                    number(p.total_ns),
                    rows.join(", ")
                )
            })
            .collect();
        let _ = write!(out, "\"partitions\": [{}]}}", partitions.join(", "));
        out
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn string(value: &str) -> String {
    let mut out = String::from("\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
