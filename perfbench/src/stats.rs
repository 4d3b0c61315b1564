//! Sample statistics and process-level clocks.

use std::time::Duration;

/// The `q`-quantile of `samples` by linear interpolation between closest
/// ranks (0 when there are no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed so far by every thread of this
/// process, including threads that have exited.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration
    // and the clock id is a constant the C library accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Slices a timed loop is cut into.
const SLICES: f64 = 20.0;

/// Fewest rounds every slice must hold for latency quantiles to be
/// taken per slice.
const ROUNDS_PER_SLICE: usize = 10;

/// One slice of a timed loop.
#[derive(Debug, Default, Clone)]
struct Slice {
    wall: Duration,
    cpu: Duration,
    items: u64,
    latencies_ms: Vec<f64>,
}

/// The timed loop cut into [`SLICES`] slices. Each metric is a median
/// over slices, so a stall on a shared host moves the slices it covers,
/// not the reported value, unless it lasts most of the run.
#[derive(Debug)]
pub struct Slices {
    target: Duration,
    open: Slice,
    closed: Vec<Slice>,
}

impl Slices {
    /// Slices for a timed loop of `seconds`.
    pub fn new(seconds: f64) -> Self {
        Slices {
            target: Duration::from_secs_f64(seconds / SLICES),
            open: Slice::default(),
            closed: Vec::new(),
        }
    }

    /// Adds one measured step: wall time, CPU time, items completed, and
    /// the latencies of the rounds it settled.
    pub fn push(&mut self, wall: Duration, cpu: Duration, items: u64, latencies_ms: &[f64]) {
        self.open.wall += wall;
        self.open.cpu += cpu;
        self.open.items += items;
        self.open.latencies_ms.extend_from_slice(latencies_ms);
        if self.open.wall >= self.target {
            self.closed.push(std::mem::take(&mut self.open));
        }
    }

    /// Closed slices, plus the open one when it is at least half full
    /// (or nothing closed at all).
    fn all(&self) -> Vec<&Slice> {
        let mut all: Vec<&Slice> = self.closed.iter().collect();
        if self.open.items > 0 && (all.is_empty() || self.open.wall * 2 >= self.target) {
            all.push(&self.open);
        }
        all
    }

    /// Items per second, per slice.
    pub fn rates(&self) -> Vec<f64> {
        self.all()
            .iter()
            .map(|s| s.items as f64 / s.wall.as_secs_f64())
            .collect()
    }

    /// CPU microseconds per item, per slice.
    pub fn cpu_per_item_us(&self) -> Vec<f64> {
        self.all()
            .iter()
            .map(|s| s.cpu.as_secs_f64() * 1e6 / s.items as f64)
            .collect()
    }

    /// The `q`-quantile of round latency and the samples it summarizes:
    /// the median of each slice's `q`-quantile when every slice holds at
    /// least [`ROUNDS_PER_SLICE`] rounds, else the `q`-quantile of every
    /// round.
    pub fn latency_ms(&self, q: f64) -> (f64, Vec<f64>) {
        let all = self.all();
        if all.iter().all(|s| s.latencies_ms.len() >= ROUNDS_PER_SLICE) {
            let per_slice: Vec<f64> = all.iter().map(|s| quantile(&s.latencies_ms, q)).collect();
            (quantile(&per_slice, 0.5), per_slice)
        } else {
            let rounds: Vec<f64> = self
                .closed
                .iter()
                .chain([&self.open])
                .flat_map(|s| s.latencies_ms.iter().copied())
                .collect();
            (quantile(&rounds, q), rounds)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&samples, 0.5), 3.0);
        assert_eq!(quantile(&samples, 0.25), 2.0);
        assert_eq!(quantile(&samples, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn clocks_read() {
        assert!(process_cpu() > Duration::ZERO);
        assert!(peak_rss_mib() > 0.0);
    }
}
