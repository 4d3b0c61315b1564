//! Deterministic arrival curves: a diurnal sinusoid plus seeded bursts
//! with exactly conserved integer mass.
//!
//! The curve is materialised once per run as two per-round integer
//! vectors:
//!
//! * **Base** — `round(base · (1 + amplitude · sin(2π·(r/period +
//!   phase))))` bids from the stable user-id space. The sine is a
//!   Bhāskara I rational approximation evaluated with plain IEEE
//!   arithmetic — unlike `f64::sin`, which may differ between libm
//!   builds, every operation here is exactly specified, so a pinned
//!   baseline fingerprints identically on every platform.
//! * **Burst** — each of `bursts` seeded flash crowds drops
//!   `burst_mass` *extra* bids starting at a seeded round, spread over
//!   `burst_width` rounds by integer division (quotient per round,
//!   remainder to the earliest rounds, wrapping at the horizon). The
//!   sum of burst counts is exactly `bursts · burst_mass` — mass is
//!   conserved, not resampled.
//!
//! Burst bids come from a reserved user-id space
//! ([`BURST_USER_BASE`]`+ …`), allocated by prefix sums over the curve
//! so every burst bidder has a distinct, deterministic id.

use mcs_obs::digest::mix64;

use super::spec::ArrivalSpec;

/// First user id of the burst population, far above any base user.
pub const BURST_USER_BASE: u32 = 1_000_000;

/// Domain salt for burst start rounds.
const SALT_BURST: u64 = 0x4255_5253;

/// Bhāskara I's sine approximation on one full cycle, `turns ∈ ℝ`
/// interpreted modulo 1. Max absolute error ≈ 0.0016 — invisible under
/// integer rounding of arrival counts — and bit-deterministic
/// everywhere, because it uses only IEEE `+ − × ÷`.
fn det_sin(turns: f64) -> f64 {
    use std::f64::consts::PI;
    let t = turns - turns.floor();
    let (t, sign) = if t < 0.5 { (t, 1.0) } else { (t - 0.5, -1.0) };
    let x = t * (2.0 * PI);
    sign * 16.0 * x * (PI - x) / (5.0 * PI * PI - 4.0 * x * (PI - x))
}

/// A materialised arrival curve over one scenario horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalCurve {
    base: Vec<u32>,
    burst: Vec<u32>,
    /// `burst_before[r]` = Σ burst[0..r] — the id offset of round `r`'s
    /// first burst bidder.
    burst_before: Vec<u64>,
}

impl ArrivalCurve {
    /// Materialises the curve for `rounds` rounds from `spec` and the
    /// scenario seed.
    pub fn generate(spec: &ArrivalSpec, seed: u64, rounds: u64) -> ArrivalCurve {
        let mut base = Vec::with_capacity(rounds as usize);
        for round in 0..rounds {
            let turns = round as f64 / spec.period as f64 + spec.phase;
            let rate = spec.base * (1.0 + spec.amplitude * det_sin(turns));
            base.push((rate + 0.5).floor().max(0.0) as u32);
        }
        let mut burst = vec![0u32; rounds as usize];
        let width = spec.burst_width.min(rounds).max(1);
        for index in 0..spec.bursts {
            let start = mix64(seed ^ SALT_BURST, index as u64, 0) % rounds;
            let quotient = spec.burst_mass / width as u32;
            let remainder = spec.burst_mass % width as u32;
            for k in 0..width {
                let at = ((start + k) % rounds) as usize;
                burst[at] += quotient + u32::from((k as u32) < remainder);
            }
        }
        let mut burst_before = Vec::with_capacity(rounds as usize);
        let mut running = 0u64;
        for &count in &burst {
            burst_before.push(running);
            running += count as u64;
        }
        ArrivalCurve {
            base,
            burst,
            burst_before,
        }
    }

    /// The horizon this curve covers.
    pub fn rounds(&self) -> u64 {
        self.base.len() as u64
    }

    /// Diurnal bids in round `round`.
    pub fn base_count(&self, round: u64) -> u32 {
        self.base[round as usize]
    }

    /// Burst bids in round `round`.
    pub fn burst_count(&self, round: u64) -> u32 {
        self.burst[round as usize]
    }

    /// Total bids in round `round`.
    pub fn count(&self, round: u64) -> u32 {
        self.base_count(round) + self.burst_count(round)
    }

    /// Burst bids in all rounds before `round` — the id offset of this
    /// round's first burst bidder within the reserved space.
    pub fn burst_offset(&self, round: u64) -> u64 {
        self.burst_before[round as usize]
    }

    /// Total diurnal bids over the horizon.
    pub fn base_total(&self) -> u64 {
        self.base.iter().map(|&c| c as u64).sum()
    }

    /// Total burst bids over the horizon.
    pub fn burst_total(&self) -> u64 {
        self.burst.iter().map(|&c| c as u64).sum()
    }

    /// Total bids over the horizon.
    pub fn total(&self) -> u64 {
        self.base_total() + self.burst_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ArrivalSpec {
        ArrivalSpec {
            base: 8.0,
            amplitude: 0.5,
            period: 12,
            phase: 0.0,
            bursts: 3,
            burst_mass: 20,
            burst_width: 4,
        }
    }

    #[test]
    fn det_sin_tracks_the_real_sine() {
        for i in 0..1000 {
            let turns = i as f64 / 1000.0;
            let exact = (turns * std::f64::consts::TAU).sin();
            assert!(
                (det_sin(turns) - exact).abs() < 2e-3,
                "turns {turns}: {} vs {exact}",
                det_sin(turns)
            );
        }
    }

    #[test]
    fn burst_mass_is_exactly_conserved() {
        let curve = ArrivalCurve::generate(&spec(), 42, 24);
        assert_eq!(curve.burst_total(), 3 * 20);
        // Even when the width exceeds the horizon.
        let wide = ArrivalSpec {
            burst_width: 100,
            ..spec()
        };
        let curve = ArrivalCurve::generate(&wide, 42, 6);
        assert_eq!(curve.burst_total(), 3 * 20);
    }

    #[test]
    fn curves_are_seed_deterministic_and_seed_sensitive() {
        let a = ArrivalCurve::generate(&spec(), 42, 24);
        let b = ArrivalCurve::generate(&spec(), 42, 24);
        let c = ArrivalCurve::generate(&spec(), 43, 24);
        assert_eq!(a, b);
        assert_ne!(a, c, "bursts should move with the seed");
    }

    #[test]
    fn burst_offsets_are_prefix_sums() {
        let curve = ArrivalCurve::generate(&spec(), 42, 24);
        let mut running = 0u64;
        for round in 0..24 {
            assert_eq!(curve.burst_offset(round), running);
            running += curve.burst_count(round) as u64;
        }
        assert_eq!(running, curve.burst_total());
    }

    #[test]
    fn flat_curves_hit_the_base_rate_exactly() {
        let flat = ArrivalSpec {
            amplitude: 0.0,
            bursts: 0,
            ..spec()
        };
        let curve = ArrivalCurve::generate(&flat, 7, 10);
        assert_eq!(curve.total(), 80);
        for round in 0..10 {
            assert_eq!(curve.count(round), 8);
        }
    }
}
