//! Deterministic service-time models for the serving workloads.
//!
//! The load generator normally *measures* service times by running the
//! real handler natively, which is faithful but host-dependent: the
//! same seed gives different latency distributions on different
//! machines. The SLO/observability pass (`reproduce -- --slo`) needs
//! the opposite trade-off — byte-identical reports for a given seed on
//! any host — so each server also publishes a modeled service-time
//! distribution calibrated to its handler's shape: a lognormal-ish
//! body (multiplicative noise around a base cost) plus a small
//! heavy-tail mode standing in for cache-miss / lock-convoy outliers,
//! the Tail-at-Scale source of p99.9 pain.
//!
//! Everything here is driven by [`splitmix64`] over a user seed; no
//! RNG state leaks between calls, so samples are reproducible and
//! order-independent.

use bdb_archsim::layout::splitmix64;
use std::time::Duration;

/// Uniform in [0, 1) from one mixed word.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Standard-normal-ish deviate via Irwin–Hall (sum of 12 uniforms
/// minus 6): cheap, deterministic, and close enough to Gaussian for a
/// latency body. Bounded in [-6, 6], which conveniently caps the
/// lognormal body.
fn normal_ih(stream: u64, n: u64) -> f64 {
    let mut acc = 0.0f64;
    for k in 0..12u64 {
        acc += unit(splitmix64(stream ^ n.wrapping_mul(12).wrapping_add(k)));
    }
    acc - 6.0
}

/// A modeled per-request service-time distribution.
#[derive(Debug, Clone, Copy)]
pub struct ServiceTimeModel {
    /// Median body service time, microseconds.
    pub base_us: f64,
    /// Lognormal body spread (sigma of the log).
    pub sigma: f64,
    /// Probability a request lands in the heavy-tail mode.
    pub tail_weight: f64,
    /// Multiplier applied to tail-mode requests.
    pub tail_mult: f64,
    /// `(min, max)` fraction of service time spent in the state store
    /// (index / relation / feed lookups) rather than compute+render.
    pub store_share: (f64, f64),
}

impl ServiceTimeModel {
    /// Draws the service time of request `n` under `seed`. Pure: the
    /// same `(seed, n)` always yields the same duration.
    pub fn service_time(&self, seed: u64, n: u64) -> Duration {
        let stream = splitmix64(seed ^ 0xC0DE_5EED);
        let body = self.base_us * (self.sigma * normal_ih(stream, n)).exp();
        let tail_draw = unit(splitmix64(stream ^ splitmix64(n ^ 0x7A11)));
        let us = if tail_draw < self.tail_weight { body * self.tail_mult } else { body };
        Duration::from_nanos((us * 1e3).max(1.0) as u64)
    }

    /// Draws `n` service times (requests `0..n`) under `seed`.
    pub fn sample_times(&self, n: usize, seed: u64) -> Vec<Duration> {
        (0..n as u64).map(|i| self.service_time(seed, i)).collect()
    }

    /// Deterministic fraction of a request's service time attributed
    /// to the state store, in `[store_share.0, store_share.1]`, keyed
    /// by trace id so the observability layer can split the handler
    /// span without threading extra state through the simulator.
    pub fn store_fraction(&self, trace_id: u64) -> f64 {
        let (lo, hi) = self.store_share;
        lo + (hi - lo) * unit(splitmix64(trace_id ^ 0x57_0BE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ServiceTimeModel {
        ServiceTimeModel {
            base_us: 2500.0,
            sigma: 0.35,
            tail_weight: 0.02,
            tail_mult: 6.0,
            store_share: (0.35, 0.55),
        }
    }

    #[test]
    fn samples_are_deterministic_and_positive() {
        let m = model();
        let a = m.sample_times(500, 42);
        let b = m.sample_times(500, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|d| !d.is_zero()));
        let c = m.sample_times(500, 43);
        assert_ne!(a, c, "different seeds give different draws");
    }

    #[test]
    fn body_centers_near_base_with_a_real_tail() {
        let m = model();
        let times = m.sample_times(4000, 7);
        let mut us: Vec<u64> = times.iter().map(|d| d.as_micros() as u64).collect();
        us.sort_unstable();
        let median = us[us.len() / 2] as f64;
        assert!(
            (median - m.base_us).abs() < m.base_us * 0.2,
            "median {median} far from base {}",
            m.base_us
        );
        // The tail mode pushes the max well past the body's reach.
        let p999 = us[(us.len() as f64 * 0.999) as usize] as f64;
        assert!(p999 > m.base_us * 4.0, "p999 {p999} lacks a heavy tail");
        let tail = us.iter().filter(|&&t| t as f64 > m.base_us * 3.0).count() as f64;
        let frac = tail / us.len() as f64;
        assert!(frac > 0.005 && frac < 0.06, "tail fraction {frac}");
    }

    #[test]
    fn store_fraction_stays_in_range_and_varies() {
        let m = model();
        let mut distinct = std::collections::HashSet::new();
        for id in 0..200u64 {
            let f = m.store_fraction(splitmix64(id));
            assert!(f >= m.store_share.0 && f <= m.store_share.1, "{f}");
            distinct.insert((f * 1e6) as u64);
        }
        assert!(distinct.len() > 100, "fractions should vary per trace id");
        assert_eq!(m.store_fraction(99), m.store_fraction(99));
    }

    #[test]
    fn splitmix_mixes() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(splitmix64(0), 0);
    }
}
