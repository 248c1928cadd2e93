//! Property-based invariants of the queueing simulator and latency
//! histogram.

use bdb_serving::QueueSim;
use bdb_telemetry::LatencyHistogram;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    /// Conservation: every simulated arrival is either completed or
    /// still in the system; utilization is a valid fraction.
    #[test]
    fn conservation(
        offered in 1.0f64..500.0,
        workers in 1u32..8,
        service_us in 100u64..20_000,
        seed in any::<u64>(),
    ) {
        let sim = QueueSim::new(workers);
        let horizon = Duration::from_secs(5);
        let r = sim.run(offered, horizon, &[Duration::from_micros(service_us)], seed);
        prop_assert_eq!(r.latency.count(), r.completed);
        prop_assert!(r.utilization >= 0.0 && r.utilization <= 1.0 + 1e-9);
        prop_assert!(r.achieved_rps <= offered * 1.5 + 10.0, "cannot exceed arrivals by much");
    }

    /// Latency is bounded below by the service time.
    #[test]
    fn latency_at_least_service(
        offered in 1.0f64..200.0,
        service_us in 500u64..10_000,
        seed in any::<u64>(),
    ) {
        let sim = QueueSim::new(4);
        let r = sim.run(offered, Duration::from_secs(5), &[Duration::from_micros(service_us)], seed);
        if r.completed > 0 {
            prop_assert!(r.latency.percentile(0.0) >= Duration::from_micros(service_us * 9 / 10));
        }
    }

    /// Throughput never exceeds theoretical capacity (workers/service).
    #[test]
    fn capacity_bound(
        offered in 50.0f64..2000.0,
        workers in 1u32..6,
        service_ms in 1u64..20,
        seed in any::<u64>(),
    ) {
        let sim = QueueSim::new(workers);
        let r = sim.run(offered, Duration::from_secs(5), &[Duration::from_millis(service_ms)], seed);
        let capacity = workers as f64 * 1000.0 / service_ms as f64;
        prop_assert!(
            r.achieved_rps <= capacity * 1.1 + 5.0,
            "achieved {} vs capacity {capacity}",
            r.achieved_rps
        );
    }

    /// Histogram percentiles are monotone in the quantile for any data.
    #[test]
    fn percentiles_monotone(samples in proptest::collection::vec(1u64..10_000_000, 1..300)) {
        let mut h = LatencyHistogram::new();
        for s in &samples {
            h.record(Duration::from_micros(*s));
        }
        let qs = [0.1, 0.5, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            prop_assert!(h.percentile(w[0]) <= h.percentile(w[1]));
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        // The p100 upper bound is within the histogram's relative error
        // of the true max.
        let max = *samples.iter().max().expect("nonempty");
        let p100 = h.percentile(1.0).as_micros() as u64;
        prop_assert!(p100 <= max.max(1));
    }

    /// Merging histograms preserves counts and maxima.
    #[test]
    fn merge_preserves(
        a in proptest::collection::vec(1u64..1_000_000, 0..100),
        b in proptest::collection::vec(1u64..1_000_000, 0..100),
    ) {
        let mut ha = LatencyHistogram::new();
        for s in &a {
            ha.record(Duration::from_micros(*s));
        }
        let mut hb = LatencyHistogram::new();
        for s in &b {
            hb.record(Duration::from_micros(*s));
        }
        let max = ha.max().max(hb.max());
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(ha.max(), max);
    }
}
