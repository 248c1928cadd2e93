//! Load generation: closed-loop native measurement and offered-load
//! simulation.

use crate::queue::{QueueSim, RequestOutcome, RequestRecord};
use crate::server::Server;
use bdb_archsim::NullProbe;
use bdb_telemetry::{span, LatencyHistogram, MetricsRegistry, SpanRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Result of one service-workload run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Workload name.
    pub name: String,
    /// Offered load in requests/s (`None` for closed-loop runs).
    pub offered_rps: Option<f64>,
    /// Requests completed.
    pub completed: u64,
    /// Achieved requests per second — the paper's RPS metric.
    pub achieved_rps: f64,
    /// Latency distribution (per-request service or sojourn times).
    pub latency: LatencyHistogram,
    /// Sum of handler result sizes (sanity signal that work happened).
    pub result_units: u64,
    /// Per-request outcome stream in arrival order (see
    /// [`RequestRecord`]). Offered-load runs forward the simulator's
    /// stream; closed-loop runs synthesize one `Completed` record per
    /// request from the measured service times. The aggregate fields
    /// above are unchanged and remain derivable from this stream.
    pub records: Vec<RequestRecord>,
}

impl ServiceReport {
    /// Whether the service saturated (achieved materially below offered).
    pub fn saturated(&self) -> bool {
        self.offered_rps.is_some_and(|o| self.achieved_rps < o * 0.9)
    }
}

/// Captures Prometheus text-format expositions of a [`MetricsRegistry`]
/// at a fixed request cadence, so a load run leaves behind a series of
/// scrape-like snapshots rather than only one final state.
#[derive(Debug)]
pub struct PrometheusSampler {
    every: usize,
    seen: usize,
    snapshots: Vec<String>,
}

impl PrometheusSampler {
    /// A sampler that scrapes after every `requests` completed requests
    /// (clamped to at least 1).
    pub fn every(requests: usize) -> Self {
        Self { every: requests.max(1), seen: 0, snapshots: Vec::new() }
    }

    /// Counts one completed request, scraping `metrics` when the
    /// cadence comes due.
    pub fn tick(&mut self, metrics: &MetricsRegistry) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            self.snapshots.push(metrics.prometheus_text());
        }
    }

    /// The expositions captured so far, in scrape order.
    pub fn snapshots(&self) -> &[String] {
        &self.snapshots
    }

    /// Takes one final scrape of `metrics` and returns every captured
    /// exposition. The last entry always reflects the end-of-run state.
    pub fn finish(mut self, metrics: &MetricsRegistry) -> Vec<String> {
        self.snapshots.push(metrics.prometheus_text());
        self.snapshots
    }
}

/// Runs `requests` back-to-back requests (closed loop, zero think time)
/// natively, measuring true service times.
pub fn run_closed_loop<S: Server>(server: &mut S, requests: usize, seed: u64) -> ServiceReport {
    closed_loop_impl(
        server,
        requests,
        seed,
        &SpanRecorder::disabled(),
        &MetricsRegistry::new(),
        None,
    )
}

/// [`run_closed_loop`] with telemetry and periodic Prometheus scrapes:
/// each request becomes a span on `telemetry`, its service time feeds
/// the `serving.request_us` histogram in `metrics` and it increments
/// the `serving.requests` counter there, and `sampler` ticks once per
/// completed request, capturing text-format expositions of `metrics`
/// at its cadence.
pub fn run_closed_loop_sampled<S: Server>(
    server: &mut S,
    requests: usize,
    seed: u64,
    telemetry: &SpanRecorder,
    metrics: &MetricsRegistry,
    sampler: &mut PrometheusSampler,
) -> ServiceReport {
    closed_loop_impl(server, requests, seed, telemetry, metrics, Some(sampler))
}

fn closed_loop_impl<S: Server>(
    server: &mut S,
    requests: usize,
    seed: u64,
    telemetry: &SpanRecorder,
    metrics: &MetricsRegistry,
    mut sampler: Option<&mut PrometheusSampler>,
) -> ServiceReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latency = LatencyHistogram::new();
    let mut result_units = 0u64;
    let mut records = Vec::with_capacity(requests);
    let mut clock_ns = 0u64;
    let instrumented = sampler.is_some();
    let request_us =
        if instrumented { Some(metrics.histogram("serving.request_us")) } else { None };
    let completed_requests = metrics.counter("serving.requests");
    let _run = span!(telemetry, "serving", "closed-loop", requests = requests);
    let start = Instant::now();
    for i in 0..requests {
        let req = server.sample_request(&mut rng);
        let mut s = span!(telemetry, "serving", "request", seq = i);
        let t0 = Instant::now();
        let units = server.handle(&req, &mut NullProbe) as u64;
        let service_time = t0.elapsed();
        s.arg("units", units);
        drop(s);
        result_units += units;
        latency.record(service_time);
        // Closed loop = one worker, zero think time: each request
        // arrives the instant the previous one finishes.
        let service_ns = service_time.as_nanos() as u64;
        records.push(RequestRecord {
            seq: i as u64,
            arrival_ns: clock_ns,
            start_ns: Some(clock_ns),
            finish_ns: Some(clock_ns + service_ns),
            service_ns,
            worker: Some(0),
            outcome: RequestOutcome::Completed,
        });
        clock_ns += service_ns;
        if let Some(h) = &request_us {
            h.record(service_time);
        }
        if instrumented {
            // Incremented per request (not once at the end) so periodic
            // scrapes observe the counter advancing monotonically.
            completed_requests.inc();
        }
        if let Some(sampler) = sampler.as_deref_mut() {
            sampler.tick(metrics);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    ServiceReport {
        name: server.name().to_owned(),
        offered_rps: None,
        completed: requests as u64,
        achieved_rps: if elapsed > 0.0 { requests as f64 / elapsed } else { 0.0 },
        latency,
        result_units,
        records,
    }
}

/// Measures the server's empirical service-time distribution natively
/// (over `samples` requests), then simulates Poisson arrivals at
/// `offered_rps` for `horizon` through [`QueueSim`] with `workers`
/// parallel servers.
///
/// This mirrors the paper's experiment (Table 6: 100×(1..32) req/s
/// offered to each service) without measuring the host machine's
/// timer resolution at low loads.
pub fn run_offered_load<S: Server>(
    server: &mut S,
    offered_rps: f64,
    horizon: Duration,
    workers: u32,
    samples: usize,
    seed: u64,
) -> ServiceReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut service_times = Vec::with_capacity(samples.max(1));
    let mut result_units = 0u64;
    for _ in 0..samples.max(1) {
        let req = server.sample_request(&mut rng);
        let t0 = Instant::now();
        result_units += server.handle(&req, &mut NullProbe) as u64;
        // Guard against timer quantization on very fast handlers.
        service_times.push(t0.elapsed().max(Duration::from_nanos(200)));
    }
    let qr = QueueSim::new(workers).run(offered_rps, horizon, &service_times, seed ^ 0x51AB);
    ServiceReport {
        name: server.name().to_owned(),
        offered_rps: Some(offered_rps),
        completed: qr.completed,
        achieved_rps: qr.achieved_rps,
        latency: qr.latency,
        result_units,
        records: qr.records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_archsim::Probe;
    use rand::Rng;

    /// A server with a deterministic ~50µs of spin work per request.
    struct Spin;
    impl Server for Spin {
        type Request = u32;
        fn name(&self) -> &str {
            "spin"
        }
        fn sample_request(&self, rng: &mut StdRng) -> u32 {
            rng.gen_range(1000..2000)
        }
        fn handle<P: Probe + ?Sized>(&mut self, request: &u32, _p: &mut P) -> usize {
            let mut acc = 0u64;
            for i in 0..*request * 20 {
                acc = acc.wrapping_mul(31).wrapping_add(i as u64);
            }
            (acc % 7) as usize + 1
        }
    }

    #[test]
    fn closed_loop_measures_throughput() {
        let mut s = Spin;
        let r = run_closed_loop(&mut s, 200, 1);
        assert_eq!(r.completed, 200);
        assert!(r.achieved_rps > 100.0, "spin server is fast: {}", r.achieved_rps);
        assert!(r.result_units >= 200);
        assert!(r.offered_rps.is_none());
        assert!(!r.saturated());
    }

    #[test]
    fn offered_load_tracks_then_saturates() {
        let mut s = Spin;
        // Measure capacity via closed loop first.
        let capacity = run_closed_loop(&mut s, 500, 2).achieved_rps;
        let light = run_offered_load(&mut s, capacity * 0.05, Duration::from_secs(5), 1, 200, 3);
        assert!(
            (light.achieved_rps - capacity * 0.05).abs() / (capacity * 0.05) < 0.15,
            "light load achieves offered: {} vs {}",
            light.achieved_rps,
            capacity * 0.05
        );
        let heavy = run_offered_load(&mut s, capacity * 4.0, Duration::from_secs(5), 1, 200, 3);
        assert!(heavy.saturated(), "4x capacity must saturate");
        assert!(heavy.achieved_rps < capacity * 1.6);
    }

    #[test]
    fn reports_carry_request_records() {
        let mut s = Spin;
        let closed = run_closed_loop(&mut s, 40, 5);
        assert_eq!(closed.records.len(), 40);
        assert!(closed
            .records
            .iter()
            .all(|r| r.outcome == crate::queue::RequestOutcome::Completed));
        // Arrivals chain back-to-back on the synthetic closed-loop clock.
        for pair in closed.records.windows(2) {
            assert_eq!(pair[1].arrival_ns, pair[0].finish_ns.unwrap());
        }

        let offered = run_offered_load(&mut s, 50.0, Duration::from_secs(2), 2, 100, 5);
        assert!(!offered.records.is_empty());
        let done = offered
            .records
            .iter()
            .filter(|r| r.outcome == crate::queue::RequestOutcome::Completed)
            .count() as u64;
        assert_eq!(done, offered.completed);
    }

    #[test]
    fn instrumented_loop_emits_request_spans() {
        let mut s = Spin;
        let telemetry = SpanRecorder::enabled();
        let metrics = MetricsRegistry::new();
        let mut sampler = PrometheusSampler::every(10);
        let r = run_closed_loop_sampled(&mut s, 25, 1, &telemetry, &metrics, &mut sampler);
        assert_eq!(r.completed, 25);
        let events = telemetry.events();
        let requests = events.iter().filter(|e| e.name == "request").count();
        assert_eq!(requests, 25, "one span per request");
        assert!(events.iter().any(|e| e.name == "closed-loop"));
        assert_eq!(metrics.histogram("serving.request_us").snapshot().count(), 25);
        assert_eq!(metrics.counter("serving.requests").get(), 25);
    }

    #[test]
    fn sampled_loop_scrapes_prometheus_periodically() {
        let mut s = Spin;
        let telemetry = SpanRecorder::enabled();
        let metrics = MetricsRegistry::new();
        let mut sampler = PrometheusSampler::every(10);
        let r = run_closed_loop_sampled(&mut s, 25, 1, &telemetry, &metrics, &mut sampler);
        assert_eq!(r.completed, 25);
        // Scrapes after requests 10 and 20, plus the final one.
        let snapshots = sampler.finish(&metrics);
        assert_eq!(snapshots.len(), 3);
        for (text, want) in snapshots.iter().zip(["10", "20", "25"]) {
            assert!(
                text.contains(&format!("serving_requests {want}")),
                "scrape should show {want} requests: {text}"
            );
            assert!(text.contains("# TYPE serving_request_us histogram"));
        }
        // The request counter advances monotonically across scrapes.
        assert_eq!(metrics.counter("serving.requests").get(), 25);
    }

    #[test]
    fn sampler_without_telemetry_still_observes_metrics() {
        let mut s = Spin;
        let metrics = MetricsRegistry::new();
        let mut sampler = PrometheusSampler::every(100);
        run_closed_loop_sampled(&mut s, 30, 1, &SpanRecorder::disabled(), &metrics, &mut sampler);
        let snapshots = sampler.finish(&metrics);
        assert_eq!(snapshots.len(), 1, "cadence longer than the run: final scrape only");
        assert!(snapshots[0].contains("serving_requests 30"));
    }
}
