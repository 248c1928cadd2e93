//! Online observability for the BigDataBench-RS serving tier.
//!
//! The paper judges its online services (Nutch search, Olio social,
//! Rubis auction) by user-perceivable latency, and the Tail-at-Scale
//! lesson is that the p99/p99.9 — not the mean — governs experience
//! once requests fan out. This crate is the *online* half of the
//! suite's observability: where `bdb-telemetry` dumps spans and
//! counters for post-hoc analysis, `bdb-obs` watches the request
//! stream as it happens:
//!
//! * [`context`] — per-request trace ids with deterministic seeded
//!   head-sampling plus always-keep tail-sampling (slow, shed, or
//!   timed-out requests are never dropped), Dapper-style;
//! * [`window`] — a ring of [`bdb_telemetry::LatencyHistogram`]
//!   windows giving rolling p50/p99/p99.9 and outcome rates, exported
//!   as Prometheus text with exemplar trace ids and as Chrome-trace
//!   counter tracks;
//! * [`slo`] — the suite's one SLO (99% of requests under 50 ms over
//!   2 s windows) as constants, error-budget accounting, and the
//!   SRE-workbook fast/slow multi-window burn-rate alerts;
//! * [`chain`] — sampled requests as linked span chains
//!   (loadgen → queue → handler → store) that [`chain::reconstruct`]
//!   can rebuild and verify from the flat trace alone;
//! * [`dash`] / [`report`] — a plain-text dashboard per service and a
//!   machine-readable `slo_report.json`.
//!
//! Everything is virtual-time and seed-deterministic: the same seed
//! yields byte-identical reports on any host. Zero external
//! dependencies, like the rest of the suite.
//!
//! # Example
//!
//! ```
//! use bdb_obs::{ObsPipeline, HEAD_RATE};
//! use bdb_serving::{QueueSim, ServiceTimeModel};
//! use std::time::Duration;
//!
//! let model = ServiceTimeModel {
//!     base_us: 2000.0,
//!     sigma: 0.3,
//!     tail_weight: 0.02,
//!     tail_mult: 5.0,
//!     store_share: (0.4, 0.6),
//! };
//! let times = model.sample_times(512, 7);
//! let result = QueueSim::new(4).run(300.0, Duration::from_secs(8), &times, 7);
//! let mut pipe = ObsPipeline::new("demo", 7, HEAD_RATE);
//! pipe.ingest_phase("steady", 0, &result.records, &model);
//! let obs = pipe.finish();
//! assert_eq!(obs.totals.offered, result.records.len() as u64);
//! assert!(obs.alerts.is_empty(), "light load burns no budget");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod context;
pub mod dash;
pub mod report;
pub mod slo;
pub mod window;

pub use chain::{reconstruct, synthesize_chain, ChainInput, ChainView};
pub use context::{derive_trace_id, phase_salt, SampleDecision, SamplingPolicy};
pub use slo::{AlertEvent, BudgetStatus, BurnRateRule, Severity, SloEngine};
pub use window::{ReqEvent, WindowRing, WindowStats};

use bdb_serving::queue::{QueueResult, RequestOutcome, RequestRecord};
use bdb_serving::{QueuePolicy, QueueSim, ServiceTimeModel};
use bdb_telemetry::{ArgValue, CounterTrack, LatencyHistogram, SpanEvent};
use std::time::Duration;

/// The head-sampling rate of the `--slo` and `--tsdb` passes.
pub const HEAD_RATE: f64 = 0.05;

// The steady horizon equals the rolling span (8 × 2 s windows), so
// the rolling-vs-whole-run check compares the same stationary stretch.
/// [`SteadyThenOverload`]'s steady phase: 400 req/s for 16 s.
pub const STEADY: (f64, Duration) =
    (400.0, Duration::from_secs(slo::WINDOW.as_secs() * slo::ROLLING_WINDOWS as u64));
/// [`SteadyThenOverload`]'s shaped overload: 3,200 req/s for 8 s.
pub const OVERLOAD: (f64, Duration) = (3200.0, Duration::from_secs(8));

/// Cumulative outcome totals across every ingested phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Arrivals.
    pub offered: u64,
    /// Completions.
    pub completed: u64,
    /// Admission rejections.
    pub shed: u64,
    /// Deadline abandonments.
    pub timed_out: u64,
    /// SLO-bad events (slow completions + shed + timed out).
    pub bad: u64,
}

/// How many traces the sampler kept, by reason.
#[derive(Debug, Clone, Copy, Default)]
pub struct SamplingCounts {
    /// Total kept.
    pub kept: u64,
    /// Kept by the head sampler.
    pub head: u64,
    /// Kept because they crossed the slow threshold.
    pub tail_slow: u64,
    /// Kept because they were shed or timed out.
    pub tail_error: u64,
}

/// One row of the per-window dashboard table.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Window ordinal.
    pub index: u64,
    /// Window end on the virtual timeline, seconds.
    pub end_s: f64,
    /// Arrivals / completions / drops in the window.
    pub offered: u64,
    /// Completions.
    pub completed: u64,
    /// Admission rejections.
    pub shed: u64,
    /// Deadline abandonments.
    pub timed_out: u64,
    /// Slow completions.
    pub slow: u64,
    /// Window p99, microseconds.
    pub p99_us: u64,
    /// Single-window burn rate.
    pub burn: f64,
}

/// Everything one service's observation run produced.
#[derive(Debug)]
pub struct ServiceObservation {
    /// Service name (e.g. `"Nutch Server"`).
    pub service: String,
    /// Cumulative outcome totals.
    pub totals: Totals,
    /// Error-budget state at end of run.
    pub budget: BudgetStatus,
    /// Alerts fired, in firing order.
    pub alerts: Vec<AlertEvent>,
    /// Rolling latency distribution (last
    /// [`ROLLING_WINDOWS`](slo::ROLLING_WINDOWS) windows).
    pub rolling: LatencyHistogram,
    /// Whole-run latency distribution.
    pub whole: LatencyHistogram,
    /// Per-window table over the retained ring, oldest first.
    pub window_table: Vec<WindowRow>,
    /// Sampled request chains plus alert instants, ready for the
    /// Chrome trace.
    pub spans: Vec<SpanEvent>,
    /// Window rates as Chrome-trace counter tracks.
    pub tracks: Vec<CounterTrack>,
    /// Prometheus text exposition (with exemplars).
    pub prometheus: String,
    /// Sampler accounting.
    pub sampling: SamplingCounts,
    /// Chains found by [`reconstruct`] over `spans`.
    pub chains_total: u64,
    /// Of those, complete and correctly linked for their outcome.
    pub chains_complete: u64,
}

/// The online pipeline: feed phases of request records, then
/// [`ObsPipeline::finish`].
#[derive(Debug)]
pub struct ObsPipeline {
    service: String,
    seed: u64,
    policy: SamplingPolicy,
    ring: WindowRing,
    engine: SloEngine,
    spans: Vec<SpanEvent>,
    totals: Totals,
    sampling: SamplingCounts,
}

impl ObsPipeline {
    /// A pipeline observing `service` against the [`slo`] constants;
    /// `seed` derives the trace ids and `head_rate` is the fraction of
    /// traces the head sampler keeps.
    pub fn new(service: &str, seed: u64, head_rate: f64) -> Self {
        Self {
            service: service.to_owned(),
            seed,
            policy: SamplingPolicy { head_rate },
            ring: WindowRing::new(slo::WINDOW, slo::RING_WINDOWS, slo::THRESHOLD),
            engine: SloEngine::new(),
            spans: Vec::new(),
            totals: Totals::default(),
            sampling: SamplingCounts::default(),
        }
    }

    fn alert_instant(&self, a: &AlertEvent) -> SpanEvent {
        SpanEvent {
            name: "slo-alert",
            cat: "obs",
            start_us: a.at_ns / 1_000,
            dur_us: None,
            tid: 0,
            ctx: None,
            args: vec![
                ("rule", ArgValue::Str(a.rule.to_owned())),
                ("severity", ArgValue::Str(a.severity.label().to_owned())),
                ("slo", ArgValue::Str(slo::SLO_NAME.to_owned())),
                ("long_burn", ArgValue::Float(a.long_burn)),
                ("short_burn", ArgValue::Float(a.short_burn)),
            ],
        }
    }

    /// Ingests one load phase: `records` from a simulation whose
    /// clock starts at `offset_ns` on the pipeline's shared virtual
    /// timeline (phases must be fed in timeline order). `model`
    /// attributes store time inside sampled handler spans.
    pub fn ingest_phase(
        &mut self,
        phase: &str,
        offset_ns: u64,
        records: &[RequestRecord],
        model: &ServiceTimeModel,
    ) {
        let salt = phase_salt(phase);
        // Requests overlap, so windowed metrics need the stream as
        // *events* in time order: arrival at arrival time, terminal
        // outcome when it happens (shed at arrival, timed-out at
        // abandonment, completed at finish).
        #[derive(Clone, Copy)]
        enum Kind {
            Arrive,
            Terminal,
        }
        let mut events: Vec<(u64, u8, u64, Kind)> = Vec::with_capacity(records.len() * 2);
        for r in records {
            events.push((r.arrival_ns, 0, r.seq, Kind::Arrive));
            // Unfinished requests have no terminal event inside the
            // horizon; they count as offered only.
            if let Some(t) = r.terminal_ns() {
                events.push((t, 1, r.seq, Kind::Terminal));
            }
        }
        events.sort_by_key(|&(t, kind, seq, _)| (t, kind, seq));

        for (t, _, seq, kind) in events {
            let r = &records[seq as usize];
            let trace = derive_trace_id(self.seed, salt, seq);
            let ev = match kind {
                Kind::Arrive => ReqEvent::Offered,
                Kind::Terminal => match r.outcome {
                    RequestOutcome::Shed => {
                        ReqEvent::Shed { trace, sampled: self.policy.decide(trace, r).keep() }
                    }
                    RequestOutcome::TimedOut => {
                        ReqEvent::TimedOut { trace, sampled: self.policy.decide(trace, r).keep() }
                    }
                    _ => ReqEvent::Completed {
                        latency_us: r.latency_ns() / 1_000,
                        trace,
                        sampled: self.policy.decide(trace, r).keep(),
                    },
                },
            };
            for closed in self.ring.observe(offset_ns + t, ev) {
                for alert in self.engine.on_window_close(&closed) {
                    let instant = self.alert_instant(&alert);
                    self.spans.push(instant);
                }
            }
        }

        // Totals, sampling decisions, and span chains per request.
        for r in records {
            self.totals.offered += 1;
            match r.outcome {
                RequestOutcome::Completed => {
                    self.totals.completed += 1;
                    if r.latency_ns() >= slo::THRESHOLD.as_nanos() as u64 {
                        self.totals.bad += 1;
                    }
                }
                RequestOutcome::Shed => {
                    self.totals.shed += 1;
                    self.totals.bad += 1;
                }
                RequestOutcome::TimedOut => {
                    self.totals.timed_out += 1;
                    self.totals.bad += 1;
                }
                RequestOutcome::Unfinished => {}
            }
            let trace = derive_trace_id(self.seed, salt, r.seq);
            let decision = self.policy.decide(trace, r);
            if !decision.keep() {
                continue;
            }
            self.sampling.kept += 1;
            match decision {
                SampleDecision::Head => self.sampling.head += 1,
                SampleDecision::TailSlow => self.sampling.tail_slow += 1,
                SampleDecision::TailError => self.sampling.tail_error += 1,
                SampleDecision::Drop => unreachable!("kept"),
            }
            self.spans.extend(synthesize_chain(&ChainInput {
                trace,
                record: r,
                decision,
                phase,
                store_fraction: model.store_fraction(trace.0),
                offset_us: offset_ns / 1_000,
            }));
        }
    }

    /// Closes the stream and assembles the full observation.
    pub fn finish(mut self) -> ServiceObservation {
        let last = self.ring.flush();
        for alert in self.engine.on_window_close(&last) {
            let instant = self.alert_instant(&alert);
            self.spans.push(instant);
        }
        let width_s = slo::WINDOW.as_secs_f64();
        let window_table: Vec<WindowRow> = self
            .ring
            .closed()
            .map(|w| WindowRow {
                index: w.index,
                end_s: (w.index + 1) as f64 * width_s,
                offered: w.offered,
                completed: w.completed,
                shed: w.shed,
                timed_out: w.timed_out,
                slow: w.slow,
                p99_us: w.hist.p99().as_micros() as u64,
                burn: if w.total() == 0 {
                    0.0
                } else {
                    (w.bad() as f64 / w.total() as f64) / slo::BUDGET
                },
            })
            .collect();
        let views = reconstruct(&self.spans);
        let chains_complete = views.iter().filter(|v| v.complete).count() as u64;
        let rolling = self.ring.rolling_hist(slo::ROLLING_WINDOWS);
        let prometheus = self.ring.prometheus_text(&self.service, slo::ROLLING_WINDOWS);
        let tracks = self.ring.counter_tracks(&self.service);
        ServiceObservation {
            service: self.service,
            totals: self.totals,
            budget: self.engine.budget(),
            alerts: self.engine.alerts().to_vec(),
            rolling,
            whole: self.ring.whole_hist().clone(),
            window_table,
            spans: self.spans,
            tracks,
            prometheus,
            sampling: self.sampling,
            chains_total: views.len() as u64,
            chains_complete,
        }
    }
}

/// A [`STEADY`] phase followed by a shaped [`OVERLOAD`] on one virtual
/// timeline: the load under which the burn-rate alerts must first stay
/// quiet and then fire. Both phases run on four workers; the overload
/// runs behind a 64-deep queue with an 80 ms deadline and is seeded
/// with `seed ^ 0xBEEF`, so its arrivals differ from the steady ones.
#[derive(Debug, Clone)]
pub struct SteadyThenOverload {
    /// The steady phase, starting at time zero.
    pub steady: QueueResult,
    /// The overload phase, starting where the steady phase ends.
    pub overload: QueueResult,
    /// Virtual time at which the overload starts.
    pub overload_at_ns: u64,
}

impl SteadyThenOverload {
    /// Simulates [`STEADY`] then [`OVERLOAD`], drawing service times
    /// round-robin from `times`.
    pub fn run(times: &[Duration], seed: u64) -> Self {
        let policy =
            QueuePolicy { queue_capacity: Some(64), deadline: Some(Duration::from_millis(80)) };
        let overload = QueueSim::new(4).with_policy(policy);
        Self {
            steady: QueueSim::new(4).run(STEADY.0, STEADY.1, times, seed),
            overload: overload.run(OVERLOAD.0, OVERLOAD.1, times, seed ^ 0xBEEF),
            overload_at_ns: STEADY.1.as_nanos() as u64,
        }
    }

    /// Feeds both phases into `pipe` as `steady` and `overload`.
    pub fn ingest(&self, pipe: &mut ObsPipeline, model: &ServiceTimeModel) {
        pipe.ingest_phase("steady", 0, &self.steady.records, model);
        pipe.ingest_phase("overload", self.overload_at_ns, &self.overload.records, model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The service-time model of the crate's unit tests.
    pub(crate) fn model() -> ServiceTimeModel {
        ServiceTimeModel {
            base_us: 2000.0,
            sigma: 0.3,
            tail_weight: 0.02,
            tail_mult: 5.0,
            store_share: (0.4, 0.6),
        }
    }

    #[test]
    fn steady_run_stays_quiet_and_reconciles() {
        let m = model();
        let times = m.sample_times(1024, 11);
        let qr = QueueSim::new(4).run(300.0, Duration::from_secs(10), &times, 11);
        let mut pipe = ObsPipeline::new("svc", 11, HEAD_RATE);
        pipe.ingest_phase("steady", 0, &qr.records, &m);
        let obs = pipe.finish();
        assert_eq!(obs.totals.offered, qr.records.len() as u64);
        assert_eq!(obs.totals.completed, qr.completed);
        assert!(obs.alerts.is_empty(), "steady load must not alert: {:?}", obs.alerts);
        assert!(obs.budget.remaining() > 0.5);
        // Every chain we kept reconstructs.
        assert!(obs.chains_total > 0);
        assert_eq!(obs.chains_total, obs.chains_complete);
        assert_eq!(obs.chains_total, obs.sampling.kept);
        // Rolling histogram ⊆ whole-run histogram.
        assert!(obs.rolling.count() <= obs.whole.count());
        bdb_telemetry::assert_prometheus_grammar(&obs.prometheus);
    }

    #[test]
    fn overload_phase_fires_the_page_alert_deterministically() {
        let run = |seed: u64| {
            let m = model();
            let times = m.sample_times(1024, seed);
            let load = SteadyThenOverload::run(&times, seed);
            let mut pipe = ObsPipeline::new("svc", seed, HEAD_RATE);
            load.ingest(&mut pipe, &m);
            pipe.finish()
        };
        let a = run(5);
        let pages: Vec<_> = a.alerts.iter().filter(|al| al.severity == Severity::Page).collect();
        assert_eq!(pages.len(), 1, "sustained overload fires the page rule once: {:?}", a.alerts);
        assert!(pages[0].at_ns > STEADY.1.as_nanos() as u64, "fires inside the overload phase");
        assert!(pages[0].long_burn >= 14.0 && pages[0].short_burn >= 14.0);
        // Alert instants land in the span stream.
        assert!(a.spans.iter().any(|s| s.name == "slo-alert" && s.dur_us.is_none()));

        // Same seed → identical alerts; different seed → still fires.
        let b = run(5);
        assert_eq!(a.alerts.len(), b.alerts.len());
        assert_eq!(a.alerts[0].window_index, b.alerts[0].window_index);
        let c = run(6);
        assert!(c.alerts.iter().any(|al| al.severity == Severity::Page));
    }

    #[test]
    fn rolling_tails_match_whole_run_within_one_bucket_on_steady_state() {
        let m = model();
        let times = m.sample_times(2048, 3);
        // The steady horizon is the rolling span, so the rolling view
        // and the whole run cover the same stationary load.
        let qr = QueueSim::new(4).run(STEADY.0, STEADY.1, &times, 3);
        let mut pipe = ObsPipeline::new("svc", 3, HEAD_RATE);
        pipe.ingest_phase("steady", 0, &qr.records, &m);
        let obs = pipe.finish();
        for q in [0.99, 0.999] {
            let roll = obs.rolling.percentile(q).as_micros() as u64;
            let whole = obs.whole.percentile(q).as_micros() as u64;
            // Within one log bucket: the bucket of one contains or
            // neighbors the bucket of the other.
            let (ri, wi) = (bdb_telemetry::bucket_index(roll), bdb_telemetry::bucket_index(whole));
            assert!(
                ri.abs_diff(wi) <= 1,
                "q={q}: rolling {roll}µs (bucket {ri}) vs whole {whole}µs (bucket {wi})"
            );
        }
    }

    #[test]
    fn pipeline_is_byte_deterministic() {
        let run = || {
            let m = model();
            let times = m.sample_times(512, 9);
            let qr = QueueSim::new(4).run(500.0, Duration::from_secs(6), &times, 9);
            let mut pipe = ObsPipeline::new("svc", 9, HEAD_RATE);
            pipe.ingest_phase("steady", 0, &qr.records, &m);
            pipe.finish()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.prometheus, b.prometheus);
        assert_eq!(a.spans.len(), b.spans.len());
        assert_eq!(dash::render(&a), dash::render(&b));
    }
}
