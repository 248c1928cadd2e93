//! Sliding-window metrics over the request-record stream.
//!
//! A [`WindowRing`] tiles virtual time into fixed-width windows. Each
//! window accumulates a [`LatencyHistogram`] of completions plus
//! offered/completed/shed/timed-out counts; closed windows are kept in
//! a bounded ring so rolling tails (p50/p99/p99.9 over the last N
//! windows) are cheap merges, never re-scans of the run. The ring also
//! exports itself two ways: Prometheus text with exemplar trace ids on
//! hot buckets, and [`CounterTrack`]s for the Chrome trace timeline.

use bdb_telemetry::{
    write_family, write_histogram, CounterTrack, LatencyHistogram, Sample, TraceId,
};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// One request-lifecycle event on the virtual timeline. `Offered` fires
/// at arrival; the terminal events fire when the outcome is known
/// (shed at arrival, timed-out at abandonment, completed at finish).
#[derive(Debug, Clone, Copy)]
pub enum ReqEvent {
    /// A request arrived.
    Offered,
    /// A request finished; `latency_us` is its sojourn time and
    /// `trace`/`sampled` drive exemplar attachment.
    Completed {
        /// Sojourn time, microseconds.
        latency_us: u64,
        /// The request's trace id.
        trace: TraceId,
        /// Whether the trace was kept by the sampler (only kept traces
        /// become exemplars — they are the ones reconstructable from
        /// the trace file).
        sampled: bool,
    },
    /// A request was rejected at admission. Failures carry their trace
    /// too: the sampler always tail-samples them, and the exposition
    /// attaches them as exemplars to the failure counters.
    Shed {
        /// The request's trace id.
        trace: TraceId,
        /// Whether the trace was kept by the sampler.
        sampled: bool,
    },
    /// A request abandoned its queue slot past the deadline.
    TimedOut {
        /// The request's trace id.
        trace: TraceId,
        /// Whether the trace was kept by the sampler.
        sampled: bool,
    },
}

/// Aggregates for one closed (or in-progress) window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Window ordinal since the stream epoch (start = index × width).
    pub index: u64,
    /// Arrivals in the window.
    pub offered: u64,
    /// Completions in the window.
    pub completed: u64,
    /// Admission rejections in the window.
    pub shed: u64,
    /// Deadline abandonments in the window.
    pub timed_out: u64,
    /// Completions at or above the slow threshold.
    pub slow: u64,
    /// Latency distribution of the window's completions.
    pub hist: LatencyHistogram,
}

impl WindowStats {
    fn empty(index: u64) -> Self {
        Self {
            index,
            offered: 0,
            completed: 0,
            shed: 0,
            timed_out: 0,
            slow: 0,
            hist: LatencyHistogram::new(),
        }
    }

    /// Requests that reached a terminal state in this window.
    pub fn total(&self) -> u64 {
        self.completed + self.shed + self.timed_out
    }

    /// SLO-violating events: slow completions plus every drop.
    pub fn bad(&self) -> u64 {
        self.slow + self.shed + self.timed_out
    }
}

/// The bounded ring of closed windows plus the in-progress window.
#[derive(Debug)]
pub struct WindowRing {
    width_ns: u64,
    capacity: usize,
    slow_threshold_us: u64,
    current: WindowStats,
    closed: VecDeque<WindowStats>,
    evicted: u64,
    /// Whole-stream histogram (all completions ever observed).
    whole: LatencyHistogram,
    /// Exemplars: latency bucket bound (µs) → the slowest sampled
    /// trace seen in that bucket. BTreeMap keeps exposition order
    /// deterministic.
    exemplars: BTreeMap<u64, (TraceId, u64)>,
    /// Failure exemplars: outcome (`"shed"` / `"timed_out"`) → the most
    /// recent sampled trace that ended in that outcome, so every
    /// injected-fault failure class is pivotable to a kept trace.
    failure_exemplars: BTreeMap<&'static str, TraceId>,
}

impl WindowRing {
    /// A ring of `capacity` closed windows of `width` each; completions
    /// at or above `slow_threshold` count toward [`WindowStats::slow`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `capacity` is zero.
    pub fn new(width: Duration, capacity: usize, slow_threshold: Duration) -> Self {
        assert!(!width.is_zero(), "window width must be positive");
        assert!(capacity > 0, "ring needs at least one window");
        Self {
            width_ns: width.as_nanos() as u64,
            capacity,
            slow_threshold_us: slow_threshold.as_micros() as u64,
            current: WindowStats::empty(0),
            closed: VecDeque::new(),
            evicted: 0,
            whole: LatencyHistogram::new(),
            exemplars: BTreeMap::new(),
            failure_exemplars: BTreeMap::new(),
        }
    }

    fn close_current(&mut self) -> WindowStats {
        let next = WindowStats::empty(self.current.index + 1);
        let done = std::mem::replace(&mut self.current, next);
        self.closed.push_back(done.clone());
        if self.closed.len() > self.capacity {
            self.closed.pop_front();
            self.evicted += 1;
        }
        done
    }

    /// Feeds one event at virtual time `t_ns`. Events MUST arrive in
    /// non-decreasing time order. Returns every window the event's
    /// timestamp closed (empty gaps included — burn-rate math needs
    /// silent windows to exist, not to be skipped).
    ///
    /// # Panics
    ///
    /// Panics if `t_ns` precedes the current window (time ran
    /// backwards).
    pub fn observe(&mut self, t_ns: u64, ev: ReqEvent) -> Vec<WindowStats> {
        assert!(t_ns >= self.current.index * self.width_ns, "events must be fed in time order");
        let mut closed = Vec::new();
        while t_ns >= (self.current.index + 1) * self.width_ns {
            closed.push(self.close_current());
        }
        match ev {
            ReqEvent::Offered => self.current.offered += 1,
            ReqEvent::Shed { trace, sampled } => {
                self.current.shed += 1;
                if sampled {
                    self.failure_exemplars.insert("shed", trace);
                }
            }
            ReqEvent::TimedOut { trace, sampled } => {
                self.current.timed_out += 1;
                if sampled {
                    self.failure_exemplars.insert("timed_out", trace);
                }
            }
            ReqEvent::Completed { latency_us, trace, sampled } => {
                self.current.completed += 1;
                if latency_us >= self.slow_threshold_us {
                    self.current.slow += 1;
                }
                self.current.hist.record_micros(latency_us);
                self.whole.record_micros(latency_us);
                if sampled {
                    let bound = bdb_telemetry::bucket_bound(latency_us);
                    let slot = self.exemplars.entry(bound).or_insert((trace, latency_us));
                    if latency_us >= slot.1 {
                        *slot = (trace, latency_us);
                    }
                }
            }
        }
        closed
    }

    /// Closes the in-progress window (end of stream) and returns it.
    pub fn flush(&mut self) -> WindowStats {
        self.close_current()
    }

    /// Closed windows currently retained, oldest first.
    pub fn closed(&self) -> impl Iterator<Item = &WindowStats> {
        self.closed.iter()
    }

    /// Windows dropped off the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Merged latency histogram over the most recent `n` closed
    /// windows — the rolling distribution behind the dashboard tails.
    pub fn rolling_hist(&self, n: usize) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for w in self.closed.iter().rev().take(n) {
            merged.merge(&w.hist);
        }
        merged
    }

    /// Whole-stream latency histogram (every completion observed,
    /// including windows evicted from the ring).
    pub fn whole_hist(&self) -> &LatencyHistogram {
        &self.whole
    }

    /// The retained windows as Chrome-trace counter tracks, one sample
    /// per closed window at its end time: rates for offered/completed/
    /// shed/timed-out and the window p99 in µs.
    pub fn counter_tracks(&self, service: &str) -> Vec<CounterTrack> {
        let width_us = self.width_ns / 1_000;
        let secs = self.width_ns as f64 / 1e9;
        let track = |name: &str, values: Vec<u64>| CounterTrack {
            name: format!("{service} {name}"),
            samples: self
                .closed
                .iter()
                .zip(values)
                .map(|(w, v)| ((w.index + 1) * width_us, v))
                .collect(),
        };
        let per = |f: fn(&WindowStats) -> u64| {
            self.closed.iter().map(|w| (f(w) as f64 / secs) as u64).collect::<Vec<_>>()
        };
        vec![
            track("offered_rps", per(|w| w.offered)),
            track("completed_rps", per(|w| w.completed)),
            track("shed_rps", per(|w| w.shed)),
            track("timed_out_rps", per(|w| w.timed_out)),
            track("p99_us", self.closed.iter().map(|w| w.hist.p99().as_micros() as u64).collect()),
        ]
    }

    /// Prometheus text exposition of the ring: outcome counters over
    /// the retained windows, the rolling histogram over the last
    /// `rolling` windows with exemplar trace ids attached to its hot
    /// buckets, and rolling-tail gauges. Validates against
    /// [`bdb_telemetry::assert_prometheus_grammar`].
    pub fn prometheus_text(&self, service: &str, rolling: usize) -> String {
        let svc = [("service", service)];
        let mut out = String::new();
        let sum = |f: fn(&WindowStats) -> u64| self.closed.iter().map(f).sum::<u64>();
        let outcomes = [
            ("offered", sum(|w| w.offered)),
            ("completed", sum(|w| w.completed)),
            ("shed", sum(|w| w.shed)),
            ("timed_out", sum(|w| w.timed_out)),
        ];
        let totals = outcomes.map(|(outcome, v)| Sample {
            // Failure counters carry an exemplar: the most recent kept
            // trace of that outcome (exemplar value 1 = one request).
            exemplar: self.failure_exemplars.get(outcome).map(|&trace| (trace, 1)),
            ..Sample::new(&[("service", service), ("outcome", outcome)], v)
        });
        write_family(&mut out, "obs_requests_total", "counter", None, totals);
        // `_created`-style window-start timestamp (seconds): when the
        // oldest retained window opened. Scraped alongside the
        // counters, it lets a tsdb align this ring's windows with its
        // own sample times. The grammar treats `_created` as its own
        // family, so it carries its own TYPE comment.
        let start_s = |index: u64| format!("{:.3}", (index * self.width_ns) as f64 / 1e9);
        let retained_start = start_s(self.closed.front().map_or(self.current.index, |w| w.index));
        let created = outcomes.map(|(outcome, _)| {
            Sample::new(&[("service", service), ("outcome", outcome)], retained_start.clone())
        });
        write_family(&mut out, "obs_requests_created", "gauge", None, created);
        let hist = self.rolling_hist(rolling);
        // Exemplar: the slowest sampled trace whose latency falls in a
        // bucket, when we kept one.
        write_histogram(&mut out, "obs_rolling_request_us", None, &svc, &hist, |bound| {
            self.exemplars.get(&bound).copied()
        });
        // Start of the oldest window merged into the rolling histogram.
        let rolling_start = start_s(
            self.closed
                .iter()
                .rev()
                .take(rolling.max(1))
                .next_back()
                .map_or(self.current.index, |w| w.index),
        );
        for (name, v) in [
            ("obs_rolling_request_us_created", rolling_start),
            ("obs_rolling_p99_us", hist.p99().as_micros().to_string()),
            ("obs_rolling_p999_us", hist.p999().as_micros().to_string()),
        ] {
            write_family(&mut out, name, "gauge", None, [Sample::new(&svc, v)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_telemetry::assert_prometheus_grammar;

    fn completed(latency_us: u64, trace: u64, sampled: bool) -> ReqEvent {
        ReqEvent::Completed { latency_us, trace: TraceId(trace), sampled }
    }

    fn shed(trace: u64, sampled: bool) -> ReqEvent {
        ReqEvent::Shed { trace: TraceId(trace), sampled }
    }

    #[test]
    fn windows_tile_time_and_count_outcomes() {
        let mut ring = WindowRing::new(Duration::from_secs(1), 8, Duration::from_millis(50));
        let s = 1_000_000_000u64;
        assert!(ring.observe(0, ReqEvent::Offered).is_empty());
        assert!(ring.observe(100, completed(900, 1, false)).is_empty());
        // Jumping two windows ahead closes window 0 and the empty
        // window 1.
        let closed = ring.observe(2 * s + 5, shed(99, true));
        assert_eq!(closed.len(), 2);
        assert_eq!((closed[0].offered, closed[0].completed), (1, 1));
        assert_eq!(closed[1].total(), 0, "gap windows exist and are empty");
        let last = ring.flush();
        assert_eq!(last.shed, 1);
        assert_eq!(ring.closed().count(), 3);
    }

    #[test]
    fn ring_is_bounded_and_rolling_merges_recent() {
        let mut ring = WindowRing::new(Duration::from_secs(1), 4, Duration::from_millis(50));
        let s = 1_000_000_000u64;
        for w in 0..10u64 {
            // One completion per window, latency encodes the window.
            ring.observe(w * s + 1, completed(1000 * (w + 1), w, false));
        }
        ring.flush();
        assert_eq!(ring.closed().count(), 4);
        assert_eq!(ring.evicted(), 6);
        let rolling = ring.rolling_hist(2);
        assert_eq!(rolling.count(), 2);
        // Last two windows saw 9ms and 10ms completions.
        assert!(rolling.percentile(1.0) >= Duration::from_millis(9));
        assert_eq!(ring.whole_hist().count(), 10, "whole-run histogram survives eviction");
    }

    #[test]
    fn slow_counts_respect_threshold() {
        let mut ring = WindowRing::new(Duration::from_secs(1), 4, Duration::from_millis(50));
        ring.observe(0, completed(49_999, 1, false));
        ring.observe(1, completed(50_000, 2, false));
        ring.observe(2, completed(90_000, 3, false));
        let w = ring.flush();
        assert_eq!(w.completed, 3);
        assert_eq!(w.slow, 2);
        assert_eq!(w.bad(), 2);
    }

    #[test]
    fn exposition_is_grammatical_with_exemplars() {
        let mut ring = WindowRing::new(Duration::from_secs(1), 8, Duration::from_millis(50));
        for i in 0..50u64 {
            ring.observe(i, ReqEvent::Offered);
            ring.observe(i + 1, completed(500 + i * 137, i, i % 3 == 0));
        }
        ring.observe(1_500_000_000, shed(77, true));
        ring.observe(1_600_000_000, ReqEvent::TimedOut { trace: TraceId(78), sampled: true });
        ring.flush();
        // Hostile service name must be escaped, not break the grammar.
        let text = ring.prometheus_text("evil \"svc\"\\name\n", 8);
        assert_prometheus_grammar(&text);
        assert!(text.contains(" # {trace_id=\""), "sampled traces become exemplars");
        assert!(text.contains("obs_rolling_request_us_bucket"));
        let shed_line =
            text.lines().find(|l| l.contains("outcome=\"shed\"")).expect("shed counter present");
        assert!(
            shed_line.contains(&format!("# {{trace_id=\"{}\"}} 1", TraceId(77).hex())),
            "sampled failures become exemplars on the failure counter: {shed_line}"
        );
        let timeout_line = text
            .lines()
            .find(|l| l.contains("outcome=\"timed_out\""))
            .expect("timed_out counter present");
        assert!(timeout_line.contains(&format!("trace_id=\"{}\"", TraceId(78).hex())));
    }

    #[test]
    fn exposition_emits_created_window_start_timestamps() {
        let mut ring = WindowRing::new(Duration::from_secs(2), 4, Duration::from_millis(50));
        let s = 1_000_000_000u64;
        // Ten 2s windows; the 4-deep ring retains windows 6..=9, so the
        // oldest retained window opened at 12s. A rolling merge of the
        // last 2 windows starts at window 8 = 16s.
        for w in 0..10u64 {
            ring.observe(2 * w * s + 1, completed(800, w, false));
        }
        ring.flush();
        let text = ring.prometheus_text("svc", 2);
        assert_prometheus_grammar(&text);
        assert!(text.contains("# TYPE obs_requests_created gauge"));
        assert!(text.contains("# TYPE obs_rolling_request_us_created gauge"));
        for outcome in ["offered", "completed", "shed", "timed_out"] {
            let line = text
                .lines()
                .find(|l| l.starts_with("obs_requests_created") && l.contains(outcome))
                .unwrap_or_else(|| panic!("missing _created for {outcome}"));
            assert!(line.ends_with(" 12.000"), "oldest retained window start: {line}");
        }
        let rolling = text
            .lines()
            .find(|l| l.starts_with("obs_rolling_request_us_created"))
            .expect("rolling _created present");
        assert!(rolling.ends_with(" 16.000"), "rolling merge start: {rolling}");
        // An empty ring anchors to the in-progress window (index 0).
        let empty = WindowRing::new(Duration::from_secs(2), 4, Duration::from_millis(50));
        let text = empty.prometheus_text("svc", 2);
        assert_prometheus_grammar(&text);
        assert!(text.contains("obs_requests_created{service=\"svc\",outcome=\"offered\"} 0.000"));
    }

    #[test]
    fn prometheus_text_golden() {
        // Five 1 s windows through a 3-deep ring: windows 0 and 1 are
        // evicted, so neither their counts nor their exemplars show.
        let mut ring = WindowRing::new(Duration::from_secs(1), 3, Duration::from_millis(50));
        let s = 1_000_000_000u64;
        for w in 0..5u64 {
            ring.observe(w * s, ReqEvent::Offered);
            ring.observe(w * s + 1, completed(100 + 400 * w, w, w % 2 == 0));
            ring.observe(w * s + 2, completed(100 + 400 * w + 7, 10 + w, true));
        }
        ring.observe(4 * s + 3, shed(77, true));
        ring.observe(4 * s + 4, ReqEvent::TimedOut { trace: TraceId(78), sampled: true });
        ring.observe(4 * s + 5, shed(79, false));
        ring.flush();
        assert_eq!(ring.evicted(), 2);
        let golden = r#"# TYPE obs_requests_total counter
obs_requests_total{service="evil \"svc\"\\name\n",outcome="offered"} 3
obs_requests_total{service="evil \"svc\"\\name\n",outcome="completed"} 6
obs_requests_total{service="evil \"svc\"\\name\n",outcome="shed"} 2 # {trace_id="000000000000004d"} 1
obs_requests_total{service="evil \"svc\"\\name\n",outcome="timed_out"} 1 # {trace_id="000000000000004e"} 1
# TYPE obs_requests_created gauge
obs_requests_created{service="evil \"svc\"\\name\n",outcome="offered"} 2.000
obs_requests_created{service="evil \"svc\"\\name\n",outcome="completed"} 2.000
obs_requests_created{service="evil \"svc\"\\name\n",outcome="shed"} 2.000
obs_requests_created{service="evil \"svc\"\\name\n",outcome="timed_out"} 2.000
# TYPE obs_rolling_request_us histogram
obs_rolling_request_us_bucket{service="evil \"svc\"\\name\n",le="1303"} 1
obs_rolling_request_us_bucket{service="evil \"svc\"\\name\n",le="1368"} 2 # {trace_id="000000000000000d"} 1307
obs_rolling_request_us_bucket{service="evil \"svc\"\\name\n",le="1746"} 4 # {trace_id="000000000000000e"} 1707
obs_rolling_request_us_bucket{service="evil \"svc\"\\name\n",le="+Inf"} 4
obs_rolling_request_us_sum{service="evil \"svc\"\\name\n"} 6014
obs_rolling_request_us_count{service="evil \"svc\"\\name\n"} 4
# TYPE obs_rolling_request_us_created gauge
obs_rolling_request_us_created{service="evil \"svc\"\\name\n"} 3.000
# TYPE obs_rolling_p99_us gauge
obs_rolling_p99_us{service="evil \"svc\"\\name\n"} 1707
# TYPE obs_rolling_p999_us gauge
obs_rolling_p999_us{service="evil \"svc\"\\name\n"} 1707
"#;
        assert_eq!(ring.prometheus_text("evil \"svc\"\\name\n", 2), golden);
    }

    #[test]
    fn counter_tracks_cover_closed_windows() {
        let mut ring = WindowRing::new(Duration::from_secs(1), 8, Duration::from_millis(50));
        let s = 1_000_000_000u64;
        for w in 0..3u64 {
            for i in 0..10 {
                ring.observe(w * s + i, completed(800, i, false));
            }
        }
        ring.flush();
        let tracks = ring.counter_tracks("nutch");
        assert_eq!(tracks.len(), 5);
        let completed_track = tracks.iter().find(|t| t.name == "nutch completed_rps").unwrap();
        assert_eq!(completed_track.samples.len(), 3);
        assert!(completed_track.samples.iter().all(|&(_, v)| v == 10));
        // Samples land at window ends on the µs timeline.
        assert_eq!(completed_track.samples[0].0, 1_000_000);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_events_panic() {
        let mut ring = WindowRing::new(Duration::from_secs(1), 4, Duration::from_millis(50));
        ring.observe(5 * 1_000_000_000, ReqEvent::Offered);
        ring.observe(0, ReqEvent::Offered);
    }
}
