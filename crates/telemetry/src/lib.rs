//! Suite-wide telemetry for BigDataBench-RS: spans, metrics, and
//! Chrome-trace/Perfetto export.
//!
//! The paper's contribution is *measurement* — per-workload MIPS, MPKI
//! and data-processed-per-second — and phase-level behaviour (map vs.
//! shuffle vs. reduce) is what distinguishes the workloads. This crate
//! is the shared observability substrate every engine reports through:
//!
//! * [`SpanRecorder`] + [`span!`] — a low-overhead span API. The
//!   disabled recorder ([`SpanRecorder::disabled`]) costs one branch per
//!   span site: no clock read, no allocation, no argument evaluation.
//!   Spans are thread-tagged, so parallel map tasks land on separate
//!   timeline rows.
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`LatencyHistogram`]s shared by handle.
//! * [`chrome_trace_json`] / [`TraceSession`] — export to the Chrome
//!   trace-event format, loadable in `chrome://tracing` or the Perfetto
//!   UI, plus a plain-text metrics summary.
//! * [`trace`] — typed per-request [`SpanContext`]s on spans, and the
//!   one walker ([`trace::chains`]) that regroups a flat span stream
//!   into per-trace chains.
//!
//! Zero external dependencies by design: telemetry must build wherever
//! the suite builds, including fully offline environments, so the JSON
//! writer is hand-rolled.
//!
//! # Example
//!
//! ```
//! use bdb_telemetry::{span, SpanRecorder, MetricsRegistry};
//!
//! let recorder = SpanRecorder::enabled();
//! let metrics = MetricsRegistry::new();
//! {
//!     let _s = span!(recorder, "demo", "work", items = 3usize);
//!     metrics.counter("demo.items").add(3);
//! }
//! let events = recorder.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "work");
//! let json = bdb_telemetry::chrome_trace_json("demo", &events, Some(&metrics));
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome_trace;
pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;

pub use chrome_trace::{
    chrome_trace_json, chrome_trace_json_with_tracks, file_stem, CounterTrack, TraceSession,
};
pub use metrics::{
    assert_prometheus_grammar, bucket_bound, bucket_index, prometheus_name, write_family,
    write_histogram, Counter, Gauge, HistogramHandle, LatencyHistogram, MetricsRegistry, Sample,
};
pub use span::{current_thread_id, ArgValue, SpanEvent, SpanGuard, SpanRecorder};
pub use trace::{SpanContext, TraceId};
