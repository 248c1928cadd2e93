//! # bdb-profile — post-hoc profiling over the telemetry span stream
//!
//! The suite's engines emit flat [`SpanEvent`] streams through
//! `bdb-telemetry`. This crate turns one run's stream into three
//! artifacts, with no dependencies beyond the telemetry substrate:
//!
//! * **Critical path** ([`critical_path`]): the chain of spans that
//!   bounds wall-clock, with a blame table attributing path time to
//!   phases (`map`/`spill`/`shuffle`/`reduce`, `iter-N`,
//!   `build`/`probe`). `path + idle = wall` exactly.
//! * **Folded flamegraph** ([`folded_stacks`]): collapsed-stack text
//!   that `inferno-flamegraph`, `flamegraph.pl` and speedscope render
//!   directly, weighted by self time.
//! * **Worker utilization** ([`utilization`]): per-thread busy/idle
//!   timelines, pool utilization, a concurrency histogram, and counter
//!   samples ready for a Chrome-trace counter track.
//!
//! [`Profile`] bundles all three for the common "analyze one run"
//! path (feed it [`SpanRecorder::events`] in production):
//!
//! ```
//! use bdb_telemetry::SpanEvent;
//!
//! let span = |name, start_us, dur_us| SpanEvent {
//!     name, cat: "demo", start_us, dur_us: Some(dur_us), tid: 1, ctx: None, args: Vec::new(),
//! };
//! let profile =
//!     bdb_profile::Profile::from_events(&[span("job", 0, 100), span("map-task", 10, 80)]);
//! assert!(profile.folded().contains("map-task"));
//! assert!(profile.critpath_text().contains("critical path"));
//! ```
//!
//! [`SpanRecorder::events`]: bdb_telemetry::SpanRecorder::events

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
pub mod flame;
pub mod forest;
pub mod util;

pub use critical::{critical_path, phase_of, CriticalPath, CriticalPathSummary, Segment};
pub use flame::folded_stacks;
pub use forest::{SpanForest, SpanNode};
pub use util::{utilization, Utilization, WorkerTimeline};

use bdb_telemetry::{CounterTrack, SpanEvent};

/// Default Gantt width (cells) for [`Profile::util_text`].
const GANTT_WIDTH: usize = 60;

/// One run's full profile: forest, critical path, and utilization,
/// computed once and rendered on demand.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The reconstructed span forest.
    pub forest: SpanForest,
    /// The critical path over it.
    pub critical: CriticalPath,
    /// Per-worker utilization over it.
    pub utilization: Utilization,
}

impl Profile {
    /// Analyzes one run's span-event snapshot.
    pub fn from_events(events: &[SpanEvent]) -> Self {
        let forest = SpanForest::build(events);
        let critical = critical_path(&forest);
        let utilization = utilization(&forest);
        Profile { forest, critical, utilization }
    }

    /// Collapsed-stack flamegraph text (see [`folded_stacks`]).
    pub fn folded(&self) -> String {
        folded_stacks(&self.forest)
    }

    /// Condensed critical-path summary for per-job statistics.
    pub fn critical_summary(&self) -> CriticalPathSummary {
        self.critical.summary(&self.forest)
    }

    /// Busy-worker-count counter track for the Chrome trace.
    pub fn concurrency_track(&self) -> CounterTrack {
        CounterTrack { name: "busy workers".to_owned(), samples: self.utilization.samples.clone() }
    }

    /// Human-readable critical-path report: headline, blame table, and
    /// the chronological path segments.
    pub fn critpath_text(&self) -> String {
        let cp = &self.critical;
        let s = self.critical_summary();
        let mut out = String::new();
        out.push_str(&format!("{}\n", s.render()));
        out.push_str(&format!(
            "wall {} us | path {} us | idle {} us | spans {} ({} skipped without duration)\n",
            cp.wall_us,
            cp.path_us,
            cp.idle_us,
            self.forest.nodes.len(),
            self.forest.skipped,
        ));
        out.push_str("\nblame (critical-path time per phase):\n");
        for (phase, us) in &cp.blame {
            let pct = if cp.path_us == 0 { 0.0 } else { 100.0 * *us as f64 / cp.path_us as f64 };
            out.push_str(&format!("  {phase:<24} {us:>12} us  {pct:>5.1}%\n"));
        }
        out.push_str("\nsegments (chronological):\n");
        for seg in &cp.segments {
            let n = &self.forest.nodes[seg.node];
            out.push_str(&format!(
                "  [{:>10}, {:>10}) {:>10} us  tid {:<4} {:<24} phase {}\n",
                seg.start_us,
                seg.end_us,
                seg.dur_us(),
                n.tid,
                n.name,
                phase_of(&self.forest, seg.node),
            ));
        }
        out
    }

    /// Utilization report (pool summary, Gantt, concurrency histogram).
    pub fn util_text(&self) -> String {
        self.utilization.render_text(GANTT_WIDTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A context-free test span on thread `tid`.
    pub(crate) fn span(name: &'static str, tid: u64, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            name,
            cat: "test",
            start_us,
            dur_us: Some(dur_us),
            tid,
            ctx: None,
            args: Vec::new(),
        }
    }

    fn profile() -> Profile {
        Profile::from_events(&[
            span("job", 1, 0, 100),
            span("map-phase", 1, 0, 60),
            span("reduce-phase", 1, 60, 40),
            span("map-task", 2, 5, 50),
        ])
    }

    #[test]
    fn all_three_artifacts_render() {
        let p = profile();
        assert!(p.folded().contains("worker-2;map-task 50\n"));
        let crit = p.critpath_text();
        assert!(crit.contains("critical path 100.0%"), "{crit}");
        assert!(crit.contains("blame"), "{crit}");
        assert!(crit.contains("segments"), "{crit}");
        assert!(p.util_text().contains("workers 2"));
    }

    #[test]
    fn concurrency_track_mirrors_utilization_samples() {
        let p = profile();
        let track = p.concurrency_track();
        assert_eq!(track.name, "busy workers");
        assert_eq!(track.samples, p.utilization.samples);
        assert_eq!(track.samples.last(), Some(&(100, 0)), "closes at zero");
    }

    #[test]
    fn empty_stream_yields_empty_but_valid_reports() {
        let p = Profile::from_events(&[]);
        assert_eq!(p.folded(), "");
        assert!(p.critpath_text().contains("wall 0 us"));
        assert!(p.util_text().contains("workers 0"));
        assert!(p.concurrency_track().samples.is_empty());
    }
}
