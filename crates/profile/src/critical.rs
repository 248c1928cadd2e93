//! Critical-path analysis: the chain of spans that bounds wall-clock.
//!
//! Span streams carry no explicit dependency edges, so the path is
//! computed by a time sweep: the run's wall interval is partitioned at
//! every span boundary, and each elementary slice is charged to the
//! **most recently started** span active in it (ties broken by depth,
//! then end, then thread — deterministic). "Most recently started"
//! picks the actual work over its enclosing coordinator spans and puts
//! stragglers, retries and skewed reducers on the path by name: a map
//! task still running after its siblings finished is the latest
//! dispatch active in that slice. Slices no span covers accrue as
//! idle, so path + idle = wall exactly, and the per-phase blame table
//! partitions the path exactly.

use crate::forest::SpanForest;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// One contiguous stretch of the critical path charged to one span.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Index into [`SpanForest::nodes`].
    pub node: usize,
    /// Slice start, µs.
    pub start_us: u64,
    /// Slice end, µs.
    pub end_us: u64,
}

impl Segment {
    /// Slice length in µs.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// The computed critical path of one run.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Chronological, adjacent-merged path segments.
    pub segments: Vec<Segment>,
    /// Run wall-clock (last span end − first span start).
    pub wall_us: u64,
    /// Total time on the path (= wall − idle).
    pub path_us: u64,
    /// Wall-clock no span covered.
    pub idle_us: u64,
    /// Path time per phase, largest first; sums exactly to `path_us`.
    pub blame: Vec<(String, u64)>,
}

/// Compact summary of a run's critical path, cheap enough to hang off
/// per-job statistics (e.g. `bdb_mapreduce::JobStats::critical_path`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPathSummary {
    /// Run wall-clock in µs.
    pub wall_us: u64,
    /// Time on the critical path in µs.
    pub path_us: u64,
    /// `path_us / wall_us` (0 when the stream is empty).
    pub coverage: f64,
    /// The phase charged the most path time.
    pub dominant_phase: String,
    /// Path time charged to the dominant phase, µs.
    pub dominant_phase_us: u64,
    /// Span name of the single longest path segment (the "longest
    /// task").
    pub longest_segment: String,
    /// That segment's length in µs.
    pub longest_segment_us: u64,
}

impl CriticalPathSummary {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "critical path {:.1}% of {} us wall | dominant phase {} ({} us) | longest {} ({} us)",
            self.coverage * 100.0,
            self.wall_us,
            self.dominant_phase,
            self.dominant_phase_us,
            self.longest_segment,
            self.longest_segment_us,
        )
    }
}

/// Maps a span onto the blame-table phase vocabulary: MapReduce span
/// names collapse onto the classic `map`/`spill`/`shuffle`/`reduce`
/// phases, iteration spans (any span carrying an `iter` arg) become
/// `iter-N`, and anything else blames its own span name.
pub fn phase_of(forest: &SpanForest, node: usize) -> String {
    let n = &forest.nodes[node];
    if let Some(iter) = n.iter {
        return format!("iter-{iter}");
    }
    match n.name {
        "map-task" | "map-phase" => "map".to_owned(),
        "spill" => "spill".to_owned(),
        "shuffle-merge" => "shuffle".to_owned(),
        "reduce-partition" | "reduce-phase" => "reduce".to_owned(),
        "job" => "framework".to_owned(),
        other => other.to_owned(),
    }
}

/// Sweep key: `max()` of the active set is the span to blame. Start
/// first so the most recently dispatched work wins; depth next so a
/// child beats the parent it shares a start with.
type ActiveKey = (u64, usize, u64, u64, usize);

fn key_of(forest: &SpanForest, node: usize) -> ActiveKey {
    let n = &forest.nodes[node];
    (n.start_us, n.depth, n.end_us, n.tid, node)
}

/// Computes the critical path of a reconstructed span forest.
pub fn critical_path(forest: &SpanForest) -> CriticalPath {
    let mut path = CriticalPath { wall_us: forest.wall_us(), ..Default::default() };
    if forest.nodes.is_empty() {
        return path;
    }

    // Boundary → (starts, ends) at that instant. Zero-length spans
    // start and end on the same boundary and never win a slice.
    let mut boundaries: BTreeMap<u64, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (i, n) in forest.nodes.iter().enumerate() {
        boundaries.entry(n.start_us).or_default().0.push(i);
        boundaries.entry(n.end_us).or_default().1.push(i);
    }

    let mut active: BTreeSet<ActiveKey> = BTreeSet::new();
    let mut blame: BTreeMap<String, u64> = BTreeMap::new();
    let mut prev: Option<u64> = None;
    for (&t, (starts, ends)) in &boundaries {
        if let Some(p) = prev {
            if t > p {
                match active.last() {
                    Some(&(.., node)) => {
                        path.path_us += t - p;
                        *blame.entry(phase_of(forest, node)).or_default() += t - p;
                        match path.segments.last_mut() {
                            Some(seg) if seg.node == node && seg.end_us == p => seg.end_us = t,
                            _ => path.segments.push(Segment { node, start_us: p, end_us: t }),
                        }
                    }
                    None => path.idle_us += t - p,
                }
            }
        }
        for &i in ends {
            active.remove(&key_of(forest, i));
        }
        for &i in starts {
            if forest.nodes[i].end_us > t {
                active.insert(key_of(forest, i));
            }
        }
        prev = Some(t);
    }

    let mut blame: Vec<(String, u64)> = blame.into_iter().collect();
    blame.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    path.blame = blame;
    path
}

impl CriticalPath {
    /// Condenses the path into a [`CriticalPathSummary`].
    pub fn summary(&self, forest: &SpanForest) -> CriticalPathSummary {
        let (dominant_phase, dominant_phase_us) =
            self.blame.first().cloned().unwrap_or_else(|| (String::from("-"), 0));
        let longest = self.segments.iter().max_by_key(|s| (s.dur_us(), s.start_us));
        CriticalPathSummary {
            wall_us: self.wall_us,
            path_us: self.path_us,
            coverage: if self.wall_us == 0 {
                0.0
            } else {
                self.path_us as f64 / self.wall_us as f64
            },
            dominant_phase,
            dominant_phase_us,
            longest_segment: longest
                .map_or_else(|| String::from("-"), |s| forest.nodes[s.node].name.to_owned()),
            longest_segment_us: longest.map_or(0, Segment::dur_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::span;

    /// A miniature MapReduce timeline: coordinator spans on thread 1,
    /// tasks on threads 2–3, one straggling map task.
    fn fixture() -> SpanForest {
        SpanForest::build(&[
            span("job", 1, 0, 100),
            span("map-phase", 1, 0, 60),
            span("reduce-phase", 1, 60, 40),
            span("map-task", 2, 5, 20),
            span("map-task", 3, 5, 50), // straggler: alone in (25, 55)
            span("spill", 3, 10, 10),
            span("reduce-partition", 2, 62, 30),
        ])
    }

    #[test]
    fn blame_partitions_the_path_exactly() {
        let f = fixture();
        let cp = critical_path(&f);
        assert_eq!(cp.wall_us, 100);
        assert_eq!(cp.path_us + cp.idle_us, cp.wall_us);
        let blamed: u64 = cp.blame.iter().map(|(_, us)| *us).sum();
        assert_eq!(blamed, cp.path_us, "phase totals partition the path");
        let segs: u64 = cp.segments.iter().map(Segment::dur_us).sum();
        assert_eq!(segs, cp.path_us);
    }

    #[test]
    fn straggler_and_spill_land_on_the_path() {
        let f = fixture();
        let cp = critical_path(&f);
        // [0,5) map-phase, [5,10) map-task, [10,20) spill, [20,55)
        // straggling map-task, [55,60) map-phase, [60,62) reduce-phase,
        // [62,92) reduce-partition, [92,100) reduce-phase.
        let names: Vec<&str> = cp.segments.iter().map(|s| f.nodes[s.node].name).collect();
        assert!(names.contains(&"spill"), "{names:?}");
        assert!(names.contains(&"reduce-partition"), "{names:?}");
        let blame: std::collections::BTreeMap<_, _> = cp.blame.iter().cloned().collect();
        assert_eq!(blame["spill"], 10);
        assert_eq!(blame["map"], 60 - 10, "map-phase + both map-task stretches");
        assert_eq!(blame["reduce"], 40);
        assert_eq!(cp.idle_us, 0, "the job span leaves no gap");
    }

    #[test]
    fn summary_names_dominant_phase_and_longest_segment() {
        let f = fixture();
        let cp = critical_path(&f);
        let s = cp.summary(&f);
        assert_eq!(s.dominant_phase, "map");
        assert!((s.coverage - 1.0).abs() < 1e-9);
        assert_eq!(s.longest_segment, "map-task", "the straggler's lone stretch is longest");
        assert_eq!(s.longest_segment_us, 35);
        assert!(s.render().contains("dominant phase map"));
    }

    #[test]
    fn gaps_accrue_as_idle() {
        let f = SpanForest::build(&[span("a", 1, 0, 10), span("b", 1, 30, 10)]);
        let cp = critical_path(&f);
        assert_eq!(cp.wall_us, 40);
        assert_eq!(cp.path_us, 20);
        assert_eq!(cp.idle_us, 20);
    }

    #[test]
    fn iteration_spans_blame_iter_n() {
        let mut e1 = span("pagerank-iteration", 1, 0, 10);
        e1.args.push(("iter", bdb_telemetry::ArgValue::Int(1)));
        let mut e2 = span("pagerank-iteration", 1, 10, 30);
        e2.args.push(("iter", bdb_telemetry::ArgValue::Int(2)));
        let f = SpanForest::build(&[e1, e2]);
        let cp = critical_path(&f);
        assert_eq!(cp.blame[0], ("iter-2".to_owned(), 30));
        assert_eq!(cp.blame[1], ("iter-1".to_owned(), 10));
    }

    #[test]
    fn empty_forest_is_empty_path() {
        let cp = critical_path(&SpanForest::build(&[]));
        assert_eq!(cp.wall_us, 0);
        assert!(cp.segments.is_empty());
        let s = cp.summary(&SpanForest::build(&[]));
        assert_eq!(s.coverage, 0.0);
    }
}
