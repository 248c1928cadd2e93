//! Per-worker utilization timelines over the span stream.
//!
//! A worker (thread) is *busy* while any of its root spans is open and
//! *idle* otherwise. From the per-thread busy intervals this module
//! derives pool-wide utilization, a concurrency histogram (how long
//! exactly k workers were busy), step samples for a Chrome-trace
//! counter track, and a plain-text Gantt rendering.

use crate::forest::SpanForest;
use std::collections::BTreeMap;

/// One worker's busy timeline.
#[derive(Debug, Clone)]
pub struct WorkerTimeline {
    /// Thread id (matches the trace's `worker-<tid>` rows).
    pub tid: u64,
    /// Merged busy intervals, `[start_us, end_us)`, ascending.
    pub intervals: Vec<(u64, u64)>,
    /// Total busy time in µs.
    pub busy_us: u64,
}

/// Pool-wide utilization derived from a span forest.
#[derive(Debug, Clone, Default)]
pub struct Utilization {
    /// Run start (earliest span start).
    pub start_us: u64,
    /// Run end (latest span end).
    pub end_us: u64,
    /// Per-worker timelines, ascending by tid.
    pub workers: Vec<WorkerTimeline>,
    /// Sum of all workers' busy time.
    pub busy_total_us: u64,
    /// `busy_total / (workers × wall)`; 0 when empty.
    pub utilization: f64,
    /// `histogram[k]` = µs during which exactly `k` workers were busy;
    /// indices run 0..=workers and the entries sum to the wall time.
    pub concurrency: Vec<u64>,
    /// Busy-worker-count step samples `(ts_us, value)`, one per
    /// transition plus a closing sample — ready for a Chrome-trace
    /// counter track.
    pub samples: Vec<(u64, u64)>,
}

impl Utilization {
    /// Run wall-clock in µs.
    pub fn wall_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Computes per-worker busy timelines and the concurrency profile.
pub fn utilization(forest: &SpanForest) -> Utilization {
    let mut u =
        Utilization { start_us: forest.start_us, end_us: forest.end_us, ..Default::default() };
    if forest.nodes.is_empty() {
        return u;
    }
    for (&tid, roots) in &forest.roots_by_tid {
        // Roots are in start order; merge touching/overlapping spans.
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for &r in roots {
            let n = &forest.nodes[r];
            match intervals.last_mut() {
                Some((_, end)) if n.start_us <= *end => *end = (*end).max(n.end_us),
                _ => intervals.push((n.start_us, n.end_us)),
            }
        }
        let busy_us = intervals.iter().map(|(s, e)| e - s).sum();
        u.busy_total_us += busy_us;
        u.workers.push(WorkerTimeline { tid, intervals, busy_us });
    }
    let wall = u.wall_us();
    if wall > 0 && !u.workers.is_empty() {
        u.utilization = u.busy_total_us as f64 / (u.workers.len() as f64 * wall as f64);
    }

    // Concurrency sweep over all busy intervals.
    let mut deltas: BTreeMap<u64, i64> = BTreeMap::new();
    for w in &u.workers {
        for &(s, e) in &w.intervals {
            *deltas.entry(s).or_default() += 1;
            *deltas.entry(e).or_default() -= 1;
        }
    }
    u.concurrency = vec![0; u.workers.len() + 1];
    let mut level = 0i64;
    let mut prev: Option<u64> = None;
    for (&t, &d) in &deltas {
        if let Some(p) = prev {
            u.concurrency[level as usize] += t - p;
        }
        level += d;
        u.samples.push((t, level as u64));
        prev = Some(t);
    }
    // Deduplicate consecutive equal sample values (each transition
    // above may net to the same level) but keep the final sample.
    let end = u.end_us;
    u.samples.dedup_by(|next, prev| next.1 == prev.1 && next.0 != end);
    u
}

impl Utilization {
    /// Plain-text Gantt + summary: one row per worker (`#` ≥ half the
    /// cell busy, `-` partially busy, `.` idle) plus the pool summary
    /// and concurrency histogram.
    pub fn render_text(&self, width: usize) -> String {
        let width = width.max(10);
        let wall = self.wall_us();
        let mut out = String::new();
        out.push_str(&format!(
            "workers {} | wall {} us | busy {} us | utilization {:.1}%\n",
            self.workers.len(),
            wall,
            self.busy_total_us,
            self.utilization * 100.0,
        ));
        if wall == 0 {
            return out;
        }
        out.push_str(&format!(
            "\ngantt ({} cells of {} us; '#' busy, '-' partial, '.' idle):\n",
            width,
            wall.div_ceil(width as u64),
        ));
        for w in &self.workers {
            let mut row = String::with_capacity(width);
            for c in 0..width {
                let lo = self.start_us + wall * c as u64 / width as u64;
                let hi = self.start_us + wall * (c as u64 + 1) / width as u64;
                let cell = hi.saturating_sub(lo).max(1);
                let busy: u64 =
                    w.intervals.iter().map(|&(s, e)| e.min(hi).saturating_sub(s.max(lo))).sum();
                row.push(if busy * 2 >= cell {
                    '#'
                } else if busy > 0 {
                    '-'
                } else {
                    '.'
                });
            }
            let pct = 100.0 * w.busy_us as f64 / wall as f64;
            out.push_str(&format!("  worker-{:<4} {:>5.1}%  |{row}|\n", w.tid, pct));
        }
        out.push_str("\nconcurrency (time at exactly k busy workers):\n");
        for (k, &us) in self.concurrency.iter().enumerate() {
            if us == 0 {
                continue;
            }
            out.push_str(&format!(
                "  k={k:<3} {us:>12} us  {:>5.1}%\n",
                100.0 * us as f64 / wall as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::span;

    fn fixture() -> SpanForest {
        SpanForest::build(&[
            span("a", 1, 0, 100), // worker 1 busy the whole run
            span("b", 2, 0, 40),  // worker 2 busy [0,40) and [60,100)
            span("c", 2, 60, 40),
            span("nested", 1, 10, 10), // nesting must not double-count
        ])
    }

    #[test]
    fn busy_and_utilization() {
        let u = utilization(&fixture());
        assert_eq!(u.wall_us(), 100);
        assert_eq!(u.workers.len(), 2);
        assert_eq!(u.workers[0].busy_us, 100);
        assert_eq!(u.workers[1].busy_us, 80);
        assert_eq!(u.busy_total_us, 180);
        assert!((u.utilization - 0.9).abs() < 1e-9);
    }

    #[test]
    fn concurrency_histogram_partitions_wall() {
        let u = utilization(&fixture());
        assert_eq!(u.concurrency.iter().sum::<u64>(), u.wall_us());
        assert_eq!(u.concurrency[2], 80, "both busy in [0,40) and [60,100)");
        assert_eq!(u.concurrency[1], 20, "only worker 1 in [40,60)");
        assert_eq!(u.concurrency[0], 0);
    }

    #[test]
    fn samples_step_through_transitions() {
        let u = utilization(&fixture());
        assert_eq!(u.samples, vec![(0, 2), (40, 1), (60, 2), (100, 0)]);
    }

    #[test]
    fn text_rendering_has_gantt_rows_and_histogram() {
        let u = utilization(&fixture());
        let text = u.render_text(20);
        assert!(text.contains("workers 2"));
        assert!(text.contains("worker-1"));
        assert!(text.contains("utilization 90.0%"));
        assert!(text.contains("k=2"));
        let gantt_rows: Vec<&str> =
            text.lines().filter(|l| l.trim_start().starts_with("worker-")).collect();
        assert_eq!(gantt_rows.len(), 2);
        assert!(gantt_rows[0].contains('#'));
        assert!(gantt_rows[1].contains('.'), "worker 2's idle window renders idle");
    }

    #[test]
    fn empty_forest_renders_empty_pool() {
        let u = utilization(&SpanForest::build(&[]));
        assert_eq!(u.wall_us(), 0);
        assert_eq!(u.utilization, 0.0);
        assert!(u.render_text(10).contains("workers 0"));
    }
}
