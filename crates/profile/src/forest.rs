//! Span-forest reconstruction from the flat [`SpanEvent`] stream.
//!
//! The recorder emits spans flat, one per RAII-guard drop, tagged with
//! the recording thread. This module rebuilds the per-thread nesting
//! (a forest per thread) by time containment, the shape every analysis
//! in this crate — critical path, folded stacks, utilization — works
//! over. Events without a duration (instant markers, or spans left
//! unclosed by a crash) are counted and skipped, never unwrapped.

use bdb_telemetry::SpanEvent;
use std::collections::BTreeMap;

/// One reconstructed span with its nesting links resolved.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name, e.g. `"map-task"`.
    pub name: &'static str,
    /// Category, by convention the subsystem.
    pub cat: &'static str,
    /// Recording thread.
    pub tid: u64,
    /// Start, µs since the recorder epoch.
    pub start_us: u64,
    /// End (start + duration).
    pub end_us: u64,
    /// Nesting depth within its thread (roots are 0).
    pub depth: usize,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Directly nested spans, in start order.
    pub children: Vec<usize>,
    /// Time not covered by any child, in µs (flamegraph weight).
    pub self_us: u64,
    /// The `iter` argument, when the span carries one (iteration
    /// spans); used for `iter-N` phase attribution.
    pub iter: Option<i64>,
}

impl SpanNode {
    /// Total span duration in µs.
    pub fn total_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// The reconstructed per-thread span forest of one run.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// All closed spans; indices are stable handles.
    pub nodes: Vec<SpanNode>,
    /// Root span indices per thread, in start order.
    pub roots_by_tid: BTreeMap<u64, Vec<usize>>,
    /// Earliest span start (0 when empty).
    pub start_us: u64,
    /// Latest span end (0 when empty).
    pub end_us: u64,
    /// Events skipped because they carry no duration — instants, or
    /// spans a crash left unclosed.
    pub skipped: usize,
}

impl SpanForest {
    /// Rebuilds the forest from a recorder's event snapshot.
    ///
    /// Containment rule: on each thread a span is a child of the
    /// nearest earlier-started span whose interval encloses it;
    /// partially overlapping spans (which a well-formed RAII stream
    /// never produces) degrade to siblings rather than being dropped.
    pub fn build(events: &[SpanEvent]) -> Self {
        let mut skipped = 0usize;
        // (tid, start, end, original index) — the original index breaks
        // ties for identical intervals: the guard recorded later is the
        // *outer* span (inner guards drop first), so it must sort first
        // to become the parent.
        let mut closed: Vec<(usize, &SpanEvent, u64)> = Vec::with_capacity(events.len());
        for (i, e) in events.iter().enumerate() {
            match e.dur_us {
                Some(dur) => closed.push((i, e, e.start_us + dur)),
                None => skipped += 1,
            }
        }
        closed.sort_by(|(ia, a, ea), (ib, b, eb)| {
            (a.tid, a.start_us, std::cmp::Reverse(*ea), std::cmp::Reverse(*ia)).cmp(&(
                b.tid,
                b.start_us,
                std::cmp::Reverse(*eb),
                std::cmp::Reverse(*ib),
            ))
        });

        let mut forest = SpanForest { skipped, ..Default::default() };
        let mut stack: Vec<usize> = Vec::new(); // open ancestors, current thread
        let mut current_tid = None;
        for (_, e, end_us) in closed {
            if current_tid != Some(e.tid) {
                stack.clear();
                current_tid = Some(e.tid);
            }
            // Pop ancestors that cannot enclose this span. Thanks to
            // the start-ascending sort, enclosure reduces to the end
            // bound; `<` keeps spans sharing an end nested.
            while let Some(&top) = stack.last() {
                if forest.nodes[top].end_us < end_us || forest.nodes[top].end_us <= e.start_us {
                    stack.pop();
                } else {
                    break;
                }
            }
            let parent = stack.last().copied();
            let idx = forest.nodes.len();
            forest.nodes.push(SpanNode {
                name: e.name,
                cat: e.cat,
                tid: e.tid,
                start_us: e.start_us,
                end_us,
                depth: parent.map_or(0, |p| forest.nodes[p].depth + 1),
                parent,
                children: Vec::new(),
                self_us: 0,
                iter: e.int_arg("iter"),
            });
            match parent {
                Some(p) => forest.nodes[p].children.push(idx),
                None => forest.roots_by_tid.entry(e.tid).or_default().push(idx),
            }
            stack.push(idx);
        }

        if let (Some(min), Some(max)) = (
            forest.nodes.iter().map(|n| n.start_us).min(),
            forest.nodes.iter().map(|n| n.end_us).max(),
        ) {
            forest.start_us = min;
            forest.end_us = max;
        }
        forest.compute_self_times();
        forest
    }

    /// Self time = duration minus the interval union of the children,
    /// clipped to the span (robust even if children overlap).
    fn compute_self_times(&mut self) {
        for i in 0..self.nodes.len() {
            let n = &self.nodes[i];
            let mut covered = 0u64;
            let mut cursor = n.start_us;
            for &c in &n.children {
                let child = &self.nodes[c];
                let lo = child.start_us.clamp(cursor, n.end_us);
                let hi = child.end_us.clamp(cursor, n.end_us);
                covered += hi - lo;
                cursor = cursor.max(hi);
            }
            self.nodes[i].self_us = n.total_us().saturating_sub(covered);
        }
    }

    /// Total wall-clock covered by the stream (0 when empty).
    pub fn wall_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::span;
    use bdb_telemetry::ArgValue;

    #[test]
    fn nesting_by_containment() {
        let events = vec![
            span("inner", 1, 10, 20),
            span("outer", 1, 0, 100),
            span("leaf", 1, 12, 5),
            span("other-thread", 2, 0, 50),
        ];
        let f = SpanForest::build(&events);
        assert_eq!(f.nodes.len(), 4);
        let outer = f.nodes.iter().position(|n| n.name == "outer").unwrap();
        let inner = f.nodes.iter().position(|n| n.name == "inner").unwrap();
        let leaf = f.nodes.iter().position(|n| n.name == "leaf").unwrap();
        assert_eq!(f.nodes[inner].parent, Some(outer));
        assert_eq!(f.nodes[leaf].parent, Some(inner));
        assert_eq!(f.nodes[leaf].depth, 2);
        assert_eq!(f.roots_by_tid[&1], vec![outer]);
        assert_eq!(f.roots_by_tid[&2].len(), 1);
        assert_eq!(f.wall_us(), 100);
    }

    #[test]
    fn self_time_subtracts_children() {
        let events = vec![span("parent", 1, 0, 100), span("a", 1, 10, 30), span("b", 1, 50, 20)];
        let f = SpanForest::build(&events);
        let parent = f.nodes.iter().position(|n| n.name == "parent").unwrap();
        assert_eq!(f.nodes[parent].self_us, 50);
        let a = f.nodes.iter().position(|n| n.name == "a").unwrap();
        assert_eq!(f.nodes[a].self_us, 30, "leaves keep their full duration");
    }

    #[test]
    fn instants_and_unclosed_spans_are_skipped_not_unwrapped() {
        let mut open = span("unclosed", 1, 5, 0);
        open.dur_us = None; // an instant, or a span a crash never closed
        let events = vec![span("work", 1, 0, 50), open];
        let f = SpanForest::build(&events);
        assert_eq!(f.nodes.len(), 1);
        assert_eq!(f.skipped, 1);
    }

    #[test]
    fn identical_intervals_nest_by_record_order() {
        // Inner guards drop first, so for identical intervals the
        // earlier event is the inner span.
        let events = vec![span("inner", 1, 0, 10), span("outer", 1, 0, 10)];
        let f = SpanForest::build(&events);
        let outer = f.nodes.iter().position(|n| n.name == "outer").unwrap();
        let inner = f.nodes.iter().position(|n| n.name == "inner").unwrap();
        assert_eq!(f.nodes[inner].parent, Some(outer));
    }

    #[test]
    fn empty_stream_is_fine() {
        let f = SpanForest::build(&[]);
        assert!(f.nodes.is_empty());
        assert_eq!(f.wall_us(), 0);
    }

    #[test]
    fn iteration_arg_is_captured() {
        let mut e = span("pagerank-iteration", 1, 0, 10);
        e.args.push(("iter", ArgValue::Int(3)));
        let f = SpanForest::build(&[e]);
        assert_eq!(f.nodes[0].iter, Some(3));
    }
}
