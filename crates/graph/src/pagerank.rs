//! PageRank by power iteration.

use crate::csr::CsrGraph;
use crate::trace::GraphTraceModel;
use bdb_archsim::{NullProbe, Probe};
use bdb_telemetry::{span, SpanRecorder};

/// Damping factor (the canonical 0.85).
pub const DAMPING: f64 = 0.85;
/// Iteration stops when the L1 delta between iterations falls below
/// this.
pub const TOLERANCE: f64 = 1e-7;

/// Computes PageRank in at most `max_iterations` power-iteration
/// rounds. Returns `(ranks, iterations)`; ranks sum to 1 (dangling
/// mass redistributed uniformly).
pub fn pagerank(graph: &CsrGraph, max_iterations: u32) -> (Vec<f64>, u32) {
    pagerank_impl(graph, max_iterations, &mut NullProbe, None, &SpanRecorder::disabled())
}

/// [`pagerank`] with per-iteration spans on `telemetry` (one
/// `pagerank-iteration` span per power-iteration round, carrying the
/// round's L1 delta).
pub fn pagerank_instrumented(
    graph: &CsrGraph,
    max_iterations: u32,
    telemetry: &SpanRecorder,
) -> (Vec<f64>, u32) {
    pagerank_impl(graph, max_iterations, &mut NullProbe, None, telemetry)
}

/// Instrumented [`pagerank`]. The traced access pattern is the push
/// style: stream vertices sequentially, scatter rank contributions to
/// out-neighbors (data-dependent stores into the next-rank array).
pub fn pagerank_traced<P: Probe + ?Sized>(
    graph: &CsrGraph,
    max_iterations: u32,
    probe: &mut P,
    trace: &mut GraphTraceModel,
) -> (Vec<f64>, u32) {
    pagerank_impl(graph, max_iterations, probe, Some(trace), &SpanRecorder::disabled())
}

fn pagerank_impl<P: Probe + ?Sized>(
    graph: &CsrGraph,
    max_iterations: u32,
    probe: &mut P,
    mut trace: Option<&mut GraphTraceModel>,
    telemetry: &SpanRecorder,
) -> (Vec<f64>, u32) {
    let n = graph.nodes() as usize;
    if n == 0 {
        return (Vec::new(), 0);
    }
    let _run_span = span!(telemetry, "graph", "pagerank", nodes = graph.nodes());
    let init = 1.0 / n as f64;
    let mut ranks = vec![init; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        if probe.is_active() {
            probe.phase(&format!("iter-{iterations}"));
        }
        let mut iter_span = span!(telemetry, "graph", "pagerank-iteration", iter = iterations);
        if let Some(t) = trace.as_mut() {
            t.on_superstep(probe);
        }
        let mut dangling = 0.0;
        next.iter_mut().for_each(|x| *x = 0.0);
        for v in 0..graph.nodes() {
            let deg = graph.out_degree(v);
            if let Some(t) = trace.as_mut() {
                t.read_offsets(probe, v);
                t.access_value(probe, v, false);
            }
            probe.fp_ops(2);
            if deg == 0 {
                dangling += ranks[v as usize];
                continue;
            }
            let share = ranks[v as usize] / deg as f64;
            if let Some(t) = trace.as_mut() {
                t.read_adjacency(probe, graph.offset_of(v), deg);
            }
            for &w in graph.neighbors(v) {
                if let Some(t) = trace.as_mut() {
                    t.access_value(probe, w, true);
                }
                probe.fp_ops(1);
                next[w as usize] += share;
            }
        }
        let dangling_share = dangling / n as f64;
        let base = (1.0 - DAMPING) / n as f64;
        let mut delta = 0.0;
        for v in 0..n {
            let r = base + DAMPING * (next[v] + dangling_share);
            probe.fp_ops(4);
            delta += (r - ranks[v]).abs();
            ranks[v] = r;
        }
        iter_span.arg("delta", delta);
        if delta < TOLERANCE {
            break;
        }
    }
    (ranks, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn uniform_on_cycle() {
        let (ranks, _) = pagerank(&cycle(10), 100);
        for r in &ranks {
            assert!((r - 0.1).abs() < 1e-6, "cycle is symmetric: {r}");
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        // A graph with a dangling node (2 has no out-edges).
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let (ranks, _) = pagerank(&g, 100);
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn hub_outranks_leaves() {
        // Star pointing inward: everyone links to 0.
        let edges: Vec<(u32, u32)> = (1..10).map(|i| (i, 0)).collect();
        let g = CsrGraph::from_edges(10, &edges);
        let (ranks, _) = pagerank(&g, 100);
        for leaf in 1..10 {
            assert!(ranks[0] > ranks[leaf] * 3.0, "hub should dominate");
        }
    }

    #[test]
    fn converges_and_reports_iterations() {
        let (_, iters) = pagerank(&cycle(50), 100);
        assert!(iters < 100, "cycle converges quickly: {iters}");
        let (_, capped) = pagerank(&cycle(50), 3);
        assert!(capped <= 3);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let (ranks, iters) = pagerank(&g, 100);
        assert!(ranks.is_empty());
        assert_eq!(iters, 0);
    }

    #[test]
    fn instrumented_emits_one_span_per_iteration() {
        let telemetry = bdb_telemetry::SpanRecorder::enabled();
        let (ranks, iters) = pagerank_instrumented(&cycle(10), 100, &telemetry);
        let (plain, _) = pagerank(&cycle(10), 100);
        assert_eq!(ranks, plain);
        let spans = telemetry.events().iter().filter(|e| e.name == "pagerank-iteration").count();
        assert_eq!(spans as u32, iters);
    }

    #[test]
    fn traced_matches_plain() {
        use bdb_archsim::CountingProbe;
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 0), (4, 0), (5, 2)]);
        let mut probe = CountingProbe::default();
        let mut trace = crate::trace::GraphTraceModel::new(&g);
        let (traced, _) = pagerank_traced(&g, 100, &mut probe, &mut trace);
        let (plain, _) = pagerank(&g, 100);
        assert_eq!(traced, plain);
        assert!(probe.mix().fp_ops > 0, "PageRank does real FP work");
        assert!(probe.mix().loads > 0);
    }
}
