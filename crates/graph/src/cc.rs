//! Connected components: union-find and label propagation.
//!
//! The paper's CC workload runs label propagation on Hadoop over the
//! Facebook social graph; [`label_propagation`] mirrors that iterative
//! structure (it is the algorithm whose per-iteration cost a MapReduce
//! round pays), while [`connected_components`] provides the classic
//! union-find answer for verification and native runs.

use crate::csr::CsrGraph;
use crate::trace::GraphTraceModel;
use bdb_archsim::{NullProbe, Probe};
use bdb_telemetry::{span, SpanRecorder};

/// Union-find connected components (treating edges as undirected).
/// Returns each vertex's component label = smallest vertex id in its
/// component.
pub fn connected_components(graph: &CsrGraph) -> Vec<u32> {
    let n = graph.nodes() as usize;
    let mut parent: Vec<u32> = (0..graph.nodes()).collect();

    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let grand = parent[parent[v as usize] as usize];
            parent[v as usize] = grand; // path halving
            v = grand;
        }
        v
    }

    for v in 0..graph.nodes() {
        for &w in graph.neighbors(v) {
            let a = find(&mut parent, v);
            let b = find(&mut parent, w);
            if a != b {
                // Union by smaller label so the root is the min id.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi as usize] = lo;
            }
        }
    }
    let mut labels = vec![0u32; n];
    for v in 0..graph.nodes() {
        labels[v as usize] = find(&mut parent, v);
    }
    labels
}

/// Iterative label propagation (the Hadoop-CC structure): every vertex
/// starts labeled with its own id and repeatedly adopts the minimum
/// label among itself and its neighbors until a fixpoint. Returns
/// `(labels, iterations)`.
pub fn label_propagation(graph: &CsrGraph) -> (Vec<u32>, u32) {
    label_propagation_impl(graph, &mut NullProbe, None, &SpanRecorder::disabled())
}

/// [`label_propagation`] with per-iteration spans on `telemetry` (one
/// `cc-iteration` span per synchronous round).
pub fn label_propagation_instrumented(
    graph: &CsrGraph,
    telemetry: &SpanRecorder,
) -> (Vec<u32>, u32) {
    label_propagation_impl(graph, &mut NullProbe, None, telemetry)
}

/// Instrumented [`label_propagation`].
pub fn label_propagation_traced<P: Probe + ?Sized>(
    graph: &CsrGraph,
    probe: &mut P,
    trace: &mut GraphTraceModel,
) -> (Vec<u32>, u32) {
    label_propagation_impl(graph, probe, Some(trace), &SpanRecorder::disabled())
}

fn label_propagation_impl<P: Probe + ?Sized>(
    graph: &CsrGraph,
    probe: &mut P,
    mut trace: Option<&mut GraphTraceModel>,
    telemetry: &SpanRecorder,
) -> (Vec<u32>, u32) {
    let _run_span = span!(telemetry, "graph", "connected-components", nodes = graph.nodes());
    let mut labels: Vec<u32> = (0..graph.nodes()).collect();
    let mut iterations = 0;
    loop {
        iterations += 1;
        if probe.is_active() {
            probe.phase(&format!("iter-{iterations}"));
        }
        let mut iter_span = span!(telemetry, "graph", "cc-iteration", iter = iterations);
        if let Some(t) = trace.as_mut() {
            t.on_superstep(probe);
        }
        // Synchronous rounds: new labels are computed from the previous
        // round only, exactly like one MapReduce iteration of Hadoop-CC.
        let prev = labels.clone();
        let mut changed = false;
        for v in 0..graph.nodes() {
            if let Some(t) = trace.as_mut() {
                t.read_offsets(probe, v);
                t.read_adjacency(probe, graph.offset_of(v), graph.out_degree(v));
                t.access_value(probe, v, false);
            }
            let mut min = prev[v as usize];
            for &w in graph.neighbors(v) {
                if let Some(t) = trace.as_mut() {
                    t.access_value(probe, w, false);
                }
                probe.int_ops(1);
                min = min.min(prev[w as usize]);
            }
            if min < labels[v as usize] {
                labels[v as usize] = min;
                changed = true;
                if let Some(t) = trace.as_mut() {
                    t.access_value(probe, v, true);
                }
            }
        }
        iter_span.arg("changed", changed);
        if !changed {
            break;
        }
    }
    (labels, iterations)
}

/// Number of distinct components in a labeling.
pub fn component_count(labels: &[u32]) -> usize {
    let mut distinct: Vec<u32> = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles and an isolated vertex (undirected edges mirrored).
    fn two_triangles() -> CsrGraph {
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            edges.push((a, b));
            edges.push((b, a));
        }
        CsrGraph::from_edges(7, &edges)
    }

    #[test]
    fn union_find_labels_by_min_id() {
        let labels = connected_components(&two_triangles());
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 3, 6]);
        assert_eq!(component_count(&labels), 3);
    }

    #[test]
    fn label_propagation_agrees_with_union_find() {
        let g = two_triangles();
        let (lp, iters) = label_propagation(&g);
        assert_eq!(lp, connected_components(&g));
        assert!(iters >= 2, "needs at least propagate + verify rounds");
    }

    #[test]
    fn chain_needs_many_iterations() {
        // Label propagation on a path takes O(diameter) rounds — the
        // Hadoop-CC cost model the paper's workload pays.
        let n = 64u32;
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1));
            edges.push((i + 1, i));
        }
        let g = CsrGraph::from_edges(n, &edges);
        let (labels, iters) = label_propagation(&g);
        assert!(labels.iter().all(|&l| l == 0));
        assert!(iters > 4, "propagation along a path is slow: {iters}");
    }

    #[test]
    fn random_graph_agreement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let n = 300u32;
        let mut edges = Vec::new();
        for _ in 0..250 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            edges.push((a, b));
            edges.push((b, a));
        }
        let g = CsrGraph::from_edges(n, &edges);
        let (lp, _) = label_propagation(&g);
        assert_eq!(lp, connected_components(&g));
    }

    #[test]
    fn traced_matches_plain() {
        use bdb_archsim::CountingProbe;
        let g = two_triangles();
        let mut probe = CountingProbe::default();
        let mut trace = crate::trace::GraphTraceModel::new(&g);
        let (traced, _) = label_propagation_traced(&g, &mut probe, &mut trace);
        assert_eq!(traced, connected_components(&g));
        assert!(probe.mix().loads > 0);
    }

    #[test]
    fn instrumented_emits_one_span_per_round() {
        let g = two_triangles();
        let telemetry = bdb_telemetry::SpanRecorder::enabled();
        let (labels, iters) = label_propagation_instrumented(&g, &telemetry);
        assert_eq!(labels, connected_components(&g));
        let spans = telemetry.events().iter().filter(|e| e.name == "cc-iteration").count();
        assert_eq!(spans as u32, iters);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = CsrGraph::from_edges(0, &[]);
        assert!(connected_components(&empty).is_empty());
        let single = CsrGraph::from_edges(1, &[]);
        assert_eq!(connected_components(&single), vec![0]);
        let (lp, iters) = label_propagation(&single);
        assert_eq!(lp, vec![0]);
        assert_eq!(iters, 1);
    }
}
