//! Breadth-first search, serial and MPI-style rank-partitioned.

use crate::csr::CsrGraph;
use crate::trace::GraphTraceModel;
use bdb_archsim::{NullProbe, Probe};

/// Level-synchronous BFS from `source`. Returns each vertex's level
/// (`None` for unreachable).
pub fn bfs(graph: &CsrGraph, source: u32) -> Vec<Option<u32>> {
    bfs_impl(graph, source, &mut NullProbe, None)
}

/// Instrumented [`bfs`].
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_traced<P: Probe + ?Sized>(
    graph: &CsrGraph,
    source: u32,
    probe: &mut P,
    trace: &mut GraphTraceModel,
) -> Vec<Option<u32>> {
    bfs_impl(graph, source, probe, Some(trace))
}

fn bfs_impl<P: Probe + ?Sized>(
    graph: &CsrGraph,
    source: u32,
    probe: &mut P,
    mut trace: Option<&mut GraphTraceModel>,
) -> Vec<Option<u32>> {
    assert!(source < graph.nodes(), "source out of range");
    let n = graph.nodes() as usize;
    let mut levels: Vec<Option<u32>> = vec![None; n];
    levels[source as usize] = Some(0);
    let mut frontier = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        if let Some(t) = trace.as_mut() {
            t.on_superstep(probe);
        }
        let mut next = Vec::new();
        for &v in &frontier {
            if let Some(t) = trace.as_mut() {
                t.read_offsets(probe, v);
                t.read_adjacency(probe, graph.offset_of(v), graph.out_degree(v));
            }
            for &w in graph.neighbors(v) {
                if let Some(t) = trace.as_mut() {
                    t.access_value(probe, w, false);
                }
                if levels[w as usize].is_none() {
                    levels[w as usize] = Some(level + 1);
                    if let Some(t) = trace.as_mut() {
                        t.access_value(probe, w, true);
                        t.push_frontier(probe, next.len() as u64);
                    }
                    next.push(w);
                }
            }
        }
        frontier = next;
        level += 1;
    }
    levels
}

/// Result of a rank-partitioned BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Per-vertex level (`None` = unreachable).
    pub levels: Vec<Option<u32>>,
    /// Number of level-synchronous supersteps executed.
    pub supersteps: u32,
    /// Vertices sent between ranks across all supersteps — the MPI
    /// communication volume the paper's BFS pays.
    pub remote_sends: u64,
    /// Vertices that stayed rank-local.
    pub local_visits: u64,
}

/// MPI-style BFS: vertices are block-partitioned over `ranks` logical
/// processes; discovering a vertex owned by another rank counts as a
/// remote send (one message entry), mirroring the paper's MPI BFS.
///
/// # Panics
///
/// Panics if `ranks` is zero or `source` is out of range.
pub fn bfs_partitioned(graph: &CsrGraph, source: u32, ranks: u32) -> BfsResult {
    assert!(ranks > 0, "need at least one rank");
    assert!(source < graph.nodes(), "source out of range");
    let n = graph.nodes();
    let owner = |v: u32| -> u32 {
        // Block partitioning, as classic MPI BFS does.
        let block = n.div_ceil(ranks).max(1);
        (v / block).min(ranks - 1)
    };
    let mut levels: Vec<Option<u32>> = vec![None; n as usize];
    levels[source as usize] = Some(0);
    // Per-rank frontier queues.
    let mut frontiers: Vec<Vec<u32>> = vec![Vec::new(); ranks as usize];
    frontiers[owner(source) as usize].push(source);
    let mut supersteps = 0;
    let mut remote_sends = 0u64;
    let mut local_visits = 0u64;
    let mut level = 0u32;
    while frontiers.iter().any(|f| !f.is_empty()) {
        supersteps += 1;
        // Each rank expands its own frontier, producing messages.
        let mut inboxes: Vec<Vec<u32>> = vec![Vec::new(); ranks as usize];
        for rank in 0..ranks {
            let frontier = std::mem::take(&mut frontiers[rank as usize]);
            for v in frontier {
                for &w in graph.neighbors(v) {
                    let dst = owner(w);
                    if dst == rank {
                        local_visits += 1;
                    } else {
                        remote_sends += 1;
                    }
                    inboxes[dst as usize].push(w);
                }
            }
        }
        // Each rank drains its inbox, discovering unvisited vertices.
        for rank in 0..ranks {
            for w in inboxes[rank as usize].drain(..) {
                if levels[w as usize].is_none() {
                    levels[w as usize] = Some(level + 1);
                    frontiers[rank as usize].push(w);
                }
            }
        }
        level += 1;
    }
    BfsResult { levels, supersteps, remote_sends, local_visits }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Undirected chain plus a disconnected vertex.
    fn chain() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    }

    #[test]
    fn levels_on_chain() {
        let levels = bfs(&chain(), 0);
        assert_eq!(levels, vec![Some(0), Some(1), Some(2), Some(3), None]);
    }

    #[test]
    fn bfs_from_middle() {
        let levels = bfs(&chain(), 2);
        assert_eq!(levels, vec![Some(2), Some(1), Some(0), Some(1), None]);
    }

    #[test]
    fn partitioned_matches_serial() {
        let g = chain();
        let serial = bfs(&g, 0);
        for ranks in [1, 2, 3, 5, 8] {
            let par = bfs_partitioned(&g, 0, ranks);
            assert_eq!(par.levels, serial, "ranks={ranks}");
        }
    }

    #[test]
    fn partitioned_counts_communication() {
        let g = chain();
        let one = bfs_partitioned(&g, 0, 1);
        assert_eq!(one.remote_sends, 0, "single rank sends nothing");
        assert!(one.local_visits > 0);
        let four = bfs_partitioned(&g, 0, 4);
        assert!(four.remote_sends > 0, "partitioning forces messages");
        assert_eq!(
            one.local_visits + one.remote_sends,
            four.local_visits + four.remote_sends,
            "total edge traversals are partition-invariant"
        );
    }

    #[test]
    fn supersteps_equal_eccentricity_plus_one() {
        let r = bfs_partitioned(&chain(), 0, 2);
        assert_eq!(r.supersteps, 4);
    }

    #[test]
    fn traced_bfs_matches_and_records() {
        use bdb_archsim::CountingProbe;
        let g = chain();
        let mut trace = crate::trace::GraphTraceModel::new(&g);
        let mut probe = CountingProbe::default();
        let traced = bfs_traced(&g, 0, &mut probe, &mut trace);
        assert_eq!(traced, bfs(&g, 0));
        assert!(probe.mix().loads > 0);
        assert!(probe.mix().stores > 0);
    }

    #[test]
    fn random_graph_reachability_is_consistent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200u32;
        let mut edges = Vec::new();
        for _ in 0..800 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            edges.push((a, b));
            edges.push((b, a));
        }
        let g = CsrGraph::from_edges(n, &edges);
        let serial = bfs(&g, 0);
        let par = bfs_partitioned(&g, 0, 7);
        assert_eq!(serial, par.levels);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn oob_source_panics() {
        bfs(&chain(), 99);
    }
}
