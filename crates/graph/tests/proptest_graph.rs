//! Property-based tests: graph algorithms against naive references on
//! random graphs.

use bdb_graph::{bfs, cc, pagerank, CsrGraph};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Random undirected edge list over `n` vertices.
fn undirected(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_edges).prop_map(|pairs| {
        let mut edges = Vec::with_capacity(pairs.len() * 2);
        for (a, b) in pairs {
            if a != b {
                edges.push((a, b));
                edges.push((b, a));
            }
        }
        edges
    })
}

/// Naive BFS with an explicit queue.
fn naive_bfs(graph: &CsrGraph, source: u32) -> Vec<Option<u32>> {
    let mut levels = vec![None; graph.nodes() as usize];
    levels[source as usize] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let next = levels[v as usize].expect("visited") + 1;
        for &w in graph.neighbors(v) {
            if levels[w as usize].is_none() {
                levels[w as usize] = Some(next);
                queue.push_back(w);
            }
        }
    }
    levels
}

proptest! {
    /// Library BFS equals naive BFS on arbitrary directed graphs.
    #[test]
    fn bfs_matches_naive(
        edges in proptest::collection::vec((0u32..60, 0u32..60), 0..300),
        source in 0u32..60,
    ) {
        let graph = CsrGraph::from_edges(60, &edges);
        prop_assert_eq!(bfs::bfs(&graph, source), naive_bfs(&graph, source));
    }

    /// Rank-partitioned BFS equals serial BFS for any rank count.
    #[test]
    fn partitioned_bfs_invariant(
        edges in undirected(40, 150),
        source in 0u32..40,
        ranks in 1u32..9,
    ) {
        let graph = CsrGraph::from_edges(40, &edges);
        let serial = bfs::bfs(&graph, source);
        let partitioned = bfs::bfs_partitioned(&graph, source, ranks);
        prop_assert_eq!(partitioned.levels, serial);
    }

    /// Label propagation equals union-find on undirected graphs.
    #[test]
    fn cc_agreement(edges in undirected(50, 200)) {
        let graph = CsrGraph::from_edges(50, &edges);
        let (lp, _) = cc::label_propagation(&graph);
        prop_assert_eq!(lp, cc::connected_components(&graph));
    }

    /// Component labels are canonical: every label is the minimum vertex
    /// id of its component, and connected vertices share labels.
    #[test]
    fn cc_labels_canonical(edges in undirected(40, 120)) {
        let graph = CsrGraph::from_edges(40, &edges);
        let labels = cc::connected_components(&graph);
        for v in 0..graph.nodes() {
            prop_assert!(labels[v as usize] <= v, "label is a component minimum");
            for &w in graph.neighbors(v) {
                prop_assert_eq!(labels[v as usize], labels[w as usize]);
            }
        }
    }

    /// PageRank sums to 1 and is non-negative on any graph.
    #[test]
    fn pagerank_is_distribution(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..150)) {
        let graph = CsrGraph::from_edges(40, &edges);
        let (ranks, _) = pagerank::pagerank(&graph, 100);
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        prop_assert!(ranks.iter().all(|&r| r >= 0.0));
    }

    /// CSR round-trip: neighbors reproduce the edge multiset per source.
    #[test]
    fn csr_preserves_edges(edges in proptest::collection::vec((0u32..30, 0u32..30), 0..200)) {
        let graph = CsrGraph::from_edges(30, &edges);
        prop_assert_eq!(graph.edges(), edges.len() as u64);
        let mut expect: Vec<Vec<u32>> = vec![Vec::new(); 30];
        for &(s, d) in &edges {
            expect[s as usize].push(d);
        }
        for v in 0..30u32 {
            prop_assert_eq!(graph.neighbors(v), expect[v as usize].as_slice());
        }
    }
}
