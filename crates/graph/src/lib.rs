//! Graph structures and algorithms for BigDataBench-RS.
//!
//! Three of the paper's workloads are graph algorithms: **BFS** (the
//! micro benchmark run on MPI, Table 6 row 4), **PageRank** (the search
//! engine's offline analytics workload, seeded by the Google web graph)
//! and **Connected Components** (the social-network workload, seeded by
//! the Facebook graph). This crate provides the shared compressed
//! sparse-row representation ([`CsrGraph`]) and the three kernels, each
//! with an instrumented variant that reports its genuine memory-access
//! pattern — the scattered neighbor/rank accesses that give graph
//! workloads their notoriously high data-side miss rates (the paper
//! measures BFS at L2 MPKI 56 and DTLB MPKI 14, the highest in the
//! suite).
//!
//! BFS is additionally offered in a rank-partitioned variant
//! ([`bfs::bfs_partitioned`]) mirroring the paper's MPI implementation:
//! vertices are block-partitioned over logical ranks and frontier
//! exchanges are counted as communication volume.
//!
//! PageRank runs with the canonical damping factor
//! ([`pagerank::DAMPING`]) and convergence tolerance
//! ([`pagerank::TOLERANCE`]); its entry points take only an iteration
//! cap.
//!
//! # Example
//!
//! ```
//! use bdb_graph::{CsrGraph, bfs::bfs};
//!
//! // A path 0 - 1 - 2.
//! let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
//! let levels = bfs(&g, 0);
//! assert_eq!(levels, vec![Some(0), Some(1), Some(2)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod cc;
pub mod csr;
pub mod pagerank;
pub mod trace;

pub use bfs::{bfs, bfs_partitioned, BfsResult};
pub use cc::{connected_components, label_propagation, label_propagation_instrumented};
pub use csr::CsrGraph;
pub use pagerank::{pagerank, pagerank_instrumented};
pub use trace::GraphTraceModel;
