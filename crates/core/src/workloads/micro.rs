//! Micro benchmarks: Sort, Grep, WordCount (MapReduce over Wikipedia-
//! style text) and BFS (MPI-style over an R-MAT graph).

use super::traced_job;
use crate::report::{UserMetric, WorkloadReport};
use crate::scale::RunScale;
use crate::workload::WorkloadId;
use bdb_archsim::{CharacterizationReport, MachineConfig, SimProbe};
use bdb_datagen::text::TextGenerator;
use bdb_datagen::{GraphGenerator, RmatParams};
use bdb_graph::{bfs, CsrGraph, GraphTraceModel};
use bdb_mapreduce::jobs::{Grep, Sort, WordCount};
use bdb_mapreduce::Engine;
use std::time::Instant;

/// Library-scale baseline for the "32 GB" text workloads.
pub const TEXT_BASELINE_BYTES: u64 = 1 << 20; // 1 MiB at multiplier 1
/// Baseline for the graph micro benchmark — the paper's own 2^15
/// vertices (Table 6), which is already laptop-scale.
pub const GRAPH_BASELINE_VERTICES: u64 = 1 << 15;

/// Sort-buffer budget for the Sort workload: fixed while inputs grow,
/// so large multipliers spill to disk exactly as Hadoop does when the
/// memory no longer holds the input (paper Figure 3-2's Sort curve).
const SORT_BUFFER_BYTES: usize = 4 << 20;

fn corpus(scale: &RunScale, bytes: u64) -> Vec<String> {
    let mut text = TextGenerator::wikipedia(scale.seed_for(1));
    text.corpus(bytes as usize).lines().map(str::to_owned).collect()
}

fn engine_for(buffer: usize) -> Engine {
    Engine::builder().map_buffer_bytes(buffer).build()
}

/// Sorts text lines by content (the TeraSort-style micro benchmark).
pub(crate) fn sort_native(scale: &RunScale) -> WorkloadReport {
    let bytes = scale.native_units(TEXT_BASELINE_BYTES);
    let lines = corpus(scale, bytes);
    let engine = engine_for(SORT_BUFFER_BYTES);
    let start = Instant::now();
    let (out, stats) = engine.run(&Sort, &lines);
    let seconds = start.elapsed().as_secs_f64();
    WorkloadReport::new(
        WorkloadId::Sort,
        scale.multiplier,
        UserMetric::Dps { input_bytes: bytes, seconds },
        bytes,
    )
    .with_detail(format!("{} records, {} spills", out.len(), stats.spills))
}

pub(crate) fn sort_traced(scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
    let bytes = scale.traced_units(TEXT_BASELINE_BYTES);
    let lines = corpus(scale, bytes);
    let engine = engine_for(SORT_BUFFER_BYTES);
    traced_job(&engine, &Sort, &lines, machine).0
}

/// Pattern matching over text lines (`grep` for frequent terms).
pub(crate) fn grep_native(scale: &RunScale) -> WorkloadReport {
    let bytes = scale.native_units(TEXT_BASELINE_BYTES);
    let lines = corpus(scale, bytes);
    let engine = engine_for(64 << 20);
    let start = Instant::now();
    let (hits, _) = engine.run(&Grep { pattern: "time" }, &lines);
    let seconds = start.elapsed().as_secs_f64();
    WorkloadReport::new(
        WorkloadId::Grep,
        scale.multiplier,
        UserMetric::Dps { input_bytes: bytes, seconds },
        bytes,
    )
    .with_detail(format!("{} matching lines", hits.len()))
}

pub(crate) fn grep_traced(scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
    let bytes = scale.traced_units(TEXT_BASELINE_BYTES);
    let lines = corpus(scale, bytes);
    let engine = engine_for(64 << 20);
    traced_job(&engine, &Grep { pattern: "time" }, &lines, machine).0
}

/// Word frequency counting with a combiner.
pub(crate) fn wordcount_native(scale: &RunScale) -> WorkloadReport {
    let bytes = scale.native_units(TEXT_BASELINE_BYTES);
    let lines = corpus(scale, bytes);
    let engine = engine_for(64 << 20);
    let start = Instant::now();
    let (counts, _) = engine.run(&WordCount, &lines);
    let seconds = start.elapsed().as_secs_f64();
    WorkloadReport::new(
        WorkloadId::WordCount,
        scale.multiplier,
        UserMetric::Dps { input_bytes: bytes, seconds },
        bytes,
    )
    .with_detail(format!("{} distinct words", counts.len()))
}

pub(crate) fn wordcount_traced(scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
    let bytes = scale.traced_units(TEXT_BASELINE_BYTES);
    let lines = corpus(scale, bytes);
    let engine = engine_for(64 << 20);
    traced_job(&engine, &WordCount, &lines, machine).0
}

fn bfs_graph(scale: &RunScale, vertices: u64) -> CsrGraph {
    let g = GraphGenerator::new(RmatParams::google_web(), scale.seed_for(4))
        .generate(vertices.min(u32::MAX as u64) as u32);
    CsrGraph::from_edges(g.nodes, &g.edges)
}

/// MPI-style breadth-first search over an R-MAT web graph.
pub(crate) fn bfs_native(scale: &RunScale) -> WorkloadReport {
    let vertices = scale.native_units(GRAPH_BASELINE_VERTICES);
    let graph = bfs_graph(scale, vertices);
    let bytes = graph.byte_size();
    let start = Instant::now();
    let result = bfs::bfs_partitioned(&graph, 0, 4);
    let seconds = start.elapsed().as_secs_f64();
    let reached = result.levels.iter().flatten().count();
    WorkloadReport::new(
        WorkloadId::Bfs,
        scale.multiplier,
        UserMetric::Dps { input_bytes: bytes, seconds },
        bytes,
    )
    .with_detail(format!(
        "{reached} vertices reached, {} supersteps, {} remote sends",
        result.supersteps, result.remote_sends
    ))
}

pub(crate) fn bfs_traced(scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
    // Graph kernels are cheap to simulate, so traced runs keep the
    // full native graph (the footprint IS the phenomenon: BFS is the
    // paper's data-side outlier).
    let vertices = scale.native_units(GRAPH_BASELINE_VERTICES);
    let graph = bfs_graph(scale, vertices);
    let mut probe = SimProbe::new(machine);
    let mut trace = GraphTraceModel::new(&graph);
    // BFS visits each vertex once, so a prior full run would be an
    // artificial warm-up; warm the (thin) runtime code only and
    // measure one genuine traversal.
    trace.warm(&mut probe);
    probe.reset_stats();
    bfs::bfs_traced(&graph, 0, &mut probe, &mut trace);
    probe.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunScale {
        RunScale::quick()
    }

    #[test]
    fn sort_reports_dps() {
        let r = sort_native(&quick());
        assert!(matches!(r.metric, UserMetric::Dps { .. }));
        assert!(r.metric.value() > 0.0);
        assert_eq!(r.workload, "Sort");
    }

    #[test]
    fn sort_spills_at_large_multiplier() {
        // 1 MiB baseline × 16 = 16 MiB input > 4 MiB sort buffer.
        let r = sort_native(&RunScale::at(16));
        assert!(r.detail.contains("spills"));
        let spills: u64 = r
            .detail
            .split(", ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(spills > 0, "16x input must spill: {}", r.detail);
    }

    #[test]
    fn grep_finds_matches() {
        let r = grep_native(&quick());
        let hits: usize = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        assert!(hits > 0, "pattern 'time' is a common word");
    }

    #[test]
    fn wordcount_counts_distinct_words() {
        let r = wordcount_native(&quick());
        let words: usize = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        assert!(words > 50);
    }

    #[test]
    fn bfs_reaches_most_of_the_graph() {
        let r = bfs_native(&quick());
        let reached: usize = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        assert!(reached > 50, "web graph giant component: {}", r.detail);
    }

    #[test]
    fn traced_runs_produce_reports() {
        let scale = quick();
        for id in [WorkloadId::Sort, WorkloadId::Grep, WorkloadId::WordCount, WorkloadId::Bfs] {
            let r = crate::workloads::run_traced(id, &scale, MachineConfig::xeon_e5645());
            assert!(r.instructions() > 1000, "{id:?}");
            assert!(r.counters.l1i.accesses > 0, "{id:?}");
        }
    }

    #[test]
    fn hadoop_micro_workloads_have_high_l1i_mpki() {
        // The paper's headline: deep software stacks thrash the L1I.
        let r = wordcount_traced(&quick(), MachineConfig::xeon_e5645());
        assert!(r.l1i_mpki() > 5.0, "L1I MPKI {}", r.l1i_mpki());
    }
}
