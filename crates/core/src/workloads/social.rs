//! Social-network offline analytics: K-means clustering and Connected
//! Components over the Facebook-fitted graph (paper Table 4).

use crate::report::{UserMetric, WorkloadReport};
use crate::scale::RunScale;
use crate::workload::WorkloadId;
use bdb_archsim::{CharacterizationReport, MachineConfig, Probe, SimProbe};
use bdb_datagen::{GraphGenerator, RmatParams};
use bdb_graph::{cc, CsrGraph, GraphTraceModel};
use bdb_mapreduce::FrameworkModel;
use bdb_mlkit::KMeans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Library-scale baseline point count for K-means ("32 GB data").
/// Sized so the 32x input (x fraction 0.25) crosses the E5645's 12 MiB
/// L3 — the boundary behind the paper's "K-means has the largest
/// small-vs-large L3 MPKI gap" observation (Figure 2).
pub const POINTS_BASELINE: u64 = 40_000;
/// Feature dimension for K-means points.
const DIM: usize = 8;
/// Cluster count.
const K: usize = 5;
/// Baseline vertex count for CC — the paper's own 2^15 (Table 6).
pub const CC_BASELINE_VERTICES: u64 = 1 << 15;

/// Clustered synthetic points: `K` Gaussian-ish blobs.
fn points(scale: &RunScale, n: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(scale.seed_for(50));
    let centers: Vec<Vec<f64>> =
        (0..K).map(|_| (0..DIM).map(|_| rng.gen_range(-100.0..100.0)).collect()).collect();
    (0..n)
        .map(|_| {
            let c = &centers[rng.gen_range(0..K)];
            c.iter().map(|&x| x + rng.gen_range(-5.0..5.0)).collect()
        })
        .collect()
}

/// K-means over clustered points (Hadoop K-means in the paper — the
/// traced run overlays framework cost per point per pass).
pub(crate) fn kmeans_native(scale: &RunScale) -> WorkloadReport {
    let n = scale.native_units(POINTS_BASELINE);
    let data = points(scale, n);
    let bytes = n * (DIM as u64) * 8;
    let kmeans = KMeans { k: K, max_iterations: 10, tolerance: 1e-4 };
    let start = Instant::now();
    let model = kmeans.fit(&data, scale.seed_for(51));
    let seconds = start.elapsed().as_secs_f64();
    WorkloadReport::new(
        WorkloadId::KMeans,
        scale.multiplier,
        UserMetric::Dps { input_bytes: bytes, seconds },
        bytes,
    )
    .with_detail(format!("{} iterations, inertia {:.1}", model.iterations, model.inertia))
}

pub(crate) fn kmeans_traced(scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
    let n = scale.native_units(POINTS_BASELINE).max(200);
    let data = points(scale, n);
    let kmeans = KMeans { k: K, max_iterations: 5, tolerance: 1e-4 };
    let mut probe = SimProbe::new(machine);
    let mut fw = FrameworkModel::new();
    // Warm-up pass (one iteration + framework code), then measure.
    KMeans { k: K, max_iterations: 1, tolerance: 1e-4 }.fit_traced(
        &data,
        scale.seed_for(51),
        &mut probe,
    );
    fw.warm(&mut probe);
    probe.reset_stats();
    let model = kmeans.fit_traced(&data, scale.seed_for(51), &mut probe);
    // Hadoop K-means re-reads every point (as a text record, ~20
    // bytes per coordinate) from HDFS each iteration.
    for _ in 0..model.iterations {
        for i in 0..n {
            fw.on_map_record(&mut probe, DIM * 12);
            // Text-to-float parsing dominates Hadoop K-means.
            probe.int_ops(DIM as u64 * 40);
            if i % 8 == 0 {
                fw.on_emit(&mut probe, DIM * 8 + 8);
            }
        }
    }
    probe.finish()
}

fn social_graph(scale: &RunScale, vertices: u64) -> CsrGraph {
    let g = GraphGenerator::new(RmatParams::facebook_social(), scale.seed_for(52))
        .generate(vertices.min(u32::MAX as u64) as u32);
    CsrGraph::from_edges(g.nodes, &g.edges)
}

/// Connected Components by MapReduce-style label propagation over the
/// Facebook-fitted social graph.
pub(crate) fn cc_native(scale: &RunScale) -> WorkloadReport {
    let vertices = scale.native_units(CC_BASELINE_VERTICES);
    let graph = social_graph(scale, vertices);
    let bytes = graph.byte_size();
    let start = Instant::now();
    let (labels, iterations) = cc::label_propagation(&graph);
    let seconds = start.elapsed().as_secs_f64();
    let components = cc::component_count(&labels);
    WorkloadReport::new(
        WorkloadId::ConnectedComponents,
        scale.multiplier,
        UserMetric::Dps { input_bytes: bytes, seconds },
        bytes,
    )
    .with_detail(format!("{components} components in {iterations} iterations"))
}

pub(crate) fn cc_traced(scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
    let vertices = scale.native_units(CC_BASELINE_VERTICES).max(128);
    let graph = social_graph(scale, vertices);
    let mut probe = SimProbe::new(machine);
    let mut trace = GraphTraceModel::new(&graph);
    let mut fw = FrameworkModel::new();
    cc::label_propagation_traced(&graph, &mut probe, &mut trace);
    fw.warm(&mut probe);
    probe.reset_stats();
    let (_, iterations) = cc::label_propagation_traced(&graph, &mut probe, &mut trace);
    // Hadoop CC re-reads every adjacency record each iteration and
    // shuffles candidate labels along edges.
    for _ in 0..iterations.min(8) {
        for v in 0..graph.nodes() {
            let record = 8 + 4 * graph.out_degree(v) as usize;
            fw.on_map_record(&mut probe, record);
            if v % 4 == 0 {
                fw.on_emit(&mut probe, 8);
            }
        }
    }
    probe.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_clusters_blobs() {
        let r = kmeans_native(&RunScale::quick());
        assert!(matches!(r.metric, UserMetric::Dps { .. }));
        assert!(r.detail.contains("iterations"));
    }

    #[test]
    fn cc_finds_giant_component() {
        let r = cc_native(&RunScale::quick());
        let components: usize = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        let vertices = RunScale::quick().native_units(CC_BASELINE_VERTICES) as usize;
        // Facebook-density R-MAT: most vertices join one big component.
        assert!(components < vertices / 2, "{components} of {vertices}");
    }

    #[test]
    fn traced_runs_include_framework_overlay() {
        let scale = RunScale::quick();
        let km = kmeans_traced(&scale, MachineConfig::xeon_e5645());
        let cc = cc_traced(&scale, MachineConfig::xeon_e5645());
        assert!(km.counters.mix.other > 0 && cc.counters.mix.other > 0);
        assert!(km.counters.mix.fp_ops > 0, "K-means distance math is FP");
    }
}
