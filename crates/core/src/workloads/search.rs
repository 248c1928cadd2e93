//! Search-engine offline analytics: PageRank over the web graph and
//! inverted-index construction (paper Table 4, "Search Engine" rows).

use super::traced_job;
use crate::report::{UserMetric, WorkloadReport};
use crate::scale::RunScale;
use crate::workload::{Workload, WorkloadId};
use bdb_archsim::{CharacterizationReport, MachineConfig, Probe, SimProbe};
use bdb_datagen::text::TextGenerator;
use bdb_datagen::{GraphGenerator, RmatParams};
use bdb_graph::{pagerank, CsrGraph, GraphTraceModel};
use bdb_mapreduce::{Emitter, Engine, FrameworkModel, Job};
use std::time::Instant;

/// Library-scale baseline page count (the paper's 10^6 pages).
pub const PAGES_BASELINE: u64 = 4_000;

/// PageRank over an R-MAT graph with Google-web-fitted parameters.
///
/// The paper runs PageRank on Hadoop; the traced run therefore overlays
/// the MapReduce framework cost per vertex per iteration on top of the
/// kernel's own access pattern.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageRankWorkload;

fn web_graph(scale: &RunScale, pages: u64) -> CsrGraph {
    let g = GraphGenerator::new(RmatParams::google_web(), scale.seed_for(30))
        .generate(pages.min(u32::MAX as u64) as u32);
    CsrGraph::from_edges(g.nodes, &g.edges)
}

impl Workload for PageRankWorkload {
    fn id(&self) -> WorkloadId {
        WorkloadId::PageRank
    }

    fn run_native(&self, scale: &RunScale) -> WorkloadReport {
        let pages = scale.native_units(PAGES_BASELINE);
        let graph = web_graph(scale, pages);
        let bytes = graph.byte_size();
        let start = Instant::now();
        let (ranks, iterations) = pagerank::pagerank(&graph, 20);
        let seconds = start.elapsed().as_secs_f64();
        let top = ranks.iter().cloned().fold(0.0f64, f64::max);
        WorkloadReport::new(
            self.id(),
            scale.multiplier,
            UserMetric::Dps { input_bytes: bytes, seconds },
            bytes,
        )
        .with_detail(format!("{iterations} iterations, top rank {top:.5}"))
    }

    fn run_traced(&self, scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
        let pages = scale.native_units(PAGES_BASELINE);
        let graph = web_graph(scale, pages);
        let mut probe = SimProbe::new(machine);
        let mut trace = Some(GraphTraceModel::new(&graph));
        let mut fw = FrameworkModel::new();
        // Warm: one power iteration plus framework code.
        pagerank::pagerank_traced(&graph, 1, &mut probe, &mut trace);
        fw.warm(&mut probe);
        probe.reset_stats();
        // Hadoop PageRank re-reads every vertex's adjacency record from
        // HDFS each iteration and shuffles one contribution per edge.
        let (_, iterations) = pagerank::pagerank_traced(&graph, 5, &mut probe, &mut trace);
        for _ in 0..iterations {
            for v in 0..graph.nodes() {
                let record = 16 + 8 * graph.out_degree(v) as usize;
                fw.on_map_record(&mut probe, record);
                if v % 4 == 0 {
                    fw.on_emit(&mut probe, 12);
                }
            }
        }
        probe.finish()
    }
}

/// Inverted-index construction as a MapReduce job: `(term, doc)` pairs
/// shuffled into per-term posting lists.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexWorkload;

struct IndexJob;
impl Job for IndexJob {
    /// `(doc id, document text)`.
    type Input = (u32, String);
    type Key = String;
    type Value = u32;
    type Output = (String, Vec<u32>);

    fn input_size(&self, (_, text): &(u32, String)) -> usize {
        4 + text.len()
    }

    fn map<P: Probe + ?Sized>(
        &self,
        (doc, text): &(u32, String),
        emit: &mut Emitter<String, u32>,
        probe: &mut P,
    ) {
        let mut seen = std::collections::HashSet::new();
        for term in text.split_whitespace() {
            probe.int_ops(term.len() as u64);
            let term = term.trim_matches('.');
            if seen.insert(term) {
                emit.emit(term.to_owned(), *doc);
            }
        }
    }

    fn reduce<P: Probe + ?Sized>(
        &self,
        term: String,
        mut postings: Vec<u32>,
        out: &mut Vec<(String, Vec<u32>)>,
        probe: &mut P,
    ) {
        probe.int_ops(postings.len() as u64 * 2);
        postings.sort_unstable();
        postings.dedup();
        out.push((term, postings));
    }
}

fn documents(scale: &RunScale, pages: u64) -> Vec<(u32, String)> {
    let mut text = TextGenerator::wikipedia(scale.seed_for(31));
    let mut docs = Vec::with_capacity(pages as usize);
    text.documents(pages as usize, |d| docs.push((docs.len() as u32, d)));
    docs
}

impl Workload for IndexWorkload {
    fn id(&self) -> WorkloadId {
        WorkloadId::Index
    }

    fn run_native(&self, scale: &RunScale) -> WorkloadReport {
        let pages = scale.native_units(PAGES_BASELINE);
        let docs = documents(scale, pages);
        let bytes: u64 = docs.iter().map(|(_, d)| d.len() as u64).sum();
        let engine = Engine::builder().build();
        let start = Instant::now();
        let (index, _) = engine.run(&IndexJob, &docs);
        let seconds = start.elapsed().as_secs_f64();
        WorkloadReport::new(
            self.id(),
            scale.multiplier,
            UserMetric::Dps { input_bytes: bytes, seconds },
            bytes,
        )
        .with_detail(format!("{} terms indexed over {pages} pages", index.len()))
    }

    fn run_traced(&self, scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
        let pages = scale.traced_units(PAGES_BASELINE);
        let docs = documents(scale, pages);
        let engine = Engine::builder().build();
        traced_job(&engine, &IndexJob, &docs, machine).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_converges_and_reports() {
        let r = PageRankWorkload.run_native(&RunScale::quick());
        assert!(matches!(r.metric, UserMetric::Dps { .. }));
        assert!(r.detail.contains("iterations"));
    }

    #[test]
    fn index_builds_postings() {
        let r = IndexWorkload.run_native(&RunScale::quick());
        let terms: usize = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        assert!(terms > 100, "vocabulary should be sizable: {terms}");
    }

    #[test]
    fn index_job_emits_unique_doc_ids() {
        let docs = vec![(7u32, "a b a".to_owned())];
        let engine = Engine::builder().threads(1).build();
        let (out, _) = engine.run(&IndexJob, &docs);
        for (_, postings) in out {
            assert_eq!(postings, vec![7]);
        }
    }

    #[test]
    fn traced_search_workloads_have_hadoop_footprints() {
        let scale = RunScale::quick();
        let pr = PageRankWorkload.run_traced(&scale, MachineConfig::xeon_e5645());
        let ix = IndexWorkload.run_traced(&scale, MachineConfig::xeon_e5645());
        assert!(pr.counters.mix.other > 0);
        assert!(ix.l1i_mpki() > 2.0, "Index on Hadoop: L1I MPKI {}", ix.l1i_mpki());
        assert!(pr.counters.mix.fp_ops > 0, "PageRank does FP");
    }
}
