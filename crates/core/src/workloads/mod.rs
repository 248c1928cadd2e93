//! Implementations of the nineteen workloads, grouped by the paper's
//! application scenarios (Table 4).
//!
//! | Module | Scenario | Workloads |
//! |---|---|---|
//! | [`micro`] | Micro benchmarks | Sort, Grep, WordCount, BFS |
//! | [`oltp`] | Cloud OLTP | Read, Write, Scan |
//! | [`query`] | Relational query | Select, Aggregate, Join |
//! | [`search`] | Search engine | PageRank, Index |
//! | [`service`] | Online services | Nutch, Olio, Rubis servers |
//! | [`social`] | Social network | K-means, Connected Components |
//! | [`ecommerce`] | E-commerce | Collaborative Filtering, Naive Bayes |

pub mod ecommerce;
pub mod micro;
pub mod oltp;
pub mod query;
pub mod search;
pub mod service;
pub mod social;

use crate::workload::{Workload, WorkloadId};
use bdb_archsim::{CharacterizationReport, MachineConfig, SimProbe};
use bdb_mapreduce::{Engine, FrameworkModel, Job};

/// Records of a traced run's warm-up pass: the first fifth of the
/// input, at least one record.
pub(crate) fn warm_len(records: usize) -> usize {
    records.div_ceil(5).max(1)
}

/// The traced protocol of the MapReduce workloads: warm the framework's
/// code (class loading), run `job` over the first [`warm_len`] inputs,
/// reset the counters, then measure one run over all of `inputs` on the
/// same framework model. Returns the measured run's report and output.
pub(crate) fn traced_job<J: Job>(
    engine: &Engine,
    job: &J,
    inputs: &[J::Input],
    machine: MachineConfig,
) -> (CharacterizationReport, Vec<J::Output>) {
    let mut probe = SimProbe::new(machine);
    let mut fw = FrameworkModel::new();
    fw.warm(&mut probe);
    engine.run_traced_with(job, &inputs[..warm_len(inputs.len())], &mut probe, &mut fw);
    probe.reset_stats();
    let (out, _) = engine.run_traced_with(job, inputs, &mut probe, &mut fw);
    (probe.finish(), out)
}

/// Builds the workload implementation for `id`.
pub fn build(id: WorkloadId) -> Box<dyn Workload> {
    match id {
        WorkloadId::Sort => Box::new(micro::SortWorkload),
        WorkloadId::Grep => Box::new(micro::GrepWorkload),
        WorkloadId::WordCount => Box::new(micro::WordCountWorkload),
        WorkloadId::Bfs => Box::new(micro::BfsWorkload),
        WorkloadId::Read => Box::new(oltp::ReadWorkload),
        WorkloadId::Write => Box::new(oltp::WriteWorkload),
        WorkloadId::Scan => Box::new(oltp::ScanWorkload),
        WorkloadId::SelectQuery => Box::new(query::SelectWorkload),
        WorkloadId::AggregateQuery => Box::new(query::AggregateWorkload),
        WorkloadId::JoinQuery => Box::new(query::JoinWorkload),
        WorkloadId::NutchServer => Box::new(service::NutchWorkload),
        WorkloadId::PageRank => Box::new(search::PageRankWorkload),
        WorkloadId::Index => Box::new(search::IndexWorkload),
        WorkloadId::OlioServer => Box::new(service::OlioWorkload),
        WorkloadId::KMeans => Box::new(social::KMeansWorkload),
        WorkloadId::ConnectedComponents => Box::new(social::CcWorkload),
        WorkloadId::RubisServer => Box::new(service::RubisWorkload),
        WorkloadId::CollaborativeFiltering => Box::new(ecommerce::CfWorkload),
        WorkloadId::NaiveBayes => Box::new(ecommerce::BayesWorkload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_builds_and_matches() {
        for id in WorkloadId::ALL {
            let w = build(id);
            assert_eq!(w.id(), id);
        }
    }
}
