//! The nineteen workloads, grouped by the paper's application
//! scenarios (Table 4). Each workload is a pair of plain functions, one
//! per mode, and `run_native` / `run_traced` here pick the pair for a
//! [`WorkloadId`]; [`crate::Suite`] calls them.
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

use crate::report::WorkloadReport;
use crate::scale::RunScale;
use crate::workload::WorkloadId;
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

/// Runs workload `id` natively at `scale`: parallel, uninstrumented,
/// reporting the user-perceivable metric.
pub(crate) fn run_native(id: WorkloadId, scale: &RunScale) -> WorkloadReport {
    match id {
        WorkloadId::Sort => micro::sort_native(scale),
        WorkloadId::Grep => micro::grep_native(scale),
        WorkloadId::WordCount => micro::wordcount_native(scale),
        WorkloadId::Bfs => micro::bfs_native(scale),
        WorkloadId::Read | WorkloadId::Write | WorkloadId::Scan => oltp::native(id, scale),
        WorkloadId::SelectQuery | WorkloadId::AggregateQuery | WorkloadId::JoinQuery => {
            query::native(id, scale)
        }
        WorkloadId::NutchServer => service::nutch_native(scale),
        WorkloadId::PageRank => search::pagerank_native(scale),
        WorkloadId::Index => search::index_native(scale),
        WorkloadId::OlioServer => service::olio_native(scale),
        WorkloadId::KMeans => social::kmeans_native(scale),
        WorkloadId::ConnectedComponents => social::cc_native(scale),
        WorkloadId::RubisServer => service::rubis_native(scale),
        WorkloadId::CollaborativeFiltering => ecommerce::cf_native(scale),
        WorkloadId::NaiveBayes => ecommerce::bayes_native(scale),
    }
}

/// Runs workload `id` single-threaded on the simulated `machine` and
/// reports its micro-architectural characterization.
pub(crate) fn run_traced(
    id: WorkloadId,
    scale: &RunScale,
    machine: MachineConfig,
) -> CharacterizationReport {
    match id {
        WorkloadId::Sort => micro::sort_traced(scale, machine),
        WorkloadId::Grep => micro::grep_traced(scale, machine),
        WorkloadId::WordCount => micro::wordcount_traced(scale, machine),
        WorkloadId::Bfs => micro::bfs_traced(scale, machine),
        WorkloadId::Read | WorkloadId::Write | WorkloadId::Scan => oltp::traced(id, scale, machine),
        WorkloadId::SelectQuery | WorkloadId::AggregateQuery | WorkloadId::JoinQuery => {
            query::traced(id, scale, machine)
        }
        WorkloadId::NutchServer => service::nutch_traced(scale, machine),
        WorkloadId::PageRank => search::pagerank_traced(scale, machine),
        WorkloadId::Index => search::index_traced(scale, machine),
        WorkloadId::OlioServer => service::olio_traced(scale, machine),
        WorkloadId::KMeans => social::kmeans_traced(scale, machine),
        WorkloadId::ConnectedComponents => social::cc_traced(scale, machine),
        WorkloadId::RubisServer => service::rubis_traced(scale, machine),
        WorkloadId::CollaborativeFiltering => ecommerce::cf_traced(scale, machine),
        WorkloadId::NaiveBayes => ecommerce::bayes_traced(scale, machine),
    }
}
