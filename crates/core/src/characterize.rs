//! Figure-level orchestration: the data behind each of the paper's
//! evaluation figures (2, 3-1, 3-2, 4, 5, 6).
//!
//! Figures 2 and 3 have their own rows. Figures 4, 5 and 6 share one
//! list of whole reports, [`figure_rows`], characterized once per
//! machine: Figures 4 and 6 read it on the E5645, Figure 5 on both
//! Xeons. Its workload rows come from [`baseline`], the named reports
//! that `bdb-bench`'s `BENCH_RESULTS.json` and characterization map
//! read too. `bdb-bench`'s `reproduce` binary formats the rows as the
//! paper's tables and series, and EXPERIMENTS.md records the comparison.

use crate::report::WorkloadReport;
use crate::scale::RunScale;
use crate::suite::Suite;
use crate::workload::WorkloadId;
use crate::workloads::{traced_job, warm_len};
use bdb_archsim::{CharacterizationReport, CounterSnapshot, MachineConfig, SimProbe};
use bdb_dataflow::Dataset;
use bdb_mapreduce::jobs::{words, WordCount};
use bdb_mapreduce::Engine;
use bdb_refbench::{characterize_suite, RefSuite};

/// Refbench kernel scale used for suite averages — large enough that
/// the streaming kernels (STREAM, PTRANS, RandomAccess) exceed the L3.
const REF_SCALE: usize = 1 << 20;

/// Figure 2 — L3 MPKI under the small (baseline) versus large input.
///
/// Following the paper, the *large* input is the multiplier at which the
/// workload achieved its best user-perceivable performance in the native
/// sweep.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Workload name.
    pub workload: String,
    /// L3 MPKI at the baseline input.
    pub small_l3_mpki: f64,
    /// L3 MPKI at the best-performing input.
    pub large_l3_mpki: f64,
    /// Which multiplier was "large".
    pub large_multiplier: u32,
}

/// Computes Figure 2 for every workload.
pub fn figure2(suite: &Suite, machine: &MachineConfig) -> Vec<Fig2Row> {
    WorkloadId::ALL
        .iter()
        .map(|&id| {
            let native = suite.sweep_native(id);
            let large_multiplier = best_multiplier(&native);
            let small = suite.run_traced(id, 1, machine.clone());
            let large = suite.run_traced(id, large_multiplier, machine.clone());
            Fig2Row {
                workload: id.name().to_owned(),
                small_l3_mpki: small.l3_mpki(),
                large_l3_mpki: large.l3_mpki(),
                large_multiplier,
            }
        })
        .collect()
}

fn best_multiplier(sweep: &[WorkloadReport]) -> u32 {
    sweep
        .iter()
        .max_by(|a, b| a.metric.value().total_cmp(&b.metric.value()))
        .map_or(32, |r| r.multiplier)
}

/// One point of the Figure 3 sweeps: traced MIPS plus native speedup.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Workload name.
    pub workload: String,
    /// Data-volume multiplier.
    pub multiplier: u32,
    /// Timing-model MIPS (Figure 3-1).
    pub mips: f64,
    /// Native metric normalized to the baseline run (Figure 3-2).
    pub speedup: f64,
    /// L3 MPKI at this multiplier (supporting data for Figure 2's
    /// discussion).
    pub l3_mpki: f64,
}

/// Computes the Figure 3 sweep (5 multipliers) for one workload.
pub fn figure3_for(suite: &Suite, id: WorkloadId, machine: &MachineConfig) -> Vec<Fig3Row> {
    let native = suite.sweep_native(id);
    let baseline_value =
        native.first().map(|r| r.metric.value()).filter(|v| *v > 0.0).unwrap_or(1.0);
    let traced = suite.sweep_traced(id, machine);
    native
        .iter()
        .zip(&traced)
        .map(|(n, t)| Fig3Row {
            workload: id.name().to_owned(),
            multiplier: n.multiplier,
            mips: t.mips(),
            speedup: n.metric.value() / baseline_value,
            l3_mpki: t.l3_mpki(),
        })
        .collect()
}

/// Computes Figure 3 for every workload.
pub fn figure3(suite: &Suite, machine: &MachineConfig) -> Vec<Fig3Row> {
    WorkloadId::ALL.iter().flat_map(|&id| figure3_for(suite, id, machine)).collect()
}

/// One traced run per id at the baseline input, in `ids` order, each
/// named by its Table 6 spelling: the one counter record that
/// Figures 4–6, `BENCH_RESULTS.json` and the characterization map read.
pub fn baseline(
    suite: &Suite,
    ids: &[WorkloadId],
    machine: &MachineConfig,
) -> Vec<(&'static str, CharacterizationReport)> {
    ids.iter().map(|&id| (id.name(), suite.run_traced(id, 1, machine.clone()))).collect()
}

/// The rows behind Figures 4, 5 and 6, in the figures' order: the 19
/// workloads' [`baseline`] in Table 6 order, `Avg_BigData` over them,
/// then the four traditional-suite averages. Each row is a whole
/// report, characterized once on `machine`; the figures are column
/// lists over these rows.
pub fn figure_rows(
    suite: &Suite,
    machine: &MachineConfig,
) -> Vec<(&'static str, CharacterizationReport)> {
    let mut rows = baseline(suite, &WorkloadId::ALL, machine);
    let avg = average_report(&rows);
    rows.push(("Avg_BigData", avg));
    for kind in RefSuite::ALL {
        rows.push((kind.label(), characterize_suite(kind, REF_SCALE, machine.clone())));
    }
    rows
}

/// Merges per-workload reports into a suite-average report: the sum of
/// their counters, under the first report's machine name and the last
/// one's frequency, so derived metrics are recomputed over the suite.
pub fn average_report(reports: &[(&str, CharacterizationReport)]) -> CharacterizationReport {
    let mut counters = CounterSnapshot::default();
    for (_, r) in reports {
        counters.merge(&r.counters);
    }
    CharacterizationReport {
        machine: reports.first().map(|(_, r)| r.machine.clone()).unwrap_or_default(),
        freq_mhz: reports.last().map_or(0, |(_, r)| r.freq_mhz),
        counters,
        phases: Vec::new(),
    }
}

/// The paper's planned stack swap (§6.3.2): one WordCount on two
/// software stacks, characterized on the same machine.
#[derive(Debug, Clone)]
pub struct StackSwap {
    /// [`WordCount`] on the MapReduce (Hadoop-like) engine.
    pub mapreduce: CharacterizationReport,
    /// The same count on the in-memory (Spark-like) dataflow engine.
    pub dataflow: CharacterizationReport,
    /// Distinct words both stacks counted.
    pub distinct_words: usize,
}

/// Runs the stack swap over `lines`: [`WordCount`] on the MapReduce
/// stack and a [`words`] count on `bdb-dataflow`, each traced with the
/// suite's warm-up protocol (the first fifth of the input, then one
/// measured run over all of it).
///
/// # Panics
///
/// Panics if the two stacks count different words: the comparison is
/// only meaningful when they compute the same answer.
pub fn stack_swap(lines: &[String], machine: &MachineConfig) -> StackSwap {
    let engine = Engine::builder().build();
    let (mapreduce, mut hadoop_out) = traced_job(&engine, &WordCount, lines, machine.clone());

    let wordcount = |lines: &[String]| {
        Dataset::from_vec(lines.to_vec())
            .flat_map(|l| words(l).map(str::to_owned).collect())
            .key_by(|w| w.clone())
            .map_values(|_| 1u64)
            .reduce_by_key(|a, b| a + b)
    };
    let mut probe = SimProbe::new(machine.clone());
    wordcount(&lines[..warm_len(lines.len())]).collect_traced(&mut probe);
    probe.reset_stats();
    let (mut flow_out, _) = wordcount(lines).collect_traced(&mut probe);
    let dataflow = probe.finish();

    hadoop_out.sort();
    flow_out.sort();
    assert_eq!(hadoop_out, flow_out, "both stacks compute the same answer");
    StackSwap { mapreduce, dataflow, distinct_words: flow_out.len() }
}

/// Convenience: the multipliers of [`RunScale::MULTIPLIERS`] as labels.
pub fn multiplier_labels() -> Vec<String> {
    RunScale::MULTIPLIERS
        .iter()
        .map(|m| if *m == 1 { "Baseline".to_owned() } else { format!("{m}X") })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> Suite {
        Suite::with_fraction(1.0 / 64.0)
    }

    #[test]
    fn fig3_sweep_has_five_points_per_workload() {
        let suite = tiny_suite();
        let rows = figure3_for(&suite, WorkloadId::Grep, &MachineConfig::xeon_e5645());
        assert_eq!(rows.len(), 5);
        assert!((rows[0].speedup - 1.0).abs() < 1e-9, "baseline normalizes to 1");
        assert!(rows.iter().all(|r| r.mips > 0.0));
    }

    #[test]
    fn average_report_sums() {
        let ids = [WorkloadId::Grep, WorkloadId::Bfs];
        let reports = baseline(&tiny_suite(), &ids, &MachineConfig::xeon_e5645());
        let avg = average_report(&reports);
        assert_eq!(avg.instructions(), reports[0].1.instructions() + reports[1].1.instructions());
        assert!(avg.counters.l3.is_some());
    }

    #[test]
    fn multiplier_labels_match_paper() {
        assert_eq!(multiplier_labels(), vec!["Baseline", "4X", "8X", "16X", "32X"]);
    }

    #[test]
    fn baseline_names_each_id_in_order() {
        let ids = [WorkloadId::WordCount, WorkloadId::PageRank];
        let rows = baseline(&tiny_suite(), &ids, &MachineConfig::xeon_e5645());
        let names: Vec<&str> = rows.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["WordCount", "PageRank"]);
    }

    #[test]
    fn phase_rows_partition_a_mapreduce_run() {
        let rows = baseline(&tiny_suite(), &[WorkloadId::WordCount], &MachineConfig::xeon_e5645());
        let report = &rows[0].1;
        let phases = report.phase_reports();
        assert!(!phases.is_empty(), "traced WordCount records phases");
        let names: Vec<&str> = phases.iter().map(|(name, _)| name.as_str()).collect();
        assert!(names.contains(&"map"), "phases: {names:?}");
        assert!(names.contains(&"reduce"), "phases: {names:?}");
        let instructions: u64 = phases.iter().map(|(_, p)| p.instructions()).sum();
        assert_eq!(instructions, report.instructions(), "phases partition the instruction stream");
        let cycles: u64 = phases.iter().map(|(_, p)| p.counters.cycles).sum();
        let cycle_share = cycles as f64 / report.counters.cycles.max(1) as f64;
        assert!((cycle_share - 1.0).abs() < 1e-9, "cycle shares sum to 1: {cycle_share}");
        assert!(phases.iter().all(|(_, p)| p.instructions() == 0 || p.mips() > 0.0));
    }

    #[test]
    fn phase_rows_name_iterations_for_iterative_workloads() {
        let rows = baseline(&tiny_suite(), &[WorkloadId::PageRank], &MachineConfig::xeon_e5645());
        let phases = rows[0].1.phase_reports();
        assert!(phases.iter().any(|(name, _)| name == "iter-1"), "per-iteration phases recorded");
    }
}
