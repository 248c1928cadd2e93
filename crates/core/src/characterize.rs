//! Figure-level orchestration: the data behind each of the paper's
//! evaluation figures (2, 3-1, 3-2, 4, 5, 6).
//!
//! Each function returns plain rows; `bdb-bench`'s `reproduce` binary
//! formats them as the paper's tables/series and EXPERIMENTS.md records
//! the comparison.

use crate::report::WorkloadReport;
use crate::scale::RunScale;
use crate::suite::Suite;
use crate::workload::WorkloadId;
use crate::workloads::{traced_job, warm_len};
use bdb_archsim::{CharacterizationReport, MachineConfig, SimProbe};
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

/// Figure 4 — dynamic instruction breakdown.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Workload or suite-average name.
    pub name: String,
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of branches.
    pub branch: f64,
    /// Fraction of integer-class instructions.
    pub int: f64,
    /// Fraction of FP instructions.
    pub fp: f64,
    /// Integer-to-FP ratio.
    pub int_fp_ratio: f64,
}

fn fig4_row(name: &str, r: &CharacterizationReport) -> Fig4Row {
    use bdb_archsim::metrics::InstClass;
    Fig4Row {
        name: name.to_owned(),
        load: r.mix.fraction(InstClass::Load),
        store: r.mix.fraction(InstClass::Store),
        branch: r.mix.fraction(InstClass::Branch),
        int: r.mix.fraction(InstClass::Int),
        fp: r.mix.fraction(InstClass::Fp),
        int_fp_ratio: r.mix.int_to_fp_ratio(),
    }
}

/// All per-workload traced reports at the baseline multiplier, in Table
/// 6 order — shared input for Figures 4, 5 and 6.
pub fn baseline_reports(
    suite: &Suite,
    machine: &MachineConfig,
) -> Vec<(WorkloadId, CharacterizationReport)> {
    WorkloadId::ALL.iter().map(|&id| (id, suite.run_traced(id, 1, machine.clone()))).collect()
}

/// Computes Figure 4: 19 workloads + the BigDataBench average + the four
/// traditional-suite averages.
pub fn figure4(
    reports: &[(WorkloadId, CharacterizationReport)],
    machine: &MachineConfig,
) -> Vec<Fig4Row> {
    let mut rows: Vec<Fig4Row> = reports.iter().map(|(id, r)| fig4_row(id.name(), r)).collect();
    rows.push(fig4_row("Avg_BigData", &average_report(reports)));
    for suite in RefSuite::ALL {
        let r = characterize_suite(suite, REF_SCALE, machine.clone());
        rows.push(fig4_row(suite.label(), &r));
    }
    rows
}

/// Merges per-workload reports into a suite-average report (sums event
/// counts, recomputes derived metrics).
pub fn average_report(reports: &[(WorkloadId, CharacterizationReport)]) -> CharacterizationReport {
    let mut avg = CharacterizationReport {
        machine: reports.first().map(|(_, r)| r.machine.clone()).unwrap_or_default(),
        ..Default::default()
    };
    for (_, r) in reports {
        avg.mix.merge(&r.mix);
        avg.l1i.stats.accesses += r.l1i.stats.accesses;
        avg.l1i.stats.misses += r.l1i.stats.misses;
        avg.l1d.stats.accesses += r.l1d.stats.accesses;
        avg.l1d.stats.misses += r.l1d.stats.misses;
        avg.l2.stats.accesses += r.l2.stats.accesses;
        avg.l2.stats.misses += r.l2.stats.misses;
        if let Some(l3) = r.l3 {
            let entry = avg.l3.get_or_insert_with(Default::default);
            entry.stats.accesses += l3.stats.accesses;
            entry.stats.misses += l3.stats.misses;
        }
        avg.itlb.stats.accesses += r.itlb.stats.accesses;
        avg.itlb.stats.misses += r.itlb.stats.misses;
        avg.dtlb.stats.accesses += r.dtlb.stats.accesses;
        avg.dtlb.stats.misses += r.dtlb.stats.misses;
        avg.dram_bytes += r.dram_bytes;
        avg.requested_bytes += r.requested_bytes;
        avg.mispredicts += r.mispredicts;
        avg.cycles += r.cycles;
        avg.freq_mhz = r.freq_mhz;
    }
    avg
}

/// Figure 5 — operation intensity on both machines.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Workload or suite-average name.
    pub name: String,
    /// FP operations per DRAM byte on the Xeon E5310.
    pub fp_e5310: f64,
    /// FP operations per DRAM byte on the Xeon E5645.
    pub fp_e5645: f64,
    /// Integer-class operations per DRAM byte on the E5310.
    pub int_e5310: f64,
    /// Integer-class operations per DRAM byte on the E5645.
    pub int_e5645: f64,
}

/// Computes Figure 5: per workload plus suite averages, on both
/// processor configurations.
pub fn figure5(suite: &Suite) -> Vec<Fig5Row> {
    let e5645 = MachineConfig::xeon_e5645();
    let e5310 = MachineConfig::xeon_e5310();
    let rep45 = baseline_reports(suite, &e5645);
    let rep10 = baseline_reports(suite, &e5310);
    let mut rows: Vec<Fig5Row> = rep45
        .iter()
        .zip(&rep10)
        .map(|((id, r45), (_, r10))| Fig5Row {
            name: id.name().to_owned(),
            fp_e5310: r10.fp_intensity(),
            fp_e5645: r45.fp_intensity(),
            int_e5310: r10.int_intensity(),
            int_e5645: r45.int_intensity(),
        })
        .collect();
    let avg45 = average_report(&rep45);
    let avg10 = average_report(&rep10);
    rows.push(Fig5Row {
        name: "Avg_BigData".to_owned(),
        fp_e5310: avg10.fp_intensity(),
        fp_e5645: avg45.fp_intensity(),
        int_e5310: avg10.int_intensity(),
        int_e5645: avg45.int_intensity(),
    });
    for suite_kind in RefSuite::ALL {
        let r45 = characterize_suite(suite_kind, REF_SCALE, e5645.clone());
        let r10 = characterize_suite(suite_kind, REF_SCALE, e5310.clone());
        rows.push(Fig5Row {
            name: suite_kind.label().to_owned(),
            fp_e5310: r10.fp_intensity(),
            fp_e5645: r45.fp_intensity(),
            int_e5310: r10.int_intensity(),
            int_e5645: r45.int_intensity(),
        });
    }
    rows
}

/// Figure 6 — memory-hierarchy behaviour (cache and TLB MPKI).
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Workload or suite-average name.
    pub name: String,
    /// L1 instruction cache MPKI.
    pub l1i_mpki: f64,
    /// L2 MPKI.
    pub l2_mpki: f64,
    /// L3 MPKI.
    pub l3_mpki: f64,
    /// Instruction TLB MPKI.
    pub itlb_mpki: f64,
    /// Data TLB MPKI.
    pub dtlb_mpki: f64,
}

fn fig6_row(name: &str, r: &CharacterizationReport) -> Fig6Row {
    Fig6Row {
        name: name.to_owned(),
        l1i_mpki: r.l1i_mpki(),
        l2_mpki: r.l2_mpki(),
        l3_mpki: r.l3_mpki(),
        itlb_mpki: r.itlb_mpki(),
        dtlb_mpki: r.dtlb_mpki(),
    }
}

/// Computes Figure 6 rows from baseline reports plus suite averages.
pub fn figure6(
    reports: &[(WorkloadId, CharacterizationReport)],
    machine: &MachineConfig,
) -> Vec<Fig6Row> {
    let mut rows: Vec<Fig6Row> = reports.iter().map(|(id, r)| fig6_row(id.name(), r)).collect();
    rows.push(fig6_row("Avg_BigData", &average_report(reports)));
    for suite in RefSuite::ALL {
        let r = characterize_suite(suite, REF_SCALE, machine.clone());
        rows.push(fig6_row(suite.label(), &r));
    }
    rows
}

/// One row of the per-phase breakdown: an execution phase of one
/// workload (map/spill/shuffle/reduce for MapReduce jobs, `iter-N` for
/// iterative algorithms, per-operator for SQL) with the figure-level
/// metrics recomputed over that phase alone. This is the drill-down
/// behind Figures 2–6: the same MPKI and instruction-mix axes, but
/// attributed to the phase that caused them.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Workload name.
    pub workload: String,
    /// Phase name, in first-appearance order.
    pub phase: String,
    /// Instructions retired within the phase.
    pub instructions: u64,
    /// This phase's share of the run's instructions (0..=1).
    pub instruction_share: f64,
    /// This phase's share of the run's modeled cycles (0..=1).
    pub cycle_share: f64,
    /// Timing-model MIPS over the phase alone.
    pub mips: f64,
    /// L1 instruction-cache MPKI within the phase.
    pub l1i_mpki: f64,
    /// L2 MPKI within the phase.
    pub l2_mpki: f64,
    /// L3 MPKI within the phase.
    pub l3_mpki: f64,
}

/// Expands one traced report into per-phase rows. Empty when the run
/// recorded no phase marks (e.g. refbench kernels).
pub fn phase_rows(workload: &str, report: &CharacterizationReport) -> Vec<PhaseRow> {
    let total_instructions = report.mix.total().max(1);
    let total_cycles = report.cycles.max(1);
    report
        .phase_reports()
        .iter()
        .map(|(phase, r)| PhaseRow {
            workload: workload.to_owned(),
            phase: phase.clone(),
            instructions: r.mix.total(),
            instruction_share: r.mix.total() as f64 / total_instructions as f64,
            cycle_share: r.cycles as f64 / total_cycles as f64,
            mips: r.mips(),
            l1i_mpki: r.l1i_mpki(),
            l2_mpki: r.l2_mpki(),
            l3_mpki: r.l3_mpki(),
        })
        .collect()
}

/// Computes the per-phase breakdown for every workload in `reports`.
pub fn phase_breakdown(reports: &[(WorkloadId, CharacterizationReport)]) -> Vec<PhaseRow> {
    reports.iter().flat_map(|(id, r)| phase_rows(id.name(), r)).collect()
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
        let suite = tiny_suite();
        let machine = MachineConfig::xeon_e5645();
        let reports: Vec<_> = [WorkloadId::Grep, WorkloadId::Bfs]
            .iter()
            .map(|&id| (id, suite.run_traced(id, 1, machine.clone())))
            .collect();
        let avg = average_report(&reports);
        assert_eq!(avg.mix.total(), reports[0].1.mix.total() + reports[1].1.mix.total());
        assert!(avg.l3.is_some());
    }

    #[test]
    fn multiplier_labels_match_paper() {
        assert_eq!(multiplier_labels(), vec!["Baseline", "4X", "8X", "16X", "32X"]);
    }

    #[test]
    fn phase_rows_partition_a_mapreduce_run() {
        let suite = tiny_suite();
        let report = suite.run_traced(WorkloadId::WordCount, 1, MachineConfig::xeon_e5645());
        let rows = phase_rows("WordCount", &report);
        assert!(!rows.is_empty(), "traced WordCount records phases");
        let names: Vec<&str> = rows.iter().map(|r| r.phase.as_str()).collect();
        assert!(names.contains(&"map"), "phases: {names:?}");
        assert!(names.contains(&"reduce"), "phases: {names:?}");
        let instructions: u64 = rows.iter().map(|r| r.instructions).sum();
        assert_eq!(instructions, report.mix.total(), "phases partition the instruction stream");
        let inst_share: f64 = rows.iter().map(|r| r.instruction_share).sum();
        let cycle_share: f64 = rows.iter().map(|r| r.cycle_share).sum();
        assert!((inst_share - 1.0).abs() < 1e-9, "shares sum to 1: {inst_share}");
        assert!((cycle_share - 1.0).abs() < 1e-9, "cycle shares sum to 1: {cycle_share}");
        assert!(rows.iter().filter(|r| r.instructions > 0).all(|r| r.mips > 0.0));
    }

    #[test]
    fn phase_rows_name_iterations_for_iterative_workloads() {
        let suite = tiny_suite();
        let report = suite.run_traced(WorkloadId::PageRank, 1, MachineConfig::xeon_e5645());
        let rows = phase_rows("PageRank", &report);
        assert!(rows.iter().any(|r| r.phase == "iter-1"), "per-iteration phases recorded");
    }
}
