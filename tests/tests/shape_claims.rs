//! The paper's headline characterization claims, asserted at test scale.
//!
//! These are the same claims the `reproduce` binary's shape checks
//! evaluate at figure scale, pinned here at a smaller fraction so CI
//! catches regressions in the models.

use bdb_refbench::{characterize_suite, RefSuite};
use bigdatabench::{characterize, MachineConfig, Suite, WorkloadId};

fn suite() -> Suite {
    Suite::with_fraction(1.0 / 8.0)
}

#[test]
fn big_data_l1i_mpki_dwarfs_traditional() {
    // Paper §6.3.2: avg L1I MPKI of BigDataBench ≥ 4x traditional suites.
    let machine = MachineConfig::xeon_e5645();
    let hadoop = suite().run_traced(WorkloadId::WordCount, 1, machine.clone());
    let refbench = characterize_suite(RefSuite::Parsec, 1 << 16, machine);
    assert!(
        hadoop.l1i_mpki() > 4.0 * refbench.l1i_mpki().max(0.5),
        "WordCount {} vs PARSEC {}",
        hadoop.l1i_mpki(),
        refbench.l1i_mpki()
    );
}

#[test]
fn deep_stacks_show_itlb_pressure() {
    // Paper: ITLB MPKI of big data ≫ traditional (0.54 vs ≤ 0.08).
    let machine = MachineConfig::xeon_e5645();
    let service = suite().run_traced(WorkloadId::OlioServer, 1, machine.clone());
    let hpcc = characterize_suite(RefSuite::Hpcc, 1 << 16, machine);
    assert!(service.itlb_mpki() > 10.0 * hpcc.itlb_mpki().max(0.001));
}

#[test]
fn online_services_have_higher_l2_than_analytics() {
    // Paper: online services avg L2 MPKI ≈ 40 vs analytics ≈ 13.
    let machine = MachineConfig::xeon_e5645();
    let s = suite();
    let olio = s.run_traced(WorkloadId::OlioServer, 1, machine.clone());
    let wordcount = s.run_traced(WorkloadId::WordCount, 1, machine);
    assert!(
        olio.l2_mpki() > wordcount.l2_mpki(),
        "Olio {} vs WordCount {}",
        olio.l2_mpki(),
        wordcount.l2_mpki()
    );
}

#[test]
fn mpi_bfs_is_not_instruction_bound() {
    // Paper: BFS (MPI) is the data-side outlier, not the L1I outlier.
    let machine = MachineConfig::xeon_e5645();
    let s = suite();
    let bfs = s.run_traced(WorkloadId::Bfs, 1, machine.clone());
    let hadoop = s.run_traced(WorkloadId::Grep, 1, machine);
    assert!(bfs.l1i_mpki() < hadoop.l1i_mpki() / 2.0, "thin MPI runtime");
    assert!(bfs.dtlb_mpki() > hadoop.dtlb_mpki(), "scattered vertex state");
}

#[test]
fn int_fp_ratio_ordering() {
    // Paper Figure 4: Grep among the highest ratios, Bayes the lowest;
    // K-means and Bayes do real FP work.
    let machine = MachineConfig::xeon_e5645();
    let s = suite();
    let grep = s.run_traced(WorkloadId::Grep, 1, machine.clone());
    let bayes = s.run_traced(WorkloadId::NaiveBayes, 1, machine.clone());
    let kmeans = s.run_traced(WorkloadId::KMeans, 1, machine);
    assert!(bayes.mix.fp_ops > 0 && kmeans.mix.fp_ops > 0);
    assert!(
        grep.mix.int_to_fp_ratio() > bayes.mix.int_to_fp_ratio() * 5.0,
        "Grep {} vs Bayes {}",
        grep.mix.int_to_fp_ratio(),
        bayes.mix.int_to_fp_ratio()
    );
}

#[test]
fn specint_specfp_split() {
    let machine = MachineConfig::xeon_e5645();
    let int = characterize_suite(RefSuite::SpecInt, 1 << 16, machine.clone());
    let fp = characterize_suite(RefSuite::SpecFp, 1 << 16, machine);
    assert!(int.mix.int_to_fp_ratio() > 100.0);
    assert!(fp.mix.fp_ops > fp.mix.int_ops);
}

#[test]
fn l3_filters_most_l2_misses_for_hadoop_workloads() {
    // Paper: "L3 caches are effective for the big data applications".
    let machine = MachineConfig::xeon_e5645();
    let r = suite().run_traced(WorkloadId::Index, 1, machine);
    assert!(
        r.l3_mpki() < r.l2_mpki() / 3.0,
        "L3 {} should be well below L2 {}",
        r.l3_mpki(),
        r.l2_mpki()
    );
}

#[test]
fn stack_swap_moves_the_l1i_misses() {
    // The paper's stated future work (§6.3.2): replace the MapReduce
    // stack and see whether the front-end stalls follow the stack.
    // They do: the same WordCount on the in-memory dataflow engine has
    // a fraction of the Hadoop-style L1I misses (`stack_swap` also
    // checks both stacks count the same words).
    let lines: Vec<String> = bdb_datagen::text::TextGenerator::wikipedia(3)
        .corpus(128 << 10)
        .lines()
        .map(str::to_owned)
        .collect();
    let swap = characterize::stack_swap(&lines, &MachineConfig::xeon_e5645());
    assert!(
        swap.mapreduce.l1i_mpki() > 10.0 * swap.dataflow.l1i_mpki().max(0.01),
        "hadoop {} vs dataflow {}",
        swap.mapreduce.l1i_mpki(),
        swap.dataflow.l1i_mpki()
    );
}
