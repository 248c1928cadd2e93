//! Characterize one workload on both of the paper's processors and
//! print the micro-architectural comparison (the per-workload view
//! behind Figures 5 and 6).
//!
//! ```text
//! cargo run --release -p bigdatabench --example characterize_cpu [workload]
//! ```
//!
//! `workload` is a case-insensitive prefix of a workload name
//! ("sort", "k-means", "nutch", ...); default is WordCount.

use bigdatabench::{MachineConfig, Suite, WorkloadId};

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "wordcount".to_owned());
    let id = WorkloadId::ALL
        .iter()
        .copied()
        .find(|w| w.name().to_lowercase().starts_with(&wanted.to_lowercase()))
        .unwrap_or_else(|| {
            eprintln!("no workload matches `{wanted}`; options:");
            for w in WorkloadId::ALL {
                eprintln!("  {w}");
            }
            std::process::exit(2);
        });

    let suite = Suite::new();
    println!("characterizing {} (baseline input) on both machines...\n", id.name());
    let e5645 = suite.run_traced(id, 1, MachineConfig::xeon_e5645());
    let e5310 = suite.run_traced(id, 1, MachineConfig::xeon_e5310());

    println!("{:<22} {:>12} {:>12}", "", "Xeon E5645", "Xeon E5310");
    let row = |name: &str, a: f64, b: f64| {
        println!("{name:<22} {a:>12.3} {b:>12.3}");
    };
    row("MIPS", e5645.mips(), e5310.mips());
    row("IPC", e5645.ipc(), e5310.ipc());
    row("L1I MPKI", e5645.l1i_mpki(), e5310.l1i_mpki());
    row("L2 MPKI", e5645.l2_mpki(), e5310.l2_mpki());
    row("L3 MPKI", e5645.l3_mpki(), e5310.l3_mpki());
    row("ITLB MPKI", e5645.itlb_mpki(), e5310.itlb_mpki());
    row("DTLB MPKI", e5645.dtlb_mpki(), e5310.dtlb_mpki());
    row("FP intensity", e5645.fp_intensity(), e5310.fp_intensity());
    row("INT intensity", e5645.int_intensity(), e5310.int_intensity());
    println!(
        "\nint:fp ratio {:.1}; {} dynamic instructions simulated",
        e5645.counters.mix.int_to_fp_ratio(),
        e5645.instructions()
    );
    println!(
        "\nThe E5310 has no L3: watch DRAM traffic (and therefore operation\n\
         intensity) shift between the two columns — the effect behind the\n\
         paper's Figure 5 discussion."
    );
}
