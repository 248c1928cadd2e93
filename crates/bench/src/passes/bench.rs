//! `--bench-json PATH`: the BENCH_RESULTS.json performance artifact.

use super::{section, Args, Artifact, Failure};
use crate::results::{to_json, DEFAULT_WORKLOADS};
use crate::table::{fnum, TextTable};
use bigdatabench::characterize::baseline;
use bigdatabench::{MachineConfig, Suite};

/// Collects the BENCH_RESULTS.json artifact over every default workload.
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    section("BENCH_RESULTS — simulated performance artifact");
    eprintln!(
        "collecting {} workloads at fraction {}...",
        DEFAULT_WORKLOADS.len(),
        args.fraction()
    );
    let suite = Suite::with_fraction(args.fraction());
    let rows = baseline(&suite, &DEFAULT_WORKLOADS, &MachineConfig::xeon_e5645());
    let mut t = TextTable::new(&["workload", "MIPS", "L1I", "L2", "L3 MPKI", "phases"]);
    for (name, r) in &rows {
        t.row(&[
            (*name).to_owned(),
            fnum(r.mips()),
            fnum(r.l1i_mpki()),
            fnum(r.l2_mpki()),
            fnum(r.l3_mpki()),
            r.phases.len().to_string(),
        ]);
    }
    println!("{}", t.render());

    if let Some(path) = args.path("--bench-json") {
        out.push(Artifact::new(path.to_owned(), to_json(args.fraction(), &rows)));
    }
    Ok(())
}
