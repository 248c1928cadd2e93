//! `--bench-json PATH`: the BENCH_RESULTS.json performance artifact.

use super::{section, Args, Artifact, Failure};
use crate::results::{collect, DEFAULT_WORKLOADS};
use crate::table::{fnum, TextTable};

/// Collects the BENCH_RESULTS.json artifact over every default workload.
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    section("BENCH_RESULTS — simulated performance artifact");
    eprintln!(
        "collecting {} workloads at fraction {}...",
        DEFAULT_WORKLOADS.len(),
        args.fraction()
    );
    let results = collect(args.fraction(), &DEFAULT_WORKLOADS);
    let mut t = TextTable::new(&["workload", "MIPS", "L1I", "L2", "L3 MPKI", "phases"]);
    for w in &results.workloads {
        t.row(&[
            w.name.clone(),
            fnum(w.mips),
            fnum(w.mpki[0]),
            fnum(w.mpki[2]),
            fnum(w.mpki[3]),
            w.phases.len().to_string(),
        ]);
    }
    println!("{}", t.render());

    if let Some(path) = args.path("--bench-json") {
        out.push(Artifact::new(path.to_owned(), results.to_json()));
    }
    Ok(())
}
