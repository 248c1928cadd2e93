//! `--bench-json PATH` / `--bench-baseline PATH`: the BENCH_RESULTS.json
//! performance artifact and its drift gate.

use super::{gate, io_err, section, Args, Artifact, Failure};
use crate::results::{collect, compare_json, DEFAULT_WORKLOADS, TOLERANCE_PCT};
use crate::table::{fnum, TextTable};

/// Collects the BENCH_RESULTS.json artifact over every default workload
/// and, when a baseline is given, gates the run on it (drift beyond
/// [`TOLERANCE_PCT`] fails).
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    section("BENCH_RESULTS — simulated performance artifact");
    eprintln!(
        "collecting {} workloads at fraction {}...",
        DEFAULT_WORKLOADS.len(),
        args.fraction()
    );
    let results = collect(args.fraction(), &DEFAULT_WORKLOADS);
    let current = results.to_json();
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
        out.push(Artifact::new(path.to_owned(), current.clone()));
    }
    if let Some(path) = args.path("--bench-baseline") {
        let baseline = std::fs::read_to_string(path)
            .map_err(io_err(format!("reading baseline {}", path.display())))?;
        let drifts =
            compare_json(&baseline, &current, TOLERANCE_PCT).map_err(io_err("bench-check"))?;
        if !drifts.is_empty() {
            let listed: String = drifts.iter().map(|d| format!("\n  {d}")).collect();
            return gate(format!(
                "bench-check FAIL: {} metric(s) drifted beyond {TOLERANCE_PCT}% of {}:{listed}",
                drifts.len(),
                path.display()
            ));
        }
        println!(
            "bench-check PASS: all gated metrics within {TOLERANCE_PCT}% of {}",
            path.display()
        );
    }
    Ok(())
}
