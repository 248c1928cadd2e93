//! `--charmap DIR` / `--charmap-baseline PATH`: the workload
//! characterization map and its subset stability gate.

use super::{gate, io_err, section, Args, Artifact, Failure};
use crate::results::DEFAULT_WORKLOADS;
use crate::table::TextTable;
use bdb_charmap::{analyze, validate_baseline, DEFAULT_SEED, VARIANCE_TARGET};

/// Workload characterization pass: metric vectors over the default
/// workload set -> PCA -> clustering -> representative subset, written
/// as `charmap.txt` + `charmap.json` into `--charmap DIR`. Gated
/// in-binary (mirroring the `--profile` contract checks) so CI catches
/// regressions without parsing the artifacts:
///
/// * the retained components must cover the variance target;
/// * the subset must be non-empty and smaller than the full set;
/// * with `--charmap-baseline`, the fresh map must satisfy the subset
///   stability rule against the committed artifact.
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    section("Workload characterization map — PCA + clustering + subset");
    // Read the committed baseline up front so an unreadable path fails
    // before the expensive characterization pass, not after.
    let committed = match args.path("--charmap-baseline") {
        Some(path) => Some((
            path,
            std::fs::read_to_string(path)
                .map_err(io_err(format!("reading charmap baseline {}", path.display())))?,
        )),
        None => None,
    };
    eprintln!(
        "characterizing {} workloads at fraction {} (seed {DEFAULT_SEED})...",
        DEFAULT_WORKLOADS.len(),
        args.fraction()
    );
    let input = crate::charmap::analysis_input(args.fraction(), &DEFAULT_WORKLOADS);
    let map =
        analyze(&input, DEFAULT_SEED).map_err(|e| Failure::Gate(format!("charmap FAIL: {e}")))?;

    let mut t = TextTable::new(&["cluster", "members", "representative"]);
    for (i, c) in map.clusters.iter().enumerate() {
        t.row(&[i.to_string(), c.members.join(", "), c.representative.clone()]);
    }
    println!("{}", t.render());
    println!(
        "PCA: {} of {} components retain {:.1}% of variance | k = {} \
         (silhouette {:.3}, hierarchical agreement {:.3})",
        map.retained,
        map.eigenvalues.len(),
        map.variance_retained * 100.0,
        map.k,
        map.silhouette,
        map.hier_agreement
    );

    if map.variance_retained < VARIANCE_TARGET {
        return gate(format!(
            "charmap FAIL: retains only {:.2}% variance (target {:.0}%)",
            map.variance_retained * 100.0,
            VARIANCE_TARGET * 100.0
        ));
    }
    if map.subset.is_empty() || map.subset.len() >= map.workloads.len() {
        return gate(format!(
            "charmap FAIL: subset degenerate: {} representatives for {} workloads",
            map.subset.len(),
            map.workloads.len()
        ));
    }

    if let Some(dir) = args.path("--charmap") {
        out.push(Artifact::new(dir.join("charmap.txt"), map.to_text()));
        out.push(Artifact::new(dir.join("charmap.json"), map.to_json()));
    }

    if let Some((path, committed)) = &committed {
        validate_baseline(&map, committed)
            .map_err(|e| Failure::Gate(format!("charmap-check FAIL: {e}")))?;
        println!(
            "charmap-check PASS: subset stable against {} (k = {}, subset: {})",
            path.display(),
            map.k,
            map.subset.join(", ")
        );
    }
    Ok(())
}
