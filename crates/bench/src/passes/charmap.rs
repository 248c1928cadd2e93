//! `--charmap DIR`: the workload characterization map.

use super::{gate, section, Args, Artifact, Failure};
use crate::results::DEFAULT_WORKLOADS;
use crate::table::TextTable;
use bdb_charmap::{analyze, DEFAULT_SEED, VARIANCE_TARGET};
use bigdatabench::characterize::baseline;
use bigdatabench::{MachineConfig, Suite};

/// Workload characterization pass: metric vectors over the default
/// workload set -> PCA -> clustering -> representative subset, written
/// as `charmap.txt` + `charmap.json` into `--charmap DIR`. Gated
/// in-binary (mirroring the `--profile` contract checks) so CI catches
/// regressions without parsing the artifacts:
///
/// * the retained components must cover the variance target;
/// * the subset must be non-empty and smaller than the full set.
///
/// The map is fixed by the seed, so the committed `charmap.json` is
/// checked byte for byte against a fresh run by the pass test.
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    section("Workload characterization map — PCA + clustering + subset");
    eprintln!(
        "characterizing {} workloads at fraction {} (seed {DEFAULT_SEED})...",
        DEFAULT_WORKLOADS.len(),
        args.fraction()
    );
    let suite = Suite::with_fraction(args.fraction());
    let rows = baseline(&suite, &DEFAULT_WORKLOADS, &MachineConfig::xeon_e5645());
    let input = crate::charmap::analysis_input(args.fraction(), &rows);
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
    println!("charmap PASS: k = {}, subset: {}", map.k, map.subset.join(", "));
    Ok(())
}
