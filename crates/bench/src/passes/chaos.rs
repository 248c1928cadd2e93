//! `--chaos SEED DIR`: seeded fault campaigns judged by invariant
//! checkers.

use super::{gate, io_err, section, Args, Artifact, Failure};
use crate::table::TextTable;
use bdb_chaos::{oltp_campaign, serving_campaign, wordcount_campaign};
use bdb_telemetry::json::ObjectWriter;

/// Deterministic chaos-campaign pass: three workload tiers under
/// seeded fault schedules, each judged by invariant checkers.
///
/// * **cloud-oltp** — the replicated sharded store: lost replication
///   ships, torn WAL appends, and virtual-time node kills that take
///   down shard primaries mid-write; checked for history safety (no
///   acknowledged write lost, no invented or stale reads), exact
///   replica convergence after full repair, and fault coverage (the
///   campaign must actually have forced failovers, read-repairs, lost
///   ships, kills and rejoins).
/// * **wordcount** — MapReduce under rotating spill errors, task
///   panics and speculated stragglers; output must stay
///   byte-identical to the fault-free baseline every round.
/// * **nutch-serving** — an overloaded service with injected
///   stragglers; fault-failed requests must always be tail-sampled,
///   exposed as exemplars, and the SLO arithmetic must stay
///   consistent.
///
/// Writes `DIR/chaos_report.json` (byte-identical across runs for a
/// given seed) and one Chrome trace of lifecycle instants per campaign.
/// Fails if any checker fails or the Cloud-OLTP campaign did not force
/// at least one failover and one read-repair.
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    let seed = args.seed("--chaos").expect("the chaos row runs only with a seed");
    let dir = args.path("--chaos").expect("the chaos row runs only with a directory");
    section(&format!("Chaos campaigns — seed {seed}"));

    let scratch = dir.join("cluster-scratch");
    let _ = std::fs::remove_dir_all(&scratch);
    let oltp = oltp_campaign(seed, &scratch).map_err(io_err("cloud-oltp campaign"))?;
    std::fs::remove_dir_all(&scratch).ok();
    let wordcount = wordcount_campaign(seed);
    let serving = serving_campaign(seed);
    let reports = [&oltp, &wordcount, &serving];

    let mut t = TextTable::new(&["campaign", "checker", "verdict", "details"]);
    let mut failed = false;
    for r in reports {
        for c in &r.checkers {
            failed |= !c.pass;
            let details =
                c.details.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ");
            t.row(&[r.campaign, c.name, if c.pass { "PASS" } else { "FAIL" }, &details]);
        }
        let stem = bdb_telemetry::file_stem(r.campaign);
        out.push(Artifact::new(
            dir.join(format!("{stem}.chaos.trace.json")),
            bdb_telemetry::chrome_trace_json(r.campaign, &r.spans, None),
        ));
    }
    println!("{}", t.render());

    // The combined machine-readable report: byte-deterministic, so two
    // runs of the same seed diff clean.
    let mut report = String::new();
    {
        let mut o = ObjectWriter::new(&mut report);
        o.field_str("schema", "bdb-chaos-run-v1").field_u64("seed", seed);
        o.field_u64("campaigns_run", reports.len() as u64);
        let campaigns: Vec<String> =
            reports.iter().map(|r| r.render_json().trim_end().to_owned()).collect();
        o.field_raw("campaigns").push_str(&format!("[{}]", campaigns.join(",")));
        o.finish();
    }
    report.push('\n');
    let path = dir.join("chaos_report.json");
    out.push(Artifact::new(path.clone(), report));

    // In-binary acceptance: the Cloud-OLTP campaign must actually have
    // exercised the recovery machinery, not merely avoided breaking.
    if oltp.stat("failovers").unwrap_or(0) < 1 || oltp.stat("read_repairs").unwrap_or(0) < 1 {
        return gate(format!(
            "chaos FAIL: cloud-oltp forced {} failover(s) and {} read-repair(s); need >= 1 of each",
            oltp.stat("failovers").unwrap_or(0),
            oltp.stat("read_repairs").unwrap_or(0)
        ));
    }
    if failed {
        return gate("chaos FAIL: an invariant checker failed (see FAIL rows above)");
    }
    println!(
        "chaos PASS: {} campaigns, {} checkers, report {}",
        reports.len(),
        reports.iter().map(|r| r.checkers.len()).sum::<usize>(),
        path.display()
    );
    Ok(())
}
