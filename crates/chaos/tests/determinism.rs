//! Campaign-level guarantees: the same seed renders a byte-identical
//! `chaos_report.json` on repeated runs (so CI can diff two runs
//! directly), and the fixed CI seeds pass every invariant checker.

use bdb_chaos::{oltp_campaign, serving_campaign, wordcount_campaign};
use std::path::PathBuf;

fn tmproot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdb-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn oltp_campaign_is_byte_deterministic_and_passes() {
    let (ra, rb, rc) = (tmproot("oltp-a"), tmproot("oltp-b"), tmproot("oltp-c"));
    let a = oltp_campaign(7, &ra).unwrap();
    let b = oltp_campaign(7, &rb).unwrap();
    let (ja, jb) = (a.render_json(), b.render_json());
    assert_eq!(ja, jb, "same seed, different directories: byte-identical report");
    assert!(a.passed(), "seed 7 must pass every checker:\n{ja}");
    assert!(a.stat("failovers").unwrap() >= 1, "campaign forced a failover");
    assert!(a.stat("read_repairs").unwrap() >= 1, "campaign forced a read repair");
    assert!(
        a.stat("replication_lag").unwrap() > 0,
        "lost ships left a visible max replication lag"
    );
    // The report is root-path independent by construction.
    assert!(!ja.contains("tmp"), "no filesystem paths leak into the report");
    let c = oltp_campaign(8, &rc).unwrap();
    assert_ne!(ja, c.render_json(), "a different seed is a different campaign");
    for d in [ra, rb, rc] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn wordcount_campaign_is_byte_deterministic_and_passes() {
    let a = wordcount_campaign(7);
    let b = wordcount_campaign(7);
    assert_eq!(a.render_json(), b.render_json());
    assert!(a.passed(), "seed 7:\n{}", a.render_json());
    assert!(a.checker("byte_identical_output").unwrap().pass);
}

#[test]
fn serving_campaign_is_byte_deterministic_and_passes() {
    let a = serving_campaign(7);
    let b = serving_campaign(7);
    assert_eq!(a.render_json(), b.render_json());
    assert!(a.passed(), "seed 7:\n{}", a.render_json());
    assert!(a.stat("shed").unwrap() > 0 && a.stat("timed_out").unwrap() > 0);
    assert_eq!(
        a.stat("tail_error_sampled"),
        Some(a.stat("shed").unwrap() + a.stat("timed_out").unwrap())
    );
}

#[test]
fn campaign_spans_use_virtual_time_only() {
    let root = tmproot("oltp-spans");
    let r = oltp_campaign(7, &root).unwrap();
    assert!(!r.spans.is_empty(), "lifecycle events become trace instants");
    // Virtual timestamps are bounded by the campaign timeline — a
    // wall-clock timestamp would be astronomically larger.
    let horizon_us = 10_000_000;
    for s in &r.spans {
        assert!(s.dur_us.is_none(), "lifecycle events are instants");
        assert!(
            s.start_us < horizon_us,
            "{} at {}us is on the virtual timeline",
            s.name,
            s.start_us
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
