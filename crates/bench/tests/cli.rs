//! CLI contract tests for the `reproduce` binary: unknown arguments
//! and missing values must print usage and exit 2, a failed gate exits
//! 1; `--help` must document every flag, including the bench-artifact
//! ones.

use std::path::Path;
use std::process::Command;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

#[test]
fn unknown_argument_prints_usage_and_exits_2() {
    let out = reproduce().arg("--no-such-flag").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--no-such-flag`"), "{stderr}");
    assert!(stderr.contains("usage: reproduce"), "usage text on stderr: {stderr}");
}

#[test]
fn stray_positional_is_rejected() {
    let out = reproduce().args(["--checks", "extra"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument `extra`"));
}

#[test]
fn flag_missing_its_value_is_a_usage_error() {
    for flag in [
        "--fraction",
        "--json",
        "--trace",
        "--profile",
        "--bench-json",
        "--bench-baseline",
        "--charmap",
        "--charmap-baseline",
        "--slo",
        "--tsdb",
    ] {
        let out = reproduce().arg(flag).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag} without value");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{flag} needs a value")), "{flag}: {stderr}");
    }
}

#[test]
fn bad_numeric_values_are_usage_errors() {
    let out = reproduce().args(["--fraction", "nope"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // A non-finite or overlarge fraction would saturate the scaled
    // input sizes; it is rejected while the command line is read,
    // before `--help` (or any pass) runs.
    for value in ["inf", "1e999", "1e300"] {
        let out = reproduce().args(["--fraction", value, "--help"]).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--fraction {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--fraction needs a finite positive number"), "{stderr}");
    }
}

#[test]
fn missing_charmap_baseline_file_is_an_error() {
    let out = reproduce()
        .args(["--charmap-baseline", "/no/such/charmap.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "die() on unreadable baseline");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/no/such/charmap.json"), "{stderr}");
}

#[test]
fn chaos_missing_either_value_is_a_usage_error() {
    // `--chaos` takes two values; stopping after zero or one of them is
    // a usage error naming the full shape.
    for args in [vec!["--chaos"], vec!["--chaos", "7"]] {
        let out = reproduce().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--chaos needs a seed and a directory"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
    }
}

#[test]
fn chaos_rejects_a_non_integer_seed() {
    let out = reproduce().args(["--chaos", "lucky", "/tmp/x"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--chaos needs an integer seed"), "{stderr}");
}

#[test]
fn help_documents_the_bench_flags() {
    let out = reproduce().arg("--help").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--bench-json",
        "--bench-baseline",
        "--charmap",
        "--charmap-baseline",
        "--trace",
        "--profile",
        "--fraction",
        "--slo",
        "--chaos",
        "--tsdb",
    ] {
        assert!(stdout.contains(flag), "help mentions {flag}: {stdout}");
    }
    // The chaos artifacts are part of the documented contract too.
    for artifact in ["chaos_report.json", ".chaos.trace.json"] {
        assert!(stdout.contains(artifact), "help names the {artifact} artifact: {stdout}");
    }
    // The profiling artifacts are part of the documented contract.
    for artifact in [".folded", ".critpath.txt", ".util.txt"] {
        assert!(stdout.contains(artifact), "help names the {artifact} artifact: {stdout}");
    }
    // So are the observability ones.
    for artifact in ["slo_report.json", ".dash.txt", ".slo.prom.txt", ".slo.trace.json"] {
        assert!(stdout.contains(artifact), "help names the {artifact} artifact: {stdout}");
    }
    // And the time-series ones.
    for artifact in ["tsdb_snapshot.bin", "timeline.txt"] {
        assert!(stdout.contains(artifact), "help names the {artifact} artifact: {stdout}");
    }
}

#[test]
fn table5_prints_each_processors_tlb_geometry() {
    let out = reproduce().arg("--table5").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (e5645, e5310) = stdout.split_once("Xeon E5310:").expect("an E5310 section");
    assert!(e5645.contains("Xeon E5645:"), "{stdout}");
    assert!(e5645.contains("ITLB 128x4-way, DTLB 64x4-way"), "{stdout}");
    assert!(e5310.contains("ITLB 128x4-way, DTLB 256x4-way"), "{stdout}");
}

#[test]
fn slo_pass_is_byte_deterministic_and_writes_all_artifacts() {
    let base = std::env::temp_dir().join(format!("bdb-slo-cli-{}", std::process::id()));
    let (a, b) = (base.join("a"), base.join("b"));
    for dir in [&a, &b] {
        let out = reproduce().arg("--slo").arg(dir).output().expect("binary runs");
        assert!(
            out.status.success(),
            "slo pass gates hold: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("slo pass PASS"), "{stdout}");
        // The overload phase must have fired the page rule for every
        // service — the dashboards carry it.
        for stem in ["nutch-server", "olio-server", "rubis-server"] {
            let dash = std::fs::read_to_string(dir.join(format!("{stem}.dash.txt")))
                .expect("dashboard written");
            assert!(dash.contains("[page] fast-burn"), "{stem} dashboard shows the page alert");
            for suffix in ["slo.prom.txt", "slo.trace.json"] {
                let meta = std::fs::metadata(dir.join(format!("{stem}.{suffix}")))
                    .expect("artifact written");
                assert!(meta.len() > 0, "{stem}.{suffix} is non-empty");
            }
        }
    }
    let ra = std::fs::read(a.join("slo_report.json")).expect("report a");
    let rb = std::fs::read(b.join("slo_report.json")).expect("report b");
    assert!(!ra.is_empty());
    assert_eq!(ra, rb, "same seed must produce a byte-identical slo_report.json");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn trace_pass_writes_grammatical_expositions_for_every_serving_workload() {
    let dir = std::env::temp_dir().join(format!("bdb-trace-cli-{}", std::process::id()));
    let out = reproduce()
        .args(["--fraction", "0.05", "--trace"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for stem in ["nutchserver", "olioserver", "rubisserver"] {
        let text = std::fs::read_to_string(dir.join(format!("{stem}.prom.txt")))
            .unwrap_or_else(|e| panic!("{stem}.prom.txt written: {e}"));
        // The file concatenates periodic scrapes under `# scrape N`
        // headers; every scrape must parse under the strict grammar.
        let scrapes: Vec<&str> = text.split("# scrape").filter(|s| !s.trim().is_empty()).collect();
        assert!(scrapes.len() >= 2, "{stem}: periodic plus final scrape, got {}", scrapes.len());
        for scrape in scrapes {
            let body = scrape.split_once('\n').map_or("", |x| x.1);
            bdb_telemetry::assert_prometheus_grammar(body);
        }
        assert!(text.contains("serving_requests"), "{stem}: the request counter is exposed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tsdb_pass_is_byte_deterministic_and_writes_all_artifacts() {
    let base = std::env::temp_dir().join(format!("bdb-tsdb-cli-{}", std::process::id()));
    let (a, b) = (base.join("a"), base.join("b"));
    for dir in [&a, &b] {
        let out = reproduce().arg("--tsdb").arg(dir).output().expect("binary runs");
        assert!(
            out.status.success(),
            "tsdb pass gates hold: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("tsdb pass PASS"), "{stdout}");
        for name in [
            "tsdb_snapshot.bin",
            "node-0.dash.txt",
            "node-1.dash.txt",
            "node-2.dash.txt",
            "node-3.dash.txt",
            "serving.dash.txt",
            "timeline.txt",
        ] {
            let meta = std::fs::metadata(dir.join(name)).expect("artifact written");
            assert!(meta.len() > 0, "{name} is non-empty");
        }
        let timeline = std::fs::read_to_string(dir.join("timeline.txt")).expect("timeline");
        assert!(timeline.contains("failover"), "the run forced a failover onto the timeline");
        assert!(timeline.contains("48 of 48 chains causally complete"), "{timeline}");
    }
    let sa = std::fs::read(a.join("tsdb_snapshot.bin")).expect("snapshot a");
    let sb = std::fs::read(b.join("tsdb_snapshot.bin")).expect("snapshot b");
    assert!(!sa.is_empty());
    assert_eq!(sa, sb, "same seed must produce a byte-identical tsdb_snapshot.bin");
    // The snapshot header is part of the contract.
    assert_eq!(&sa[..8], b"BDBTSDB1");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn bench_drift_beyond_tolerance_is_a_gate_failure_exit_1() {
    // A copy of the committed baseline with one workload's MIPS scaled
    // by 1.5: the full gate must reject it.
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_RESULTS.json"))
            .expect("committed baseline");
    let row = committed.find("{\"name\":\"Join Query\"").expect("Join Query is in the baseline");
    let start = row + committed[row..].find("\"mips\":").expect("mips field") + "\"mips\":".len();
    let end = start + committed[start..].find(',').expect("more fields follow");
    let mips: f64 = committed[start..end].parse().expect("mips is a number");
    let drifted = format!("{}{}{}", &committed[..start], mips * 1.5, &committed[end..]);
    let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("drifted-bench-results-{}.json", std::process::id()));
    std::fs::write(&path, drifted).expect("scratch baseline written");

    let out = reproduce()
        .args(["--fraction", "0.02", "--bench-baseline"])
        .arg(&path)
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bench-check FAIL"), "{stderr}");
    assert!(stderr.contains("Join Query"), "the drifted workload is named: {stderr}");
}
