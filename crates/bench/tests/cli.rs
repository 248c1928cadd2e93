//! CLI contract tests for the `reproduce` binary: unknown arguments
//! and missing values must print usage and exit 2, and `--help` must
//! document every flag, including the bench-artifact ones. Each pass's
//! gates and artifacts are rows of `tests/passes.rs`.

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
        "--charmap",
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
        "--charmap",
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
fn checks_alone_judge_no_claim_without_figure_rows() {
    // With no figure flag no figure is computed, so no shape check has
    // rows to judge; none may print as failed.
    let out = reproduce().arg("--checks").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0/0 shape checks passed"), "{stdout}");
    assert!(!stdout.contains("FAIL"), "{stdout}");
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
