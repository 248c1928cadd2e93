//! Golden test for the BENCH_RESULTS.json regression artifact: the
//! document must parse with the workspace JSON reader, carry every metric for
//! its ten default workloads, and its per-phase counters must sum to
//! the whole-run totals.

use bdb_bench::results::{to_json, DEFAULT_WORKLOADS, SCHEMA_VERSION};
use bdb_telemetry::json::{self, Json};
use bigdatabench::characterize::baseline;
use bigdatabench::{MachineConfig, Suite};

fn artifact() -> Json {
    let fraction = 1.0 / 64.0;
    let suite = Suite::with_fraction(fraction);
    let rows = baseline(&suite, &DEFAULT_WORKLOADS, &MachineConfig::xeon_e5645());
    json::parse(&to_json(fraction, &rows)).expect("artifact must be valid JSON")
}

#[test]
fn artifact_has_every_required_metric_per_workload() {
    let v = artifact();
    assert_eq!(v.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
    assert!(v.get("machine").and_then(|m| m.as_str()).is_some());
    assert!(v.get("fraction").and_then(Json::as_f64).is_some());

    let workloads = v.get("workloads").and_then(|w| w.as_array()).expect("workloads array");
    let names: Vec<&str> =
        workloads.iter().filter_map(|w| w.get("name").and_then(|n| n.as_str())).collect();
    for required in [
        "WordCount",
        "Sort",
        "PageRank",
        "Connected Components",
        "K-means",
        "Nutch Server",
        "Read",
        "Select Query",
        "Aggregate Query",
        "Join Query",
    ] {
        assert!(names.contains(&required), "missing {required} in {names:?}");
    }
    assert_eq!(names.len(), 10, "exactly the ten default workloads: {names:?}");

    for w in workloads {
        let name = w.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        for scalar in ["mips", "ipc"] {
            let value = w.get(scalar).and_then(Json::as_f64);
            assert!(value.is_some_and(|v| v > 0.0), "{name}: {scalar} positive, got {value:?}");
        }
        assert!(w.get("instructions").and_then(Json::as_u64).unwrap_or(0) > 0);
        assert!(w.get("dram_bytes").and_then(Json::as_u64).is_some(), "{name}: dram_bytes present");
        let mpki = w.get("mpki").expect("mpki object");
        for level in ["l1i", "l1d", "l2", "l3", "itlb", "dtlb", "branch"] {
            assert!(
                mpki.get(level).and_then(Json::as_f64).is_some_and(|v| v >= 0.0),
                "{name}: mpki.{level} present and non-negative"
            );
        }
        let mix = w.get("mix").expect("mix object");
        let mix_sum: f64 = ["load", "store", "branch", "int", "fp"]
            .iter()
            .map(|c| mix.get(c).and_then(Json::as_f64).expect("mix fraction"))
            .sum();
        assert!((mix_sum - 1.0).abs() < 1e-6, "{name}: mix fractions sum to 1, got {mix_sum}");
        assert!(w.get("int_per_dram_byte").and_then(Json::as_f64).is_some());
        assert!(w.get("fp_per_dram_byte").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn phase_counters_sum_to_whole_run_totals() {
    let v = artifact();
    for w in v.get("workloads").and_then(|w| w.as_array()).expect("workloads array") {
        let name = w.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        let phases = w.get("phases").and_then(|p| p.as_array()).expect("phases array");
        if phases.is_empty() {
            // The closed-loop service and OLTP runs record no phase
            // marks; everything batch-shaped must.
            assert!(
                ["Nutch Server", "Read"].contains(&name),
                "{name}: per-phase breakdown recorded"
            );
            continue;
        }
        let total = |key: &str| w.get(key).and_then(Json::as_u64).unwrap();
        let phase_sum = |key: &str| -> u64 {
            phases.iter().map(|p| p.get(key).and_then(Json::as_u64).unwrap()).sum()
        };
        assert_eq!(
            phase_sum("instructions"),
            total("instructions"),
            "{name}: phase instructions partition the run"
        );
        assert_eq!(phase_sum("cycles"), total("cycles"), "{name}: phase cycles partition the run");
    }
}
