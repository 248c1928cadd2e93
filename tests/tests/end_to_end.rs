//! End-to-end integration: every workload runs natively and traced,
//! reports sane metrics, and the figure plumbing produces data.

use bigdatabench::{characterize, MachineConfig, MetricKind, Suite, UserMetric, WorkloadId};

#[test]
fn all_nineteen_workloads_run_natively() {
    let suite = Suite::quick();
    let reports: Vec<_> = WorkloadId::ALL.iter().map(|&id| suite.run_native(id, 1)).collect();
    assert_eq!(reports.len(), 19);
    for r in &reports {
        assert!(r.metric.value() > 0.0, "{} reported zero {}", r.workload, r.metric.unit());
    }
}

#[test]
fn metric_families_match_application_types() {
    let suite = Suite::quick();
    for id in WorkloadId::ALL {
        let report = suite.run_native(id, 1);
        let expected = match id.application_type() {
            bigdatabench::ApplicationType::OnlineService => {
                // Cloud OLTP reports OPS; the three servers report RPS.
                match id {
                    WorkloadId::Read | WorkloadId::Write | WorkloadId::Scan => MetricKind::Ops,
                    _ => MetricKind::Rps,
                }
            }
            _ => MetricKind::Dps,
        };
        assert_eq!(report.metric.kind(), expected, "{id}");
    }
}

#[test]
fn all_nineteen_workloads_run_traced() {
    let suite = Suite::quick();
    let machine = MachineConfig::xeon_e5645();
    for id in WorkloadId::ALL {
        let r = suite.run_traced(id, 1, machine.clone());
        assert!(r.instructions() > 500, "{id}: {} instructions", r.instructions());
        assert!(r.counters.cycles > 0, "{id}");
        assert!(r.mips() > 0.0, "{id}");
        assert!(r.counters.l3.is_some(), "{id}: E5645 has an L3");
    }
}

#[test]
fn e5310_runs_without_l3() {
    let suite = Suite::quick();
    let r = suite.run_traced(WorkloadId::Grep, 1, MachineConfig::xeon_e5310());
    assert!(r.counters.l3.is_none());
    assert_eq!(r.l3_mpki(), 0.0);
}

#[test]
fn figure3_sweep_produces_five_points() {
    let suite = Suite::with_fraction(1.0 / 32.0);
    let rows =
        characterize::figure3_for(&suite, WorkloadId::WordCount, &MachineConfig::xeon_e5645());
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0].multiplier, 1);
    assert_eq!(rows[4].multiplier, 32);
    assert!((rows[0].speedup - 1.0).abs() < 1e-9);
}

#[test]
fn traced_runs_are_deterministic() {
    let suite = Suite::quick();
    let machine = MachineConfig::xeon_e5645();
    let a = suite.run_traced(WorkloadId::SelectQuery, 1, machine.clone());
    let b = suite.run_traced(WorkloadId::SelectQuery, 1, machine);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn services_saturate_under_heavy_offered_load() {
    let suite = Suite::quick();
    let light = suite.run_native(WorkloadId::RubisServer, 1);
    let heavy = suite.run_native(WorkloadId::RubisServer, 32);
    let UserMetric::Rps { offered: o1, achieved: a1, .. } = light.metric else {
        panic!("RPS expected")
    };
    let UserMetric::Rps { offered: o32, achieved: a32, .. } = heavy.metric else {
        panic!("RPS expected")
    };
    assert_eq!(o1 * 32.0, o32);
    // Light load tracks the offered rate...
    assert!((a1 - o1).abs() / o1 < 0.25, "light: {a1} vs {o1}");
    // ...heavy load cannot exceed it and the ratio achieved/offered drops.
    assert!(a32 / o32 <= a1 / o1 + 0.05, "saturation trend");
}

#[test]
fn sort_spills_only_at_large_inputs() {
    let suite = Suite::new();
    let small = suite.run_native(WorkloadId::Sort, 1);
    let large = suite.run_native(WorkloadId::Sort, 32);
    let spills = |detail: &str| -> u64 {
        detail
            .split(", ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("spill count in detail")
    };
    assert_eq!(spills(&small.detail), 0, "1 MiB fits the 8 MiB sort buffer");
    assert!(spills(&large.detail) > 0, "32 MiB must spill: {}", large.detail);
}
