//! The versioned `BENCH_RESULTS.json` regression artifact.
//!
//! [`collect`] runs a fixed set of workloads under the architecture
//! simulator (for MIPS, MPKI, instruction mix, operation intensity and
//! the per-phase counter breakdown), then renders everything as one
//! stable JSON document, byte-identical for the same fraction, so the
//! committed copy is checked byte for byte. Wall-clock numbers come
//! from `wallbench`, not from this artifact.
//!
//! The JSON is written through [`bdb_telemetry::json`], the
//! workspace's one JSON codec.

use bdb_telemetry::json::ObjectWriter;
use bigdatabench::{MachineConfig, Suite, WorkloadId};

/// Bumped whenever the JSON layout changes incompatibly, so a reader
/// can tell the layouts apart.
/// v2: `mpki` gained `branch` (mispredicts per kilo-instruction) and
/// the workload set grew from 5 to all 8 traced workloads.
/// v3: workloads gained a gated top-level `dram_bytes` counter and the
/// set grew to 10 — all three relational query workloads are tracked so
/// the vectorized engine's instruction/DRAM wins stay pinned.
/// v4: the single-shot native `wall_ms`, `metric_unit` and
/// `metric_value` are gone, so the whole document is fixed by the seed.
pub const SCHEMA_VERSION: u64 = 4;

/// The default rows of the artifact and the characterization map: ten
/// of the suite's workloads (every workload has a traced body), covering
/// each paper scenario family (micro MapReduce ×2, graph analytics ×2,
/// machine learning, relational query ×3, search serving, Cloud OLTP).
pub const DEFAULT_WORKLOADS: [WorkloadId; 10] = [
    WorkloadId::WordCount,
    WorkloadId::Sort,
    WorkloadId::PageRank,
    WorkloadId::ConnectedComponents,
    WorkloadId::KMeans,
    WorkloadId::NutchServer,
    WorkloadId::Read,
    WorkloadId::SelectQuery,
    WorkloadId::AggregateQuery,
    WorkloadId::JoinQuery,
];

/// One phase of one workload, as raw counters (not rates), so the
/// golden test can assert the phases partition the whole run.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Phase name (`map`, `iter-3`, `build`...), first-appearance order.
    pub name: String,
    /// Instructions retired in the phase.
    pub instructions: u64,
    /// Modeled cycles spent in the phase.
    pub cycles: u64,
    /// L2 misses within the phase.
    pub l2_misses: u64,
    /// Last-level cache misses within the phase.
    pub llc_misses: u64,
    /// Modeled DRAM traffic attributed to the phase.
    pub dram_bytes: u64,
}

/// One workload's simulated characterization.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name, Table 6 spelling.
    pub name: String,
    /// Timing-model MIPS.
    pub mips: f64,
    /// Instructions per cycle from the timing model.
    pub ipc: f64,
    /// Total instructions retired.
    pub instructions: u64,
    /// Total modeled cycles.
    pub cycles: u64,
    /// Total modeled DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Misses per kilo-instruction: L1I, L1D, L2, L3, ITLB, DTLB, plus
    /// branch mispredicts per kilo-instruction.
    pub mpki: [f64; 7],
    /// Instruction-mix fractions: load, store, branch, int, fp.
    pub mix: [f64; 5],
    /// Integer operations per DRAM byte.
    pub int_per_dram_byte: f64,
    /// FP operations per DRAM byte.
    pub fp_per_dram_byte: f64,
    /// Per-phase counter breakdown; phases partition the whole run.
    pub phases: Vec<PhaseResult>,
}

/// The whole artifact.
#[derive(Debug, Clone)]
pub struct BenchResults {
    /// Simulated machine the characterization ran on.
    pub machine: String,
    /// Input-scale fraction the suite ran at.
    pub fraction: f64,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

/// Runs `ids` at `fraction` scale and gathers the artifact.
pub fn collect(fraction: f64, ids: &[WorkloadId]) -> BenchResults {
    let suite = Suite::with_fraction(fraction);
    let machine = MachineConfig::xeon_e5645();
    let workloads = ids
        .iter()
        .map(|&id| {
            let report = suite.run_traced(id, 1, machine.clone());
            let total = report.instructions();
            let phases = report
                .phases
                .iter()
                .map(|p| PhaseResult {
                    name: p.name.clone(),
                    instructions: p.counters.instructions(),
                    cycles: p.counters.cycles,
                    l2_misses: p.counters.l2.misses,
                    llc_misses: p.counters.llc_misses,
                    dram_bytes: p.counters.dram_bytes,
                })
                .collect();
            use bdb_archsim::metrics::InstClass;
            WorkloadResult {
                name: id.name().to_owned(),
                mips: report.mips(),
                ipc: report.ipc(),
                instructions: total,
                cycles: report.counters.cycles,
                dram_bytes: report.counters.dram_bytes,
                mpki: [
                    report.l1i_mpki(),
                    report.counters.l1d.mpki(total),
                    report.l2_mpki(),
                    report.l3_mpki(),
                    report.itlb_mpki(),
                    report.dtlb_mpki(),
                    report.branch_mpki(),
                ],
                mix: [
                    report.counters.mix.fraction(InstClass::Load),
                    report.counters.mix.fraction(InstClass::Store),
                    report.counters.mix.fraction(InstClass::Branch),
                    report.counters.mix.fraction(InstClass::Int),
                    report.counters.mix.fraction(InstClass::Fp),
                ],
                int_per_dram_byte: report.int_intensity(),
                fp_per_dram_byte: report.fp_intensity(),
                phases,
            }
        })
        .collect();
    BenchResults { machine: machine.name, fraction, workloads }
}

const MPKI_KEYS: [&str; 7] = ["l1i", "l1d", "l2", "l3", "itlb", "dtlb", "branch"];
const MIX_KEYS: [&str; 5] = ["load", "store", "branch", "int", "fp"];

impl BenchResults {
    /// Renders the artifact as pretty-stable JSON (one workload per
    /// line group, keys in fixed order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut root = ObjectWriter::new(&mut out);
        root.field_u64("schema_version", SCHEMA_VERSION)
            .field_str("machine", &self.machine)
            .field_f64("fraction", self.fraction);
        {
            let buf = root.field_raw("workloads");
            buf.push('[');
            for (i, w) in self.workloads.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                buf.push_str("\n  ");
                write_workload(buf, w);
            }
            buf.push_str("\n]");
        }
        root.finish();
        out.push('\n');
        out
    }
}

fn write_workload(out: &mut String, w: &WorkloadResult) {
    let mut o = ObjectWriter::new(out);
    o.field_str("name", &w.name)
        .field_f64("mips", w.mips)
        .field_f64("ipc", w.ipc)
        .field_u64("instructions", w.instructions)
        .field_u64("cycles", w.cycles)
        .field_u64("dram_bytes", w.dram_bytes);
    {
        let buf = o.field_raw("mpki");
        let mut m = ObjectWriter::new(buf);
        for (key, value) in MPKI_KEYS.iter().zip(w.mpki) {
            m.field_f64(key, value);
        }
        m.finish();
    }
    {
        let buf = o.field_raw("mix");
        let mut m = ObjectWriter::new(buf);
        for (key, value) in MIX_KEYS.iter().zip(w.mix) {
            m.field_f64(key, value);
        }
        m.finish();
    }
    o.field_f64("int_per_dram_byte", w.int_per_dram_byte)
        .field_f64("fp_per_dram_byte", w.fp_per_dram_byte);
    {
        let buf = o.field_raw("phases");
        buf.push('[');
        for (i, p) in w.phases.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let mut ph = ObjectWriter::new(buf);
            ph.field_str("name", &p.name)
                .field_u64("instructions", p.instructions)
                .field_u64("cycles", p.cycles)
                .field_u64("l2_misses", p.l2_misses)
                .field_u64("llc_misses", p.llc_misses)
                .field_u64("dram_bytes", p.dram_bytes);
            ph.finish();
        }
        buf.push(']');
    }
    o.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_telemetry::json::{self, Json};

    fn tiny() -> BenchResults {
        collect(1.0 / 64.0, &[WorkloadId::WordCount])
    }

    #[test]
    fn artifact_round_trips_through_own_reader() {
        let results = tiny();
        let json = results.to_json();
        let v = json::parse(&json).expect("self-written JSON parses");
        assert_eq!(v.get("schema_version").and_then(Json::as_f64), Some(SCHEMA_VERSION as f64));
        let workloads = v.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), 1);
        let w = &workloads[0];
        assert_eq!(w.get("name").and_then(Json::as_str), Some("WordCount"));
        assert!(w.get("mips").and_then(Json::as_f64).unwrap() > 0.0);
        let phases = w.get("phases").and_then(Json::as_array).unwrap();
        assert!(!phases.is_empty(), "WordCount records map/shuffle/reduce phases");
        let phase_instructions: f64 =
            phases.iter().map(|p| p.get("instructions").and_then(Json::as_f64).unwrap()).sum();
        let total = w.get("instructions").and_then(Json::as_f64).unwrap();
        assert!((phase_instructions - total).abs() < 0.5, "phases partition the run");
    }

    #[test]
    fn artifact_reports_branch_mpki() {
        let json = tiny().to_json();
        let v = json::parse(&json).expect("parses");
        let w = &v.get("workloads").and_then(Json::as_array).unwrap()[0];
        let branch = w.get("mpki").and_then(|m| m.get("branch")).and_then(Json::as_f64);
        assert!(branch.is_some(), "mpki.branch present");
        assert!(branch.unwrap() >= 0.0);
    }

    #[test]
    fn collect_is_deterministic_on_sim_metrics() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.workloads[0].instructions, b.workloads[0].instructions);
        assert_eq!(a.workloads[0].cycles, b.workloads[0].cycles);
        assert_eq!(a.workloads[0].mpki, b.workloads[0].mpki);
        assert_eq!(a.to_json(), b.to_json(), "the artifact is fixed by the seed");
    }
}
