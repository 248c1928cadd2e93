//! The versioned `BENCH_RESULTS.json` regression artifact.
//!
//! [`to_json`] renders the simulated characterization of a fixed set of
//! workloads, the named reports of
//! [`bigdatabench::characterize::baseline`], as one stable JSON
//! document: MIPS, MPKI, instruction mix, operation intensity and the
//! per-phase counter breakdown. It is byte-identical for the same
//! fraction, so the committed copy is checked byte for byte.
//! Wall-clock numbers come from `wallbench`, not from this artifact.
//!
//! The JSON is written through [`bdb_telemetry::json`], the
//! workspace's one JSON codec.

use bdb_archsim::metrics::InstClass;
use bdb_telemetry::json::ObjectWriter;
use bigdatabench::{CharacterizationReport, WorkloadId};

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

/// A per-kilo-instruction rate read off a report.
type Mpki = fn(&CharacterizationReport) -> f64;

/// The `mpki` object's keys, each with the report method it reads.
const MPKI: [(&str, Mpki); 7] = [
    ("l1i", CharacterizationReport::l1i_mpki),
    ("l1d", |r| r.counters.l1d.mpki(r.instructions())),
    ("l2", CharacterizationReport::l2_mpki),
    ("l3", CharacterizationReport::l3_mpki),
    ("itlb", CharacterizationReport::itlb_mpki),
    ("dtlb", CharacterizationReport::dtlb_mpki),
    ("branch", CharacterizationReport::branch_mpki),
];

/// The `mix` object's keys, each with the instruction class it reads.
const MIX: [(&str, InstClass); 5] = [
    ("load", InstClass::Load),
    ("store", InstClass::Store),
    ("branch", InstClass::Branch),
    ("int", InstClass::Int),
    ("fp", InstClass::Fp),
];

/// Renders the artifact over `rows` (the [`baseline`] of its
/// workloads) at `fraction` as stable JSON: one workload per line
/// group, keys in fixed order, the machine named by the first row.
///
/// [`baseline`]: bigdatabench::characterize::baseline
pub fn to_json(fraction: f64, rows: &[(&str, CharacterizationReport)]) -> String {
    let mut out = String::with_capacity(4096);
    let mut root = ObjectWriter::new(&mut out);
    root.field_u64("schema_version", SCHEMA_VERSION)
        .field_str("machine", rows.first().map_or("", |(_, r)| &r.machine))
        .field_f64("fraction", fraction);
    {
        let buf = root.field_raw("workloads");
        buf.push('[');
        for (i, (name, report)) in rows.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str("\n  ");
            write_workload(buf, name, report);
        }
        buf.push_str("\n]");
    }
    root.finish();
    out.push('\n');
    out
}

fn write_workload(out: &mut String, name: &str, r: &CharacterizationReport) {
    let mut o = ObjectWriter::new(out);
    o.field_str("name", name)
        .field_f64("mips", r.mips())
        .field_f64("ipc", r.ipc())
        .field_u64("instructions", r.instructions())
        .field_u64("cycles", r.counters.cycles)
        .field_u64("dram_bytes", r.counters.dram_bytes);
    {
        let mut m = ObjectWriter::new(o.field_raw("mpki"));
        for (key, value) in MPKI {
            m.field_f64(key, value(r));
        }
        m.finish();
    }
    {
        let mut m = ObjectWriter::new(o.field_raw("mix"));
        for (key, class) in MIX {
            m.field_f64(key, r.counters.mix.fraction(class));
        }
        m.finish();
    }
    o.field_f64("int_per_dram_byte", r.int_intensity())
        .field_f64("fp_per_dram_byte", r.fp_intensity());
    {
        let buf = o.field_raw("phases");
        buf.push('[');
        for (i, p) in r.phases.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let mut ph = ObjectWriter::new(buf);
            ph.field_str("name", &p.name)
                .field_u64("instructions", p.counters.instructions())
                .field_u64("cycles", p.counters.cycles)
                .field_u64("l2_misses", p.counters.l2.misses)
                .field_u64("llc_misses", p.counters.llc_misses)
                .field_u64("dram_bytes", p.counters.dram_bytes);
            ph.finish();
        }
        buf.push(']');
    }
    o.finish();
}
