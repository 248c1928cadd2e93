//! Cloud OLTP workloads: Read, Write, Scan against the LSM store,
//! with ProfSearch resumé records as row payloads (paper Table 4).

use crate::report::{UserMetric, WorkloadReport};
use crate::scale::RunScale;
use crate::workload::{Workload, WorkloadId};
use bdb_archsim::{CharacterizationReport, MachineConfig, Probe, SimProbe};
use bdb_datagen::convert::resumes_to_kv;
use bdb_datagen::ResumeGenerator;
use bdb_kvstore::{Store, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Library-scale baseline operation count ("32 GB" ≈ 20k ops here).
pub const OLTP_BASELINE_OPS: u64 = 20_000;
/// Rows preloaded before read/scan runs.
const PRELOAD_ROWS: u64 = 10_000;
/// Rows returned per scan.
const SCAN_SPAN: u64 = 100;

/// A store directory no other run in this process uses, so concurrent
/// runs never share (and delete) each other's store. A leftover from an
/// earlier process with the same pid is cleared first.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bdb-oltp-{tag}-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn preload(dir: &Path, rows: u64, seed: u64, traced: bool) -> Store {
    let mut store = Store::open_with(
        dir,
        StoreConfig { memtable_flush_bytes: 2 << 20, max_tables: 6, ..Default::default() },
    )
    .expect("store open");
    let resumes = ResumeGenerator::new(seed).generate(rows);
    for (k, v) in resumes_to_kv(&resumes) {
        store.put(k.into_bytes(), v.into_bytes()).expect("preload put");
    }
    store.flush().expect("flush");
    if traced {
        store.enable_tracing();
    }
    store
}

fn row_key(i: u64) -> Vec<u8> {
    format!("resume{i:012}").into_bytes()
}

/// Zipf-ish row popularity for reads (hot rows exist).
fn sample_row(rng: &mut StdRng, rows: u64) -> u64 {
    bdb_datagen::table::zipf_sample(rng, rows, 0.7)
}

fn run_ops<P: Probe + ?Sized>(
    kind: WorkloadId,
    store: &mut Store,
    ops: u64,
    rows: u64,
    seed: u64,
    probe: &mut P,
) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut touched = 0u64;
    let mut writer = ResumeGenerator::new(seed ^ 0xFEED);
    for op in 0..ops {
        match kind {
            WorkloadId::Read => {
                let key = row_key(sample_row(&mut rng, rows));
                if store.get_with(&key, probe).expect("get").is_some() {
                    touched += 1;
                }
            }
            WorkloadId::Write => {
                let resume = &writer.generate(1)[0];
                let key = row_key(rows + op + 1);
                store.put_with(key, resume.to_record().into_bytes(), probe).expect("put");
                touched += 1;
            }
            WorkloadId::Scan => {
                let start = rng.gen_range(1..rows.max(2));
                let rows_out = store
                    .scan_with(&row_key(start), &row_key(start + SCAN_SPAN), probe)
                    .expect("scan");
                touched += rows_out.len() as u64;
            }
            _ => unreachable!("not an OLTP workload"),
        }
    }
    (ops, touched)
}

macro_rules! oltp_workload {
    ($name:ident, $id:expr, $tag:literal, $ops_divisor:expr) => {
        /// Cloud OLTP workload (see module docs).
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name;

        impl Workload for $name {
            fn id(&self) -> WorkloadId {
                $id
            }

            fn run_native(&self, scale: &RunScale) -> WorkloadReport {
                let ops = scale.native_units(OLTP_BASELINE_OPS) / $ops_divisor;
                let rows = scale.native_units(PRELOAD_ROWS);
                let dir = fresh_dir($tag);
                let mut store = preload(&dir, rows, scale.seed_for(10), false);
                let start = Instant::now();
                let (done, touched) = run_ops(
                    $id,
                    &mut store,
                    ops.max(1),
                    rows,
                    scale.seed_for(11),
                    &mut bdb_archsim::NullProbe,
                );
                let seconds = start.elapsed().as_secs_f64();
                let _ = std::fs::remove_dir_all(&dir);
                WorkloadReport::new(
                    $id,
                    scale.multiplier,
                    UserMetric::Ops { operations: done, seconds },
                    rows * 200,
                )
                .with_detail(format!("{touched} rows touched over {done} ops"))
            }

            fn run_traced(
                &self,
                scale: &RunScale,
                machine: MachineConfig,
            ) -> CharacterizationReport {
                let ops = (scale.traced_units(OLTP_BASELINE_OPS) / $ops_divisor).max(10);
                let rows = scale.traced_units(PRELOAD_ROWS).max(100);
                let dir = fresh_dir(concat!($tag, "-traced"));
                let mut store = preload(&dir, rows, scale.seed_for(10), true);
                let mut probe = SimProbe::new(machine);
                store.warm_trace(&mut probe);
                run_ops($id, &mut store, (ops / 5).max(5), rows, scale.seed_for(12), &mut probe);
                probe.reset_stats();
                run_ops($id, &mut store, ops, rows, scale.seed_for(11), &mut probe);
                let _ = std::fs::remove_dir_all(&dir);
                probe.finish()
            }
        }
    };
}

oltp_workload!(ReadWorkload, WorkloadId::Read, "read", 1);
oltp_workload!(WriteWorkload, WorkloadId::Write, "write", 1);
// Scans touch ~100 rows each; run fewer of them for comparable work.
oltp_workload!(ScanWorkload, WorkloadId::Scan, "scan", 20);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_hits_preloaded_rows() {
        let r = ReadWorkload.run_native(&RunScale::quick());
        assert!(matches!(r.metric, UserMetric::Ops { .. }));
        assert!(r.metric.value() > 0.0);
        let touched: u64 = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        assert!(touched > 0, "Zipf reads should hit: {}", r.detail);
    }

    #[test]
    fn write_appends_rows() {
        let r = WriteWorkload.run_native(&RunScale::quick());
        let touched: u64 = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        assert_eq!(touched, RunScale::quick().native_units(OLTP_BASELINE_OPS));
    }

    #[test]
    fn scan_returns_ranges() {
        let r = ScanWorkload.run_native(&RunScale::quick());
        let touched: u64 = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        assert!(touched > 100, "scans return many rows: {}", r.detail);
    }

    #[test]
    fn traced_oltp_reports_server_stack() {
        let r = ReadWorkload.run_traced(&RunScale::quick(), MachineConfig::xeon_e5645());
        assert!(r.counters.mix.other > 0, "LSM server stack instructions recorded");
        assert!(r.instructions() > 1000);
    }
}
