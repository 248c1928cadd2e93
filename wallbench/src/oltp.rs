//! The `oltp-mixed` workload: one closed-loop client against the LSM
//! store, mixing gets, overwriting puts and short scans over the same
//! Zipf-popular keys, each checked against a `BTreeMap` shadow model.

use crate::report::Report;
use crate::stats::{tail_percentile, Samples};
use crate::{drive, finish, peak_rss_mb, setup, Ctx, Phase, Unit};
use bdb_datagen::convert::resumes_to_kv;
use bdb_datagen::table::zipf_sample;
use bdb_datagen::ResumeGenerator;
use bdb_kvstore::{Store, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Rows preloaded: several 2 MiB memtables' worth, so several SSTables
/// exist before the first operation.
const PRELOAD_ROWS: u64 = 40_000;
/// Distinct values the puts cycle through.
const VALUE_POOL: u64 = 4_096;
/// Operations per timed unit.
const BATCH_OPS: usize = 2_000;
/// Untimed batches before sampling.
const WARMUP_BATCHES: usize = 20;
/// Timed batches at least.
const MIN_BATCHES: usize = 20;
/// Rows a scan covers.
const SCAN_ROWS: u64 = 100;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 0.7;

/// The core suite's Cloud OLTP store configuration.
fn config() -> StoreConfig {
    StoreConfig { memtable_flush_bytes: 2 << 20, max_tables: 6, ..Default::default() }
}

fn row_key(i: u64) -> Vec<u8> {
    format!("resume{i:012}").into_bytes()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Get,
    Put,
    Scan,
}

/// Figures gathered from traced batches.
#[derive(Default)]
struct Layer {
    gets: u64,
    get_hits: u64,
    bloom_skips: u64,
    puts: u64,
    put_user_bytes: u64,
    wal_bytes: u64,
    sst_bytes: u64,
    flushes: u64,
    compactions: u64,
    flush_put: Samples,
    compaction_put: Samples,
    scans: u64,
    table_sum: u64,
    table_samples: u64,
}

/// Bytes of `table-*.sst` files in `dir` not yet in `seen`, which is
/// updated.
fn new_table_bytes(dir: &Path, seen: &mut BTreeSet<PathBuf>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut bytes = 0;
    for e in entries.flatten() {
        let path = e.path();
        let is_table = path.extension().is_some_and(|x| x == "sst");
        if is_table && !seen.contains(&path) {
            bytes += e.metadata().map_or(0, |m| m.len());
            seen.insert(path);
        }
    }
    bytes
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|es| es.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// The workload.
pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let seed = ctx.seed;
    let base = ctx.dir.clone();
    let mut gen_ms = Samples::default();
    let ((store, dir, rows, values), setup_s, reps) = setup(ctx, |t, rep| {
        let dir = base.join(format!("kv-{rep}"));
        let ((rows, values), d) = t.time("datagen.resume", |_| {
            let rows = resumes_to_kv(&ResumeGenerator::new(seed).generate(PRELOAD_ROWS));
            let values: Vec<Vec<u8>> = ResumeGenerator::new(seed ^ 0x5EED)
                .generate(VALUE_POOL)
                .iter()
                .map(|r| r.to_record().into_bytes())
                .collect();
            (rows, values)
        });
        gen_ms.push(d.as_secs_f64() * 1e3);
        let (store, _) = t.time("kvstore.preload", |_| {
            let mut store = Store::open_with(&dir, config()).expect("open the store");
            for (k, v) in &rows {
                store.put(k.clone().into_bytes(), v.clone().into_bytes()).expect("preload put");
            }
            store.flush().expect("preload flush");
            store
        });
        if rep > 0 {
            let _ = std::fs::remove_dir_all(base.join(format!("kv-{}", rep - 1)));
        }
        (store, dir, rows, values)
    });
    let mut store = store;
    report.set("setup_s", setup_s, reps);
    report.set("datagen.resume_ms", gen_ms.median(), reps);
    report.context.push(format!(
        "{} rows preloaded ({} bytes), {} SSTables; {} MiB memtable, max {} tables; \
         {BATCH_OPS} ops per batch, 50% get / 45% put / 5% scan of {SCAN_ROWS} rows, Zipf({ZIPF_S})",
        rows.len(),
        rows.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>(),
        store.table_count(),
        config().memtable_flush_bytes >> 20,
        config().max_tables,
    ));

    let mut model: BTreeMap<Vec<u8>, Vec<u8>> =
        rows.into_iter().map(|(k, v)| (k.into_bytes(), v.into_bytes())).collect();
    let nrows = model.len() as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x000C_1E17);
    let mut lat = [Samples::default(), Samples::default(), Samples::default()];
    let mut layer = Layer::default();
    let mut seen = BTreeSet::new();
    new_table_bytes(&dir, &mut seen);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut next_value = 0usize;

    let mut timing = drive(ctx, WARMUP_BATCHES, MIN_BATCHES, |t, phase| {
        let traced = phase == Phase::Traced;
        let (mut busy_ns, mut bytes) = (0u64, 0u64);
        for _ in 0..BATCH_OPS {
            let idx = zipf_sample(&mut rng, nrows, ZIPF_S);
            let key = row_key(idx);
            let draw: f64 = rng.gen();
            let op = if draw < 0.50 {
                Op::Get
            } else if draw < 0.95 {
                Op::Put
            } else {
                Op::Scan
            };
            let before = store.stats();
            let wal_before = store.wal_offset();
            let (ok, moved, ns) = match op {
                Op::Get => {
                    let (got, d) = t.time("kvstore.get", |_| store.get(&key));
                    let ok = matches!(&got, Ok(v) if v.as_ref() == model.get(&key));
                    let moved = got.ok().flatten().map_or(0, |v| v.len());
                    if traced {
                        layer.gets += 1;
                        layer.get_hits += u64::from(moved > 0);
                        layer.bloom_skips += store.stats().bloom_skips - before.bloom_skips;
                    }
                    (ok, key.len() + moved, d.as_nanos() as u64)
                }
                Op::Put => {
                    let value = values[next_value % values.len()].clone();
                    next_value += 1;
                    let moved = key.len() + value.len();
                    let (k, v) = (key.clone(), value.clone());
                    let (res, d) = t.time("kvstore.put", |_| store.put(k, v));
                    model.insert(key, value);
                    let after = store.stats();
                    // Tables written by any put are marked seen, so a
                    // traced put counts only the ones it wrote itself.
                    let sst_bytes = if after.flushes > before.flushes {
                        new_table_bytes(&dir, &mut seen)
                    } else {
                        0
                    };
                    if traced {
                        let ms = d.as_secs_f64() * 1e3;
                        layer.puts += 1;
                        layer.put_user_bytes += moved as u64;
                        layer.wal_bytes += store.wal_offset() - wal_before;
                        if after.compactions > before.compactions {
                            layer.compactions += after.compactions - before.compactions;
                            layer.compaction_put.push(ms);
                        } else if after.flushes > before.flushes {
                            layer.flush_put.push(ms);
                        }
                        layer.flushes += after.flushes - before.flushes;
                        layer.sst_bytes += sst_bytes;
                    }
                    (res.is_ok(), moved, d.as_nanos() as u64)
                }
                Op::Scan => {
                    let end = row_key(idx + SCAN_ROWS);
                    let (got, d) = t.time("kvstore.scan", |_| store.scan(&key, &end));
                    let expect = model.range(key.clone()..end.clone());
                    let moved = got.as_ref().map_or(0, |rows| {
                        rows.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>()
                    });
                    let ok = matches!(&got, Ok(rows) if rows.len() == expect.clone().count()
                        && rows.iter().zip(expect).all(|((k, v), (mk, mv))| k == mk && v == mv));
                    if traced {
                        layer.scans += 1;
                    }
                    (ok, key.len() + end.len() + moved, d.as_nanos() as u64)
                }
            };
            if traced {
                layer.table_sum += store.table_count() as u64;
                layer.table_samples += 1;
            }
            if phase != Phase::Warmup {
                attempted += 1;
                failed += u64::from(!ok);
                if phase == Phase::Untraced {
                    let us = ns as f64 / 1e3;
                    lat[op as usize].push(us);
                }
            }
            busy_ns += ns;
            bytes += moved as u64;
        }
        let peak_mb = peak_rss_mb();
        Unit { secs: busy_ns as f64 / 1e9, peak_mb, bytes: bytes as f64, ops: BATCH_OPS as f64 }
    });
    report.attempted = attempted;
    report.failed = failed;

    let mut all = Samples::default();
    lat.iter_mut().for_each(|s| s.values().iter().for_each(|&us| all.push(us)));
    report.set("latency_ms_p50", all.median() / 1e3, all.len());
    for (name, s) in ["get", "put", "scan"].iter().zip(lat.iter_mut()) {
        let n = s.len();
        report.detail(format!("{name}_us_p50"), s.median(), "us", n);
        if let Some(p) = tail_percentile(n) {
            report.detail(format!("{name}_us_p{p}"), s.percentile(p), "us", n);
        }
    }

    if ctx.traced {
        let tr = &ctx.tracer;
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let get = tr.totals("kvstore.get");
        let put = tr.totals("kvstore.put");
        let scan = tr.totals("kvstore.scan");
        report.set("kvstore.get_ms", get.mean_ms(), get.count as usize);
        report.set("kvstore.gets", layer.gets as f64, 1);
        report.set("kvstore.get_hit_share", per(layer.get_hits, layer.gets), layer.gets as usize);
        report.set(
            "kvstore.bloom_skips_per_get",
            per(layer.bloom_skips, layer.gets),
            layer.gets as usize,
        );
        report.set(
            "kvstore.tables",
            per(layer.table_sum, layer.table_samples),
            layer.table_samples as usize,
        );
        report.set("kvstore.put_ms", put.mean_ms(), put.count as usize);
        report.set("kvstore.puts", layer.puts as f64, 1);
        report.set("kvstore.wal_mb", layer.wal_bytes as f64 / 1e6, 1);
        report.set("kvstore.flushes", layer.flushes as f64, 1);
        report.set("kvstore.compactions", layer.compactions as f64, 1);
        report.set("kvstore.flush_put_ms", layer.flush_put.median(), layer.flush_put.len());
        report.set(
            "kvstore.compaction_put_ms",
            layer.compaction_put.median(),
            layer.compaction_put.len(),
        );
        report.set("kvstore.scan_ms", scan.mean_ms(), scan.count as usize);
        report.set("kvstore.scans", layer.scans as f64, 1);
        report.set(
            "kvstore.write_amp",
            per(layer.wal_bytes + layer.sst_bytes, layer.put_user_bytes),
            layer.puts as usize,
        );
        let live: u64 = model.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
        report.set("kvstore.space_amp", per(dir_bytes(&dir), live), 1);
    }
    finish(ctx, &mut timing, &mut report);
    report
}
