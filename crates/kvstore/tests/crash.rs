//! Crash-point recovery tests: torn writes injected mid-WAL-append,
//! mid-flush and mid-compaction must never lose an acknowledged write
//! and never leave a partially visible SSTable — the HBase durability
//! contract (WAL prefix replay + tmp-then-rename store-file commit).

use bdb_faults::FaultPlan;
use bdb_kvstore::wal::WalOp;
use bdb_kvstore::{sites, Store, StoreConfig, WriteAheadLog};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdb-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(i: u32) -> Vec<u8> {
    format!("row{i:08}").into_bytes()
}

fn val(i: u32) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

/// Flush only when asked; never compact behind the test's back.
fn manual_config() -> StoreConfig {
    StoreConfig { memtable_flush_bytes: 1 << 30, max_tables: 100, ..Default::default() }
}

/// Names of files in `dir` that are not the WAL — SSTables and any
/// leftover tmp staging files.
fn table_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n != "wal.log")
        .collect();
    names.sort();
    names
}

#[test]
fn torn_wal_append_loses_only_the_unacknowledged_tail() {
    let dir = tmpdir("torn-wal");
    let plan = FaultPlan::builder(21).torn_write_nth(sites::WAL_APPEND, 5).build();
    let mut acked = Vec::new();
    {
        let mut s = Store::open_with_faults(&dir, manual_config(), plan.clone()).unwrap();
        let mut failed_at = None;
        for i in 0..10u32 {
            match s.put(key(i), val(i)) {
                Ok(()) => acked.push(i),
                Err(e) => {
                    assert!(bdb_faults::is_injected(&e));
                    failed_at = Some(i);
                    break;
                }
            }
        }
        assert_eq!(failed_at, Some(5), "the sixth append tears");
        // Crash: drop the store with the half-written record on disk.
    }
    assert_eq!(plan.injected(), 1);
    let mut s = Store::open(&dir).unwrap();
    for i in &acked {
        assert_eq!(s.get(&key(*i)).unwrap(), Some(val(*i)), "acknowledged write {i} survived");
    }
    assert_eq!(s.get(&key(5)).unwrap(), None, "the torn record was never acknowledged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_flush_keeps_serving_and_retries_cleanly() {
    let dir = tmpdir("flush-retry");
    let plan = FaultPlan::builder(22).torn_write_nth(sites::FLUSH_WRITE, 0).build();
    let mut s = Store::open_with_faults(&dir, manual_config(), plan.clone()).unwrap();
    for i in 0..300 {
        s.put(key(i), val(i)).unwrap();
    }
    let err = s.flush().expect_err("first flush write is torn");
    assert!(bdb_faults::is_injected(&err));
    assert_eq!(s.table_count(), 0, "no partially visible SSTable");
    assert!(table_files(&dir).is_empty(), "no table or tmp file on disk: {:?}", table_files(&dir));
    for i in (0..300).step_by(37) {
        assert_eq!(s.get(&key(i)).unwrap(), Some(val(i)), "memtable restored after failed flush");
    }
    assert!(plan.recovered() >= 1, "the preserved memtable counts as a recovery");

    // The same handle retries: occurrence 1 of the site passes.
    s.flush().expect("retried flush succeeds");
    assert_eq!(s.table_count(), 1);
    drop(s);
    let mut s = Store::open(&dir).unwrap();
    for i in (0..300).step_by(37) {
        assert_eq!(s.get(&key(i)).unwrap(), Some(val(i)));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_mid_flush_recovers_every_acknowledged_write_from_the_wal() {
    let dir = tmpdir("flush-crash");
    let plan = FaultPlan::builder(23).io_error_nth(sites::FLUSH_WRITE, 0).build();
    {
        let mut s = Store::open_with_faults(&dir, manual_config(), plan).unwrap();
        for i in 0..200 {
            s.put(key(i), val(i)).unwrap();
        }
        s.flush().expect_err("flush fails");
        // Crash: the data now lives only in the WAL.
    }
    let mut s = Store::open(&dir).unwrap();
    assert_eq!(s.table_count(), 0);
    for i in 0..200 {
        assert_eq!(s.get(&key(i)).unwrap(), Some(val(i)), "WAL replay recovered write {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_mid_compaction_keeps_every_input_table() {
    let dir = tmpdir("compact-crash");
    let plan = FaultPlan::builder(24).torn_write_nth(sites::COMPACTION_WRITE, 0).build();
    let mut s = Store::open_with_faults(&dir, manual_config(), plan.clone()).unwrap();
    for round in 0..3u32 {
        for i in 0..150 {
            s.put(key(i), format!("r{round}-{i}").into_bytes()).unwrap();
        }
        s.flush().unwrap();
    }
    assert_eq!(s.table_count(), 3);
    let err = s.compact().expect_err("compaction write torn");
    assert!(bdb_faults::is_injected(&err));
    assert_eq!(s.table_count(), 3, "every input table stays live");
    for i in (0..150).step_by(29) {
        assert_eq!(s.get(&key(i)).unwrap(), Some(format!("r2-{i}").into_bytes()));
    }
    assert!(plan.recovered() >= 1);
    assert_eq!(table_files(&dir).len(), 3, "exactly the three published tables on disk");

    // Crash, reopen, and retry the compaction fault-free.
    drop(s);
    let mut s = Store::open(&dir).unwrap();
    assert_eq!(s.table_count(), 3);
    s.compact().expect("retried compaction succeeds");
    assert_eq!(s.table_count(), 1);
    for i in (0..150).step_by(29) {
        assert_eq!(s.get(&key(i)).unwrap(), Some(format!("r2-{i}").into_bytes()));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Overwrites the value-length field of the first entry in block 0 of
/// the table file at `path` with `u32::MAX`, keeping the file's length,
/// index, bloom and footer.
fn damage_first_entry(path: &Path) {
    use std::os::unix::fs::FileExt;
    let file = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
    let mut klen = [0u8; 4];
    file.read_exact_at(&mut klen, 0).unwrap();
    // klen u32, key, tomb u8, then vlen u32.
    let vlen_at = 4 + u64::from(u32::from_le_bytes(klen)) + 1;
    file.write_all_at(&u32::MAX.to_le_bytes(), vlen_at).unwrap();
}

#[test]
fn damaged_block_is_an_error_not_a_short_read() {
    let dir = tmpdir("damaged-block");
    {
        let mut s = Store::open_with(&dir, manual_config()).unwrap();
        for round in 0..2u32 {
            for i in 0..600 {
                s.put(key(i), format!("r{round}-{i}").into_bytes()).unwrap();
            }
            s.flush().unwrap();
        }
    }
    let tables = table_files(&dir);
    assert_eq!(tables.len(), 2);
    // The newest table, which answers every read of its keys.
    damage_first_entry(&dir.join(&tables[1]));

    let mut s = Store::open_with(&dir, manual_config()).expect("open reads no data block");
    let invalid = |e: std::io::Error| assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
    invalid(s.get(&key(0)).expect_err("get in the damaged block"));
    invalid(s.get(&key(2)).expect_err("get behind the damaged entry"));
    invalid(s.scan(&key(0), &key(10)).expect_err("scan over the damaged block"));
    invalid(s.compact().expect_err("compaction reads the damaged block"));
    assert_eq!(s.table_count(), 2, "both inputs stay live");
    assert_eq!(table_files(&dir), tables, "the compaction published nothing");
    // Rows outside the damaged block still read.
    assert_eq!(s.get(&key(599)).unwrap(), Some(b"r1-599".to_vec()));
    let tail = s.scan(&key(590), &key(600)).unwrap();
    assert_eq!(tail.len(), 10);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopen_removes_stray_tmp_tables() {
    let dir = tmpdir("stray-tmp");
    std::fs::create_dir_all(&dir).unwrap();
    let stray = dir.join("table-000000000007.sst.tmp");
    std::fs::write(&stray, b"half a table a crashed flush left behind").unwrap();
    let mut s = Store::open(&dir).unwrap();
    assert!(!stray.exists(), "stray tmp removed during recovery");
    assert_eq!(s.table_count(), 0, "a tmp file is never loaded as a table");
    s.put(key(1), val(1)).unwrap();
    assert_eq!(s.get(&key(1)).unwrap(), Some(val(1)));
    std::fs::remove_dir_all(&dir).ok();
}

/// Encoded size of one WAL record: op(1) klen(4) key vlen(4) val cksum(1).
fn record_len(klen: usize, vlen: usize) -> usize {
    10 + klen + vlen
}

/// Cheap deterministic tag so parallel proptest cases use distinct files.
fn case_tag(ops: &[(Vec<u8>, Vec<u8>, bool)], cut_seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ cut_seed;
    for (i, (k, v, del)) in ops.iter().enumerate() {
        let x = (k.len() as u64) << 24 ^ (v.len() as u64) << 8 ^ u64::from(*del) ^ (i as u64) << 40;
        h = (h ^ x).wrapping_mul(0x100_0000_01B3);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a WAL at *any* byte offset — mid-record or between
    /// records — replays exactly the longest prefix of whole records,
    /// and never errors. This is the invariant all crash recovery above
    /// rests on.
    #[test]
    fn truncated_wal_replays_an_exact_prefix(
        ops in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..12),
                proptest::collection::vec(any::<u8>(), 0..20),
                any::<bool>(),
            ),
            1..30,
        ),
        cut_seed in any::<u64>(),
    ) {
        let path = std::env::temp_dir().join(format!(
            "bdb-wal-prop-{}-{:x}",
            std::process::id(),
            case_tag(&ops, cut_seed)
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = WriteAheadLog::open(&path).unwrap();
            for (k, v, del) in &ops {
                if *del { wal.log_delete(k) } else { wal.log_put(k, v) }.unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let cut = (cut_seed as usize) % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let replayed = WriteAheadLog::replay(&path).expect("replay never errors");

        // The expected prefix: records wholly inside the first `cut` bytes.
        let mut consumed = 0usize;
        let mut expect = 0usize;
        for (k, v, del) in &ops {
            let len = record_len(k.len(), if *del { 0 } else { v.len() });
            if consumed + len <= cut {
                consumed += len;
                expect += 1;
            } else {
                break;
            }
        }
        prop_assert_eq!(replayed.len(), expect, "cut at byte {} of {}", cut, bytes.len());
        for (got, (k, v, del)) in replayed.iter().zip(ops.iter()) {
            let want = if *del {
                WalOp::Delete(k.clone())
            } else {
                WalOp::Put(k.clone(), v.clone())
            };
            prop_assert_eq!(got, &want);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Mirror of the invariant above for the replication path: a WAL
    /// ship torn mid-record on the replica side must leave the replica,
    /// after replay, with *exactly* the acknowledged whole-record
    /// prefix — no torn record visible, no acknowledged record lost —
    /// and the durable offset equal to the sum of acknowledged record
    /// lengths. Stray tmp files from the crashed node are cleaned
    /// before rejoin.
    #[test]
    fn torn_ship_mid_record_replays_exact_acknowledged_prefix(
        values in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..24),
            2..20,
        ),
        tear_at in 0u64..20,
    ) {
        let tear_at = tear_at % values.len() as u64;
        let tag = case_tag(
            &values.iter().map(|v| (Vec::new(), v.clone(), false)).collect::<Vec<_>>(),
            tear_at,
        );
        let dir = std::env::temp_dir().join(format!(
            "bdb-ship-prop-{}-{:x}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::builder(7).torn_write_nth(sites::WAL_APPEND, tear_at).build();
        let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut acked_bytes = 0u64;
        {
            // The replica applies shipped records through its normal
            // write path; the tear hits the WAL append mid-record.
            let mut replica = Store::open_with_faults(&dir, manual_config(), plan.clone()).unwrap();
            for (i, v) in values.iter().enumerate() {
                let k = key(i as u32);
                match replica.put(k.clone(), v.clone()) {
                    Ok(()) => {
                        acked_bytes += record_len(k.len(), v.len()) as u64;
                        acked.push((k, v.clone()));
                        prop_assert_eq!(replica.wal_offset(), acked_bytes);
                    }
                    Err(e) => {
                        prop_assert!(bdb_faults::is_injected(&e));
                        break;
                    }
                }
            }
            // Crash mid-ship: the torn tail stays on disk.
        }
        prop_assert_eq!(acked.len() as u64, tear_at, "the ship tears at occurrence {}", tear_at);
        let (replayed, durable) = WriteAheadLog::replay_with_offset(&dir.join("wal.log")).unwrap();
        prop_assert_eq!(durable, acked_bytes, "durable prefix == acknowledged bytes");
        prop_assert_eq!(replayed.len(), acked.len(), "whole-record prefix only");

        // The crashed node also left a half-built table behind; the
        // post-ship cleanup removes it before the replica rejoins.
        std::fs::create_dir_all(&dir).unwrap();
        let stray = dir.join("table-000000000003.sst.tmp");
        std::fs::write(&stray, b"half-shipped table").unwrap();
        let removed = Store::remove_stray_tmp(&dir).unwrap();
        prop_assert_eq!(removed, 1);
        prop_assert!(!stray.exists());

        let mut replica = Store::open(&dir).unwrap();
        for (k, v) in &acked {
            let got = replica.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v), "acked write survived");
        }
        if (tear_at as usize) < values.len() {
            prop_assert_eq!(
                replica.get(&key(tear_at as u32)).unwrap(),
                None,
                "the torn record was never acknowledged"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
