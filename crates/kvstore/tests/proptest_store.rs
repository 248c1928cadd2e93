//! Model-based testing: the LSM store against a `BTreeMap` reference
//! under random operation sequences including flushes and compactions.

use bdb_kvstore::{BloomFilter, Store, StoreConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    Get(u16),
    Scan(u16, u16),
    Flush,
    Compact,
}

/// Mostly short values, one in ten 2–20 KiB: enough of those in one
/// table make a scan read it in more than one 64 KiB chunk.
fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        9 => proptest::collection::vec(any::<u8>(), 0..24),
        1 => proptest::collection::vec(any::<u8>(), 2048..20480),
    ]
}

/// Operations on keys `0..=max_key`.
fn op_strategy(max_key: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..=max_key, value_strategy()).prop_map(|(k, v)| Op::Put(k, v)),
        1 => (0..=max_key).prop_map(Op::Delete),
        3 => (0..=max_key).prop_map(Op::Get),
        1 => (0..=max_key, 0..=max_key).prop_map(|(a, b)| Op::Scan(a.min(b), a.max(b))),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn key_bytes(k: u16) -> Vec<u8> {
    format!("k{k:05}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The store agrees with a BTreeMap model on every read, across any
    /// interleaving of mutations, flushes and compactions.
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(op_strategy(u16::MAX), 1..120)) {
        let config = StoreConfig { memtable_flush_bytes: 512, max_tables: 3, ..Default::default() };
        check_model("bdb-prop", &ops, config)?;
    }

    /// The same over 64 hot keys and 64 KiB memtables: tables hold many
    /// large rows, so scans cross read chunks with overwritten and
    /// deleted keys on both sides of each chunk boundary.
    #[test]
    fn large_rows_across_read_chunks_match_model(
        ops in proptest::collection::vec(op_strategy(63), 1..400),
    ) {
        let config =
            StoreConfig { memtable_flush_bytes: 64 << 10, max_tables: 3, ..Default::default() };
        check_model("bdb-prop-large", &ops, config)?;
    }

    /// Recovery: reopening after arbitrary mutations preserves content.
    #[test]
    fn reopen_preserves_state(
        puts in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..60),
        flush_at in 0usize..60,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "bdb-prop-re-{}-{:x}",
            std::process::id(),
            puts.iter().map(|&(k, v)| k as u64 + v as u64).sum::<u64>()
                ^ (puts.len() as u64) << 32 ^ (flush_at as u64) << 48
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let mut store = Store::open(&dir).expect("open");
            for (i, (k, v)) in puts.iter().enumerate() {
                store.put(key_bytes(*k), vec![*v]).expect("put");
                model.insert(key_bytes(*k), vec![*v]);
                if i == flush_at {
                    store.flush().expect("flush");
                }
            }
        }
        let mut store = Store::open(&dir).expect("reopen");
        for (k, v) in &model {
            let got = store.get(k).expect("get");
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Bloom filters never report false negatives for any key set.
    #[test]
    fn bloom_no_false_negatives(keys in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..32), 1..200)
    ) {
        let mut bf = BloomFilter::for_items(keys.len(), 0.01);
        for k in &keys {
            bf.insert(k);
        }
        for k in &keys {
            prop_assert!(bf.contains(k));
        }
    }
}

/// Runs `ops` against a store opened with `config` in a fresh directory
/// and a BTreeMap model, comparing every read, then every model key and
/// a full scan.
fn check_model(prefix: &str, ops: &[Op], config: StoreConfig) -> Result<(), TestCaseError> {
    let dir =
        std::env::temp_dir().join(format!("{prefix}-{}-{:x}", std::process::id(), rand_tag(ops)));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::open_with(&dir, config).expect("open");
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                store.put(key_bytes(*k), v.clone()).expect("put");
                model.insert(key_bytes(*k), v.clone());
            }
            Op::Delete(k) => {
                store.delete(&key_bytes(*k)).expect("delete");
                model.remove(&key_bytes(*k));
            }
            Op::Get(k) => {
                let got = store.get(&key_bytes(*k)).expect("get");
                prop_assert_eq!(got.as_ref(), model.get(&key_bytes(*k)));
            }
            Op::Scan(a, b) => {
                let got = store.scan(&key_bytes(*a), &key_bytes(*b)).expect("scan");
                let expect: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(key_bytes(*a)..key_bytes(*b))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, expect);
            }
            Op::Flush => store.flush().expect("flush"),
            Op::Compact => store.compact().expect("compact"),
        }
    }
    // Final sweep: every model key agrees, and a full scan is the model.
    for (k, v) in &model {
        let got = store.get(k).expect("get");
        prop_assert_eq!(got.as_ref(), Some(v));
    }
    let all = store.scan(b"", b"l").expect("full scan");
    prop_assert_eq!(all, model.into_iter().collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Cheap deterministic tag so parallel proptest cases use distinct dirs.
fn rand_tag(ops: &[Op]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, op) in ops.iter().enumerate() {
        let x = match op {
            Op::Put(k, v) => *k as u64 ^ ((v.len() as u64) << 20),
            Op::Delete(k) | Op::Get(k) => *k as u64 | 1 << 40,
            Op::Scan(a, b) => (*a as u64) << 16 | *b as u64,
            Op::Flush => 0xF1,
            Op::Compact => 0xC0,
        };
        h = (h ^ x.wrapping_add(i as u64)).wrapping_mul(0x100_0000_01B3);
    }
    h
}
