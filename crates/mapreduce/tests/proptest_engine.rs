//! Property-based tests: the engine against naive reference
//! implementations, the codec against round-tripping, and the group
//! merge against a stable sort.

use bdb_archsim::layout::fnv1a_words;
use bdb_archsim::Probe;
use bdb_faults::FaultPlan;
use bdb_mapreduce::jobs::WordCount;
use bdb_mapreduce::spill::{GroupMerge, SpillFile};
use bdb_mapreduce::{Datum, Emitter, Engine, Job};
use proptest::prelude::*;
use std::collections::HashMap;

struct SortJob;
impl Job for SortJob {
    type Input = u64;
    type Key = u64;
    type Value = ();
    type Output = u64;
    fn map<P: Probe + ?Sized>(&self, x: &u64, emit: &mut Emitter<u64, ()>, _p: &mut P) {
        emit.emit(*x, ());
    }
    fn reduce<P: Probe + ?Sized>(&self, k: u64, vs: Vec<()>, out: &mut Vec<u64>, _p: &mut P) {
        out.extend(std::iter::repeat_n(k, vs.len()));
    }
}

/// Order-sensitive job: identity combine, and reduce emits each key's
/// values exactly as the engine hands them over. Values are unique
/// `(record, position)` tags, so any change in grouping or value order
/// shows in the output.
struct OrderJob;
impl Job for OrderJob {
    type Input = (u64, Vec<String>);
    type Key = String;
    type Value = u64;
    type Output = (String, Vec<u64>);
    fn map<P: Probe + ?Sized>(
        &self,
        (id, words): &(u64, Vec<String>),
        emit: &mut Emitter<String, u64>,
        _p: &mut P,
    ) {
        for (pos, w) in words.iter().enumerate() {
            emit.emit(w.clone(), id * 1000 + pos as u64);
        }
    }
    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<u64>,
        out: &mut Vec<(String, Vec<u64>)>,
        _p: &mut P,
    ) {
        out.push((key, values));
    }
}

/// Reference model of [`OrderJob`] on the engine: the same task split,
/// `fnv1a_words` partitioning and spill rule, but every buffer kept as emitted
/// pairs that are stable-sorted and grouped. Each partition's runs are
/// ordered as the engine merges them (every task's in-memory run, then
/// every task's spills in spill order); a stable sort of their
/// concatenation equals the stable k-way merge of the sorted runs.
fn order_job_model(
    inputs: &[(u64, Vec<String>)],
    threads: usize,
    reducers: usize,
    buffer: usize,
) -> Vec<(String, Vec<u64>)> {
    let mut memory: Vec<Vec<(String, u64)>> = vec![Vec::new(); reducers];
    let mut spilled: Vec<Vec<(String, u64)>> = vec![Vec::new(); reducers];
    let chunk = inputs.len().div_ceil(threads).max(1);
    for task in inputs.chunks(chunk) {
        let mut parts: Vec<Vec<(String, u64)>> = vec![Vec::new(); reducers];
        let mut buffered = 0;
        for (id, words) in task {
            for (pos, w) in words.iter().enumerate() {
                let mut encoded = Vec::new();
                w.encode(&mut encoded);
                let p = (fnv1a_words(&encoded) % reducers as u64) as usize;
                buffered += w.size_hint() + 8;
                parts[p].push((w.clone(), id * 1000 + pos as u64));
            }
            if buffered > buffer {
                for (p, part) in parts.iter_mut().enumerate() {
                    spilled[p].append(part);
                }
                buffered = 0;
            }
        }
        for (p, part) in parts.iter_mut().enumerate() {
            memory[p].append(part);
        }
    }
    let mut out = Vec::new();
    for (mut pairs, spills) in memory.into_iter().zip(spilled) {
        pairs.extend(spills);
        out.extend(stable_groups(pairs));
    }
    out
}

/// Groups `pairs` by key after a stable sort, values in input order.
fn stable_groups<K: Ord, V>(mut pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in pairs {
        match out.last_mut() {
            Some((last, values)) if *last == k => values.push(v),
            _ => out.push((k, vec![v])),
        }
    }
    out
}

fn word_lines() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::collection::vec("[a-e]{1,3}", 0..12).prop_map(|ws| ws.join(" ")),
        0..40,
    )
}

proptest! {
    /// WordCount through the engine equals a naive HashMap count,
    /// regardless of thread/reducer configuration.
    #[test]
    fn wordcount_matches_naive(
        lines in word_lines(),
        threads in 1usize..5,
        reducers in 1usize..5,
    ) {
        let engine = Engine::builder().threads(threads).reducers(reducers).build();
        let (out, _) = engine.run(&WordCount, &lines);
        let mut got: HashMap<String, u64> = HashMap::new();
        for (k, v) in out {
            // Each key appears exactly once across all partitions.
            prop_assert!(got.insert(k, v).is_none());
        }
        let mut expect: HashMap<String, u64> = HashMap::new();
        for line in &lines {
            for w in line.split_whitespace() {
                *expect.entry(w.to_owned()).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// Grouping, key order and per-key value order equal the stable
    /// sort-then-group model, with and without spills. Keys of 1–12
    /// chars encode to 5–16 bytes, so the partitioner's tail and word
    /// paths both run.
    #[test]
    fn grouping_matches_stable_sort_model(
        inputs in proptest::collection::vec(
            proptest::collection::vec("[a-d]{1,12}", 0..16), 0..60),
        threads in 1usize..5,
        reducers in 1usize..6,
        spill in any::<bool>(),
    ) {
        let inputs: Vec<(u64, Vec<String>)> =
            inputs.into_iter().enumerate().map(|(i, ws)| (i as u64, ws)).collect();
        let buffer = if spill { 1024 } else { 64 << 20 };
        let engine = Engine::builder()
            .threads(threads)
            .reducers(reducers)
            .map_buffer_bytes(buffer)
            .build();
        let (out, _) = engine.run(&OrderJob, &inputs);
        prop_assert_eq!(out, order_job_model(&inputs, threads, reducers, buffer));
    }

    /// Sort with a single reducer totally sorts any input, even when the
    /// buffer is tiny enough to force spilling.
    #[test]
    fn sort_is_total_and_complete(
        input in proptest::collection::vec(any::<u64>(), 0..300),
        buffer in 256usize..4096,
    ) {
        let engine = Engine::builder().threads(2).reducers(1).map_buffer_bytes(buffer).build();
        let (out, stats) = engine.run(&SortJob, &input);
        let mut expect = input.clone();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
        prop_assert_eq!(stats.map_records, input.len() as u64);
        prop_assert_eq!(stats.output_records, input.len() as u64);
    }

    /// Spilling and non-spilling configurations agree.
    #[test]
    fn spill_invariance(input in proptest::collection::vec(any::<u32>(), 1..200)) {
        let input: Vec<u64> = input.into_iter().map(u64::from).collect();
        let spilly = Engine::builder().threads(1).reducers(2).map_buffer_bytes(1024).build();
        let roomy = Engine::builder().threads(1).reducers(2).map_buffer_bytes(64 << 20).build();
        let (mut a, sa) = spilly.run(&SortJob, &input);
        let (mut b, sb) = roomy.run(&SortJob, &input);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert!(sa.spills >= sb.spills);
        prop_assert_eq!(sa.shuffle_bytes, sb.shuffle_bytes, "each pair is shuffled once");
    }

    /// The group merge over pre-sorted runs, the first `in_memory` of
    /// them borrowed and the rest spilled, equals grouping a stable
    /// sort of the runs' concatenation.
    #[test]
    fn merge_equals_sort(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u32..40, any::<u32>()), 0..50), 0..6),
        in_memory in 0usize..7,
    ) {
        let runs: Vec<Vec<(u32, u32)>> = runs
            .into_iter()
            .map(|mut r| {
                r.sort_by_key(|p| p.0);
                r
            })
            .collect();
        let (memory, spilled) = runs.split_at(in_memory.min(runs.len()));
        let dir = std::env::temp_dir();
        let spills: Vec<SpillFile> =
            spilled.iter().map(|r| SpillFile::write(&dir, r).unwrap()).collect();
        let memory = memory.iter().map(Vec::as_slice);
        let merged: Vec<(u32, Vec<u32>)> = GroupMerge::new(memory, &spills, &FaultPlan::disabled())
            .unwrap()
            .collect::<std::io::Result<_>>()
            .unwrap();
        prop_assert_eq!(merged, stable_groups(runs.concat()));
    }

    /// Codec: tuples of common types round-trip through encode/decode.
    #[test]
    fn codec_roundtrip(
        k in "[a-z]{0,20}",
        v in any::<u64>(),
        f in any::<f64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = Vec::new();
        (k.clone(), v).encode(&mut buf);
        f.encode(&mut buf);
        bytes.encode(&mut buf);
        let mut s = buf.as_slice();
        let pair = <(String, u64)>::decode(&mut s).expect("pair");
        prop_assert_eq!(pair.0, k);
        prop_assert_eq!(pair.1, v);
        let f2 = f64::decode(&mut s).expect("float");
        prop_assert_eq!(f.to_bits(), f2.to_bits());
        prop_assert_eq!(Vec::<u8>::decode(&mut s).expect("bytes"), bytes);
        prop_assert!(s.is_empty());
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn decode_garbage_is_safe(garbage in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut s = garbage.as_slice();
        let _ = String::decode(&mut s);
        let mut s = garbage.as_slice();
        let _ = <(u64, Vec<u8>)>::decode(&mut s);
        let mut s = garbage.as_slice();
        let _ = Vec::<u32>::decode(&mut s);
    }
}
