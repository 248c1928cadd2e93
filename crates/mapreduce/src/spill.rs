//! Spill files: sorted runs of intermediate pairs serialized to disk.
//!
//! Hadoop map tasks spill their sort buffer to local disk whenever it
//! fills; reducers then merge the sorted runs. We reproduce the same
//! mechanism with real temporary files so that, exactly as in the paper,
//! out-of-memory-scale inputs pay genuine I/O and Sort-style jobs slow
//! down past the memory threshold (Figure 3-2).

use crate::codec::Datum;
use bdb_faults::{FaultPlan, FaultyRead};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A sorted run of `(key, value)` pairs persisted to a temporary file.
///
/// The file is deleted when the `SpillFile` is dropped.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    /// Number of pairs in the run.
    pub pairs: usize,
    /// Serialized size in bytes.
    pub bytes: u64,
}

impl SpillFile {
    /// Writes `pairs` (already sorted by key) to a new spill file in
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file creation or writing.
    pub fn write<K: Datum, V: Datum>(dir: &Path, pairs: &[(K, V)]) -> io::Result<Self> {
        Self::write_with(dir, pairs, &FaultPlan::disabled())
    }

    /// [`SpillFile::write`] through the fault plan's
    /// [`crate::sites::SPILL_WRITE`] site. Every file gets a name no
    /// other spill in this process has used — concurrent jobs and a
    /// speculative attempt racing its original share `dir` without
    /// collisions — and is created exclusively, so a stale file from an
    /// earlier process is skipped rather than overwritten. A failed
    /// write removes the partial file before returning.
    ///
    /// # Errors
    ///
    /// Propagates real and injected I/O errors from creation or writing.
    pub fn write_with<K: Datum, V: Datum>(
        dir: &Path,
        pairs: &[(K, V)],
        faults: &FaultPlan,
    ) -> io::Result<Self> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let (path, file) = loop {
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("bdb-spill-{}-{id}.run", std::process::id()));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                file => break (path, file?),
            }
        };
        let mut buf = Vec::new();
        for (k, v) in pairs {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        let written = (|| {
            let mut w = faults.wrap_write(crate::sites::SPILL_WRITE, file);
            w.write_all(&buf)?;
            w.flush()
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
        Ok(Self { path, pairs: pairs.len(), bytes: buf.len() as u64 })
    }

    /// Opens the run for reading through the fault plan's
    /// [`crate::sites::SPILL_READ`] site. The file is read in chunks as
    /// the returned reader decodes it, so a run is never resident whole.
    ///
    /// # Errors
    ///
    /// Propagates the error of opening the file.
    pub(crate) fn reader<K: Datum, V: Datum>(
        &self,
        faults: &FaultPlan,
    ) -> io::Result<SpillReader<K, V>> {
        Ok(SpillReader {
            file: faults.wrap_read(crate::sites::SPILL_READ, File::open(&self.path)?),
            buf: Vec::new(),
            pos: 0,
            left: self.pairs,
            pairs: PhantomData,
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Bytes a [`SpillReader`] asks the file for at least, per read.
const READ_CHUNK: usize = 64 << 10;

/// A spill file decoded lazily, one pair per [`Iterator::next`]. Each
/// read of the file is one occurrence of the
/// [`crate::sites::SPILL_READ`] fault site.
///
/// Yields `InvalidData` when the file does not decode to exactly the
/// number of pairs written: a truncated or corrupt file, or trailing
/// bytes after the last pair.
#[derive(Debug)]
pub(crate) struct SpillReader<K, V> {
    file: FaultyRead<File>,
    /// Read but not yet decoded bytes start at `pos`.
    buf: Vec<u8>,
    pos: usize,
    /// Pairs not yet decoded.
    left: usize,
    pairs: PhantomData<fn() -> (K, V)>,
}

impl<K: Datum, V: Datum> SpillReader<K, V> {
    /// Appends the next chunk of the file behind the undecoded bytes;
    /// returns how many bytes arrived (0 at end of file). The chunk is
    /// at least as large as what is buffered, so a pair larger than a
    /// chunk needs only logarithmically many retries.
    fn fill(&mut self) -> io::Result<usize> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK.max(len), 0);
        let read = self.file.read(&mut self.buf[len..]);
        self.buf.truncate(len + *read.as_ref().unwrap_or(&0));
        read
    }

    fn next_pair(&mut self) -> io::Result<Option<(K, V)>> {
        if self.left == 0 {
            // Every pair is decoded: the file must end here.
            return if self.pos == self.buf.len() && self.fill()? == 0 {
                Ok(None)
            } else {
                Err(corrupt())
            };
        }
        loop {
            let mut input = &self.buf[self.pos..];
            if let Some(pair) =
                K::decode(&mut input).and_then(|k| Some((k, V::decode(&mut input)?)))
            {
                self.pos = self.buf.len() - input.len();
                self.left -= 1;
                return Ok(Some(pair));
            }
            // The pair runs past what is buffered, or the file is bad.
            if self.fill()? == 0 {
                return Err(corrupt());
            }
        }
    }
}

impl<K: Datum, V: Datum> Iterator for SpillReader<K, V> {
    type Item = io::Result<(K, V)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_pair().transpose()
    }
}

fn corrupt() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "corrupt spill file")
}

/// One sorted input of a [`GroupMerge`].
enum Source<'a, K, V> {
    /// A borrowed in-memory run; its first pair is the head.
    Memory(&'a [(K, V)]),
    /// A spill; the head's key sits in the merge heap, its value here.
    Spill { reader: SpillReader<K, V>, value: Option<V> },
}

impl<'a, K: Datum, V: Datum> Source<'a, K, V> {
    /// The head's key, decoding it first for a spill; `None` once the
    /// run is exhausted.
    fn head(&mut self) -> io::Result<Option<Cow<'a, K>>> {
        match self {
            Self::Memory(run) => {
                let run: &'a [(K, V)] = run;
                Ok(run.first().map(|(k, _)| Cow::Borrowed(k)))
            }
            Self::Spill { reader, value } => Ok(reader.next().transpose()?.map(|(k, v)| {
                *value = Some(v);
                Cow::Owned(k)
            })),
        }
    }

    /// Moves past the head, returning its value: cloned from a borrowed
    /// run, moved out of a spill.
    fn take_value(&mut self) -> V {
        match self {
            Self::Memory(run) => {
                let whole: &'a [(K, V)] = run;
                let (first, rest) = whole.split_first().expect("a head to take");
                *run = rest;
                first.1.clone()
            }
            Self::Spill { value, .. } => value.take().expect("a head to take"),
        }
    }
}

/// A source's head key in the merge heap. Ordering by key, then source
/// index, keeps ties in source order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Head<'a, K: Clone> {
    key: Cow<'a, K>,
    source: usize,
}

/// Streaming k-way merge of one partition's sorted runs, yielding one
/// key group at a time: the key and its values in merge order.
///
/// Sources are the borrowed in-memory runs, then the spills, and equal
/// keys keep that order (within a source, emission order), so grouping
/// equals a stable sort of the runs' concatenation. Borrowed runs stay
/// intact, so a retried reduce attempt can merge them again; their
/// keys are cloned once per group and their values once each. Spilled
/// pairs are decoded lazily and moved into the group, never cloned.
pub struct GroupMerge<'a, K: Clone, V> {
    sources: Vec<Source<'a, K, V>>,
    heap: BinaryHeap<Reverse<Head<'a, K>>>,
}

impl<'a, K: Datum + Ord, V: Datum> GroupMerge<'a, K, V> {
    /// Starts the merge, opening each spill through `faults` and
    /// decoding its first pair before opening the next.
    ///
    /// # Errors
    ///
    /// Propagates spill open and read errors (`InvalidData` for a bad
    /// file).
    pub fn new(
        runs: impl IntoIterator<Item = &'a [(K, V)]>,
        spills: &[SpillFile],
        faults: &FaultPlan,
    ) -> io::Result<Self> {
        let mut sources: Vec<_> = runs.into_iter().map(Source::Memory).collect();
        let mut heap = BinaryHeap::with_capacity(sources.len() + spills.len());
        for (source, s) in sources.iter_mut().enumerate() {
            if let Some(key) = s.head()? {
                heap.push(Reverse(Head { key, source }));
            }
        }
        for spill in spills {
            let mut s = Source::Spill { reader: spill.reader(faults)?, value: None };
            if let Some(key) = s.head()? {
                heap.push(Reverse(Head { key, source: sources.len() }));
            }
            sources.push(s);
        }
        Ok(Self { sources, heap })
    }

    fn next_group(&mut self) -> io::Result<Option<(K, Vec<V>)>> {
        let Some(Reverse(Head { key, mut source })) = self.heap.pop() else { return Ok(None) };
        let key = key.into_owned();
        let mut values = Vec::new();
        loop {
            // A source's pairs under `key` are adjacent: drain them.
            let s = &mut self.sources[source];
            loop {
                values.push(s.take_value());
                match s.head()? {
                    Some(next) if *next == key => {}
                    Some(next) => {
                        self.heap.push(Reverse(Head { key: next, source }));
                        break;
                    }
                    None => break,
                }
            }
            // Later sources holding `key` are next in the heap.
            match self.heap.peek() {
                Some(Reverse(h)) if *h.key == key => {
                    source = self.heap.pop().expect("peeked").0.source;
                }
                _ => return Ok(Some((key, values))),
            }
        }
    }
}

impl<K: Datum + Ord, V: Datum> Iterator for GroupMerge<'_, K, V> {
    type Item = io::Result<(K, Vec<V>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_group().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all<K: Datum, V: Datum>(spill: &SpillFile) -> io::Result<Vec<(K, V)>> {
        spill.reader(&FaultPlan::disabled())?.collect()
    }

    /// Groups of a merge over in-memory runs only.
    fn merge(runs: &[Vec<(u64, u64)>]) -> Vec<(u64, Vec<u64>)> {
        GroupMerge::new(runs.iter().map(Vec::as_slice), &[], &FaultPlan::disabled())
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap()
    }

    #[test]
    fn spill_roundtrip() {
        let dir = std::env::temp_dir();
        let pairs: Vec<(u64, String)> = (0..100).map(|i| (i, format!("v{i}"))).collect();
        let spill = SpillFile::write(&dir, &pairs).unwrap();
        assert_eq!(spill.pairs, 100);
        assert!(spill.bytes > 0);
        assert_eq!(read_all::<u64, String>(&spill).unwrap(), pairs);
    }

    #[test]
    fn reader_decodes_pairs_larger_than_a_chunk() {
        let dir = std::env::temp_dir();
        let pairs: Vec<(String, u64)> =
            (0..5).map(|i| ("k".repeat(i * READ_CHUNK / 2 + 1), i as u64)).collect();
        let spill = SpillFile::write(&dir, &pairs).unwrap();
        assert_eq!(read_all::<String, u64>(&spill).unwrap(), pairs);
    }

    #[test]
    fn truncated_corrupt_or_padded_spills_are_invalid_data() {
        let dir = std::env::temp_dir();
        let pairs: Vec<(String, u64)> = (0..100).map(|i| (format!("key{i}"), i)).collect();
        type Damage = fn(&mut Vec<u8>);
        let damage: [(&str, Damage); 3] = [
            ("truncated", |b| b.truncate(b.len() - 3)),
            ("corrupt", |b| b.fill(0xFF)),
            ("padded", |b| b.push(0)),
        ];
        for (what, damage) in damage {
            let spill = SpillFile::write(&dir, &pairs).unwrap();
            let mut bytes = std::fs::read(&spill.path).unwrap();
            damage(&mut bytes);
            std::fs::write(&spill.path, bytes).unwrap();
            let err = read_all::<String, u64>(&spill).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn spill_file_removed_on_drop() {
        let dir = std::env::temp_dir();
        let pairs: Vec<(u64, u64)> = vec![(1, 2)];
        let spill = SpillFile::write(&dir, &pairs).unwrap();
        let path = spill.path.clone();
        assert!(path.exists());
        drop(spill);
        assert!(!path.exists());
    }

    #[test]
    fn merge_two_sorted_runs() {
        let a = vec![(1, 10), (3, 30), (3, 32), (5, 50)];
        let b = vec![(2, 20), (3, 31), (4, 40)];
        // Ties keep run order: run 0's values under 3, then run 1's.
        let expect =
            [(1, vec![10]), (2, vec![20]), (3, vec![30, 32, 31]), (4, vec![40]), (5, vec![50])];
        assert_eq!(merge(&[a, b]), expect);
    }

    #[test]
    fn merge_handles_empty_runs() {
        assert_eq!(merge(&[vec![], vec![(1, 1)], vec![]]), [(1, vec![1])]);
        assert!(merge(&[]).is_empty());
    }

    #[test]
    fn merge_orders_spills_after_memory_runs() {
        let dir = std::env::temp_dir();
        let spilled = SpillFile::write(&dir, &[(1u64, 100u64), (2, 200)]).unwrap();
        let memory = vec![(1u64, 10u64), (3, 30)];
        let groups: Vec<_> =
            GroupMerge::new([memory.as_slice()], &[spilled], &FaultPlan::disabled())
                .unwrap()
                .collect::<io::Result<_>>()
                .unwrap();
        assert_eq!(groups, [(1, vec![10, 100]), (2, vec![200]), (3, vec![30])]);
        assert_eq!(memory.len(), 2, "borrowed runs stay intact for a retry");
    }

    #[test]
    fn merge_many_runs_is_sorted() {
        let runs: Vec<Vec<(u64, u64)>> =
            (0..8u64).map(|r| (0..50).map(|i| (i * 4 + r % 4, r)).collect()).collect();
        let groups = merge(&runs);
        assert!(groups.windows(2).all(|w| w[0].0 < w[1].0), "one group per key, ascending");
        assert_eq!(groups.iter().map(|g| g.1.len()).sum::<usize>(), 400);
        // Key 0 is in runs 0 and 4, in that order.
        assert_eq!(groups[0], (0, vec![0, 4]));
    }
}
