//! Immutable sorted string tables with block index and bloom filter.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! [data block]*  [index]  [bloom]  [footer]
//! data block  = (klen u32, key, tomb u8, vlen u32, value)*   ≈ 4 KiB each
//! index       = count u32, (klen u32, first_key, offset u64, len u32)*
//! footer      = index_off u64, index_len u64, bloom_off u64,
//!               bloom_len u64, entries u64, magic u64
//! ```

use crate::bloom::BloomFilter;
use crate::memtable::Entry;
use bdb_faults::FaultPlan;
use std::cmp::Ordering;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

const MAGIC: u64 = 0x0042_4442_5353_5442; // "BDB SSTB"
const BLOCK_TARGET: usize = 4096;
/// Bytes a [`Cursor`] asks the file for at most per read, unless one
/// block alone is larger.
const READ_CHUNK: usize = 64 << 10;

/// One index entry: the first key of a block plus its file extent.
#[derive(Debug, Clone)]
struct IndexEntry {
    first_key: Vec<u8>,
    offset: u64,
    len: u32,
}

/// A read handle to one SSTable file. The file stays open for the
/// handle's lifetime and every data read is positional.
#[derive(Debug)]
pub struct SsTable {
    path: PathBuf,
    file: File,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    entries: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

impl SsTable {
    /// Builds an SSTable at `path` from key-sorted entries (values or
    /// tombstones).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `entries` is not sorted by key.
    pub fn build(path: &Path, entries: &[(Vec<u8>, Entry)]) -> std::io::Result<Self> {
        Self::build_with(path, entries, &FaultPlan::disabled(), "kvstore.sstable.build")
    }

    /// [`SsTable::build`] writing through the fault plan's `site`, with
    /// crash-safe publication: the table is written to `<path>.tmp` and
    /// atomically renamed into place only once every byte (including
    /// the footer) is on disk — HBase's tmp-then-move commit for store
    /// files. A failed build removes the partial tmp file, so a reader
    /// never observes a half-written table. The handle that wrote the
    /// file is the one the table then reads through.
    ///
    /// # Errors
    ///
    /// Propagates real and injected I/O errors.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `entries` is not sorted by key.
    pub fn build_with(
        path: &Path,
        entries: &[(Vec<u8>, Entry)],
        faults: &FaultPlan,
        site: &'static str,
    ) -> std::io::Result<Self> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries must be sorted");
        let tmp = tmp_path(path);
        let written = (|| {
            let file =
                File::options().read(true).write(true).create(true).truncate(true).open(&tmp)?;
            let mut w = faults.wrap_write(site, &file);
            let sections = write_table(&mut w, entries)?;
            w.flush()?;
            std::fs::rename(&tmp, path)?;
            Ok((file, sections))
        })();
        match written {
            Ok((file, (index, bloom, file_bytes))) => Ok(Self {
                path: path.to_owned(),
                file,
                index,
                bloom,
                entries: entries.len() as u64,
                file_bytes,
            }),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Opens an existing SSTable, reading its index, bloom and footer.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the footer magic or sections are corrupt.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = File::open(path)?;
        let file_bytes = file.metadata()?.len();
        if file_bytes < 48 {
            return Err(invalid("file too small"));
        }
        let mut footer = [0u8; 48];
        file.read_exact_at(&mut footer, file_bytes - 48)?;
        let u64_at = |i: usize| u64::from_le_bytes(footer[i..i + 8].try_into().expect("8 bytes"));
        if u64_at(40) != MAGIC {
            return Err(invalid("bad magic"));
        }
        let (index_off, index_len) = (u64_at(0), u64_at(8));
        let (bloom_off, bloom_len) = (u64_at(16), u64_at(24));
        let entries = u64_at(32);
        let section = |off: u64, len: u64| {
            off.checked_add(len)
                .filter(|&end| end <= file_bytes - 48)
                .and_then(|_| usize::try_from(len).ok())
                .ok_or_else(|| invalid("section past the footer"))
        };

        let mut index_bytes = vec![0u8; section(index_off, index_len)?];
        file.read_exact_at(&mut index_bytes, index_off)?;
        let index = parse_index(&index_bytes)
            .filter(|index| {
                index.iter().all(|e| {
                    e.offset.checked_add(u64::from(e.len)).is_some_and(|end| end <= index_off)
                })
            })
            .ok_or_else(|| invalid("bad index"))?;

        let mut bloom_bytes = vec![0u8; section(bloom_off, bloom_len)?];
        file.read_exact_at(&mut bloom_bytes, bloom_off)?;
        let bloom = BloomFilter::from_bytes(&bloom_bytes).ok_or_else(|| invalid("bad bloom"))?;

        Ok(Self { path: path.to_owned(), file, index, bloom, entries, file_bytes })
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// The file this table reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The table's bloom filter (for read-path tracing).
    pub fn bloom(&self) -> &BloomFilter {
        &self.bloom
    }

    /// Whether the bloom filter may contain `key`.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.bloom.contains(key)
    }

    /// The block index position a lookup of `key` would search
    /// (`None` if the key precedes the first block).
    pub fn block_for(&self, key: &[u8]) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        match self.index.binary_search_by(|e| e.first_key.as_slice().cmp(key)) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// Point lookup. Returns the entry (value or tombstone) if the key is
    /// present in this table.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors reading the data block, and returns
    /// `InvalidData` if an entry before the key runs past its block.
    pub fn get(&self, key: &[u8]) -> std::io::Result<Option<Entry>> {
        if !self.may_contain(key) {
            return Ok(None);
        }
        let Some(block_idx) = self.block_for(key) else {
            return Ok(None);
        };
        let e = &self.index[block_idx];
        let mut block = vec![0u8; e.len as usize];
        self.file.read_exact_at(&mut block, e.offset)?;
        let mut s = block.as_slice();
        while !s.is_empty() {
            let row = decode_entry(s)?;
            match s[row.key.clone()].cmp(key) {
                Ordering::Less => s = &s[row.len..],
                Ordering::Equal => {
                    return Ok(Some(
                        row.value.map_or(Entry::Tombstone, |v| Entry::Value(s[v].to_vec())),
                    ))
                }
                Ordering::Greater => break,
            }
        }
        Ok(None)
    }

    /// Deletes the backing file (after compaction supersedes the table)
    /// and closes the handle.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn remove_file(self) -> std::io::Result<()> {
        std::fs::remove_file(&self.path)
    }
}

/// A forward cursor over one table's rows with keys in `[start, end)`
/// (`end` `None`: to the last row). It reads runs of consecutive blocks
/// with one positional read each, at most [`READ_CHUNK`] bytes unless a
/// single block is larger, into a buffer the caller lends it, so the
/// buffer outlives the cursor and is reused by the next one. Each row
/// is lent out borrowed from that buffer.
pub(crate) struct Cursor<'a> {
    table: &'a SsTable,
    buf: &'a mut Vec<u8>,
    start: &'a [u8],
    end: Option<&'a [u8]>,
    /// The next block to decode, and the end of the blocks to visit.
    next_block: usize,
    end_block: usize,
    /// Blocks before `loaded` are in `buf`, consecutive from offset 0.
    loaded: usize,
    /// Decoding position and the end of its block, as `buf` offsets.
    pos: usize,
    block_end: usize,
    /// The current row: its key and, unless a tombstone, its value.
    row: Option<(Range<usize>, Option<Range<usize>>)>,
    rows: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor before the first row of `table` in `[start, end)`; call
    /// [`Cursor::advance`] to reach it. Blocks that start at or past
    /// `end` are never read.
    pub(crate) fn new(
        table: &'a SsTable,
        buf: &'a mut Vec<u8>,
        start: &'a [u8],
        end: Option<&'a [u8]>,
    ) -> Self {
        let first = table.block_for(start).unwrap_or(0);
        let end_block = end.map_or(table.index.len(), |end| {
            table.index.partition_point(|e| e.first_key.as_slice() < end).max(first)
        });
        Self {
            table,
            buf,
            start,
            end,
            next_block: first,
            end_block,
            loaded: first,
            pos: 0,
            block_end: 0,
            row: None,
            rows: 0,
        }
    }

    /// Moves to the next row in range; `Ok(false)` once there is none.
    ///
    /// # Errors
    ///
    /// Propagates read errors, and returns `InvalidData` for an entry
    /// that runs past its block.
    pub(crate) fn advance(&mut self) -> std::io::Result<bool> {
        loop {
            if self.pos == self.block_end {
                if self.next_block == self.end_block {
                    self.row = None;
                    return Ok(false);
                }
                self.step_block()?;
                continue;
            }
            let at = self.pos;
            let row = decode_entry(&self.buf[at..self.block_end])?;
            self.pos += row.len;
            let key = &self.buf[at + row.key.start..at + row.key.end];
            if key < self.start {
                continue;
            }
            if self.end.is_some_and(|end| key >= end) {
                // Sorted: nothing later is in range either.
                self.end_block = self.next_block;
                self.block_end = self.pos;
                self.row = None;
                return Ok(false);
            }
            let shift = |r: Range<usize>| at + r.start..at + r.end;
            self.row = Some((shift(row.key), row.value.map(shift)));
            self.rows += 1;
            return Ok(true);
        }
    }

    /// The current row's key; `None` before the first row and once the
    /// cursor is exhausted.
    pub(crate) fn key(&self) -> Option<&[u8]> {
        self.row.as_ref().map(|(k, _)| &self.buf[k.clone()])
    }

    /// The current row's value; `None` for a tombstone.
    pub(crate) fn value(&self) -> Option<&[u8]> {
        self.row.as_ref().and_then(|(_, v)| v.clone()).map(|v| &self.buf[v])
    }

    /// Rows in range passed so far, tombstones included.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Enters block `next_block`, reading it and the blocks that follow
    /// it on disk, up to [`READ_CHUNK`] bytes, unless it is buffered.
    fn step_block(&mut self) -> std::io::Result<()> {
        let index = &self.table.index;
        let first = &index[self.next_block];
        if self.next_block == self.loaded {
            let mut len = first.len as usize;
            let mut run_end = self.next_block + 1;
            while let Some(e) = index[..self.end_block].get(run_end) {
                if e.offset != first.offset + len as u64 || len + e.len as usize > READ_CHUNK {
                    break;
                }
                len += e.len as usize;
                run_end += 1;
            }
            if self.buf.len() < len {
                self.buf.resize(len, 0);
            }
            self.table.file.read_exact_at(&mut self.buf[..len], first.offset)?;
            self.loaded = run_end;
            self.pos = 0;
            self.block_end = 0;
        }
        self.block_end += first.len as usize;
        self.next_block += 1;
        Ok(())
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// The staging path a table is written to before its atomic rename.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Streams data blocks, index, bloom and footer to `file`, returning
/// the in-memory index, the bloom filter and the total byte count.
fn write_table<W: Write>(
    file: &mut W,
    entries: &[(Vec<u8>, Entry)],
) -> std::io::Result<(Vec<IndexEntry>, BloomFilter, u64)> {
    let mut bloom = BloomFilter::for_items(entries.len().max(1), 0.01);
    let mut index = Vec::new();
    let mut block = Vec::with_capacity(BLOCK_TARGET * 2);
    let mut block_first: Option<Vec<u8>> = None;
    let mut offset = 0u64;

    let flush_block = |file: &mut W,
                       block: &mut Vec<u8>,
                       first: &mut Option<Vec<u8>>,
                       offset: &mut u64,
                       index: &mut Vec<IndexEntry>|
     -> std::io::Result<()> {
        if let Some(first_key) = first.take() {
            file.write_all(block)?;
            index.push(IndexEntry { first_key, offset: *offset, len: block.len() as u32 });
            *offset += block.len() as u64;
            block.clear();
        }
        Ok(())
    };

    for (key, entry) in entries {
        bloom.insert(key);
        if block_first.is_none() {
            block_first = Some(key.clone());
        }
        block.extend_from_slice(&(key.len() as u32).to_le_bytes());
        block.extend_from_slice(key);
        match entry {
            Entry::Tombstone => {
                block.push(1);
                block.extend_from_slice(&0u32.to_le_bytes());
            }
            Entry::Value(v) => {
                block.push(0);
                block.extend_from_slice(&(v.len() as u32).to_le_bytes());
                block.extend_from_slice(v);
            }
        }
        if block.len() >= BLOCK_TARGET {
            flush_block(file, &mut block, &mut block_first, &mut offset, &mut index)?;
        }
    }
    flush_block(file, &mut block, &mut block_first, &mut offset, &mut index)?;

    // Index section.
    let index_off = offset;
    let mut index_bytes = Vec::new();
    index_bytes.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for e in &index {
        index_bytes.extend_from_slice(&(e.first_key.len() as u32).to_le_bytes());
        index_bytes.extend_from_slice(&e.first_key);
        index_bytes.extend_from_slice(&e.offset.to_le_bytes());
        index_bytes.extend_from_slice(&e.len.to_le_bytes());
    }
    file.write_all(&index_bytes)?;

    // Bloom section.
    let bloom_off = index_off + index_bytes.len() as u64;
    let bloom_bytes = bloom.to_bytes();
    file.write_all(&bloom_bytes)?;

    // Footer.
    let mut footer = Vec::with_capacity(48);
    footer.extend_from_slice(&index_off.to_le_bytes());
    footer.extend_from_slice(&(index_bytes.len() as u64).to_le_bytes());
    footer.extend_from_slice(&bloom_off.to_le_bytes());
    footer.extend_from_slice(&(bloom_bytes.len() as u64).to_le_bytes());
    footer.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    footer.extend_from_slice(&MAGIC.to_le_bytes());
    file.write_all(&footer)?;
    file.flush()?;
    let file_bytes = bloom_off + bloom_bytes.len() as u64 + 48;
    Ok((index, bloom, file_bytes))
}

fn parse_index(bytes: &[u8]) -> Option<Vec<IndexEntry>> {
    let mut s = bytes;
    let count = read_u32(&mut s)? as usize;
    let mut index = Vec::with_capacity(count);
    for _ in 0..count {
        let klen = read_u32(&mut s)? as usize;
        if s.len() < klen {
            return None;
        }
        let (key, rest) = s.split_at(klen);
        s = rest;
        let offset = read_u64(&mut s)?;
        let len = read_u32(&mut s)?;
        index.push(IndexEntry { first_key: key.to_vec(), offset, len });
    }
    Some(index)
}

fn read_u32(s: &mut &[u8]) -> Option<u32> {
    if s.len() < 4 {
        return None;
    }
    let (head, tail) = s.split_at(4);
    *s = tail;
    Some(u32::from_le_bytes(head.try_into().ok()?))
}

fn read_u64(s: &mut &[u8]) -> Option<u64> {
    if s.len() < 8 {
        return None;
    }
    let (head, tail) = s.split_at(8);
    *s = tail;
    Some(u64::from_le_bytes(head.try_into().ok()?))
}

/// Where one encoded entry's parts sit in the slice it was decoded
/// from, and how long the entry is.
struct Decoded {
    key: Range<usize>,
    /// `None` for a tombstone.
    value: Option<Range<usize>>,
    len: usize,
}

/// Decodes the entry at the start of `block`, the rest of one data
/// block.
///
/// # Errors
///
/// Returns `InvalidData` if the entry runs past the block.
fn decode_entry(block: &[u8]) -> std::io::Result<Decoded> {
    let damaged = || invalid("entry runs past its block");
    let mut s = block;
    let klen = read_u32(&mut s).ok_or_else(damaged)? as usize;
    if s.len() < klen.saturating_add(5) {
        return Err(damaged());
    }
    let key = 4..4 + klen;
    let tomb = s[klen] == 1;
    s = &s[klen + 1..];
    let vlen = read_u32(&mut s).ok_or_else(damaged)? as usize;
    if s.len() < vlen {
        return Err(damaged());
    }
    let value = key.end + 5..key.end + 5 + vlen;
    let len = value.end;
    Ok(Decoded { key, value: (!tomb).then_some(value), len })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bdb-sst-{}-{name}.sst", std::process::id()))
    }

    fn sample_entries(n: usize) -> Vec<(Vec<u8>, Entry)> {
        (0..n)
            .map(|i| {
                let key = format!("key{i:08}").into_bytes();
                if i % 10 == 3 {
                    (key, Entry::Tombstone)
                } else {
                    (key, Entry::Value(format!("value-{i}").into_bytes()))
                }
            })
            .collect()
    }

    #[test]
    fn build_get_roundtrip() {
        let path = tmp("roundtrip");
        let entries = sample_entries(1000);
        let table = SsTable::build(&path, &entries).unwrap();
        assert_eq!(table.len(), 1000);
        assert!(table.block_count() > 1, "should span multiple blocks");
        for (k, e) in entries.iter().step_by(37) {
            assert_eq!(table.get(k).unwrap().as_ref(), Some(e));
        }
        assert_eq!(table.get(b"nope").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rereads_metadata() {
        let path = tmp("open");
        let entries = sample_entries(500);
        let built = SsTable::build(&path, &entries).unwrap();
        let opened = SsTable::open(&path).unwrap();
        assert_eq!(opened.len(), built.len());
        assert_eq!(opened.block_count(), built.block_count());
        assert_eq!(opened.get(b"key00000042").unwrap(), built.get(b"key00000042").unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_corrupt_footer() {
        let path = tmp("corrupt");
        SsTable::build(&path, &sample_entries(10)).unwrap();
        let good = std::fs::read(&path).unwrap();
        let n = good.len();
        let mut bytes = good.clone();
        bytes[n - 1] ^= 0xFF; // clobber magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(SsTable::open(&path).is_err());
        // An index length reaching past the footer is refused before
        // anything is allocated for it.
        let mut bytes = good;
        bytes[n - 40..n - 32].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = SsTable::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    /// Every row a cursor over `[start, end)` passes, owned.
    fn rows(table: &SsTable, start: &[u8], end: Option<&[u8]>) -> Vec<(Vec<u8>, Entry)> {
        let mut buf = Vec::new();
        let mut cursor = Cursor::new(table, &mut buf, start, end);
        let mut out = Vec::new();
        while cursor.advance().unwrap() {
            let entry = cursor.value().map_or(Entry::Tombstone, |v| Entry::Value(v.to_vec()));
            out.push((cursor.key().unwrap().to_vec(), entry));
        }
        assert_eq!(cursor.rows(), out.len());
        out
    }

    #[test]
    fn cursor_reads_every_entry_in_order() {
        let path = tmp("iter");
        let entries = sample_entries(300);
        let table = SsTable::build(&path, &entries).unwrap();
        assert_eq!(rows(&table, b"", None), entries);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cursor_respects_bounds() {
        let path = tmp("scan");
        let entries = sample_entries(200);
        let table = SsTable::build(&path, &entries).unwrap();
        let out = rows(&table, b"key00000050", Some(b"key00000060"));
        assert_eq!(out, entries[50..60]);
        // Before all keys, after all keys, and an empty range.
        assert!(rows(&table, b"a", Some(b"b")).is_empty());
        assert!(rows(&table, b"z", Some(b"zz")).is_empty());
        assert!(rows(&table, b"key00000050", Some(b"key00000050")).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cursor_crosses_read_chunks_and_oversized_blocks() {
        let path = tmp("chunks");
        // 1..=40 KiB values: many blocks hold one entry, some alone
        // exceed a read chunk, and runs of small ones share a read.
        let entries: Vec<(Vec<u8>, Entry)> = (0..120u32)
            .map(|i| {
                let key = format!("key{i:08}").into_bytes();
                let len = if i % 7 == 0 { 70 << 10 } else { (i as usize * 337) % (40 << 10) + 1 };
                let entry =
                    if i % 11 == 5 { Entry::Tombstone } else { Entry::Value(vec![i as u8; len]) };
                (key, entry)
            })
            .collect();
        let table = SsTable::build(&path, &entries).unwrap();
        assert_eq!(rows(&table, b"", None), entries);
        assert_eq!(rows(&table, b"key00000013", Some(b"key00000101")), entries[13..101]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_table() {
        let path = tmp("empty");
        let table = SsTable::build(&path, &[]).unwrap();
        assert!(table.is_empty());
        assert_eq!(table.get(b"x").unwrap(), None);
        assert!(rows(&table, b"", None).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keys_before_first_block_miss() {
        let path = tmp("before");
        let entries = sample_entries(100);
        let table = SsTable::build(&path, &entries).unwrap();
        assert_eq!(table.block_for(b"aaa"), None);
        assert_eq!(table.get(b"aaa").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_build_publishes_nothing() {
        let path = tmp("atomic");
        let _ = std::fs::remove_file(&path);
        let plan = bdb_faults::FaultPlan::builder(11).torn_write_nth("sst.test.write", 0).build();
        let err = SsTable::build_with(&path, &sample_entries(1000), &plan, "sst.test.write")
            .expect_err("torn write must fail the build");
        assert!(bdb_faults::is_injected(&err));
        assert!(!path.exists(), "no partial table at the final path");
        assert!(!tmp_path(&path).exists(), "partial tmp file removed");
        // A later, fault-free attempt at the same path succeeds cleanly.
        let table = SsTable::build(&path, &sample_entries(1000)).unwrap();
        assert_eq!(table.len(), 1000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn remove_file_deletes() {
        let path = tmp("remove");
        let table = SsTable::build(&path, &sample_entries(10)).unwrap();
        assert!(path.exists());
        table.remove_file().unwrap();
        assert!(!path.exists());
    }
}
