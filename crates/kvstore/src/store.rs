//! The full store: WAL + memtable + SSTables + compaction.

use crate::memtable::{Entry, Memtable};
use crate::sstable::{Cursor, SsTable};
use crate::trace::StoreTraceModel;
use crate::wal::{WalOp, WriteAheadLog};
use bdb_archsim::layout::{fnv1a, splitmix64};
use bdb_archsim::{NullProbe, Probe};
use bdb_faults::FaultPlan;
use bdb_telemetry::{span, Counter, MetricsRegistry, SpanRecorder};
use std::path::{Path, PathBuf};

/// Tuning knobs for [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Flush the memtable to an SSTable once it holds this many bytes.
    pub memtable_flush_bytes: usize,
    /// Run a full compaction when the number of SSTables exceeds this.
    pub max_tables: usize,
    /// Consult bloom filters on the read path (disable for ablation
    /// studies of the filters' value).
    pub use_bloom: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { memtable_flush_bytes: 8 << 20, max_tables: 8, use_bloom: true }
    }
}

/// Operation counters for one store instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Point lookups served.
    pub gets: u64,
    /// Mutations applied.
    pub puts: u64,
    /// Deletions applied.
    pub deletes: u64,
    /// Range scans served.
    pub scans: u64,
    /// SSTable lookups skipped thanks to a negative bloom filter.
    pub bloom_skips: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Full compactions run.
    pub compactions: u64,
}

/// Counter handles resolved once when a registry is attached — the
/// read path is hot, so per-get registry lookups are avoided.
#[derive(Debug)]
struct StoreCounters {
    bloom_hits: Counter,
    bloom_misses: Counter,
    wal_appends: Counter,
    flushes: Counter,
    compactions: Counter,
}

/// An LSM-tree store rooted at a directory.
///
/// See the crate docs for the architecture; [`Store::open`] recovers
/// state from the WAL and any SSTables found in the directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    wal: WriteAheadLog,
    memtable: Memtable,
    /// Newest first.
    tables: Vec<SsTable>,
    /// One read buffer per table cursor, kept from one scan or
    /// compaction to the next.
    read_bufs: Vec<Vec<u8>>,
    next_table_id: u64,
    stats: StoreStats,
    trace: Option<StoreTraceModel>,
    telemetry: SpanRecorder,
    counters: Option<StoreCounters>,
    faults: FaultPlan,
}

impl Store {
    /// Opens (or creates) a store in `dir` with default configuration.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from recovery.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        Self::open_with(dir, StoreConfig::default())
    }

    /// Opens (or creates) a store with explicit configuration, replaying
    /// the WAL and loading existing SSTables (newest first).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from recovery.
    pub fn open_with(dir: &Path, config: StoreConfig) -> std::io::Result<Self> {
        Self::open_with_faults(dir, config, FaultPlan::disabled())
    }

    /// [`Store::open_with`] with fault injection on the write paths:
    /// WAL appends pass through [`crate::sites::WAL_APPEND`], flush and
    /// compaction SSTable builds through [`crate::sites::FLUSH_WRITE`]
    /// and [`crate::sites::COMPACTION_WRITE`].
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from recovery.
    pub fn open_with_faults(
        dir: &Path,
        config: StoreConfig,
        faults: FaultPlan,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let wal_path = dir.join("wal.log");
        let mut memtable = Memtable::new();
        for op in WriteAheadLog::replay(&wal_path)? {
            match op {
                WalOp::Put(k, v) => {
                    memtable.put(k, v);
                }
                WalOp::Delete(k) => {
                    memtable.delete(k);
                }
            }
        }
        let wal = WriteAheadLog::open_with(&wal_path, faults.clone())?;
        Self::remove_stray_tmp(dir)?;
        let mut ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name.strip_prefix("table-").and_then(|s| s.strip_suffix(".sst")) {
                if let Ok(id) = id.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable_by(|a, b| b.cmp(a)); // newest (highest id) first
        let mut tables = Vec::with_capacity(ids.len());
        for id in &ids {
            tables.push(SsTable::open(&table_path(dir, *id))?);
        }
        let next_table_id = ids.first().map_or(0, |&m| m + 1);
        Ok(Self {
            dir: dir.to_owned(),
            config,
            wal,
            memtable,
            tables,
            read_bufs: Vec::new(),
            next_table_id,
            stats: StoreStats::default(),
            trace: None,
            telemetry: SpanRecorder::disabled(),
            counters: None,
            faults,
        })
    }

    /// Removes stray `*.tmp` files in `dir` — tables a crashed flush or
    /// compaction never published. [`Store::open_with_faults`] runs this
    /// during recovery; the cluster layer also runs it on a replica
    /// directory after a failed WAL-ship before the node rejoins, so a
    /// half-shipped table can never be mistaken for a published one.
    /// Returns the number of files removed.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors (a missing directory is fine: 0).
    pub fn remove_stray_tmp(dir: &Path) -> std::io::Result<usize> {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut removed = 0;
        for entry in entries {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Logical WAL position: bytes of whole records durably appended
    /// since open (see [`WriteAheadLog::offset`]). The replication
    /// layer records this per replica after each acknowledged ship and
    /// promotes the replica with the highest offset on failover.
    pub fn wal_offset(&self) -> u64 {
        self.wal.offset()
    }

    /// Enables read/write-path instrumentation for `*_with` operations.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(StoreTraceModel::new());
    }

    /// Attaches a span recorder: WAL appends, memtable flushes and
    /// compactions become spans on it (default: disabled, one branch
    /// per maintenance event).
    pub fn set_telemetry(&mut self, recorder: SpanRecorder) {
        self.telemetry = recorder;
    }

    /// Attaches a metrics registry: bloom-filter hit/miss and
    /// maintenance counters are published under `kvstore.*`.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.counters = Some(StoreCounters {
            bloom_hits: registry.counter("kvstore.bloom_hits"),
            bloom_misses: registry.counter("kvstore.bloom_misses"),
            wal_appends: registry.counter("kvstore.wal_appends"),
            flushes: registry.counter("kvstore.flushes"),
            compactions: registry.counter("kvstore.compactions"),
        });
    }

    /// Pre-touches the modeled server code (ramp-up); no-op without
    /// tracing.
    pub fn warm_trace<P: Probe + ?Sized>(&mut self, probe: &mut P) {
        if let Some(t) = self.trace.as_mut() {
            t.warm(probe);
        }
    }

    /// Operation counters so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of SSTables currently live.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Inserts or overwrites a row.
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> std::io::Result<()> {
        self.put_with(key, value, &mut NullProbe)
    }

    /// Instrumented [`Store::put`].
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors.
    pub fn put_with<P: Probe + ?Sized>(
        &mut self,
        key: Vec<u8>,
        value: Vec<u8>,
        probe: &mut P,
    ) -> std::io::Result<()> {
        self.stats.puts += 1;
        if let Some(t) = self.trace.as_mut() {
            t.on_op(probe);
            t.wal_append(probe, key.len() + value.len());
            t.memtable_walk(probe, fnv1a(&key), self.memtable.len(), true);
        }
        {
            let _wal =
                span!(self.telemetry, "kvstore", "wal-append", bytes = key.len() + value.len());
            self.wal.log_put(&key, &value)?;
        }
        if let Some(c) = &self.counters {
            c.wal_appends.inc();
        }
        self.memtable.put(key, value);
        self.maybe_flush(probe)
    }

    /// Deletes a row (writes a tombstone).
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors.
    pub fn delete(&mut self, key: &[u8]) -> std::io::Result<()> {
        self.delete_with(key, &mut NullProbe)
    }

    /// Instrumented [`Store::delete`].
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors.
    pub fn delete_with<P: Probe + ?Sized>(
        &mut self,
        key: &[u8],
        probe: &mut P,
    ) -> std::io::Result<()> {
        self.stats.deletes += 1;
        if let Some(t) = self.trace.as_mut() {
            t.on_op(probe);
            t.wal_append(probe, key.len());
            t.memtable_walk(probe, fnv1a(key), self.memtable.len(), true);
        }
        {
            let _wal = span!(self.telemetry, "kvstore", "wal-append", bytes = key.len());
            self.wal.log_delete(key)?;
        }
        if let Some(c) = &self.counters {
            c.wal_appends.inc();
        }
        self.memtable.delete(key.to_vec());
        self.maybe_flush(probe)
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Propagates SSTable I/O errors.
    pub fn get(&mut self, key: &[u8]) -> std::io::Result<Option<Vec<u8>>> {
        self.get_with(key, &mut NullProbe)
    }

    /// Instrumented [`Store::get`]: memtable first, then tables newest to
    /// oldest, honoring bloom filters and tombstones.
    ///
    /// # Errors
    ///
    /// Propagates SSTable I/O errors.
    pub fn get_with<P: Probe + ?Sized>(
        &mut self,
        key: &[u8],
        probe: &mut P,
    ) -> std::io::Result<Option<Vec<u8>>> {
        self.stats.gets += 1;
        if let Some(t) = self.trace.as_mut() {
            t.on_op(probe);
            t.memtable_walk(probe, fnv1a(key), self.memtable.len(), false);
        }
        if let Some(entry) = self.memtable.get(key) {
            return Ok(entry.value().map(<[u8]>::to_vec));
        }
        for (i, table) in self.tables.iter().enumerate() {
            let table_id = self.next_table_id.wrapping_sub(i as u64);
            if self.config.use_bloom {
                if let Some(t) = self.trace.as_mut() {
                    t.bloom_probe(probe, table_id, &table.bloom().probe_bits(key));
                }
                if !table.may_contain(key) {
                    self.stats.bloom_skips += 1;
                    if let Some(c) = &self.counters {
                        c.bloom_misses.inc();
                    }
                    continue;
                }
                if let Some(c) = &self.counters {
                    c.bloom_hits.inc();
                }
            }
            if let Some(t) = self.trace.as_mut() {
                t.index_search(probe, table_id, table.block_count());
            }
            if let Some(entry) = table.get(key)? {
                if let (Some(t), Some(b)) = (self.trace.as_mut(), table.block_for(key)) {
                    t.block_read(probe, table_id, b, 4096);
                }
                return Ok(match entry {
                    Entry::Value(v) => Some(v),
                    Entry::Tombstone => None,
                });
            }
        }
        Ok(None)
    }

    /// Range scan over `[start, end)`, newest version per key, tombstones
    /// elided. Returns key/value pairs in key order.
    ///
    /// # Errors
    ///
    /// Propagates SSTable I/O errors.
    pub fn scan(&mut self, start: &[u8], end: &[u8]) -> std::io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_with(start, end, &mut NullProbe)
    }

    /// Instrumented [`Store::scan`].
    ///
    /// # Errors
    ///
    /// Propagates SSTable I/O errors.
    pub fn scan_with<P: Probe + ?Sized>(
        &mut self,
        start: &[u8],
        end: &[u8],
        probe: &mut P,
    ) -> std::io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.stats.scans += 1;
        if let Some(t) = self.trace.as_mut() {
            t.on_op(probe);
        }
        let mut rows = Vec::new();
        let mut cursors = cursors(&self.tables, &mut self.read_bufs, start, Some(end));
        merge_live(self.memtable.range(start, end), &mut cursors, |k, v| {
            rows.push((k.to_vec(), v.to_vec()));
        })?;
        if let Some(t) = self.trace.as_mut() {
            // Oldest table first, then the memtable's rows.
            for (i, (table, cursor)) in self.tables.iter().zip(&cursors).enumerate().rev() {
                let table_id = self.next_table_id.wrapping_sub(i as u64);
                t.index_search(probe, table_id, table.block_count());
                t.block_read(probe, table_id, fnv1a(start) as usize, cursor.rows() * 64);
            }
            for (k, _) in self.memtable.range(start, end) {
                probe.load(splitmix64(fnv1a(k)) | 1 << 45, 64);
            }
        }
        Ok(rows)
    }

    /// Forces a memtable flush (used by tests and shutdown paths).
    ///
    /// # Errors
    ///
    /// Propagates SSTable build / WAL truncate errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.flush_with(&mut NullProbe)
    }

    fn maybe_flush<P: Probe + ?Sized>(&mut self, probe: &mut P) -> std::io::Result<()> {
        if self.memtable.bytes() >= self.config.memtable_flush_bytes {
            self.flush_with(probe)?;
        }
        Ok(())
    }

    fn flush_with<P: Probe + ?Sized>(&mut self, probe: &mut P) -> std::io::Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let flush_span =
            span!(self.telemetry, "kvstore", "memtable-flush", entries = self.memtable.len());
        let entries = self.memtable.drain_sorted();
        if let Some(t) = self.trace.as_mut() {
            // Flush reads the whole memtable arena once.
            t.block_read(probe, self.next_table_id, 0, entries.len() * 64);
        }
        let id = self.next_table_id;
        let table = match SsTable::build_with(
            &table_path(&self.dir, id),
            &entries,
            &self.faults,
            crate::sites::FLUSH_WRITE,
        ) {
            Ok(table) => table,
            Err(e) => {
                // The build published nothing; put the drained entries
                // back so every acknowledged write stays readable, and
                // leave the WAL untruncated so they also survive a
                // restart. The flush can simply be retried.
                for (k, entry) in entries {
                    match entry {
                        Entry::Value(v) => self.memtable.put(k, v),
                        Entry::Tombstone => self.memtable.delete(k),
                    };
                }
                if bdb_faults::is_injected(&e) {
                    self.faults.note_recovered(crate::sites::FLUSH_WRITE);
                }
                return Err(e);
            }
        };
        self.next_table_id = id + 1;
        self.tables.insert(0, table);
        self.wal.truncate()?;
        self.stats.flushes += 1;
        if let Some(c) = &self.counters {
            c.flushes.inc();
        }
        drop(flush_span); // release the recorder borrow before compacting
        if self.tables.len() > self.config.max_tables {
            self.compact()?;
        }
        Ok(())
    }

    /// Full compaction: merges every table into one, dropping shadowed
    /// versions and tombstones.
    ///
    /// # Errors
    ///
    /// Propagates SSTable I/O errors.
    pub fn compact(&mut self) -> std::io::Result<()> {
        if self.tables.len() <= 1 {
            return Ok(());
        }
        let _compact = span!(self.telemetry, "kvstore", "compaction", tables = self.tables.len());
        let mut entries = Vec::new();
        let mut cursors = cursors(&self.tables, &mut self.read_bufs, &[], None);
        merge_live(std::iter::empty(), &mut cursors, |k, v| {
            entries.push((k.to_vec(), Entry::Value(v.to_vec())));
        })?;
        drop(cursors);
        let id = self.next_table_id;
        let new_table = match SsTable::build_with(
            &table_path(&self.dir, id),
            &entries,
            &self.faults,
            crate::sites::COMPACTION_WRITE,
        ) {
            Ok(table) => table,
            Err(e) => {
                // Nothing was published and no input table was touched:
                // the store keeps serving from the old tables and the
                // compaction can be retried.
                if bdb_faults::is_injected(&e) {
                    self.faults.note_recovered(crate::sites::COMPACTION_WRITE);
                }
                return Err(e);
            }
        };
        self.next_table_id = id + 1;
        for old in self.tables.drain(..) {
            old.remove_file()?;
        }
        self.tables.push(new_table);
        self.stats.compactions += 1;
        if let Some(c) = &self.counters {
            c.compactions.inc();
        }
        Ok(())
    }
}

/// A cursor per table over `[start, end)`, newest first, each reading
/// into its own buffer of `bufs`, which grows to one per table.
fn cursors<'a>(
    tables: &'a [SsTable],
    bufs: &'a mut Vec<Vec<u8>>,
    start: &'a [u8],
    end: Option<&'a [u8]>,
) -> Vec<Cursor<'a>> {
    if bufs.len() < tables.len() {
        bufs.resize_with(tables.len(), Vec::new);
    }
    tables.iter().zip(bufs.iter_mut()).map(|(t, buf)| Cursor::new(t, buf, start, end)).collect()
}

/// K-way merge of the memtable rows `mem` over the table cursors
/// `tables` (newest first): `emit` sees each key once, in order, with
/// its newest version, and keys whose newest version is a tombstone not
/// at all. Shadowed versions are skipped where they lie, uncopied.
fn merge_live<'m>(
    mut mem: impl Iterator<Item = (&'m [u8], &'m Entry)>,
    tables: &mut [Cursor<'_>],
    mut emit: impl FnMut(&[u8], &[u8]),
) -> std::io::Result<()> {
    let mut mem_head = mem.next();
    for cursor in tables.iter_mut() {
        cursor.advance()?;
    }
    loop {
        // The smallest key; on a tie the memtable wins, then the newer
        // table, so only strictly smaller keys replace the leader.
        let mut min = mem_head.map(|(k, _)| k);
        let mut leader = None;
        for (i, cursor) in tables.iter().enumerate() {
            if let Some(k) = cursor.key() {
                if min.is_none_or(|m| k < m) {
                    min = Some(k);
                    leader = Some(i);
                }
            }
        }
        match (leader, mem_head) {
            (None, None) => return Ok(()),
            (None, Some((key, entry))) => {
                if let Entry::Value(v) = entry {
                    emit(key, v);
                }
                for cursor in tables.iter_mut() {
                    if cursor.key() == Some(key) {
                        cursor.advance()?;
                    }
                }
                mem_head = mem.next();
            }
            (Some(i), _) => {
                // Newer sources hold larger keys; older ones may shadow.
                let (newer, older) = tables.split_at_mut(i + 1);
                let leader = &mut newer[i];
                if let (Some(k), Some(v)) = (leader.key(), leader.value()) {
                    emit(k, v);
                }
                for cursor in older {
                    if cursor.key() == leader.key() {
                        cursor.advance()?;
                    }
                }
                leader.advance()?;
            }
        }
    }
}

fn table_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("table-{id:012}.sst"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdb-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(i: u32) -> Vec<u8> {
        format!("row{i:08}").into_bytes()
    }

    #[test]
    fn put_get_delete() {
        let dir = tmpdir("basic");
        let mut s = Store::open(&dir).unwrap();
        s.put(key(1), b"v1".to_vec()).unwrap();
        assert_eq!(s.get(&key(1)).unwrap(), Some(b"v1".to_vec()));
        s.put(key(1), b"v2".to_vec()).unwrap();
        assert_eq!(s.get(&key(1)).unwrap(), Some(b"v2".to_vec()));
        s.delete(&key(1)).unwrap();
        assert_eq!(s.get(&key(1)).unwrap(), None);
        assert_eq!(s.get(&key(2)).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_through_sstables_and_tombstones() {
        let dir = tmpdir("sst");
        let mut s = Store::open_with(
            &dir,
            StoreConfig { memtable_flush_bytes: 1 << 30, max_tables: 100, ..Default::default() },
        )
        .unwrap();
        for i in 0..500 {
            s.put(key(i), format!("val{i}").into_bytes()).unwrap();
        }
        s.flush().unwrap();
        s.delete(&key(10)).unwrap();
        s.flush().unwrap();
        assert_eq!(s.table_count(), 2);
        assert_eq!(s.get(&key(42)).unwrap(), Some(b"val42".to_vec()));
        assert_eq!(s.get(&key(10)).unwrap(), None, "tombstone in newer table wins");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_replays_wal() {
        let dir = tmpdir("recover");
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(key(1), b"persisted".to_vec()).unwrap();
            s.put(key(2), b"also".to_vec()).unwrap();
            s.delete(&key(2)).unwrap();
            // No flush: data only in WAL.
        }
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.get(&key(1)).unwrap(), Some(b"persisted".to_vec()));
        assert_eq!(s.get(&key(2)).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_loads_sstables() {
        let dir = tmpdir("recover-sst");
        {
            let mut s = Store::open(&dir).unwrap();
            for i in 0..100 {
                s.put(key(i), format!("v{i}").into_bytes()).unwrap();
            }
            s.flush().unwrap();
        }
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.table_count(), 1);
        assert_eq!(s.get(&key(50)).unwrap(), Some(b"v50".to_vec()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn automatic_flush_on_threshold() {
        let dir = tmpdir("autoflush");
        let mut s = Store::open_with(
            &dir,
            StoreConfig { memtable_flush_bytes: 4096, max_tables: 100, ..Default::default() },
        )
        .unwrap();
        for i in 0..500 {
            s.put(key(i), vec![b'x'; 64]).unwrap();
        }
        assert!(s.stats().flushes > 0, "should have auto-flushed");
        assert!(s.table_count() > 0);
        for i in (0..500).step_by(71) {
            assert_eq!(s.get(&key(i)).unwrap(), Some(vec![b'x'; 64]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_merges_and_drops_tombstones() {
        let dir = tmpdir("compact");
        let mut s = Store::open_with(
            &dir,
            StoreConfig { memtable_flush_bytes: 1 << 30, max_tables: 3, ..Default::default() },
        )
        .unwrap();
        for round in 0..4 {
            for i in 0..100 {
                s.put(key(i), format!("r{round}-{i}").into_bytes()).unwrap();
            }
            s.delete(&key(round)).unwrap();
            s.flush().unwrap();
        }
        assert!(s.stats().compactions > 0);
        assert_eq!(s.table_count(), 1, "full compaction leaves one table");
        // Newest round wins; deleted keys of the last round stay deleted.
        assert_eq!(s.get(&key(50)).unwrap(), Some(b"r3-50".to_vec()));
        assert_eq!(s.get(&key(3)).unwrap(), None);
        // Older deletions were overwritten by later rounds.
        assert_eq!(s.get(&key(0)).unwrap(), Some(b"r3-0".to_vec()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_merges_all_layers() {
        let dir = tmpdir("scan");
        let mut s = Store::open_with(
            &dir,
            StoreConfig { memtable_flush_bytes: 1 << 30, max_tables: 100, ..Default::default() },
        )
        .unwrap();
        for i in 0..50 {
            s.put(key(i), b"old".to_vec()).unwrap();
        }
        s.flush().unwrap();
        s.put(key(10), b"new".to_vec()).unwrap();
        s.delete(&key(11)).unwrap();
        let rows = s.scan(&key(9), &key(13)).unwrap();
        assert_eq!(
            rows,
            vec![(key(9), b"old".to_vec()), (key(10), b"new".to_vec()), (key(12), b"old".to_vec()),]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bloom_filters_skip_absent_keys() {
        let dir = tmpdir("bloom");
        let mut s = Store::open_with(
            &dir,
            StoreConfig { memtable_flush_bytes: 1 << 30, max_tables: 100, ..Default::default() },
        )
        .unwrap();
        for i in 0..200 {
            s.put(key(i), b"v".to_vec()).unwrap();
        }
        s.flush().unwrap();
        for i in 10_000..10_200 {
            assert_eq!(s.get(&key(i)).unwrap(), None);
        }
        assert!(s.stats().bloom_skips > 150, "bloom skips: {}", s.stats().bloom_skips);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_spans_and_counters_cover_lsm_maintenance() {
        let dir = tmpdir("telemetry");
        let mut s = Store::open_with(
            &dir,
            StoreConfig { memtable_flush_bytes: 4096, max_tables: 2, ..Default::default() },
        )
        .unwrap();
        let telemetry = SpanRecorder::enabled();
        let metrics = MetricsRegistry::new();
        s.set_telemetry(telemetry.clone());
        s.set_metrics(&metrics);
        for i in 0..500 {
            s.put(key(i), vec![b'x'; 64]).unwrap();
        }
        for i in 10_000..10_100 {
            assert_eq!(s.get(&key(i)).unwrap(), None);
        }
        let events = telemetry.events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("wal-append"), 500, "one span per logged mutation");
        assert!(count("memtable-flush") > 0, "flush threshold crossed");
        assert!(count("compaction") > 0, "max_tables=2 forces compaction");
        assert_eq!(metrics.counter("kvstore.wal_appends").get(), 500);
        assert_eq!(metrics.counter("kvstore.flushes").get(), s.stats().flushes);
        assert_eq!(metrics.counter("kvstore.compactions").get(), s.stats().compactions);
        assert_eq!(metrics.counter("kvstore.bloom_misses").get(), s.stats().bloom_skips);
        assert!(metrics.counter("kvstore.bloom_misses").get() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// This process's open descriptors whose target lies in `dir`.
    fn open_fds_in(dir: &Path) -> Vec<String> {
        std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
            .filter(|target| target.starts_with(dir))
            .map(|target| target.to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn open_handles_follow_the_live_tables() {
        let dir = tmpdir("fds");
        let mut s = Store::open_with(
            &dir,
            StoreConfig { memtable_flush_bytes: 1 << 30, max_tables: 3, ..Default::default() },
        )
        .unwrap();
        let dir = dir.canonicalize().unwrap();
        for round in 0..100 {
            for i in 0..40 {
                s.put(key(round * 13 + i), vec![round as u8; 200]).unwrap();
            }
            s.delete(&key(round)).unwrap();
            s.flush().unwrap();
            assert_eq!(s.get(&key(round * 13 + 39)).unwrap(), Some(vec![round as u8; 200]));
            assert!(!s.scan(&key(0), &key(2000)).unwrap().is_empty());
            let fds = open_fds_in(&dir);
            assert_eq!(fds.len(), s.table_count() + 1, "the tables and the WAL: {fds:?}");
            assert!(fds.iter().all(|fd| !fd.ends_with("(deleted)")), "{fds:?}");
        }
        assert!(s.stats().compactions >= 30, "compactions: {}", s.stats().compactions);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_ops_report_events() {
        use bdb_archsim::CountingProbe;
        let dir = tmpdir("traced");
        let mut s = Store::open(&dir).unwrap();
        s.enable_tracing();
        let mut probe = CountingProbe::default();
        s.put_with(key(1), b"v".to_vec(), &mut probe).unwrap();
        let _ = s.get_with(&key(1), &mut probe).unwrap();
        let mix = probe.mix();
        assert!(mix.other > 0, "server stack instructions recorded");
        assert!(mix.stores > 0 && mix.loads > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
