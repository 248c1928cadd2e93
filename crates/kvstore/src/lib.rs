//! An LSM-tree key-value store — the HBase stand-in of BigDataBench-RS.
//!
//! The paper's "Cloud OLTP" workloads (Read, Write, Scan; Table 4) run
//! against HBase 0.94.5. HBase is a log-structured merge store, so this
//! crate implements that architecture from scratch:
//!
//! * a **write-ahead log** ([`wal`]) for durability,
//! * an in-memory sorted **memtable** ([`memtable`]),
//! * immutable sorted **SSTables** on disk with sparse block indexes and
//!   **bloom filters** ([`sstable`], [`bloom`]),
//! * **full compaction** ([`store`]): the put whose flush pushes the
//!   table count past [`StoreConfig::max_tables`] merges every table into
//!   one, inline, dropping shadowed versions and tombstones.
//!
//! Each SSTable keeps its file open and reads it positionally. Point
//! reads consult the memtable, then newest-to-oldest SSTables, skipping
//! tables whose bloom filter rejects the key, and decode the one block
//! in place. Scans and compaction are one k-way merge over the memtable
//! range and a cursor per table; a cursor reads runs of consecutive
//! blocks, up to 64 KiB a read, into a buffer the store keeps between
//! calls, and only each key's newest live version is copied out. A
//! block whose entry runs past its end is an `InvalidData` error, not a
//! short read. All operations have `*_with` variants threading a
//! [`bdb_archsim::Probe`], which reports the loads a real LSM read path
//! performs (memtable search, bloom probes, index binary search, block
//! fetch) so Cloud OLTP workloads can be micro-architecturally
//! characterized.
//!
//! # Example
//!
//! ```
//! use bdb_kvstore::Store;
//!
//! # fn main() -> std::io::Result<()> {
//! let dir = std::env::temp_dir().join(format!("bdb-kv-{}", std::process::id()));
//! let mut store = Store::open(&dir)?;
//! store.put(b"row1".to_vec(), b"value".to_vec())?;
//! assert_eq!(store.get(b"row1")?, Some(b"value".to_vec()));
//! store.delete(b"row1")?;
//! assert_eq!(store.get(b"row1")?, None);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod memtable;
pub mod sstable;
pub mod store;
pub mod trace;
pub mod wal;

pub use bloom::BloomFilter;
pub use memtable::Memtable;
pub use sstable::SsTable;
pub use store::{Store, StoreConfig, StoreStats};
pub use trace::StoreTraceModel;
pub use wal::WriteAheadLog;

/// Fault-injection site names consulted by the store's write paths.
/// Pass these to a [`bdb_faults::FaultPlan`] (via
/// [`Store::open_with_faults`]) to target the matching crash point.
pub mod sites {
    /// I/O site covering every WAL record write; a torn write here
    /// models a crash mid-append, recovered by prefix replay on reopen.
    pub const WAL_APPEND: &str = "kvstore.wal.append";
    /// I/O site covering SSTable writes during a memtable flush; a
    /// failure here models a crash mid-flush, recovered by keeping the
    /// memtable and WAL intact and never publishing the partial table.
    pub const FLUSH_WRITE: &str = "kvstore.flush.write";
    /// I/O site covering SSTable writes during compaction; a failure
    /// here models a crash mid-compaction, recovered by keeping every
    /// input table live.
    pub const COMPACTION_WRITE: &str = "kvstore.compaction.write";
}
