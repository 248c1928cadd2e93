//! The labeled series store: append-only Gorilla blocks of
//! [`BLOCK_SAMPLES`] samples per series, kept for the store's life, and
//! a byte-deterministic snapshot format.

use crate::gorilla;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A series identity: metric name plus a sorted label set. Labels are
/// sorted and deduplicated on construction so equal label sets always
/// compare (and serialize) identically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name (e.g. `cluster.replication_lag_bytes`).
    pub name: String,
    /// Sorted `(key, value)` labels (e.g. `node`, `workload`, `phase`).
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// A key for `name` with `labels` (sorted internally).
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
        labels.sort();
        labels.dedup();
        Self { name: name.to_owned(), labels }
    }

    /// The value of label `key`, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// `name{k="v",...}` rendering for dashboards and debugging.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = self.name.clone();
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
        out
    }
}

/// One sealed, compressed run of samples.
#[derive(Debug, Clone)]
pub struct Block {
    /// Timestamp of the first sample, microseconds.
    pub start_us: u64,
    /// Timestamp of the last sample, microseconds.
    pub end_us: u64,
    /// Samples in the block.
    pub count: u32,
    /// Gorilla-encoded payload.
    pub data: Vec<u8>,
}

impl Block {
    fn seal(samples: &[(u64, f64)]) -> Self {
        Self {
            start_us: samples.first().map_or(0, |s| s.0),
            end_us: samples.last().map_or(0, |s| s.0),
            count: samples.len() as u32,
            data: gorilla::encode(samples),
        }
    }

    fn samples(&self) -> Vec<(u64, f64)> {
        gorilla::decode(&self.data, self.count as usize)
    }
}

#[derive(Debug, Default)]
struct Series {
    /// Raw sealed blocks, oldest first.
    raw: Vec<Block>,
    /// Open raw samples not yet sealed.
    open: Vec<(u64, f64)>,
    last_us: Option<u64>,
}

impl Series {
    fn all_samples(&self, t0: u64, t1: u64) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        let in_range = |s: &(u64, f64)| s.0 >= t0 && s.0 <= t1;
        for block in &self.raw {
            if block.end_us < t0 || block.start_us > t1 {
                continue;
            }
            out.extend(block.samples().into_iter().filter(in_range));
        }
        out.extend(self.open.iter().copied().filter(in_range));
        out.sort_by_key(|&(t, _)| t);
        out
    }
}

/// Samples per sealed block.
pub const BLOCK_SAMPLES: usize = 120;

/// The embedded time-series database: a deterministic map of
/// [`SeriesKey`] → compressed sample history.
#[derive(Debug, Default)]
pub struct Tsdb {
    series: BTreeMap<SeriesKey, Series>,
}

/// Snapshot magic + version.
const MAGIC: &[u8; 8] = b"BDBTSDB1";

impl Tsdb {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Series currently stored.
    #[must_use]
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Every stored series key, in deterministic (sorted) order.
    pub fn keys(&self) -> impl Iterator<Item = &SeriesKey> {
        self.series.keys()
    }

    /// Appends one sample. Timestamps must be non-decreasing per
    /// series; equal timestamps overwrite nothing and append in order.
    ///
    /// # Panics
    ///
    /// Panics if `t_us` precedes the series' newest sample.
    pub fn append(&mut self, key: &SeriesKey, t_us: u64, value: f64) {
        let series = self.series.entry(key.clone()).or_default();
        if let Some(last) = series.last_us {
            assert!(t_us >= last, "tsdb: series {} fed out of time order", key.render());
        }
        series.last_us = Some(t_us);
        series.open.push((t_us, value));
        if series.open.len() >= BLOCK_SAMPLES {
            series.raw.push(Block::seal(&series.open));
            series.open.clear();
        }
    }

    /// All samples of `key` in `[t0, t1]`, oldest first.
    #[must_use]
    pub fn samples(&self, key: &SeriesKey, t0: u64, t1: u64) -> Vec<(u64, f64)> {
        self.series.get(key).map(|s| s.all_samples(t0, t1)).unwrap_or_default()
    }

    /// Serializes the store to the byte-deterministic snapshot format:
    /// a fixed magic, then every series in sorted key order with its
    /// blocks (the open sample run is sealed into a final block on the
    /// way out; the store itself is not mutated). Two stores with equal
    /// contents produce identical bytes on any host. Each series also
    /// carries a count of downsampled summary blocks ahead of its
    /// blocks; the store keeps none, so the count is always 0.
    #[must_use]
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_u32(&mut out, self.series.len() as u32);
        for (key, series) in &self.series {
            write_str(&mut out, &key.name);
            write_u32(&mut out, key.labels.len() as u32);
            for (k, v) in &key.labels {
                write_str(&mut out, k);
                write_str(&mut out, v);
            }
            write_u32(&mut out, 0); // summary blocks
            let sealed_open = (!series.open.is_empty()).then(|| Block::seal(&series.open));
            write_u32(&mut out, (series.raw.len() + usize::from(sealed_open.is_some())) as u32);
            for block in series.raw.iter().chain(sealed_open.iter()) {
                write_u64(&mut out, block.start_us);
                write_u64(&mut out, block.end_us);
                write_u32(&mut out, block.count);
                write_u32(&mut out, block.data.len() as u32);
                out.extend_from_slice(&block.data);
            }
        }
        out
    }

    /// Parses a snapshot produced by [`Tsdb::snapshot_bytes`]. The
    /// loaded store queries identically and re-snapshots to the exact
    /// same bytes.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic, a truncated payload or a
    /// series with summary blocks.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> std::io::Result<Self> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> std::io::Result<&[u8]> {
            let end = pos.checked_add(n).filter(|&e| e <= bytes.len());
            let end = end.ok_or_else(|| bad("tsdb snapshot: truncated"))?;
            let slice = &bytes[*pos..end];
            *pos = end;
            Ok(slice)
        };
        if take(&mut pos, MAGIC.len())? != MAGIC {
            return Err(bad("tsdb snapshot: bad magic"));
        }
        let read_u32 = |pos: &mut usize| -> std::io::Result<u32> {
            Ok(u32::from_le_bytes(take(pos, 4)?.try_into().expect("4 bytes")))
        };
        let read_u64 = |pos: &mut usize| -> std::io::Result<u64> {
            Ok(u64::from_le_bytes(take(pos, 8)?.try_into().expect("8 bytes")))
        };
        let read_str = |pos: &mut usize| -> std::io::Result<String> {
            let len = read_u32(pos)? as usize;
            String::from_utf8(take(pos, len)?.to_vec())
                .map_err(|_| bad("tsdb snapshot: invalid utf-8"))
        };
        let mut db = Tsdb::new();
        let n_series = read_u32(&mut pos)?;
        for _ in 0..n_series {
            let name = read_str(&mut pos)?;
            let n_labels = read_u32(&mut pos)?;
            let mut labels = Vec::with_capacity(n_labels as usize);
            for _ in 0..n_labels {
                labels.push((read_str(&mut pos)?, read_str(&mut pos)?));
            }
            let key = SeriesKey { name, labels };
            if read_u32(&mut pos)? != 0 {
                return Err(bad("tsdb snapshot: summary blocks are not supported"));
            }
            let mut series = Series::default();
            for _ in 0..read_u32(&mut pos)? {
                let start_us = read_u64(&mut pos)?;
                let end_us = read_u64(&mut pos)?;
                let count = read_u32(&mut pos)?;
                let len = read_u32(&mut pos)? as usize;
                let data = take(&mut pos, len)?.to_vec();
                series.last_us = Some(end_us);
                series.raw.push(Block { start_us, end_us, count, data });
            }
            db.series.insert(key, series);
        }
        if pos != bytes.len() {
            return Err(bad("tsdb snapshot: trailing bytes"));
        }
        Ok(db)
    }
}

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str, node: &str) -> SeriesKey {
        SeriesKey::new(name, &[("node", node), ("workload", "test")])
    }

    #[test]
    fn label_sets_are_canonicalized() {
        let a = SeriesKey::new("m", &[("b", "2"), ("a", "1")]);
        let b = SeriesKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "m{a=\"1\",b=\"2\"}");
        assert_eq!(a.label("b"), Some("2"));
        assert_eq!(a.label("c"), None);
    }

    #[test]
    fn append_seals_blocks_and_queries_ranges() {
        let mut db = Tsdb::new();
        let k = key("m", "node-0");
        for i in 0..250u64 {
            db.append(&k, i * 100, i as f64);
        }
        assert_eq!(db.series[&k].raw.len(), 2, "240 samples sealed at BLOCK_SAMPLES/block");
        let all = db.samples(&k, 0, u64::MAX);
        assert_eq!(all.len(), 250, "sealed + open samples all visible");
        // A range across the first block boundary (sample 120).
        let mid = db.samples(&k, 11_500, 12_500);
        assert_eq!(mid.len(), 11);
        assert_eq!(mid[0], (11_500, 115.0));
        assert_eq!(mid[10], (12_500, 125.0));
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let build = || {
            let mut db = Tsdb::new();
            for node in ["node-0", "node-1"] {
                let k = key("cluster.applies_total", node);
                for i in 0..300u64 {
                    db.append(&k, i * 250, (i * 3) as f64);
                }
            }
            db
        };
        let db = build();
        let k = key("cluster.applies_total", "node-0");
        assert_eq!(db.series[&k].raw.len(), 2, "sealed blocks plus an open run");
        let a = db.snapshot_bytes();
        let b = build().snapshot_bytes();
        assert_eq!(a, b, "same inputs snapshot to identical bytes");

        let loaded = Tsdb::from_snapshot_bytes(&a).expect("parses");
        assert_eq!(loaded.snapshot_bytes(), a, "load + re-snapshot is identity");
        assert_eq!(loaded.samples(&k, 0, u64::MAX), db.samples(&k, 0, u64::MAX));
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(Tsdb::from_snapshot_bytes(b"nonsense").is_err());
        let mut ok = Tsdb::new().snapshot_bytes();
        ok.push(0xFF);
        assert!(Tsdb::from_snapshot_bytes(&ok).is_err());

        // One series `m` with no labels: magic, series count, name,
        // label count, then the summary-block count at byte 21.
        let mut db = Tsdb::new();
        db.append(&SeriesKey::new("m", &[]), 0, 1.0);
        let mut summary = db.snapshot_bytes();
        assert_eq!(summary[21..25], [0; 4]);
        summary[21] = 1;
        let err = Tsdb::from_snapshot_bytes(&summary).expect_err("summary blocks rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_appends_panic() {
        let mut db = Tsdb::new();
        let k = key("m", "n");
        db.append(&k, 100, 1.0);
        db.append(&k, 50, 2.0);
    }
}
