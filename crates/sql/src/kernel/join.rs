//! Partitioned hash join over typed key columns.
//!
//! Build and probe both run morsel-parallel: the build side is hashed
//! and split into [`PARTITIONS`] disjoint [`BuildTable`]s. Each
//! partition's table reads its per-morsel row lists in morsel order, so
//! every chain of equal-hash rows keeps global row order. Probe morsels
//! then look up their partition's table independently. Matches
//! materialize late — only matched rows gather their payload columns —
//! and per-morsel outputs concatenate in morsel order, so the result
//! row order is exactly the row oracle's probe order.

use super::agg::{partition_of, MorselPartitions, PARTITIONS};
use super::project::gather_row;
use super::{concat, for_each_index, for_each_morsel, U64Map};
use crate::column::ColumnarTable;
use crate::value::Value;
use bdb_telemetry::{span, SpanRecorder};
use std::collections::hash_map::Entry;

/// End of a [`BuildTable`] chain: past every entry index, since row
/// ids are `u32`.
const NONE: u32 = u32::MAX;

/// The build side of a hash join: each key hash maps to the first and
/// last entry of a chain of build rows, appended in insertion order.
/// One map entry per distinct hash and one `(row, next)` pair per row,
/// with no per-key allocation.
#[derive(Debug)]
pub(crate) struct BuildTable {
    /// Key hash → (first, last) entry of its chain.
    heads: U64Map<(u32, u32)>,
    /// Entry → (build row, next entry of the same hash or [`NONE`]).
    chain: Vec<(u32, u32)>,
}

impl BuildTable {
    /// An empty table sized for `rows` build rows.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        Self {
            heads: U64Map::with_capacity_and_hasher(rows, Default::default()),
            chain: Vec::with_capacity(rows),
        }
    }

    /// Appends `row` to the chain of `h`.
    pub(crate) fn insert(&mut self, h: u64, row: u32) {
        let e = self.chain.len() as u32;
        self.chain.push((row, NONE));
        match self.heads.entry(h) {
            Entry::Occupied(mut o) => {
                let (_, tail) = o.get_mut();
                self.chain[*tail as usize].1 = e;
                *tail = e;
            }
            Entry::Vacant(v) => {
                v.insert((e, e));
            }
        }
    }

    /// The build rows whose key hash is `h`, in insertion order.
    pub(crate) fn matches(&self, h: u64) -> impl Iterator<Item = usize> + '_ {
        let mut e = self.heads.get(&h).map_or(NONE, |&(head, _)| head);
        std::iter::from_fn(move || {
            let &(row, next) = self.chain.get(e as usize)?;
            e = next;
            Some(row as usize)
        })
    }

    /// Distinct key hashes.
    pub(crate) fn keys(&self) -> usize {
        self.heads.len()
    }
}

/// Morsel-parallel partitioned hash join; returns `left.row ++
/// right.row` for every match, in probe order.
pub(crate) fn join_parallel(
    left: &ColumnarTable,
    li: usize,
    right: &ColumnarTable,
    ri: usize,
    telemetry: &SpanRecorder,
) -> Vec<Vec<Value>> {
    // Build pass 1: hash the left key column into partitions; NULL
    // never joins.
    let per_morsel = for_each_morsel(left.len(), |m, rows| {
        let _s = span!(telemetry, "sql", "build-morsel", morsel = m, rows = rows.len());
        MorselPartitions::new(left.column(li), rows, true)
    });
    // Build pass 2: one table per partition, reading the morsels' lists
    // in morsel order so chains keep row order.
    let tables: Vec<BuildTable> = for_each_index(PARTITIONS, |p| {
        let mut span = span!(telemetry, "sql", "build-partition", partition = p);
        let mut table =
            BuildTable::with_capacity(per_morsel.iter().map(|parts| parts.part(p).len()).sum());
        for &(row, h) in per_morsel.iter().flat_map(|parts| parts.part(p)) {
            table.insert(h, row);
        }
        span.arg("keys", table.keys());
        table
    });
    // Probe: morsels of the right table look up their partition table
    // and materialize matches late.
    let lcols: Vec<usize> = (0..left.schema().arity()).collect();
    let rcols: Vec<usize> = (0..right.schema().arity()).collect();
    let out_per_morsel = for_each_morsel(right.len(), |m, rows| {
        let mut span = span!(telemetry, "sql", "probe-morsel", morsel = m, rows = rows.len());
        let col = right.column(ri);
        let lkey = left.column(li);
        let mut out = Vec::new();
        for row in rows {
            let key = col.value_ref(row);
            if key.is_null() {
                continue;
            }
            let h = key.hash64();
            for lrow in tables[partition_of(h)].matches(h) {
                // Re-check equality (hash collisions).
                if lkey.value_ref(lrow).total_cmp(&key) == std::cmp::Ordering::Equal {
                    let mut joined = Vec::with_capacity(lcols.len() + rcols.len());
                    gather_row(left, &lcols, lrow, &mut joined);
                    gather_row(right, &rcols, row, &mut joined);
                    out.push(joined);
                }
            }
        }
        span.arg("output_rows", out.len());
        out
    });
    concat(out_per_morsel)
}
