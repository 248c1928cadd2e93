//! Hash aggregation over column batches.
//!
//! The parallel path is hash-partitioned so float accumulation stays
//! bit-identical to the row oracle: rows are split by group hash into
//! [`PARTITIONS`] disjoint partitions (a group lives wholly in one
//! partition), each morsel keeping one row list per partition. A
//! partition then aggregates its rows by reading those lists in morsel
//! order, which is global row order — every group's values are added in
//! exactly the order the single-threaded row oracle adds them,
//! regardless of worker count.

use super::{for_each_index, for_each_morsel, U64Map};
use crate::column::{ColumnVec, ColumnarTable};
use crate::exec::{Acc, Aggregation};
use crate::value::{Value, ValueRef};
use bdb_archsim::layout::splitmix64;
use bdb_telemetry::{span, SpanRecorder};
use std::ops::Range;

/// Number of hash partitions in the parallel paths (power of two).
pub(crate) const PARTITIONS: usize = 16;

/// The partition a group hash belongs to (any pure function of the
/// hash works; `splitmix64` decorrelates it from bucket selection).
pub(crate) fn partition_of(h: u64) -> usize {
    (splitmix64(h) & (PARTITIONS as u64 - 1)) as usize
}

/// One morsel's `(row, hash)` pairs grouped by partition, each
/// partition's pairs in row order.
#[derive(Debug)]
pub(crate) struct MorselPartitions {
    pairs: Vec<(u32, u64)>,
    /// Partition `p` holds `pairs[starts[p]..starts[p + 1]]`.
    starts: [u32; PARTITIONS + 1],
}

impl MorselPartitions {
    /// Pass 1 of the parallel aggregate and join: hashes `col` over
    /// `rows` and groups the rows by partition with a counting sort.
    /// With `skip_null`, NULL keys are left out (they never join).
    pub(crate) fn new(col: &ColumnVec, rows: Range<usize>, skip_null: bool) -> Self {
        let mut hashed = Vec::with_capacity(rows.len());
        let mut starts = [0u32; PARTITIONS + 1];
        for row in rows {
            let key = col.value_ref(row);
            if skip_null && key.is_null() {
                continue;
            }
            let h = key.hash64();
            let p = partition_of(h);
            starts[p + 1] += 1;
            hashed.push((row as u32, h, p as u8));
        }
        for p in 0..PARTITIONS {
            starts[p + 1] += starts[p];
        }
        let mut fill = starts;
        let mut pairs = vec![(0, 0); hashed.len()];
        for (row, h, p) in hashed {
            pairs[fill[p as usize] as usize] = (row, h);
            fill[p as usize] += 1;
        }
        Self { pairs, starts }
    }

    /// Partition `p`'s pairs, in row order.
    pub(crate) fn part(&self, p: usize) -> &[(u32, u64)] {
        &self.pairs[self.starts[p] as usize..self.starts[p + 1] as usize]
    }
}

/// Group state, keyed by the group hash exactly like the row oracle's
/// `aggregate`: each new hash gets the next dense group id, the row that
/// created it (whose key cell is the group key) and one accumulator per
/// aggregation in a flat, group-major vector.
#[derive(Debug, Default)]
pub(crate) struct GroupTable {
    /// Group hash → group id.
    ids: U64Map<u32>,
    /// Group id → its first row.
    first_rows: Vec<u32>,
    /// Group id `g` owns `accs[g * aggs.len()..(g + 1) * aggs.len()]`.
    accs: Vec<Acc>,
}

impl GroupTable {
    /// Folds one row into its group (creating it on first sight).
    pub(crate) fn update(
        &mut self,
        t: &ColumnarTable,
        acols: &[usize],
        aggs: &[Aggregation],
        row: usize,
        h: u64,
    ) {
        let next = self.first_rows.len() as u32;
        let g = *self.ids.entry(h).or_insert(next) as usize;
        if g == self.first_rows.len() {
            self.first_rows.push(row as u32);
            self.accs.extend(aggs.iter().map(|a| Acc::new(a.func)));
        }
        let width = aggs.len();
        for (acc, &c) in self.accs[g * width..(g + 1) * width].iter_mut().zip(acols) {
            acc.update(t.column(c).value_ref(row));
        }
    }

    /// Finalizes every group into its output row (the key, then one
    /// value per aggregation), in group-id order, and returns the rows
    /// with the first-row list [`sort_groups`] reads the keys from.
    pub(crate) fn into_rows(
        self,
        t: &ColumnarTable,
        gcol: usize,
        width: usize,
    ) -> (Vec<u32>, Vec<Vec<Value>>) {
        let col = t.column(gcol);
        let mut accs = self.accs.into_iter();
        let rows = self
            .first_rows
            .iter()
            .map(|&row| {
                let mut out = Vec::with_capacity(1 + width);
                out.push(col.value_ref(row as usize).to_value());
                out.extend(accs.by_ref().take(width).map(Acc::finish));
                out
            })
            .collect();
        (self.first_rows, rows)
    }
}

/// Orders finished groups (one [`GroupTable::into_rows`] result per
/// table) by group key, the row oracle's output order. Each key is read
/// once from its group's first row; the sort moves `(key, table, group)`
/// triples and each row then moves once into place.
pub(crate) fn sort_groups(
    t: &ColumnarTable,
    gcol: usize,
    mut tables: Vec<(Vec<u32>, Vec<Vec<Value>>)>,
) -> Vec<Vec<Value>> {
    let col = t.column(gcol);
    let mut order: Vec<(ValueRef<'_>, u32, u32)> = tables
        .iter()
        .enumerate()
        .flat_map(|(p, (first_rows, _))| {
            first_rows
                .iter()
                .enumerate()
                .map(move |(g, &row)| (col.value_ref(row as usize), p as u32, g as u32))
        })
        .collect();
    // Distinct groups have distinct keys, so the order is total.
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    order
        .into_iter()
        .map(|(_, p, g)| std::mem::take(&mut tables[p as usize].1[g as usize]))
        .collect()
}

/// Morsel-parallel partitioned hash aggregation.
pub(crate) fn aggregate_parallel(
    t: &ColumnarTable,
    gcol: usize,
    acols: &[usize],
    aggs: &[Aggregation],
    telemetry: &SpanRecorder,
) -> Vec<Vec<Value>> {
    // Pass 1: hash the group column morsel-by-morsel and split row ids
    // into partitions.
    let per_morsel = for_each_morsel(t.len(), |m, rows| {
        let mut span = span!(telemetry, "sql", "agg-morsel", morsel = m, rows = rows.len());
        let parts = MorselPartitions::new(t.column(gcol), rows, false);
        span.arg(
            "partitions_touched",
            (0..PARTITIONS).filter(|&p| !parts.part(p).is_empty()).count(),
        );
        parts
    });
    // Pass 2: aggregate partitions independently, each reading its
    // lists in morsel order: global row order within the partition, the
    // invariant float exactness rests on.
    let tables = for_each_index(PARTITIONS, |p| {
        let mut span = span!(telemetry, "sql", "agg-partition", partition = p);
        let mut gt = GroupTable::default();
        let mut rows = 0;
        for parts in &per_morsel {
            for &(row, h) in parts.part(p) {
                gt.update(t, acols, aggs, row as usize, h);
            }
            rows += parts.part(p).len();
        }
        span.arg("rows", rows);
        gt.into_rows(t, gcol, aggs.len())
    });
    sort_groups(t, gcol, tables)
}
