//! Vectorized columnar execution: morsel-driven batched kernels.
//!
//! This is the engine behind the query workloads. Each operator runs
//! over a [`ColumnarTable`] in fixed-size morsels of [`MORSEL`] rows:
//!
//! * **scan/filter** ([`select`]) — a compiled predicate evaluates each
//!   morsel with typed branch-light loops into a Kleene tri-state
//!   vector, producing a selection vector; projection columns are
//!   gathered late, only for selected rows;
//! * **hash aggregation** ([`aggregate`]) — group hashes are computed
//!   per morsel and rows are hash-partitioned so partitions aggregate
//!   in parallel while keeping float accumulation bit-identical to the
//!   row oracle;
//! * **partitioned hash join** ([`hash_join`]) — typed key columns are
//!   hashed into per-partition tables, probed morsel-parallel, with
//!   late materialization of matched rows only.
//!
//! Both hash operators split rows into per-morsel partition lists, and
//! each partition reads its lists straight from the morsels in morsel
//! order (global row order) — nothing copies them into one list first.
//! Their tables are flat: one `U64Map` entry per distinct key hash
//! (a dense group id, or the two ends of a build chain) over plain
//! vectors of accumulators or `(row, next)` chain links, with no
//! per-group or per-key allocation. Per-morsel outputs are moved into
//! one vector allocated at their summed length.
//!
//! The plain and `_instrumented` forms schedule morsels across worker
//! threads (claimed from an atomic counter, results merged in morsel
//! index order, so results are identical for any worker count — the
//! same deterministic worker-pool convention as `bdb-mapreduce`), with
//! one `bdb-telemetry` span per morsel. The `_traced` forms run the
//! same kernels single-threaded under an architectural [`Probe`] with
//! `scan`/`filter`/`agg`/`build`/`probe` phase marks, reading columns
//! through the [`SqlTraceModel`]'s cacheline-granular columnar address
//! model. The row-at-a-time operators in [`crate::exec`] remain as the
//! differential-testing oracle: every kernel returns exactly the rows,
//! values and row order the oracle returns.

mod agg;
mod filter;
mod join;
mod project;

use crate::column::ColumnarTable;
use crate::exec::{AggregateFn, Aggregation};
use crate::expr::Expr;
use crate::schema::{ColumnType, Schema};
use crate::trace::SqlTraceModel;
use crate::value::Value;
use crate::SqlError;
use bdb_telemetry::{span, SpanRecorder};
use filter::CompiledFilter;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use bdb_archsim::Probe;

/// Rows per morsel: big enough to amortize per-batch overhead, small
/// enough that a morsel's working set stays cache-resident.
pub const MORSEL: usize = 1024;

/// The morsel row ranges covering `rows`.
fn morsel_ranges(rows: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    (0..rows.div_ceil(MORSEL)).map(move |m| (m, m * MORSEL..((m + 1) * MORSEL).min(rows)))
}

/// Runs `f` once per index in `0..n` across worker threads and returns
/// results in index order (deterministic for any worker count).
fn for_each_index<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(4, |w| w.get()).clamp(1, n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("result slot") = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot").expect("every index ran"))
        .collect()
}

/// Concatenates per-morsel outputs in morsel order into one vector
/// allocated once at the summed length.
fn concat<T>(per_morsel: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(per_morsel.iter().map(Vec::len).sum());
    for mut part in per_morsel {
        out.append(&mut part);
    }
    out
}

/// A hash map keyed by a `hash64` the kernels have already computed.
/// Hashing the key again with SipHash would be wasted work; instead
/// [`PreHashed`] folds it through one multiply, so the buckets and the
/// control bytes the map takes from the top and bottom of the result
/// depend on every key bit.
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<PreHashed>>;

/// The [`U64Map`] hasher: a fixed 128-bit multiply-fold of the `u64`
/// key. Deliberately not `splitmix64`, whose low bits pick the
/// partition (`agg::partition_of`): reusing it would give every key of
/// a partition the same low bucket bits.
#[derive(Default)]
pub(crate) struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("U64Map keys are u64 hashes");
    }

    fn write_u64(&mut self, h: u64) {
        let p = u128::from(h) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// Morsel-parallel driver: workers claim morsels from a shared counter;
/// results merge in morsel order.
fn for_each_morsel<R, F>(rows: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let n = rows.div_ceil(MORSEL);
    for_each_index(n, |m| f(m, m * MORSEL..((m + 1) * MORSEL).min(rows)))
}

fn resolve(schema: &Schema, name: &str) -> Result<usize, SqlError> {
    schema.resolve(name).map(|(i, _)| i)
}

fn resolve_all(schema: &Schema, names: &[&str]) -> Result<Vec<usize>, SqlError> {
    names.iter().map(|n| resolve(schema, n)).collect()
}

/// Aggregation input columns, mirroring the row oracle: `COUNT(*)`
/// counts via the group column.
fn resolve_agg_cols(
    schema: &Schema,
    gcol: usize,
    aggs: &[Aggregation],
) -> Result<Vec<usize>, SqlError> {
    aggs.iter()
        .map(|a| {
            if a.func == AggregateFn::Count && a.column.is_empty() {
                Ok(gcol)
            } else {
                resolve(schema, &a.column)
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// select
// ---------------------------------------------------------------------

/// Vectorized `SELECT projection... FROM table WHERE predicate`.
/// Same results, in the same row order, as [`crate::exec::select`].
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns in the predicate or
/// projection.
pub fn select(
    table: &ColumnarTable,
    predicate: &Expr,
    projection: &[&str],
) -> Result<Vec<Vec<Value>>, SqlError> {
    select_instrumented(table, predicate, projection, &SpanRecorder::disabled())
}

/// [`select`] with one `scan-morsel` span per morsel on `telemetry`.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn select_instrumented(
    table: &ColumnarTable,
    predicate: &Expr,
    projection: &[&str],
    telemetry: &SpanRecorder,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let compiled = CompiledFilter::compile(predicate, table)?;
    let proj = resolve_all(table.schema(), projection)?;
    let per_morsel = for_each_morsel(table.len(), |m, rows| {
        let mut span = span!(telemetry, "sql", "scan-morsel", morsel = m, rows = rows.len());
        let mut tri = Vec::new();
        compiled.eval_morsel(table, rows.clone(), &mut tri);
        let mut sel = Vec::new();
        CompiledFilter::select_rows(&tri, rows.start, &mut sel);
        let out = project::gather_rows(table, &proj, &sel);
        span.arg("output_rows", out.len());
        out
    });
    Ok(concat(per_morsel))
}

/// [`select`] under an architectural probe: single-threaded morsel loop
/// emitting `scan` (column scans) and `filter` (predicate + gather)
/// phase activity through the columnar trace model.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn select_traced<P: Probe + ?Sized>(
    table: &ColumnarTable,
    predicate: &Expr,
    projection: &[&str],
    probe: &mut P,
    trace: &mut SqlTraceModel,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let compiled = CompiledFilter::compile(predicate, table)?;
    let proj = resolve_all(table.schema(), projection)?;
    let pred_cols = resolve_all(table.schema(), &predicate.columns())?;
    trace.on_query(probe);
    let mut out = Vec::new();
    let mut tri = Vec::new();
    let mut sel = Vec::new();
    for (_m, rows) in morsel_ranges(table.len()) {
        probe.phase("scan");
        trace.on_morsel(probe);
        for &c in &pred_cols {
            trace.column_scan(probe, table, c, rows.clone());
        }
        compiled.eval_morsel(table, rows.clone(), &mut tri);
        sel.clear();
        CompiledFilter::select_rows(&tri, rows.start, &mut sel);
        probe.phase("filter");
        // One comparison per row per predicate column, one
        // selectivity branch per morsel — the vectorized loop is
        // branch-free inside.
        probe.int_ops((rows.len() * pred_cols.len().max(1)) as u64);
        probe.branch(sel.len() * 2 >= rows.len());
        for &row in &sel {
            for &c in &proj {
                trace.gather(probe, table, c, row as usize);
            }
        }
        out.extend(project::gather_rows(table, &proj, &sel));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// aggregate
// ---------------------------------------------------------------------

/// Vectorized `SELECT group_col, aggs... FROM table GROUP BY group_col`.
/// Bit-identical results (including float sums) to
/// [`crate::exec::aggregate`], in the same key order.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn aggregate(
    table: &ColumnarTable,
    group_by: &str,
    aggs: &[Aggregation],
) -> Result<Vec<Vec<Value>>, SqlError> {
    aggregate_instrumented(table, group_by, aggs, &SpanRecorder::disabled())
}

/// [`aggregate`] with per-morsel and per-partition spans on `telemetry`.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn aggregate_instrumented(
    table: &ColumnarTable,
    group_by: &str,
    aggs: &[Aggregation],
    telemetry: &SpanRecorder,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let gcol = resolve(table.schema(), group_by)?;
    let acols = resolve_agg_cols(table.schema(), gcol, aggs)?;
    Ok(agg::aggregate_parallel(table, gcol, &acols, aggs, telemetry))
}

/// [`aggregate`] under an architectural probe: single-threaded morsel
/// loop emitting `scan` (column scans) and `agg` (hash-table traffic)
/// phases.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn aggregate_traced<P: Probe + ?Sized>(
    table: &ColumnarTable,
    group_by: &str,
    aggs: &[Aggregation],
    probe: &mut P,
    trace: &mut SqlTraceModel,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let gcol = resolve(table.schema(), group_by)?;
    let acols = resolve_agg_cols(table.schema(), gcol, aggs)?;
    trace.on_query(probe);
    // Float-accumulating aggregations pay one FP add per row.
    let fp_per_row = acols
        .iter()
        .zip(aggs)
        .filter(|(&c, a)| {
            matches!(a.func, AggregateFn::Sum | AggregateFn::Avg)
                && matches!(table.schema().column_type(c), ColumnType::Float | ColumnType::Int)
        })
        .count() as u64;
    let buckets = (table.len() / 4).max(64);
    let mut gt = agg::GroupTable::default();
    for (_m, rows) in morsel_ranges(table.len()) {
        probe.phase("scan");
        trace.on_morsel(probe);
        trace.column_scan(probe, table, gcol, rows.clone());
        for &c in &acols {
            trace.column_scan(probe, table, c, rows.clone());
        }
        probe.phase("agg");
        for row in rows {
            let h = table.column(gcol).value_ref(row).hash64();
            trace.hash_access(probe, h, buckets, false);
            trace.hash_access(probe, h, buckets, true);
            if fp_per_row > 0 {
                probe.fp_ops(fp_per_row);
            }
            gt.update(table, &acols, aggs, row, h);
        }
    }
    Ok(agg::sort_groups(table, gcol, vec![gt.into_rows(table, gcol, aggs.len())]))
}

// ---------------------------------------------------------------------
// hash join
// ---------------------------------------------------------------------

/// Vectorized `left JOIN right ON left.lcol = right.rcol` — partitioned
/// build/probe hash join (build side = left). Same concatenated rows,
/// in the same probe order, as [`crate::exec::hash_join`].
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn hash_join(
    left: &ColumnarTable,
    lcol: &str,
    right: &ColumnarTable,
    rcol: &str,
) -> Result<Vec<Vec<Value>>, SqlError> {
    hash_join_instrumented(left, lcol, right, rcol, &SpanRecorder::disabled())
}

/// [`hash_join`] with per-morsel build/probe spans on `telemetry`.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn hash_join_instrumented(
    left: &ColumnarTable,
    lcol: &str,
    right: &ColumnarTable,
    rcol: &str,
    telemetry: &SpanRecorder,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let li = resolve(left.schema(), lcol)?;
    let ri = resolve(right.schema(), rcol)?;
    Ok(join::join_parallel(left, li, right, ri, telemetry))
}

/// [`hash_join`] under an architectural probe: single-threaded morsel
/// loops emitting `build` and `probe` phases with compact hash-slot
/// traffic and late-materialization gathers.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn hash_join_traced<P: Probe + ?Sized>(
    left: &ColumnarTable,
    lcol: &str,
    right: &ColumnarTable,
    rcol: &str,
    probe: &mut P,
    trace: &mut SqlTraceModel,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let li = resolve(left.schema(), lcol)?;
    let ri = resolve(right.schema(), rcol)?;
    trace.on_query(probe);
    let buckets = left.len().max(64);
    // Build over the left table.
    let mut build = join::BuildTable::with_capacity(left.len());
    for (_m, rows) in morsel_ranges(left.len()) {
        probe.phase("build");
        trace.on_morsel(probe);
        trace.column_scan(probe, left, li, rows.clone());
        for row in rows {
            let key = left.column(li).value_ref(row);
            if key.is_null() {
                continue;
            }
            let h = key.hash64();
            trace.hash_access(probe, h, buckets, true);
            build.insert(h, row as u32);
        }
    }
    // Probe over the right table.
    let lcols: Vec<usize> = (0..left.schema().arity()).collect();
    let rcols: Vec<usize> = (0..right.schema().arity()).collect();
    let mut out = Vec::new();
    for (_m, rows) in morsel_ranges(right.len()) {
        probe.phase("probe");
        trace.on_morsel(probe);
        trace.column_scan(probe, right, ri, rows.clone());
        for row in rows {
            let key = right.column(ri).value_ref(row);
            if key.is_null() {
                continue;
            }
            let h = key.hash64();
            trace.hash_access(probe, h, buckets, false);
            for lrow in build.matches(h) {
                if left.column(li).value_ref(lrow).total_cmp(&key) == std::cmp::Ordering::Equal {
                    for &c in &lcols {
                        trace.gather(probe, left, c, lrow);
                    }
                    for &c in &rcols {
                        trace.gather(probe, right, c, row);
                    }
                    let mut joined = Vec::with_capacity(lcols.len() + rcols.len());
                    project::gather_row(left, &lcols, lrow, &mut joined);
                    project::gather_row(right, &rcols, row, &mut joined);
                    out.push(joined);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::expr::{col, lit};
    use crate::table::Table;
    use crate::value::Value;

    fn tables() -> (Table, Table) {
        let mut orders = Table::new(
            "orders",
            Schema::new(&[
                ("order_id", ColumnType::Int),
                ("buyer_id", ColumnType::Int),
                ("date", ColumnType::Date),
            ]),
        );
        for (o, b, d) in [(1, 10, 5), (2, 11, 6), (3, 10, 7), (4, 12, 8)] {
            orders.push_row(vec![Value::Int(o), Value::Int(b), Value::Date(d)]).unwrap();
        }
        let mut items = Table::new(
            "items",
            Schema::new(&[
                ("item_id", ColumnType::Int),
                ("order_id", ColumnType::Int),
                ("amount", ColumnType::Float),
            ]),
        );
        for (i, o, a) in [(1, 1, 10.0), (2, 1, 5.0), (3, 2, 7.5), (4, 3, 1.0), (5, 9, 99.0)] {
            items.push_row(vec![Value::Int(i), Value::Int(o), Value::Float(a)]).unwrap();
        }
        (orders, items)
    }

    #[test]
    fn select_matches_row_oracle() {
        let (orders, _) = tables();
        let c = ColumnarTable::from_table(&orders);
        let pred = col("buyer_id").eq(lit(10));
        assert_eq!(
            select(&c, &pred, &["order_id"]).unwrap(),
            exec::select(&orders, &pred, &["order_id"]).unwrap()
        );
    }

    #[test]
    fn aggregate_matches_row_oracle() {
        let (_, items) = tables();
        let c = ColumnarTable::from_table(&items);
        let aggs = [Aggregation::count(), Aggregation::sum("amount"), Aggregation::avg("amount")];
        assert_eq!(
            aggregate(&c, "order_id", &aggs).unwrap(),
            exec::aggregate(&items, "order_id", &aggs).unwrap()
        );
    }

    #[test]
    fn join_matches_row_oracle_in_order() {
        let (orders, items) = tables();
        let co = ColumnarTable::from_table(&orders);
        let ci = ColumnarTable::from_table(&items);
        assert_eq!(
            hash_join(&co, "order_id", &ci, "order_id").unwrap(),
            exec::hash_join(&orders, "order_id", &items, "order_id").unwrap()
        );
    }

    #[test]
    fn traced_kernels_match_parallel_results() {
        use bdb_archsim::CountingProbe;
        let (orders, items) = tables();
        let co = ColumnarTable::from_table(&orders);
        let ci = ColumnarTable::from_table(&items);
        let mut trace = SqlTraceModel::new();
        trace.register_columnar(&co);
        trace.register_columnar(&ci);
        let mut probe = CountingProbe::default();
        let pred = col("buyer_id").eq(lit(10));
        assert_eq!(
            select_traced(&co, &pred, &["order_id"], &mut probe, &mut trace).unwrap(),
            select(&co, &pred, &["order_id"]).unwrap()
        );
        let aggs = [Aggregation::count(), Aggregation::sum("amount")];
        assert_eq!(
            aggregate_traced(&ci, "order_id", &aggs, &mut probe, &mut trace).unwrap(),
            aggregate(&ci, "order_id", &aggs).unwrap()
        );
        assert_eq!(
            hash_join_traced(&co, "order_id", &ci, "order_id", &mut probe, &mut trace).unwrap(),
            hash_join(&co, "order_id", &ci, "order_id").unwrap()
        );
        assert!(probe.mix().loads > 0, "column scans recorded");
        assert!(probe.mix().stores > 0, "hash builds recorded");
        assert!(probe.mix().other > 0, "engine stack recorded");
    }

    /// A build table of three morsels (keys repeat across morsels, every
    /// 50th key NULL) and a probe table of three morsels.
    fn morsel_tables() -> (Table, Table) {
        let mut build = Table::new(
            "build",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("key", ColumnType::Int),
                ("tag", ColumnType::Str),
            ]),
        );
        for i in 0..(2 * MORSEL + 300) as i64 {
            let key = if i % 50 == 7 { Value::Null } else { Value::Int(i % 211) };
            build.push_row(vec![Value::Int(i), key, format!("t{}", i % 13).into()]).unwrap();
        }
        let mut probe = Table::new(
            "probe",
            Schema::new(&[("key", ColumnType::Int), ("amount", ColumnType::Float)]),
        );
        for i in 0..(3 * MORSEL - 7) as i64 {
            let key = if i % 61 == 5 { Value::Null } else { Value::Int((i * 7) % 257) };
            probe.push_row(vec![key, Value::Float(i as f64 * 0.5)]).unwrap();
        }
        (build, probe)
    }

    /// The simulated side is what `BENCH_RESULTS.json` and
    /// `charmap.json` are made of: each traced kernel must return the
    /// parallel kernel's rows and drive the probe with exactly these
    /// counts over a three-morsel input.
    #[test]
    fn traced_kernels_pin_the_simulated_counts() {
        use bdb_archsim::{CountingProbe, InstructionMix};
        let (build, probe_t) = morsel_tables();
        let cb = ColumnarTable::from_table(&build);
        let cp = ColumnarTable::from_table(&probe_t);
        let traced = || {
            let mut trace = SqlTraceModel::new();
            trace.register_columnar(&cb);
            trace.register_columnar(&cp);
            (CountingProbe::default(), trace)
        };
        let counts = |[loads, stores, branches, int_ops, fp_ops, other]: [u64; 6]| InstructionMix {
            loads,
            stores,
            branches,
            int_ops,
            fp_ops,
            other,
        };

        let (mut probe, mut trace) = traced();
        let pred = col("amount").lt(lit(900.0));
        assert_eq!(
            select_traced(&cp, &pred, &["amount", "key"], &mut probe, &mut trace).unwrap(),
            select(&cp, &pred, &["amount", "key"]).unwrap()
        );
        assert_eq!(probe.mix(), counts([4659, 241, 513, 7088, 6, 1642]));
        assert_eq!(probe.requested_bytes(), 46304);

        let (mut probe, mut trace) = traced();
        let aggs = [Aggregation::count(), Aggregation::sum("amount"), Aggregation::max("amount")];
        assert_eq!(
            aggregate_traced(&cp, "key", &aggs, &mut probe, &mut trace).unwrap(),
            aggregate(&cp, "key", &aggs).unwrap()
        );
        assert_eq!(probe.mix(), counts([4900, 3306, 6640, 26092, 3071, 1642]));
        assert_eq!(probe.requested_bytes(), 172448);

        let (mut probe, mut trace) = traced();
        assert_eq!(
            hash_join_traced(&cb, "key", &cp, "key", &mut probe, &mut trace).unwrap(),
            hash_join(&cb, "key", &cp, "key").unwrap()
        );
        assert_eq!(probe.mix(), counts([139618, 2743, 6251, 157001, 12, 3008]));
        assert_eq!(probe.requested_bytes(), 755240);
    }

    #[test]
    fn instrumented_kernels_emit_morsel_spans() {
        let (orders, items) = tables();
        let co = ColumnarTable::from_table(&orders);
        let ci = ColumnarTable::from_table(&items);
        let telemetry = SpanRecorder::enabled();
        select_instrumented(&co, &col("buyer_id").gt(lit(0)), &["order_id"], &telemetry).unwrap();
        aggregate_instrumented(&ci, "order_id", &[Aggregation::count()], &telemetry).unwrap();
        hash_join_instrumented(&co, "order_id", &ci, "order_id", &telemetry).unwrap();
        let events = telemetry.events();
        for name in ["scan-morsel", "agg-morsel", "agg-partition", "build-morsel", "probe-morsel"] {
            assert!(events.iter().any(|e| e.name == name), "span {name} present");
        }

        // On a multi-morsel input the per-partition span args add up to
        // the whole table: every row aggregated once, every distinct
        // non-NULL build key built once.
        let (build, probe_t) = morsel_tables();
        let cb = ColumnarTable::from_table(&build);
        let cp = ColumnarTable::from_table(&probe_t);
        let telemetry = SpanRecorder::enabled();
        aggregate_instrumented(&cp, "key", &[Aggregation::count()], &telemetry).unwrap();
        hash_join_instrumented(&cb, "key", &cp, "key", &telemetry).unwrap();
        let events = telemetry.events();
        let sum = |name: &str, arg: &str| -> i64 {
            events.iter().filter(|e| e.name == name).map(|e| e.int_arg(arg).unwrap()).sum()
        };
        assert_eq!(sum("agg-partition", "rows"), cp.len() as i64);
        let keys: std::collections::HashSet<i64> =
            (0..build.len()).filter_map(|r| build.value(r, 1).as_int()).collect();
        assert_eq!(sum("build-partition", "keys"), keys.len() as i64);
    }

    #[test]
    fn unknown_columns_error() {
        let (orders, _) = tables();
        let c = ColumnarTable::from_table(&orders);
        assert!(select(&c, &col("nope").eq(lit(1)), &["order_id"]).is_err());
        assert!(select(&c, &col("buyer_id").eq(lit(1)), &["nope"]).is_err());
        assert!(aggregate(&c, "nope", &[Aggregation::count()]).is_err());
        assert!(hash_join(&c, "nope", &c, "order_id").is_err());
    }

    #[test]
    fn empty_table_is_fine() {
        let t = Table::new("e", Schema::new(&[("k", ColumnType::Int)]));
        let c = ColumnarTable::from_table(&t);
        assert!(select(&c, &col("k").gt(lit(0)), &["k"]).unwrap().is_empty());
        assert!(aggregate(&c, "k", &[Aggregation::count()]).unwrap().is_empty());
        assert!(hash_join(&c, "k", &c, "k").unwrap().is_empty());
    }

    #[test]
    fn results_stable_across_morsel_boundaries() {
        // More rows than one morsel so the parallel path really splits.
        let mut t =
            Table::new("big", Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Float)]));
        for i in 0..(MORSEL * 3 + 17) {
            t.push_row(vec![Value::Int((i % 97) as i64), Value::Float(i as f64 * 0.25)]).unwrap();
        }
        let c = ColumnarTable::from_table(&t);
        let pred = col("k").lt(lit(13));
        assert_eq!(select(&c, &pred, &["v"]).unwrap(), exec::select(&t, &pred, &["v"]).unwrap());
        let aggs = [Aggregation::count(), Aggregation::sum("v"), Aggregation::min("v")];
        assert_eq!(aggregate(&c, "k", &aggs).unwrap(), exec::aggregate(&t, "k", &aggs).unwrap());
    }
}
