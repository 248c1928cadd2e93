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
//! Each operator's per-morsel and per-partition work is one body,
//! generic over a crate-private `Hooks` receiver that also schedules it.
//! The plain and `_instrumented` forms run `Native` hooks: worker threads
//! claim units of work from an atomic counter and results merge in index
//! order, identical for any worker count (the `bdb-mapreduce` worker-pool
//! convention), with one `bdb-telemetry` span per unit and every hook
//! compiled away. The `_traced` forms run `Traced` hooks: the same units
//! in index order on one thread, under an architectural [`Probe`] with
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
use crate::schema::Schema;
use crate::trace::SqlTraceModel;
use crate::value::Value;
use crate::SqlError;
use bdb_archsim::NullProbe;
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

/// Schedules an operator body's units of work and receives its trace
/// hooks: [`Native`] drops every trace closure unrun, [`Traced`] charges
/// each unit the operator stack and runs each closure.
trait Hooks {
    /// The probe the trace closures drive.
    type Probe: Probe + ?Sized;

    /// Runs `f` once per index in `0..n`, each a unit of work in
    /// `phase`, and returns the results in index order.
    fn for_each<R, F>(&mut self, phase: &str, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Self) -> R + Sync;

    /// Reports the work done at this point of the body.
    fn trace(&mut self, f: impl FnOnce(&mut Self::Probe, &mut SqlTraceModel));
}

/// The native run: units of work claimed by worker threads from a shared
/// counter, results in index order (deterministic for any worker count),
/// nothing traced.
struct Native;

impl Hooks for Native {
    type Probe = NullProbe;

    fn for_each<R, F>(&mut self, _phase: &str, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Self) -> R + Sync,
    {
        if n <= 1 {
            return (0..n).map(|i| f(i, &mut Native)).collect();
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
                    *slots[i].lock().expect("result slot") = Some(f(i, &mut Native));
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("result slot").expect("every index ran"))
            .collect()
    }

    #[inline(always)]
    fn trace(&mut self, _f: impl FnOnce(&mut NullProbe, &mut SqlTraceModel)) {}
}

/// The traced run: units of work on the calling thread, in index order.
struct Traced<'a, P: ?Sized> {
    probe: &'a mut P,
    trace: &'a mut SqlTraceModel,
}

impl<P: Probe + ?Sized> Hooks for Traced<'_, P> {
    type Probe = P;

    fn for_each<R, F>(&mut self, phase: &str, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Self) -> R + Sync,
    {
        (0..n)
            .map(|i| {
                self.probe.phase(phase);
                self.trace.on_morsel(self.probe);
                f(i, self)
            })
            .collect()
    }

    fn trace(&mut self, f: impl FnOnce(&mut P, &mut SqlTraceModel)) {
        f(self.probe, self.trace);
    }
}

/// Runs `f` once per morsel of `rows` rows through `hooks`' scheduler.
fn for_each_morsel<H, R, F>(hooks: &mut H, phase: &str, rows: usize, f: F) -> Vec<R>
where
    H: Hooks,
    R: Send,
    F: Fn(usize, Range<usize>, &mut H) -> R + Sync,
{
    let n = rows.div_ceil(MORSEL);
    hooks.for_each(phase, n, |m, h| f(m, m * MORSEL..((m + 1) * MORSEL).min(rows), h))
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
    select_morsels(table, predicate, projection, telemetry, &mut Native)
}

/// [`select`] under an architectural probe: `scan` (column scans) and
/// `filter` (predicate + gather) phase activity through the columnar
/// trace model.
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
    let hooks = &mut Traced { probe, trace };
    select_morsels(table, predicate, projection, &SpanRecorder::disabled(), hooks)
}

/// The select body: each morsel evaluates the predicate into a selection
/// vector and gathers the projection for the selected rows only.
fn select_morsels<H: Hooks>(
    table: &ColumnarTable,
    predicate: &Expr,
    projection: &[&str],
    telemetry: &SpanRecorder,
    hooks: &mut H,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let compiled = CompiledFilter::compile(predicate, table)?;
    let proj = resolve_all(table.schema(), projection)?;
    // The columns the traced scan streams; a native run resolves none.
    let mut pred_cols = Ok(Vec::new());
    hooks.trace(|_, _| pred_cols = resolve_all(table.schema(), &predicate.columns()));
    let pred_cols = pred_cols?;
    hooks.trace(|probe, trace| trace.on_query(probe));
    let per_morsel = for_each_morsel(hooks, "scan", table.len(), |m, rows, hooks| {
        let mut span = span!(telemetry, "sql", "scan-morsel", morsel = m, rows = rows.len());
        hooks.trace(|probe, trace| {
            for &c in &pred_cols {
                trace.column_scan(probe, table, c, rows.clone());
            }
        });
        let mut tri = Vec::new();
        compiled.eval_morsel(table, rows.clone(), &mut tri);
        let mut sel = Vec::new();
        CompiledFilter::select_rows(&tri, rows.start, &mut sel);
        hooks.trace(|probe, trace| {
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
        });
        let out = project::gather_rows(table, &proj, &sel);
        span.arg("output_rows", out.len());
        out
    });
    Ok(concat(per_morsel))
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
    agg::aggregate(table, group_by, aggs, telemetry, &mut Native)
}

/// [`aggregate`] under an architectural probe: `scan` (the partition
/// pass over the group column) and `agg` (hash-table traffic and
/// aggregate-input gathers, partition by partition) phases.
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
    let hooks = &mut Traced { probe, trace };
    agg::aggregate(table, group_by, aggs, &SpanRecorder::disabled(), hooks)
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
    join::hash_join(left, lcol, right, rcol, telemetry, &mut Native)
}

/// [`hash_join`] under an architectural probe: `build` (both partition
/// passes) and `probe` phases with compact hash-slot traffic and
/// late-materialization gathers.
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
    let hooks = &mut Traced { probe, trace };
    join::hash_join(left, lcol, right, rcol, &SpanRecorder::disabled(), hooks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::expr::{col, lit};
    use crate::schema::ColumnType;
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
        assert_eq!(probe.mix(), counts([16045, 4351, 8854, 43333, 3101, 8748]));
        assert_eq!(probe.requested_bytes(), 171860);

        let (mut probe, mut trace) = traced();
        assert_eq!(
            hash_join_traced(&cb, "key", &cp, "key", &mut probe, &mut trace).unwrap(),
            hash_join(&cb, "key", &cp, "key").unwrap()
        );
        assert_eq!(probe.mix(), counts([142760, 3869, 8639, 163904, 48, 10652]));
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
