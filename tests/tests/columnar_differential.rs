//! Differential tests: the vectorized columnar engine against the
//! row-at-a-time oracle in `bdb_sql::exec`.
//!
//! The kernels promise more than multiset equality — selection preserves
//! row order, aggregation orders by group key, and the partitioned join
//! emits probe order with build chains in row order — so every property
//! here asserts *exact* equality (values, row order, and float bits)
//! against the row engine over randomly generated tables with nullable
//! ints, floats, dictionary-encoded strings and dates. The small-table
//! properties fit in one morsel; `kernels_match_row_oracle_across_morsels`
//! runs tables of two to four morsels, so partition lists, build chains
//! and output concatenation all cross morsel boundaries, on both the
//! morsel-parallel and the traced schedule.

use bdb_archsim::CountingProbe;
use bdb_sql::exec;
use bdb_sql::expr::{col, lit, Expr};
use bdb_sql::kernel;
use bdb_sql::{Aggregation, ColumnType, ColumnarTable, Schema, SqlTraceModel, Table, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::mem::discriminant;

/// One generated row: null mask plus raw cell material.
type RawRow = (u8, i64, f64, u8, u32);

const STR_POOL: [&str; 3] = ["alpha", "bb", "c"];

fn table_from(name: &str, rows: &[RawRow]) -> Table {
    let mut t = Table::new(
        name,
        Schema::new(&[
            ("k", ColumnType::Int),
            ("x", ColumnType::Float),
            ("s", ColumnType::Str),
            ("d", ColumnType::Date),
        ]),
    );
    for &(mask, k, x, sc, d) in rows {
        t.push_row(vec![
            if mask & 1 != 0 { Value::Null } else { Value::Int(k) },
            if mask & 2 != 0 { Value::Null } else { Value::Float(x) },
            if mask & 4 != 0 {
                Value::Null
            } else {
                Value::Str(STR_POOL[sc as usize % STR_POOL.len()].to_owned())
            },
            Value::Date(d % 1000),
        ])
        .expect("schema");
    }
    t
}

fn predicate(kind: u8, ithr: i64, fthr: f64, sc: u8) -> Expr {
    match kind % 7 {
        0 => col("k").gt(lit(ithr)),
        1 => col("x").le(lit(fthr)),
        2 => col("s").eq(lit(STR_POOL[sc as usize % STR_POOL.len()])),
        3 => col("k").gt(lit(ithr)).and(col("x").le(lit(fthr))),
        4 => col("k").le(lit(ithr)).or(col("s").ne(lit(STR_POOL[sc as usize % STR_POOL.len()]))),
        5 => col("x").gt(lit(fthr)).not(),
        // Cross-type comparison: constant-folds in the columnar engine,
        // evaluated per row in the oracle — must still agree.
        _ => col("s").gt(lit(ithr)),
    }
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<RawRow>> {
    proptest::collection::vec(
        (0u8..8, -20i64..20, -50.0f64..50.0, any::<u8>(), any::<u32>()),
        0..max,
    )
}

proptest! {
    /// Filter + late-materialized projection: identical rows, identical
    /// row order, for every predicate shape (typed fast paths, Kleene
    /// compounds, constant folds and the generic fallback).
    #[test]
    fn select_matches_row_oracle(
        rows in rows_strategy(300),
        kind in any::<u8>(),
        ithr in -20i64..20,
        fthr in -50.0f64..50.0,
        sc in any::<u8>(),
    ) {
        let t = table_from("t", &rows);
        let c = ColumnarTable::from_table(&t);
        let pred = predicate(kind, ithr, fthr, sc);
        let want = exec::select(&t, &pred, &["s", "k", "x"]).expect("oracle");
        let got = kernel::select(&c, &pred, &["s", "k", "x"]).expect("kernel");
        prop_assert_eq!(got, want);
    }

    /// Hash aggregation: identical groups, identical key order, and
    /// bit-identical float accumulation despite morsel-parallel
    /// partitioned execution.
    #[test]
    fn aggregate_matches_row_oracle(
        rows in rows_strategy(300),
        by_str in any::<bool>(),
    ) {
        let t = table_from("t", &rows);
        let c = ColumnarTable::from_table(&t);
        let gcol = if by_str { "s" } else { "k" };
        let aggs = [
            Aggregation::count(),
            Aggregation::sum("x"),
            Aggregation::avg("x"),
            Aggregation::min("x"),
            Aggregation::max("k"),
        ];
        let want = exec::aggregate(&t, gcol, &aggs).expect("oracle");
        let got = kernel::aggregate(&c, gcol, &aggs).expect("kernel");
        prop_assert_eq!(got, want);
    }

    /// Partitioned hash join: identical concatenated rows in identical
    /// probe order; NULL keys never join.
    #[test]
    fn join_matches_row_oracle(
        left in rows_strategy(120),
        right in rows_strategy(120),
        on_str in any::<bool>(),
    ) {
        let lt = table_from("l", &left);
        let rt = table_from("r", &right);
        let lc = ColumnarTable::from_table(&lt);
        let rc = ColumnarTable::from_table(&rt);
        let key = if on_str { "s" } else { "k" };
        let want = exec::hash_join(&lt, key, &rt, key).expect("oracle");
        let got = kernel::hash_join(&lc, key, &rc, key).expect("kernel");
        prop_assert_eq!(got, want);
    }

    /// Columnar conversion is lossless: round-tripping through
    /// `ColumnarTable` reproduces every cell (nulls included).
    #[test]
    fn columnar_round_trip_is_lossless(rows in rows_strategy(200)) {
        let t = table_from("t", &rows);
        let c = ColumnarTable::from_table(&t);
        let back = c.to_table();
        prop_assert_eq!(back.len(), t.len());
        for row in 0..t.len() {
            for colidx in 0..4 {
                prop_assert_eq!(back.value(row, colidx), t.value(row, colidx));
            }
        }
    }
}

/// One row of a multi-morsel table: a null selector plus an index into
/// [`KEY_VALUES`] distinct values for each of `k`, `x`, `s` and `d`.
type KeyRow = (u8, u16, u16, u16, u16);

/// Distinct values per key column, so groups and join chains hold
/// several rows each and span many morsels.
const KEY_VALUES: u16 = 300;

/// Float keys. The first four are the cells where bit hashing and total
/// ordering must agree with the oracle: `-0.0` and `0.0` are distinct
/// keys, and each NaN equals only itself.
fn float_key(i: u16) -> f64 {
    match i {
        0 => -0.0,
        1 => 0.0,
        2 => f64::NAN,
        3 => -f64::NAN,
        _ => f64::from(i) * 0.75 - 100.0,
    }
}

fn key_table(name: &str, rows: &[KeyRow]) -> Table {
    let mut t = Table::new(
        name,
        Schema::new(&[
            ("k", ColumnType::Int),
            ("x", ColumnType::Float),
            ("s", ColumnType::Str),
            ("d", ColumnType::Date),
        ]),
    );
    for &(null, k, x, s, d) in rows {
        // At most one NULL per row, each column about one row in eleven.
        let null = null % 11;
        t.push_row(vec![
            if null == 0 { Value::Null } else { Value::Int(i64::from(k) - 150) },
            if null == 1 { Value::Null } else { Value::Float(float_key(x)) },
            if null == 2 { Value::Null } else { Value::Str(format!("s{s}")) },
            if null == 3 { Value::Null } else { Value::Date(u32::from(d) * 7) },
        ])
        .expect("schema");
    }
    t
}

fn key_rows_strategy() -> impl Strategy<Value = Vec<KeyRow>> {
    proptest::collection::vec(
        (any::<u8>(), 0..KEY_VALUES, 0..KEY_VALUES, 0..KEY_VALUES, 0..KEY_VALUES),
        2100..4200,
    )
}

/// Exact equality of two results: same rows in the same order, the same
/// variant in every cell, and `total_cmp`-equal values. `total_cmp` is
/// bit-exact for floats, so a NaN cell equals itself, where `Value`'s
/// derived `==` would fail even when both engines agree.
fn check_identical(
    what: &str,
    got: &[Vec<Value>],
    want: &[Vec<Value>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: {} rows, oracle {}", what, got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.len() == w.len()
            && g.iter().zip(w).all(|(a, b)| {
                discriminant(a) == discriminant(b) && a.total_cmp(b) == Ordering::Equal
            });
        prop_assert!(same, "{}: row {} is {:?}, oracle {:?}", what, i, g, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Aggregate and join over tables of two to four morsels, keyed on
    /// each column type: per-morsel partition lists must reach each
    /// partition in global row order (float sums are order-sensitive),
    /// build chains that cross morsels must keep build-row order, and
    /// per-morsel probe output must concatenate in morsel order. The
    /// traced entry points run the same bodies one unit at a time under
    /// a probe and must return the same rows.
    #[test]
    fn kernels_match_row_oracle_across_morsels(
        left in key_rows_strategy(),
        right in key_rows_strategy(),
    ) {
        let lt = key_table("l", &left);
        let rt = key_table("r", &right);
        let lc = ColumnarTable::from_table(&lt);
        let rc = ColumnarTable::from_table(&rt);
        let aggs = [
            Aggregation::count(),
            Aggregation::sum("x"),
            Aggregation::avg("x"),
            Aggregation::min("x"),
            Aggregation::max("k"),
            Aggregation::min("s"),
            Aggregation::max("d"),
        ];
        let mut trace = SqlTraceModel::new();
        trace.register_columnar(&lc);
        trace.register_columnar(&rc);
        let mut probe = CountingProbe::default();
        for key in ["k", "s", "d", "x"] {
            let want = exec::aggregate(&lt, key, &aggs).expect("oracle");
            let got = kernel::aggregate(&lc, key, &aggs).expect("kernel");
            check_identical(&format!("aggregate by {key}"), &got, &want)?;
            let got = kernel::aggregate_traced(&lc, key, &aggs, &mut probe, &mut trace)
                .expect("traced kernel");
            check_identical(&format!("traced aggregate by {key}"), &got, &want)?;
            let want = exec::hash_join(&lt, key, &rt, key).expect("oracle");
            let got = kernel::hash_join(&lc, key, &rc, key).expect("kernel");
            check_identical(&format!("join on {key}"), &got, &want)?;
            let got = kernel::hash_join_traced(&lc, key, &rc, key, &mut probe, &mut trace)
                .expect("traced kernel");
            check_identical(&format!("traced join on {key}"), &got, &want)?;
        }
    }
}
