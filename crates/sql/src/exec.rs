//! The row-at-a-time oracle: select (scan+filter), aggregate (hash
//! group-by) and hash join as straight loops over a row [`Table`].
//!
//! The engine the workloads run is [`crate::kernel`]; these operators
//! are the reference it is tested against: every kernel returns exactly
//! the rows, values and row order they return.

use crate::expr::Expr;
use crate::table::Table;
use crate::value::{Value, ValueRef};
use crate::SqlError;
use std::collections::HashMap;

/// Aggregate functions for [`aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFn {
    /// Row count.
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Arithmetic mean of a numeric column.
    Avg,
    /// Minimum by total order.
    Min,
    /// Maximum by total order.
    Max,
}

/// One aggregation: a function over a column (ignored for `Count`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregation {
    /// The function.
    pub func: AggregateFn,
    /// The input column name (any column for `Count`).
    pub column: String,
}

impl Aggregation {
    /// `COUNT(*)`.
    pub fn count() -> Self {
        Self { func: AggregateFn::Count, column: String::new() }
    }

    /// `SUM(column)`.
    pub fn sum(column: &str) -> Self {
        Self { func: AggregateFn::Sum, column: column.to_owned() }
    }

    /// `AVG(column)`.
    pub fn avg(column: &str) -> Self {
        Self { func: AggregateFn::Avg, column: column.to_owned() }
    }

    /// `MIN(column)`.
    pub fn min(column: &str) -> Self {
        Self { func: AggregateFn::Min, column: column.to_owned() }
    }

    /// `MAX(column)`.
    pub fn max(column: &str) -> Self {
        Self { func: AggregateFn::Max, column: column.to_owned() }
    }
}

/// Running accumulator for one aggregate over one group. Shared with
/// the columnar kernels so both engines have bit-identical float
/// accumulation semantics.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(u64),
    Sum(f64),
    Avg(f64, u64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    pub(crate) fn new(f: AggregateFn) -> Self {
        match f {
            AggregateFn::Count => Acc::Count(0),
            AggregateFn::Sum => Acc::Sum(0.0),
            AggregateFn::Avg => Acc::Avg(0.0, 0),
            AggregateFn::Min => Acc::Min(None),
            AggregateFn::Max => Acc::Max(None),
        }
    }

    pub(crate) fn update(&mut self, v: ValueRef<'_>) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(s) => {
                if let Some(x) = v.as_float() {
                    *s += x;
                }
            }
            Acc::Avg(s, n) => {
                if let Some(x) = v.as_float() {
                    *s += x;
                    *n += 1;
                }
            }
            Acc::Min(m) => {
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| v.total_cmp(&cur.view()) == std::cmp::Ordering::Less)
                {
                    *m = Some(v.to_value());
                }
            }
            Acc::Max(m) => {
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| v.total_cmp(&cur.view()) == std::cmp::Ordering::Greater)
                {
                    *m = Some(v.to_value());
                }
            }
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n as i64),
            Acc::Sum(s) => Value::Float(s),
            Acc::Avg(_, 0) => Value::Null,
            Acc::Avg(s, n) => Value::Float(s / n as f64),
            Acc::Min(m) | Acc::Max(m) => m.unwrap_or(Value::Null),
        }
    }
}

/// `SELECT projection... FROM table WHERE predicate` — scan + filter.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns in the predicate or
/// projection.
pub fn select(
    table: &Table,
    predicate: &Expr,
    projection: &[&str],
) -> Result<Vec<Vec<Value>>, SqlError> {
    let bound = predicate.bind(table)?;
    let proj: Vec<usize> = projection
        .iter()
        .map(|c| table.schema().resolve(c).map(|(i, _)| i))
        .collect::<Result<_, _>>()?;
    Ok((0..table.len())
        .filter(|&row| bound.matches(table, row))
        .map(|row| proj.iter().map(|&c| table.value(row, c)).collect())
        .collect())
}

/// `SELECT group_col, aggs... FROM table GROUP BY group_col` — hash
/// aggregation. Returns one row per group: the group key followed by
/// aggregate results, ordered by group key.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn aggregate(
    table: &Table,
    group_by: &str,
    aggs: &[Aggregation],
) -> Result<Vec<Vec<Value>>, SqlError> {
    let (gcol, _) = table.schema().resolve(group_by)?;
    let acols: Vec<usize> = aggs
        .iter()
        .map(|a| {
            if a.func == AggregateFn::Count && a.column.is_empty() {
                Ok(gcol)
            } else {
                table.schema().resolve(&a.column).map(|(i, _)| i)
            }
        })
        .collect::<Result<_, _>>()?;
    let mut groups: HashMap<u64, (Value, Vec<Acc>)> = HashMap::new();
    for row in 0..table.len() {
        let key = table.value_ref(row, gcol);
        let entry = groups
            .entry(key.hash64())
            .or_insert_with(|| (key.to_value(), aggs.iter().map(|a| Acc::new(a.func)).collect()));
        for (acc, &c) in entry.1.iter_mut().zip(&acols) {
            acc.update(table.value_ref(row, c));
        }
    }
    let mut rows: Vec<Vec<Value>> = groups
        .into_values()
        .map(|(key, accs)| {
            let mut row = vec![key];
            row.extend(accs.into_iter().map(Acc::finish));
            row
        })
        .collect();
    rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    Ok(rows)
}

/// `SELECT left.*, right.* FROM left JOIN right ON left.lcol = right.rcol`
/// — classic build/probe hash join (build side = left). Returns
/// concatenated rows.
///
/// # Errors
///
/// Returns [`SqlError`] for unknown columns.
pub fn hash_join(
    left: &Table,
    lcol: &str,
    right: &Table,
    rcol: &str,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let (li, _) = left.schema().resolve(lcol)?;
    let (ri, _) = right.schema().resolve(rcol)?;
    // Build phase over the left table.
    let mut build: HashMap<u64, Vec<usize>> = HashMap::with_capacity(left.len());
    for row in 0..left.len() {
        let key = left.value_ref(row, li);
        if key.is_null() {
            continue; // NULL never joins
        }
        build.entry(key.hash64()).or_default().push(row);
    }
    // Probe phase over the right table.
    let mut out = Vec::new();
    for row in 0..right.len() {
        let key = right.value_ref(row, ri);
        if key.is_null() {
            continue;
        }
        let Some(matches) = build.get(&key.hash64()) else { continue };
        for &lrow in matches {
            // Re-check equality (hash collisions).
            if left.value_ref(lrow, li).total_cmp(&key) == std::cmp::Ordering::Equal {
                let mut joined = Vec::with_capacity(left.schema().arity() + right.schema().arity());
                left.append_row_to(lrow, &mut joined);
                right.append_row_to(row, &mut joined);
                out.push(joined);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::{ColumnType, Schema};

    fn orders() -> Table {
        let mut t = Table::new(
            "orders",
            Schema::new(&[
                ("order_id", ColumnType::Int),
                ("buyer_id", ColumnType::Int),
                ("date", ColumnType::Date),
            ]),
        );
        for (o, b, d) in [(1, 10, 5), (2, 11, 6), (3, 10, 7), (4, 12, 8)] {
            t.push_row(vec![Value::Int(o), Value::Int(b), Value::Date(d)]).unwrap();
        }
        t
    }

    fn items() -> Table {
        let mut t = Table::new(
            "items",
            Schema::new(&[
                ("item_id", ColumnType::Int),
                ("order_id", ColumnType::Int),
                ("amount", ColumnType::Float),
            ]),
        );
        for (i, o, a) in [(1, 1, 10.0), (2, 1, 5.0), (3, 2, 7.5), (4, 3, 1.0), (5, 9, 99.0)] {
            t.push_row(vec![Value::Int(i), Value::Int(o), Value::Float(a)]).unwrap();
        }
        t
    }

    #[test]
    fn select_filters_and_projects() {
        let t = orders();
        let rows = select(&t, &col("buyer_id").eq(lit(10)), &["order_id"]).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    }

    #[test]
    fn select_unknown_column_errors() {
        let t = orders();
        assert!(select(&t, &col("nope").eq(lit(1)), &["order_id"]).is_err());
        assert!(select(&t, &col("buyer_id").eq(lit(1)), &["nope"]).is_err());
    }

    #[test]
    fn aggregate_count_sum_avg() {
        let t = items();
        let rows = aggregate(
            &t,
            "order_id",
            &[Aggregation::count(), Aggregation::sum("amount"), Aggregation::avg("amount")],
        )
        .unwrap();
        // Groups sorted by key: 1, 2, 3, 9.
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[0][1], Value::Int(2));
        assert_eq!(rows[0][2], Value::Float(15.0));
        assert_eq!(rows[0][3], Value::Float(7.5));
        assert_eq!(rows[3][0], Value::Int(9));
    }

    #[test]
    fn aggregate_min_max() {
        let t = items();
        let rows =
            aggregate(&t, "order_id", &[Aggregation::min("amount"), Aggregation::max("amount")])
                .unwrap();
        assert_eq!(rows[0][1], Value::Float(5.0));
        assert_eq!(rows[0][2], Value::Float(10.0));
    }

    #[test]
    fn join_matches_foreign_keys() {
        let joined = hash_join(&orders(), "order_id", &items(), "order_id").unwrap();
        // Orders 1 (2 items), 2 (1), 3 (1): 4 joined rows; item 5 dangles.
        assert_eq!(joined.len(), 4);
        for row in &joined {
            assert_eq!(row.len(), 6);
            assert_eq!(row[0], row[4], "join keys equal");
        }
    }

    #[test]
    fn join_ignores_nulls() {
        let mut l = Table::new("l", Schema::new(&[("k", ColumnType::Int)]));
        l.push_row(vec![Value::Null]).unwrap();
        l.push_row(vec![Value::Int(1)]).unwrap();
        let mut r = Table::new("r", Schema::new(&[("k", ColumnType::Int)]));
        r.push_row(vec![Value::Null]).unwrap();
        r.push_row(vec![Value::Int(1)]).unwrap();
        let joined = hash_join(&l, "k", &r, "k").unwrap();
        assert_eq!(joined.len(), 1, "NULL keys never join");
    }

    #[test]
    fn aggregate_on_empty_table() {
        let t = Table::new("e", Schema::new(&[("k", ColumnType::Int)]));
        let rows = aggregate(&t, "k", &[Aggregation::count()]).unwrap();
        assert!(rows.is_empty());
    }
}
