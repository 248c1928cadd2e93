//! Batched predicate evaluation producing selection vectors.
//!
//! A predicate [`Expr`] compiles once per query into a [`CompiledFilter`]
//! tree whose leaves are typed column-vs-literal comparisons; each morsel
//! is then evaluated with branch-light inner loops into a tri-state
//! vector using Kleene three-valued logic encoded as `u8`:
//! `FALSE = 0`, `UNKNOWN = 1` (SQL NULL), `TRUE = 2`. Under this
//! encoding `AND = min`, `OR = max`, `NOT = 2 − x`, which is exactly the
//! row oracle's `truthy_and`/`truthy_or`/`Not` semantics — so the
//! columnar filter accepts precisely the rows the oracle accepts
//! (a row passes iff its tri-state is `TRUE`).

use crate::column::{ColumnData, ColumnarTable};
use crate::expr::{truthy, truthy_and, truthy_or, BoundExpr, CmpOp, Expr};
use crate::value::ValueRef;
use crate::SqlError;
use std::ops::Range;

/// Kleene tri-state: definitely false.
pub(crate) const TRI_FALSE: u8 = 0;
/// Kleene tri-state: unknown (SQL NULL).
pub(crate) const TRI_UNKNOWN: u8 = 1;
/// Kleene tri-state: definitely true.
pub(crate) const TRI_TRUE: u8 = 2;

/// A predicate compiled against one table's columnar layout.
#[derive(Debug)]
pub(crate) struct CompiledFilter {
    root: FilterNode,
}

#[derive(Debug)]
enum FilterNode {
    /// Same tri-state for every row.
    Const(u8),
    /// Tri-state fixed for non-null rows, `UNKNOWN` for null rows
    /// (cross-type comparisons order by type tag, constant per column).
    NonNullConst {
        col: usize,
        truth: bool,
    },
    /// Integer column (either encoding) vs integer literal.
    CmpI64 {
        col: usize,
        op: CmpOp,
        rhs: i64,
    },
    /// Numeric column vs literal compared as `f64` total order.
    CmpF64 {
        col: usize,
        op: CmpOp,
        rhs: f64,
    },
    /// Date column vs date literal.
    CmpDate {
        col: usize,
        op: CmpOp,
        rhs: u32,
    },
    /// Dictionary column vs string literal: verdict precomputed per code.
    DictPass {
        col: usize,
        pass: Vec<bool>,
    },
    /// Bare column used as a boolean (SQL truthiness).
    TruthyCol {
        col: usize,
    },
    And(Box<FilterNode>, Box<FilterNode>),
    Or(Box<FilterNode>, Box<FilterNode>),
    Not(Box<FilterNode>),
    /// Row-at-a-time fallback for shapes without a typed fast path
    /// (column-vs-column and nested comparisons).
    Generic(BoundExpr),
}

impl CompiledFilter {
    /// Compiles `predicate` against `table`'s schema and encodings.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::UnknownColumn`] for unresolved names.
    pub(crate) fn compile(predicate: &Expr, table: &ColumnarTable) -> Result<Self, SqlError> {
        Ok(Self { root: compile_node(predicate, table)? })
    }

    /// Evaluates the morsel `rows`, filling `tri` with one Kleene
    /// tri-state per row (indexed from the start of the morsel).
    pub(crate) fn eval_morsel(&self, table: &ColumnarTable, rows: Range<usize>, tri: &mut Vec<u8>) {
        tri.clear();
        tri.resize(rows.len(), TRI_FALSE);
        eval_node(&self.root, table, rows, tri);
    }

    /// Appends to `sel` the row ids of the morsel whose tri-state is
    /// `TRUE` — the selection vector consumed by late materialization.
    pub(crate) fn select_rows(tri: &[u8], base: usize, sel: &mut Vec<u32>) {
        for (i, &t) in tri.iter().enumerate() {
            if t == TRI_TRUE {
                sel.push((base + i) as u32);
            }
        }
    }
}

fn tri_of(v: ValueRef<'_>) -> u8 {
    if v.is_null() {
        TRI_UNKNOWN
    } else if truthy(v) {
        TRI_TRUE
    } else {
        TRI_FALSE
    }
}

fn type_tag(v: &ValueRef<'_>) -> u8 {
    match v {
        ValueRef::Null => 0,
        ValueRef::Int(_) => 1,
        ValueRef::Float(_) => 2,
        ValueRef::Str(_) => 3,
        ValueRef::Date(_) => 4,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

fn compile_node(e: &Expr, t: &ColumnarTable) -> Result<FilterNode, SqlError> {
    Ok(match e {
        Expr::And(a, b) => {
            FilterNode::And(Box::new(compile_node(a, t)?), Box::new(compile_node(b, t)?))
        }
        Expr::Or(a, b) => {
            FilterNode::Or(Box::new(compile_node(a, t)?), Box::new(compile_node(b, t)?))
        }
        Expr::Not(a) => FilterNode::Not(Box::new(compile_node(a, t)?)),
        Expr::Column(name) => FilterNode::TruthyCol { col: t.schema().resolve(name)?.0 },
        Expr::Literal(v) => FilterNode::Const(tri_of(v.view())),
        Expr::Compare(a, op, b) => match (&**a, &**b) {
            (Expr::Column(name), Expr::Literal(v)) => compile_cmp(t, name, *op, v.view())?,
            (Expr::Literal(v), Expr::Column(name)) => compile_cmp(t, name, flip(*op), v.view())?,
            _ => FilterNode::Generic(e.bind_schema(t.schema())?),
        },
    })
}

/// Typed `column op literal` fast path. Falls back to a constant node
/// when the comparison is decided by type tags alone, matching
/// `ValueRef::total_cmp`'s cross-type ordering.
fn compile_cmp(
    t: &ColumnarTable,
    name: &str,
    op: CmpOp,
    lit: ValueRef<'_>,
) -> Result<FilterNode, SqlError> {
    let col = t.schema().resolve(name)?.0;
    if lit.is_null() {
        // Comparing anything with NULL is NULL.
        return Ok(FilterNode::Const(TRI_UNKNOWN));
    }
    let data = t.column(col).data();
    Ok(match (data, lit) {
        (ColumnData::Int64(_) | ColumnData::Int32(_), ValueRef::Int(x)) => {
            FilterNode::CmpI64 { col, op, rhs: x }
        }
        (ColumnData::Int64(_) | ColumnData::Int32(_), ValueRef::Float(x)) => {
            FilterNode::CmpF64 { col, op, rhs: x }
        }
        (ColumnData::Float64(_), ValueRef::Int(x)) => FilterNode::CmpF64 { col, op, rhs: x as f64 },
        (ColumnData::Float64(_), ValueRef::Float(x)) => FilterNode::CmpF64 { col, op, rhs: x },
        (ColumnData::Date32(_), ValueRef::Date(d)) => FilterNode::CmpDate { col, op, rhs: d },
        (ColumnData::Dict { values, .. }, ValueRef::Str(s)) => FilterNode::DictPass {
            col,
            pass: values.iter().map(|v| op.holds(v.as_str().cmp(s))).collect(),
        },
        // Cross-type: total_cmp orders by type tag, constant per column.
        (_, lit) => {
            let col_tag = match data {
                ColumnData::Int64(_) | ColumnData::Int32(_) => 1,
                ColumnData::Float64(_) => 2,
                ColumnData::Dict { .. } => 3,
                ColumnData::Date32(_) => 4,
            };
            FilterNode::NonNullConst { col, truth: op.holds(col_tag.cmp(&type_tag(&lit))) }
        }
    })
}

/// Evaluates `node` over the morsel into `out` (one tri-state per row).
fn eval_node(node: &FilterNode, t: &ColumnarTable, rows: Range<usize>, out: &mut [u8]) {
    match node {
        FilterNode::Const(v) => out.fill(*v),
        FilterNode::NonNullConst { col, truth } => {
            let nulls = t.column(*col).nulls();
            let fixed = if *truth { TRI_TRUE } else { TRI_FALSE };
            for (i, row) in rows.enumerate() {
                out[i] = if nulls.is_null(row) { TRI_UNKNOWN } else { fixed };
            }
        }
        FilterNode::CmpI64 { col, op, rhs } => {
            let c = t.column(*col);
            let nulls = c.nulls();
            match c.data() {
                ColumnData::Int64(v) => {
                    for (i, row) in rows.enumerate() {
                        out[i] = if nulls.is_null(row) {
                            TRI_UNKNOWN
                        } else {
                            (op.holds(v[row].cmp(rhs)) as u8) * 2
                        };
                    }
                }
                ColumnData::Int32(v) => {
                    for (i, row) in rows.enumerate() {
                        out[i] = if nulls.is_null(row) {
                            TRI_UNKNOWN
                        } else {
                            (op.holds((v[row] as i64).cmp(rhs)) as u8) * 2
                        };
                    }
                }
                _ => unreachable!("CmpI64 compiled for integer columns only"),
            }
        }
        FilterNode::CmpF64 { col, op, rhs } => {
            let c = t.column(*col);
            let nulls = c.nulls();
            match c.data() {
                ColumnData::Float64(v) => {
                    for (i, row) in rows.enumerate() {
                        out[i] = if nulls.is_null(row) {
                            TRI_UNKNOWN
                        } else {
                            (op.holds(v[row].total_cmp(rhs)) as u8) * 2
                        };
                    }
                }
                ColumnData::Int64(v) => {
                    for (i, row) in rows.enumerate() {
                        out[i] = if nulls.is_null(row) {
                            TRI_UNKNOWN
                        } else {
                            (op.holds((v[row] as f64).total_cmp(rhs)) as u8) * 2
                        };
                    }
                }
                ColumnData::Int32(v) => {
                    for (i, row) in rows.enumerate() {
                        out[i] = if nulls.is_null(row) {
                            TRI_UNKNOWN
                        } else {
                            (op.holds(f64::from(v[row]).total_cmp(rhs)) as u8) * 2
                        };
                    }
                }
                _ => unreachable!("CmpF64 compiled for numeric columns only"),
            }
        }
        FilterNode::CmpDate { col, op, rhs } => {
            let c = t.column(*col);
            let nulls = c.nulls();
            match c.data() {
                ColumnData::Date32(v) => {
                    for (i, row) in rows.enumerate() {
                        out[i] = if nulls.is_null(row) {
                            TRI_UNKNOWN
                        } else {
                            (op.holds(v[row].cmp(rhs)) as u8) * 2
                        };
                    }
                }
                _ => unreachable!("CmpDate compiled for date columns only"),
            }
        }
        FilterNode::DictPass { col, pass } => {
            let c = t.column(*col);
            let nulls = c.nulls();
            match c.data() {
                ColumnData::Dict { codes, .. } => {
                    for (i, row) in rows.enumerate() {
                        out[i] = if nulls.is_null(row) {
                            TRI_UNKNOWN
                        } else {
                            (pass[codes[row] as usize] as u8) * 2
                        };
                    }
                }
                _ => unreachable!("DictPass compiled for dictionary columns only"),
            }
        }
        FilterNode::TruthyCol { col } => {
            let c = t.column(*col);
            for (i, row) in rows.enumerate() {
                out[i] = tri_of(c.value_ref(row));
            }
        }
        FilterNode::And(a, b) => {
            eval_node(a, t, rows.clone(), out);
            let mut rhs = vec![TRI_FALSE; out.len()];
            eval_node(b, t, rows, &mut rhs);
            for (o, r) in out.iter_mut().zip(&rhs) {
                *o = (*o).min(*r); // Kleene AND
            }
        }
        FilterNode::Or(a, b) => {
            eval_node(a, t, rows.clone(), out);
            let mut rhs = vec![TRI_FALSE; out.len()];
            eval_node(b, t, rows, &mut rhs);
            for (o, r) in out.iter_mut().zip(&rhs) {
                *o = (*o).max(*r); // Kleene OR
            }
        }
        FilterNode::Not(a) => {
            eval_node(a, t, rows, out);
            for o in out.iter_mut() {
                *o = 2 - *o; // Kleene NOT
            }
        }
        FilterNode::Generic(expr) => {
            for (i, row) in rows.enumerate() {
                out[i] = tri_of(eval_columnar(expr, t, row));
            }
        }
    }
}

/// Row-at-a-time [`BoundExpr`] evaluation over columnar storage —
/// mirrors `BoundExpr::eval_ref` exactly, reading through
/// [`ColumnVec::value_ref`](crate::column::ColumnVec::value_ref).
fn eval_columnar<'a>(e: &'a BoundExpr, t: &'a ColumnarTable, row: usize) -> ValueRef<'a> {
    match e {
        BoundExpr::Column(i) => t.column(*i).value_ref(row),
        BoundExpr::Literal(v) => v.view(),
        BoundExpr::Compare(a, op, b) => {
            let av = eval_columnar(a, t, row);
            let bv = eval_columnar(b, t, row);
            if av.is_null() || bv.is_null() {
                return ValueRef::Null;
            }
            ValueRef::Int(op.holds(av.total_cmp(&bv)) as i64)
        }
        BoundExpr::And(a, b) => truthy_and(eval_columnar(a, t, row), eval_columnar(b, t, row)),
        BoundExpr::Or(a, b) => truthy_or(eval_columnar(a, t, row), eval_columnar(b, t, row)),
        BoundExpr::Not(a) => match eval_columnar(a, t, row) {
            ValueRef::Null => ValueRef::Null,
            v => ValueRef::Int((!truthy(v)) as i64),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::{ColumnType, Schema};
    use crate::table::Table;
    use crate::value::Value;

    fn table() -> ColumnarTable {
        let mut t = Table::new(
            "t",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("p", ColumnType::Float),
                ("s", ColumnType::Str),
            ]),
        );
        t.push_row(vec![Value::Int(1), Value::Float(10.0), "a".into()]).unwrap();
        t.push_row(vec![Value::Int(2), Value::Float(3.0), "b".into()]).unwrap();
        t.push_row(vec![Value::Int(3), Value::Null, "a".into()]).unwrap();
        ColumnarTable::from_table(&t)
    }

    fn tri_for(e: &Expr, t: &ColumnarTable) -> Vec<u8> {
        let f = CompiledFilter::compile(e, t).unwrap();
        let mut tri = Vec::new();
        f.eval_morsel(t, 0..t.len(), &mut tri);
        tri
    }

    #[test]
    fn typed_comparisons() {
        let t = table();
        assert_eq!(tri_for(&col("id").ge(lit(2)), &t), vec![0, 2, 2]);
        assert_eq!(tri_for(&col("p").gt(lit(5.0)), &t), vec![2, 0, 1], "NULL compares UNKNOWN");
        assert_eq!(tri_for(&col("s").eq(lit("a")), &t), vec![2, 0, 2]);
        assert_eq!(tri_for(&lit(5).gt(col("id")), &t), vec![2, 2, 2], "literal-first flips");
    }

    #[test]
    fn kleene_logic_matches_row_engine() {
        let t = table();
        // NULL AND false = false, NULL AND true = NULL.
        let null_side = col("p").gt(lit(0.0));
        assert_eq!(tri_for(&null_side.clone().and(col("id").eq(lit(99))), &t)[2], TRI_FALSE);
        assert_eq!(tri_for(&null_side.clone().and(col("id").eq(lit(3))), &t)[2], TRI_UNKNOWN);
        // NULL OR true = true, NOT NULL = NULL.
        assert_eq!(tri_for(&null_side.clone().or(col("id").eq(lit(3))), &t)[2], TRI_TRUE);
        assert_eq!(tri_for(&null_side.not(), &t)[2], TRI_UNKNOWN);
    }

    #[test]
    fn cross_type_comparison_is_constant_fold() {
        let t = table();
        // Int column vs Str literal: tag(Int)=1 < tag(Str)=3.
        assert_eq!(tri_for(&col("id").lt(lit("x")), &t), vec![2, 2, 2]);
        assert_eq!(tri_for(&col("id").gt(lit("x")), &t), vec![0, 0, 0]);
        // NULL literal: always UNKNOWN.
        assert_eq!(tri_for(&col("id").eq(Expr::Literal(Value::Null)), &t), vec![1, 1, 1]);
    }

    #[test]
    fn generic_fallback_handles_column_vs_column() {
        let t = table();
        let tri = tri_for(&col("id").lt(col("p")), &t);
        assert_eq!(tri, vec![2, 2, 1], "1<10.0, 2<3.0, 3<NULL→UNKNOWN");
    }

    #[test]
    fn selection_vector_picks_true_rows() {
        let t = table();
        let f = CompiledFilter::compile(&col("id").ge(lit(2)), &t).unwrap();
        let mut tri = Vec::new();
        f.eval_morsel(&t, 0..t.len(), &mut tri);
        let mut sel = Vec::new();
        CompiledFilter::select_rows(&tri, 0, &mut sel);
        assert_eq!(sel, vec![1, 2]);
    }
}
