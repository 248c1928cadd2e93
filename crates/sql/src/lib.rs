//! A mini columnar relational engine — the Hive/Impala stand-in of
//! BigDataBench-RS.
//!
//! The paper's realtime-analytics workloads are three relational queries
//! over the e-commerce transaction tables (Table 4): **Select** (scan +
//! filter), **Aggregate** (scan + hash group-by), and **Join** (hash
//! equi-join of ORDER with ORDER_ITEM). Those are exactly the operators
//! this crate implements, over columnar in-memory tables:
//!
//! * [`Table`] — fixed-schema columnar storage ([`schema`], [`value`]),
//!   converted once to an encoded [`ColumnarTable`] ([`mod@column`]) for
//!   execution;
//! * [`kernel`] — the engine: vectorized `select`, `aggregate` and
//!   `hash_join` in three forms — plain (morsel-parallel),
//!   `_instrumented` (one telemetry span per morsel) and `_traced`
//!   (single-threaded under a [`bdb_archsim::Probe`], reporting
//!   column-scan and hash-probe access patterns through a
//!   [`SqlTraceModel`]);
//! * [`exec`] — the row-at-a-time oracle: the same three operators as
//!   plain loops over a [`Table`], which every kernel must match row
//!   for row.
//!
//! # Example
//!
//! ```
//! use bdb_sql::{Schema, ColumnType, Table, Value, exec};
//! use bdb_sql::expr::{col, lit};
//!
//! let schema = Schema::new(&[("id", ColumnType::Int), ("price", ColumnType::Float)]);
//! let mut t = Table::new("goods", schema);
//! t.push_row(vec![Value::Int(1), Value::Float(9.5)]).unwrap();
//! t.push_row(vec![Value::Int(2), Value::Float(3.0)]).unwrap();
//!
//! let rows = exec::select(&t, &col("price").gt(lit(5.0)), &["id"]).unwrap();
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0][0], Value::Int(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod exec;
pub mod expr;
pub mod kernel;
pub mod schema;
pub mod table;
pub mod trace;
pub mod value;

pub use column::{ColumnVec, ColumnarTable};
pub use exec::{AggregateFn, Aggregation};
pub use schema::{ColumnType, Schema};
pub use table::Table;
pub use trace::SqlTraceModel;
pub use value::{Value, ValueRef};

/// Errors produced by the query engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// A referenced column does not exist in the schema.
    UnknownColumn(String),
    /// A row or expression value did not match the column type.
    TypeMismatch {
        /// Column or expression position.
        context: String,
    },
    /// Row arity differs from the schema.
    ArityMismatch {
        /// Number of columns expected by the schema.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            SqlError::TypeMismatch { context } => write!(f, "type mismatch in {context}"),
            SqlError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, schema expects {expected}")
            }
        }
    }
}

impl std::error::Error for SqlError {}
