//! Vectorized columnar storage: typed column vectors with null bitmaps.
//!
//! [`ColumnarTable`] is the execution-layer twin of the row-oriented
//! [`Table`]: the same schema and rows, re-encoded for batched kernels.
//! Integer columns narrow to `i32` when every value fits (BigDataBench's
//! e-commerce IDs always do), dates stay 4 bytes, and strings are
//! dictionary-encoded to 4-byte codes — so scans touch roughly half the
//! cache lines a [`Table`]'s 8/24-byte cells do. Nulls live in a
//! separate bitmap, keeping the data vectors branch-free to index.
//! Conversion from [`Table`] is lossless: [`ColumnarTable::to_table`]
//! round-trips every value, including NULLs and NaNs.

use crate::schema::{ColumnType, Schema};
use crate::table::Table;
use crate::value::ValueRef;
use std::collections::HashMap;

/// Typed backing storage of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers (values that overflow `i32`).
    Int64(Vec<i64>),
    /// Narrowed integers: every non-null value fits `i32`.
    Int32(Vec<i32>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Days since epoch, 4 bytes.
    Date32(Vec<u32>),
    /// Dictionary-encoded strings: 4-byte codes into a value table
    /// ordered by first occurrence.
    Dict {
        /// Per-row dictionary code.
        codes: Vec<u32>,
        /// Distinct strings, indexed by code.
        values: Vec<String>,
    },
}

/// A compact null bitmap: bit set ⇒ row is NULL.
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    words: Vec<u64>,
    any: bool,
}

impl NullMask {
    fn with_len(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], any: false }
    }

    fn set(&mut self, row: usize) {
        self.words[row / 64] |= 1 << (row % 64);
        self.any = true;
    }

    /// Whether `row` is NULL.
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        self.any && (self.words[row / 64] >> (row % 64)) & 1 == 1
    }

    /// Whether any row is NULL (fast path: skip per-row checks).
    pub fn any_null(&self) -> bool {
        self.any
    }
}

/// One column: typed data vector plus null bitmap.
#[derive(Debug, Clone)]
pub struct ColumnVec {
    pub(crate) data: ColumnData,
    pub(crate) nulls: NullMask,
    len: usize,
}

impl ColumnVec {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes one row occupies in the encoded data vector.
    pub fn encoded_width(&self) -> usize {
        match self.data {
            ColumnData::Int64(_) | ColumnData::Float64(_) => 8,
            ColumnData::Int32(_) | ColumnData::Date32(_) | ColumnData::Dict { .. } => 4,
        }
    }

    /// The typed backing storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap.
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// A borrowed view of the value at `row`, NULL-aware.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn value_ref(&self, row: usize) -> ValueRef<'_> {
        assert!(row < self.len, "row {row} out of bounds ({})", self.len);
        if self.nulls.is_null(row) {
            return ValueRef::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => ValueRef::Int(v[row]),
            ColumnData::Int32(v) => ValueRef::Int(v[row] as i64),
            ColumnData::Float64(v) => ValueRef::Float(v[row]),
            ColumnData::Date32(v) => ValueRef::Date(v[row]),
            ColumnData::Dict { codes, values } => ValueRef::Str(&values[codes[row] as usize]),
        }
    }

    fn from_table_column(table: &Table, col: usize) -> Self {
        let rows = table.len();
        let mut nulls = NullMask::with_len(rows);
        let data = match table.schema().column_type(col) {
            ColumnType::Int => {
                let mut wide = Vec::with_capacity(rows);
                let mut fits_i32 = true;
                for row in 0..rows {
                    match table.value_ref(row, col) {
                        ValueRef::Int(x) => {
                            fits_i32 &= i32::try_from(x).is_ok();
                            wide.push(x);
                        }
                        _ => {
                            nulls.set(row);
                            wide.push(0);
                        }
                    }
                }
                if fits_i32 {
                    ColumnData::Int32(wide.into_iter().map(|x| x as i32).collect())
                } else {
                    ColumnData::Int64(wide)
                }
            }
            ColumnType::Float => {
                let mut data = Vec::with_capacity(rows);
                for row in 0..rows {
                    match table.value_ref(row, col) {
                        ValueRef::Float(x) => data.push(x),
                        _ => {
                            nulls.set(row);
                            data.push(0.0);
                        }
                    }
                }
                ColumnData::Float64(data)
            }
            ColumnType::Date => {
                let mut data = Vec::with_capacity(rows);
                for row in 0..rows {
                    match table.value_ref(row, col) {
                        ValueRef::Date(d) => data.push(d),
                        _ => {
                            nulls.set(row);
                            data.push(0);
                        }
                    }
                }
                ColumnData::Date32(data)
            }
            ColumnType::Str => {
                let mut codes = Vec::with_capacity(rows);
                let mut values: Vec<String> = Vec::new();
                let mut index: HashMap<String, u32> = HashMap::new();
                for row in 0..rows {
                    match table.value_ref(row, col) {
                        ValueRef::Str(s) => {
                            let code = *index.entry(s.to_owned()).or_insert_with(|| {
                                values.push(s.to_owned());
                                (values.len() - 1) as u32
                            });
                            codes.push(code);
                        }
                        _ => {
                            nulls.set(row);
                            codes.push(0);
                        }
                    }
                }
                ColumnData::Dict { codes, values }
            }
        };
        Self { data, nulls, len: rows }
    }
}

/// A schema-checked table in columnar execution layout.
///
/// # Example
///
/// ```
/// use bdb_sql::{ColumnarTable, Table, Schema, ColumnType, Value};
/// let mut t = Table::new("t", Schema::new(&[("x", ColumnType::Int)]));
/// t.push_row(vec![Value::Int(7)]).unwrap();
/// let c = ColumnarTable::from_table(&t);
/// assert_eq!(c.column(0).encoded_width(), 4, "7 fits i32");
/// assert_eq!(c.to_table().value(0, 0), Value::Int(7));
/// ```
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    name: String,
    schema: Schema,
    columns: Vec<ColumnVec>,
    rows: usize,
}

impl ColumnarTable {
    /// Re-encodes a row table into columnar execution layout
    /// (losslessly; see [`ColumnarTable::to_table`]).
    pub fn from_table(table: &Table) -> Self {
        let columns =
            (0..table.schema().arity()).map(|c| ColumnVec::from_table_column(table, c)).collect();
        Self {
            name: table.name().to_owned(),
            schema: table.schema().clone(),
            columns,
            rows: table.len(),
        }
    }

    /// Reconstructs the equivalent row table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(&self.name, self.schema.clone());
        let mut buf = Vec::with_capacity(self.schema.arity());
        for row in 0..self.rows {
            buf.clear();
            for col in &self.columns {
                buf.push(col.value_ref(row).to_value());
            }
            t.push_row(std::mem::take(&mut buf)).expect("round-trip preserves the schema");
            buf = Vec::with_capacity(self.schema.arity());
        }
        t
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema (identical to the source row table's).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The column at position `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn column(&self, col: usize) -> &ColumnVec {
        &self.columns[col]
    }

    /// Total encoded bytes across data vectors (excludes null bitmaps
    /// and dictionaries).
    pub fn encoded_byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.encoded_width() * self.rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("p", ColumnType::Float),
                ("s", ColumnType::Str),
                ("d", ColumnType::Date),
            ]),
        );
        t.push_row(vec![Value::Int(1), Value::Float(1.5), "a".into(), Value::Date(10)]).unwrap();
        t.push_row(vec![Value::Int(2), Value::Null, "b".into(), Value::Null]).unwrap();
        t.push_row(vec![Value::Null, Value::Float(-0.5), "a".into(), Value::Date(11)]).unwrap();
        t
    }

    #[test]
    fn round_trip_is_lossless() {
        let t = table();
        let c = ColumnarTable::from_table(&t);
        let back = c.to_table();
        assert_eq!(back.len(), t.len());
        for row in 0..t.len() {
            assert_eq!(back.row(row), t.row(row), "row {row}");
        }
    }

    #[test]
    fn ints_narrow_when_they_fit() {
        let t = table();
        let c = ColumnarTable::from_table(&t);
        assert!(matches!(c.column(0).data(), ColumnData::Int32(_)));
        assert_eq!(c.column(0).encoded_width(), 4);

        let mut wide = Table::new("w", Schema::new(&[("x", ColumnType::Int)]));
        wide.push_row(vec![Value::Int(i64::from(i32::MAX) + 1)]).unwrap();
        let cw = ColumnarTable::from_table(&wide);
        assert!(matches!(cw.column(0).data(), ColumnData::Int64(_)));
        assert_eq!(cw.column(0).encoded_width(), 8);
        assert_eq!(cw.to_table().value(0, 0), Value::Int(i64::from(i32::MAX) + 1));
    }

    #[test]
    fn strings_dictionary_encode() {
        let c = ColumnarTable::from_table(&table());
        match c.column(2).data() {
            ColumnData::Dict { codes, values } => {
                assert_eq!(values, &["a".to_owned(), "b".to_owned()], "first-occurrence order");
                assert_eq!(codes, &[0, 1, 0]);
            }
            other => panic!("expected dict, got {other:?}"),
        }
    }

    #[test]
    fn nulls_survive_and_mask_reads() {
        let c = ColumnarTable::from_table(&table());
        assert_eq!(c.column(1).value_ref(1), ValueRef::Null);
        assert_eq!(c.column(3).value_ref(1), ValueRef::Null);
        assert_eq!(c.column(1).value_ref(2), ValueRef::Float(-0.5));
        assert!(c.column(1).nulls().any_null());
        assert!(!c.column(2).nulls().any_null());
    }

    #[test]
    fn nan_is_a_value_not_a_null() {
        let mut t = Table::new("n", Schema::new(&[("x", ColumnType::Float)]));
        t.push_row(vec![Value::Float(f64::NAN)]).unwrap();
        let c = ColumnarTable::from_table(&t);
        assert!(!c.column(0).nulls().is_null(0));
        match c.column(0).value_ref(0) {
            ValueRef::Float(x) => assert!(x.is_nan()),
            other => panic!("expected NaN float, got {other:?}"),
        }
    }

    #[test]
    fn all_null_string_column_round_trips() {
        let mut t = Table::new("s", Schema::new(&[("x", ColumnType::Str)]));
        t.push_row(vec![Value::Null]).unwrap();
        let c = ColumnarTable::from_table(&t);
        assert_eq!(c.column(0).value_ref(0), ValueRef::Null);
        assert_eq!(c.to_table().value(0, 0), Value::Null);
    }

    #[test]
    fn encoded_size_is_smaller_than_row_layout() {
        let t = table();
        let c = ColumnarTable::from_table(&t);
        assert!(c.encoded_byte_size() < t.byte_size());
    }
}
