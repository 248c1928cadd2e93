//! Columnar tables.

use crate::schema::{ColumnType, Schema};
use crate::value::{Value, ValueRef};
use crate::SqlError;

/// Column storage, one vector per column (with a null bitmap folded into
/// `Option`-free representation: nulls are sentinel slots in `nulls`).
#[derive(Debug, Clone)]
enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    Date(Vec<u32>),
}

impl Column {
    fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => Column::Int(Vec::new()),
            ColumnType::Float => Column::Float(Vec::new()),
            ColumnType::Str => Column::Str(Vec::new()),
            ColumnType::Date => Column::Date(Vec::new()),
        }
    }

    fn push(&mut self, v: &Value) {
        match (self, v) {
            (Column::Int(c), Value::Int(x)) => c.push(*x),
            (Column::Int(c), Value::Null) => c.push(i64::MIN),
            (Column::Float(c), Value::Float(x)) => c.push(*x),
            (Column::Float(c), Value::Int(x)) => c.push(*x as f64),
            (Column::Float(c), Value::Null) => c.push(f64::NAN),
            (Column::Str(c), Value::Str(s)) => c.push(s.clone()),
            (Column::Str(c), Value::Null) => c.push(String::new()),
            (Column::Date(c), Value::Date(d)) => c.push(*d),
            (Column::Date(c), Value::Null) => c.push(u32::MAX),
            _ => unreachable!("schema checked before push"),
        }
    }

    fn get_ref(&self, row: usize) -> ValueRef<'_> {
        match self {
            Column::Int(c) => ValueRef::Int(c[row]),
            Column::Float(c) => ValueRef::Float(c[row]),
            Column::Str(c) => ValueRef::Str(&c[row]),
            Column::Date(c) => ValueRef::Date(c[row]),
        }
    }
}

/// A named columnar table.
///
/// # Example
///
/// ```
/// use bdb_sql::{Table, Schema, ColumnType, Value};
/// let mut t = Table::new("t", Schema::new(&[("x", ColumnType::Int)]));
/// t.push_row(vec![Value::Int(7)]).unwrap();
/// assert_eq!(t.len(), 1);
/// assert_eq!(t.value(0, 0), Value::Int(7));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    /// Null positions per column (sparse).
    nulls: Vec<std::collections::HashSet<usize>>,
}

impl Table {
    /// An empty table with the given name and schema.
    pub fn new(name: &str, schema: Schema) -> Self {
        let columns = (0..schema.arity()).map(|i| Column::new(schema.column_type(i))).collect();
        let nulls = (0..schema.arity()).map(|_| std::collections::HashSet::new()).collect();
        Self { name: name.to_owned(), schema, columns, rows: 0, nulls }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
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

    /// Estimated resident bytes.
    pub fn byte_size(&self) -> usize {
        self.rows * self.schema.row_width()
    }

    /// Appends one row after validating it against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::ArityMismatch`] or [`SqlError::TypeMismatch`].
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), SqlError> {
        self.schema.check_row(&row)?;
        for (i, v) in row.iter().enumerate() {
            if v.is_null() {
                self.nulls[i].insert(self.rows);
            }
            self.columns[i].push(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// The value at `(row, col)`, NULL-aware.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.value_ref(row, col).to_value()
    }

    /// A borrowed view of the value at `(row, col)` — the hot-path
    /// accessor: no `String` clone for `Str` cells.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn value_ref(&self, row: usize, col: usize) -> ValueRef<'_> {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        if self.nulls[col].contains(&row) {
            return ValueRef::Null;
        }
        self.columns[col].get_ref(row)
    }

    /// Materializes one full row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.schema.arity());
        self.append_row_to(row, &mut out);
        out
    }

    /// Appends the cells of `row` onto `out`, reusing the caller's
    /// buffer instead of allocating a fresh `Vec` per row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn append_row_to(&self, row: usize, out: &mut Vec<Value>) {
        out.reserve(self.schema.arity());
        for c in 0..self.schema.arity() {
            out.push(self.value(row, c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("p", ColumnType::Float),
                ("s", ColumnType::Str),
            ]),
        );
        t.push_row(vec![Value::Int(1), Value::Float(1.5), "a".into()]).unwrap();
        t.push_row(vec![Value::Int(2), Value::Null, "b".into()]).unwrap();
        t
    }

    #[test]
    fn push_and_read() {
        let t = table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(0, 0), Value::Int(1));
        assert_eq!(t.value(1, 1), Value::Null);
        assert_eq!(t.row(1), vec![Value::Int(2), Value::Null, "b".into()]);
    }

    #[test]
    fn int_widens_to_float_column() {
        let mut t = Table::new("t", Schema::new(&[("x", ColumnType::Float)]));
        t.push_row(vec![Value::Int(3)]).unwrap();
        assert_eq!(t.value(0, 0), Value::Float(3.0));
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = table();
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        assert!(t.push_row(vec!["x".into(), Value::Float(0.0), "y".into()]).is_err());
        assert_eq!(t.len(), 2, "failed pushes must not change the table");
    }

    #[test]
    fn byte_size_grows() {
        let t = table();
        assert_eq!(t.byte_size(), 2 * (8 + 8 + 24));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_row_panics() {
        table().value(5, 0);
    }
}
