//! Cell values.

use bdb_archsim::layout::fnv1a;
use std::cmp::Ordering;
use std::fmt;

/// One cell value. `Float` compares with total ordering (NaN greatest)
/// so values can key hash tables and sorts.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer (covers the seed schema's INT columns).
    Int(i64),
    /// 64-bit float (NUMBER(p,s) columns).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Days since data-set epoch (DATE columns).
    Date(u32),
    /// SQL NULL.
    Null,
}

impl Value {
    /// The integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The float, widening `Int` if needed.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A borrowed view of this value.
    pub fn view(&self) -> ValueRef<'_> {
        ValueRef::from(self)
    }

    /// Total-order comparison used by sorts and grouping; `Null` sorts
    /// first, cross-type comparisons order by type tag.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.view().total_cmp(&other.view())
    }

    /// A stable 64-bit hash (used by hash joins and group-by).
    pub fn hash64(&self) -> u64 {
        self.view().hash64()
    }
}

/// A borrowed, allocation-free view of one cell value — the hot-path
/// counterpart of [`Value`] for scans, join keys and group keys. It is
/// `Copy`, so row-at-a-time code can pass it around without cloning the
/// backing `String` of a `Str` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Borrowed UTF-8 string.
    Str(&'a str),
    /// Days since data-set epoch.
    Date(u32),
    /// SQL NULL.
    Null,
}

impl<'a> ValueRef<'a> {
    /// The integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ValueRef::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The float, widening `Int` if needed.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ValueRef::Float(x) => Some(*x),
            ValueRef::Int(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// Whether this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Materializes an owned [`Value`] (allocates only for `Str`).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(x) => Value::Int(x),
            ValueRef::Float(x) => Value::Float(x),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Date(d) => Value::Date(d),
            ValueRef::Null => Value::Null,
        }
    }

    /// Total-order comparison; same semantics as [`Value::total_cmp`].
    pub fn total_cmp(&self, other: &ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }

    /// A stable 64-bit hash; same function as [`Value::hash64`].
    pub fn hash64(&self) -> u64 {
        match self {
            ValueRef::Int(x) => fnv1a(&x.to_le_bytes()),
            ValueRef::Float(x) => fnv1a(&x.to_bits().to_le_bytes()),
            ValueRef::Str(s) => fnv1a(s.as_bytes()),
            ValueRef::Date(d) => fnv1a(&d.to_le_bytes()),
            ValueRef::Null => fnv1a(&[0xFF]),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Int(x) => ValueRef::Int(*x),
            Value::Float(x) => ValueRef::Float(*x),
            Value::Str(s) => ValueRef::Str(s),
            Value::Date(d) => ValueRef::Date(*d),
            Value::Null => ValueRef::Null,
        }
    }
}

fn tag(v: &ValueRef<'_>) -> u8 {
    match v {
        ValueRef::Null => 0,
        ValueRef::Int(_) => 1,
        ValueRef::Float(_) => 2,
        ValueRef::Str(_) => 3,
        ValueRef::Date(_) => 4,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(x) => write!(f, "{x}"),
            Value::Float(x) => write!(f, "{x:.6}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "day{d}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(x)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Str("x".into()).as_int(), None);
    }

    #[test]
    fn ordering_within_and_across_types() {
        assert_eq!(Value::Int(1).total_cmp(&Value::Int(2)), Ordering::Less);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(1.5)), Ordering::Greater);
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Str("a".into()).total_cmp(&Value::Str("b".into())), Ordering::Less);
        assert_eq!(Value::Date(1).total_cmp(&Value::Date(1)), Ordering::Equal);
    }

    #[test]
    fn nan_is_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1.0).total_cmp(&nan), Ordering::Less);
    }

    #[test]
    fn hashes_distinguish_values() {
        assert_ne!(Value::Int(1).hash64(), Value::Int(2).hash64());
        assert_ne!(Value::Str("a".into()).hash64(), Value::Str("b".into()).hash64());
        assert_eq!(Value::Int(7).hash64(), Value::Int(7).hash64());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn value_ref_mirrors_value() {
        let vals = [
            Value::Int(-3),
            Value::Float(2.5),
            Value::Str("abc".into()),
            Value::Date(9),
            Value::Null,
            Value::Float(f64::NAN),
        ];
        for a in &vals {
            assert_eq!(a.view().hash64(), a.hash64());
            assert_eq!(a.view().to_value().hash64(), a.hash64());
            for b in &vals {
                assert_eq!(a.view().total_cmp(&b.view()), a.total_cmp(b), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(ValueRef::Int(5).as_float(), Some(5.0));
        assert!(ValueRef::Null.is_null());
        assert_eq!(Value::Str("x".into()).view(), ValueRef::Str("x"));
    }
}
