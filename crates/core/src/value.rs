//! Typed attribute values.
//!
//! Records in the OSDP data model are schema-light: each record is a small map
//! from field names to [`Value`]s. Policies inspect these values to decide
//! whether a record is sensitive (e.g. *"records of minors are sensitive"*,
//! *"records of users who opted out are sensitive"*), and histogram queries
//! group by them.

use std::cmp::Ordering;
use std::fmt;

/// A single attribute value stored in a [`crate::Record`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A signed integer (ages, counts, identifiers).
    Int(i64),
    /// A floating point number (durations, measurements).
    Float(f64),
    /// A UTF-8 string (names, free text).
    Text(String),
    /// A boolean flag (opt-in / opt-out).
    Bool(bool),
    /// A categorical code: an index into some [`crate::CategoricalDomain`].
    ///
    /// Categorical values are what histogram queries bin on; using a plain
    /// index keeps binning allocation-free.
    Categorical(u32),
    /// An explicit null / missing marker.
    Null,
}

impl Value {
    /// Returns the integer payload, if this value is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, accepting both [`Value::Float`] and
    /// [`Value::Int`] (widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the text payload, if this value is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(v) => Some(v.as_str()),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this value is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the categorical code, if this value is a [`Value::Categorical`].
    pub fn as_categorical(&self) -> Option<u32> {
        match self {
            Value::Categorical(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether this value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short, stable name of the variant, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Text(_) => "Text",
            Value::Bool(_) => "Bool",
            Value::Categorical(_) => "Categorical",
            Value::Null => "Null",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Categorical(v) => write!(f, "#{v}"),
            Value::Null => write!(f, "null"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Categorical(v)
    }
}

/// Total ordering over values, used to build deterministic histograms and
/// sorted record listings.
///
/// The ordering is: Null < Bool < Int < Float < Categorical < Text, and within
/// a variant the natural order of the payload. Floats compare with
/// [`f64::total_cmp`], so NaNs have a defined position instead of poisoning
/// the order.
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp_total(other))
    }
}

impl Value {
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Categorical(_) => 4,
            Value::Text(_) => 5,
        }
    }

    /// Total comparison used by [`PartialOrd`]; exposed because callers
    /// sometimes need an `Ord`-like comparator for sorting heterogeneous
    /// value lists.
    pub fn cmp_total(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Categorical(a), Categorical(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_expected_payloads() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Categorical(7).as_categorical(), Some(7));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Float(1.0).as_int(), None);
        assert_eq!(Value::Int(1).as_bool(), None);
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(String::from("hi")), Value::Text("hi".into()));
        assert_eq!(Value::from(9u32), Value::Categorical(9));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Int(4).to_string(), "4");
        assert_eq!(Value::Categorical(4).to_string(), "#4");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut vals = [
            Value::Text("b".into()),
            Value::Int(2),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
            Value::Categorical(0),
            Value::Int(-1),
        ];
        vals.sort_by(|a, b| a.cmp_total(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(-1));
        assert_eq!(*vals.last().unwrap(), Value::Text("b".into()));
    }

    #[test]
    fn nan_has_a_defined_order() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(0.0);
        // total_cmp puts NaN above all numbers; the point is it's consistent.
        assert_eq!(a.cmp_total(&b), Ordering::Greater);
        assert_eq!(b.cmp_total(&a), Ordering::Less);
        assert_eq!(a.cmp_total(&a), Ordering::Equal);
    }

    #[test]
    fn type_names_are_stable() {
        assert_eq!(Value::Int(0).type_name(), "Int");
        assert_eq!(Value::Float(0.0).type_name(), "Float");
        assert_eq!(Value::Text(String::new()).type_name(), "Text");
        assert_eq!(Value::Bool(false).type_name(), "Bool");
        assert_eq!(Value::Categorical(0).type_name(), "Categorical");
        assert_eq!(Value::Null.type_name(), "Null");
    }
}
