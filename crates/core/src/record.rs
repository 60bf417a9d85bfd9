//! Records: the unit of privacy in (one-sided) differential privacy.
//!
//! A [`Record`] is a small, ordered collection of named [`Value`]s. The OSDP
//! policy function classifies each record as sensitive or non-sensitive based
//! on these values — which is precisely why the *fact* that a record is
//! sensitive must itself be protected (Section 3 of the paper).

use crate::error::{OsdpError, Result};
use crate::value::Value;
use std::fmt;

/// Identifier for a record inside a [`crate::Database`].
///
/// The identifier is positional bookkeeping used by data generators and
/// experiments (e.g. to join a trajectory back to its owner); it carries no
/// privacy semantics and is never released by mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u64);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A schema-light database record: an ordered list of `(field, value)` pairs.
///
/// Field lookup is linear; records are expected to have a handful of fields
/// (the paper's use cases have 2–6), so a sorted map would cost more in
/// allocation than it saves in search.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self { fields: Vec::new() }
    }

    /// Starts building a record fluently.
    ///
    /// ```
    /// use osdp_core::{Record, Value};
    /// let r = Record::builder()
    ///     .field("age", Value::Int(34))
    ///     .field("opt_in", Value::Bool(true))
    ///     .build();
    /// assert_eq!(r.get("age"), Some(&Value::Int(34)));
    /// ```
    pub fn builder() -> RecordBuilder {
        RecordBuilder { record: Record::new() }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Sets (or overwrites) a field.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.fields.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.fields.push((name, value));
        }
    }

    /// Returns the value of a field, if present.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Returns the value of a field or a [`OsdpError::MissingField`] error.
    pub fn require(&self, name: &str) -> Result<&Value> {
        self.get(name).ok_or_else(|| OsdpError::MissingField { field: name.to_owned() })
    }

    /// Returns an integer field, erroring if missing or of the wrong type.
    pub fn int(&self, name: &str) -> Result<i64> {
        self.require(name)?
            .as_int()
            .ok_or(OsdpError::TypeMismatch { field: name.to_owned(), expected: "Int" })
    }

    /// Returns a float field (accepting integers), erroring if missing or of
    /// the wrong type.
    pub fn float(&self, name: &str) -> Result<f64> {
        self.require(name)?
            .as_float()
            .ok_or(OsdpError::TypeMismatch { field: name.to_owned(), expected: "Float" })
    }

    /// Returns a boolean field, erroring if missing or of the wrong type.
    pub fn bool(&self, name: &str) -> Result<bool> {
        self.require(name)?
            .as_bool()
            .ok_or(OsdpError::TypeMismatch { field: name.to_owned(), expected: "Bool" })
    }

    /// Returns a categorical field, erroring if missing or of the wrong type.
    pub fn categorical(&self, name: &str) -> Result<u32> {
        self.require(name)?
            .as_categorical()
            .ok_or(OsdpError::TypeMismatch { field: name.to_owned(), expected: "Categorical" })
    }

    /// Returns a text field, erroring if missing or of the wrong type.
    pub fn text(&self, name: &str) -> Result<&str> {
        self.require(name)?
            .as_text()
            .ok_or(OsdpError::TypeMismatch { field: name.to_owned(), expected: "Text" })
    }

    /// Iterates over `(field, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Field names in insertion order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| n.as_str())
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {value}")?;
        }
        write!(f, "}}")
    }
}

impl<K: Into<String>, V: Into<Value>> FromIterator<(K, V)> for Record {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut record = Record::new();
        for (k, v) in iter {
            record.set(k, v);
        }
        record
    }
}

/// Fluent builder returned by [`Record::builder`].
#[derive(Debug, Default)]
pub struct RecordBuilder {
    record: Record,
}

impl RecordBuilder {
    /// Adds a field.
    pub fn field(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.record.set(name, value);
        self
    }

    /// Finishes building.
    pub fn build(self) -> Record {
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record::builder()
            .field("age", Value::Int(42))
            .field("duration", Value::Float(3.5))
            .field("opt_in", Value::Bool(false))
            .field("zone", Value::Categorical(7))
            .field("name", Value::Text("alice".into()))
            .build()
    }

    #[test]
    fn builder_and_getters_roundtrip() {
        let r = sample();
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert_eq!(r.int("age").unwrap(), 42);
        assert_eq!(r.float("duration").unwrap(), 3.5);
        assert_eq!(r.float("age").unwrap(), 42.0, "ints widen to float");
        assert!(!r.bool("opt_in").unwrap());
        assert_eq!(r.categorical("zone").unwrap(), 7);
        assert_eq!(r.text("name").unwrap(), "alice");
    }

    #[test]
    fn set_overwrites_existing_field() {
        let mut r = sample();
        r.set("age", Value::Int(17));
        assert_eq!(r.int("age").unwrap(), 17);
        assert_eq!(r.len(), 5, "overwrite must not add a new field");
    }

    #[test]
    fn missing_and_mistyped_fields_error() {
        let r = sample();
        assert!(matches!(r.int("missing"), Err(OsdpError::MissingField { .. })));
        assert!(matches!(r.int("name"), Err(OsdpError::TypeMismatch { .. })));
        assert!(matches!(r.bool("age"), Err(OsdpError::TypeMismatch { .. })));
        assert!(matches!(r.categorical("age"), Err(OsdpError::TypeMismatch { .. })));
        assert!(matches!(r.text("age"), Err(OsdpError::TypeMismatch { .. })));
        assert!(matches!(r.float("name"), Err(OsdpError::TypeMismatch { .. })));
    }

    #[test]
    fn from_iterator_collects_pairs() {
        let r: Record = vec![("a", 1i64), ("b", 2i64)].into_iter().collect();
        assert_eq!(r.int("a").unwrap(), 1);
        assert_eq!(r.int("b").unwrap(), 2);
    }

    #[test]
    fn display_lists_fields_in_order() {
        let r = Record::builder().field("a", 1i64).field("b", true).build();
        assert_eq!(r.to_string(), "{a: 1, b: true}");
        assert_eq!(RecordId(3).to_string(), "r3");
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let r = sample();
        let names: Vec<&str> = r.field_names().collect();
        assert_eq!(names, vec!["age", "duration", "opt_in", "zone", "name"]);
        let pairs: Vec<(&str, &Value)> = r.iter().collect();
        assert_eq!(pairs[0].0, "age");
        assert_eq!(pairs[4].1, &Value::Text("alice".into()));
    }
}
