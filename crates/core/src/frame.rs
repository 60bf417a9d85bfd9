//! Columnar frames: the vectorized data plane.
//!
//! The hot loop of every OSDP release (Section 5.1 of the paper) is the same
//! scan: classify each record with the policy `P`, split the database into its
//! sensitive and non-sensitive parts, and bin both into histograms. Executing
//! that scan one record at a time through boxed [`crate::policy::Policy`]
//! closures costs a virtual call (plus a field lookup) per record per release.
//! This module provides the columnar alternative:
//!
//! * [`ColumnarFrame`] — a column-oriented snapshot of a
//!   [`crate::Database`]`<`[`Record`]`>`: one typed [`Column`] per field, plus
//!   optional per-row *weights* (row multiplicities), so pre-aggregated
//!   histograms can be represented without expanding every record
//!   ([`ColumnarFrame::from_histogram_pair`]).
//! * [`PolicyMask`] — a packed bitmask over rows; the result of evaluating a
//!   policy over a frame (bit set ⇔ the row is **non-sensitive**). The same
//!   type doubles as the per-column presence mask.
//! * [`CompiledPolicy`] — the compiled, vectorized form of a policy: instead
//!   of `classify(&record)` per record, one pass over a single column
//!   produces the whole [`PolicyMask`].
//! * [`BinSpec`] — the compiled form of a `GROUP BY` bin assignment: instead
//!   of a boxed `Fn(&Record) -> Option<usize>` per record, one pass over a
//!   single column produces every bin index.
//!
//! Backends (in `osdp-engine`) combine the two compiled forms into a full
//! vectorized scan and cache the [`PolicyMask`] per policy, so repeated
//! releases under the same policy perform **zero** policy evaluations.
//!
//! The compiled forms are *exact* mirrors of their row-at-a-time reference
//! semantics: for any database, evaluating a compiled policy or bin spec over
//! `ColumnarFrame::from_database(&db)` yields bit-for-bit the same
//! classification and binning as evaluating the original policy/closure over
//! the records (property-tested in `tests/backend_parity.rs`).

use crate::database::Database;
use crate::error::{OsdpError, Result};
use crate::histogram::Histogram;
use crate::record::Record;
use crate::value::Value;
use std::sync::Arc;

/// Field name of the bin column in a frame produced by
/// [`ColumnarFrame::from_histogram_pair`].
pub const PAIR_BIN_FIELD: &str = "bin";

/// Field name of the non-sensitive flag column in a frame produced by
/// [`ColumnarFrame::from_histogram_pair`].
pub const PAIR_FLAG_FIELD: &str = "non_sensitive";

/// Sentinel bin index returned by [`BinSpec::assign`] for rows that fall
/// outside the query's domain (missing field, wrong type, negative or
/// out-of-range value).
pub const DROPPED_BIN: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// PolicyMask
// ---------------------------------------------------------------------------

/// A packed bitmask over the rows of a frame.
///
/// The primary use is the result of a policy evaluation — bit set ⇔ the row
/// is classified **non-sensitive** (`P(r) = 1`) — hence the name; the same
/// type also serves as the per-column presence mask of a [`ColumnarFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyMask {
    words: Vec<u64>,
    len: usize,
}

impl PolicyMask {
    /// An all-clear (all-sensitive) mask over `len` rows.
    pub fn zeros(len: usize) -> Self {
        Self { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// An all-set (all-non-sensitive) mask over `len` rows.
    pub fn ones(len: usize) -> Self {
        let mut mask = Self { words: vec![u64::MAX; len.div_ceil(64)], len };
        mask.clear_tail();
        mask
    }

    /// Builds a mask by evaluating `bit_of` on every row index.
    pub fn from_fn(len: usize, mut bit_of: impl FnMut(usize) -> bool) -> Self {
        let mut mask = Self::zeros(len);
        for i in 0..len {
            if bit_of(i) {
                mask.set(i, true);
            }
        }
        mask
    }

    /// Number of rows covered by the mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit for row `i` (panics if out of range).
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "row {i} out of range for mask of {} rows", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit for row `i` (panics if out of range).
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "row {i} out of range for mask of {} rows", self.len);
        if bit {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Number of set bits (non-sensitive rows).
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits (sensitive rows).
    pub fn count_clear(&self) -> usize {
        self.len - self.count_set()
    }

    /// The packed 64-bit words (the tail beyond `len` is kept zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Indices of set rows, ascending.
    pub fn set_indices(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.get(i)).collect()
    }

    /// Zeroes the bits beyond `len` in the last word.
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Columns
// ---------------------------------------------------------------------------

/// The typed payload of one frame column.
///
/// The typed variants are the vectorizable fast paths; [`Column::Values`] is
/// the exact fallback for text, explicit nulls and heterogeneously typed
/// fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Signed integers ([`Value::Int`]).
    Int(Vec<i64>),
    /// Floating point numbers ([`Value::Float`]).
    Float(Vec<f64>),
    /// Booleans ([`Value::Bool`]).
    Bool(Vec<bool>),
    /// Categorical codes ([`Value::Categorical`]).
    Categorical(Vec<u32>),
    /// 64-bit set-membership masks (e.g. the access points a trajectory
    /// visits). There is no [`Value`] analog; records carry the same bits as
    /// [`Value::Int`] and the compiled predicates treat the two
    /// interchangeably.
    Mask64(Vec<u64>),
    /// Arbitrary values, stored as-is (the exact row semantics).
    Values(Vec<Value>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Categorical(v) => v.len(),
            Column::Mask64(v) => v.len(),
            Column::Values(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short, stable name of the storage variant.
    pub fn type_name(&self) -> &'static str {
        match self {
            Column::Int(_) => "Int",
            Column::Float(_) => "Float",
            Column::Bool(_) => "Bool",
            Column::Categorical(_) => "Categorical",
            Column::Mask64(_) => "Mask64",
            Column::Values(_) => "Values",
        }
    }

    /// Reconstructs the [`Value`] stored at `row` (clones text).
    ///
    /// [`Column::Mask64`] values surface as [`Value::Int`] carrying the same
    /// bit pattern, matching how records store membership masks.
    fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Float(v) => Value::Float(v[row]),
            Column::Bool(v) => Value::Bool(v[row]),
            Column::Categorical(v) => Value::Categorical(v[row]),
            Column::Mask64(v) => Value::Int(v[row] as i64),
            Column::Values(v) => v[row].clone(),
        }
    }
}

/// A named column plus its presence mask.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameColumn {
    name: String,
    values: Column,
    /// Rows where the field is present; `None` means every row has it.
    present: Option<PolicyMask>,
}

impl FrameColumn {
    /// The field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The typed payload.
    pub fn values(&self) -> &Column {
        &self.values
    }

    /// The presence mask (bit set ⇔ the row has the field), or `None` when
    /// every row has it.
    pub fn presence(&self) -> Option<&PolicyMask> {
        self.present.as_ref()
    }

    /// Whether the field is present in `row`.
    pub fn is_present(&self, row: usize) -> bool {
        self.present.as_ref().is_none_or(|p| p.get(row))
    }

    /// The value at `row`, or `None` when the field is absent there.
    pub fn value_at(&self, row: usize) -> Option<Value> {
        if self.is_present(row) {
            Some(self.values.value(row))
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// ColumnarFrame
// ---------------------------------------------------------------------------

/// A column-oriented snapshot of a record database.
///
/// Rows may carry *weights* (multiplicities): a weighted frame represents
/// `weight[i]` identical copies of row `i`, which is how pre-aggregated
/// histogram pairs are represented without materialising millions of records
/// (see [`ColumnarFrame::from_histogram_pair`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarFrame {
    len: usize,
    weights: Option<Vec<f64>>,
    columns: Vec<FrameColumn>,
}

impl ColumnarFrame {
    /// Starts building a frame of `len` rows column by column.
    pub fn builder(len: usize) -> FrameBuilder {
        FrameBuilder { len, weights: None, columns: Vec::new() }
    }

    /// Converts a record database into its columnar form.
    ///
    /// Each field becomes one column: if every present value of the field has
    /// the same primitive type the column is stored typed (`Int`, `Float`,
    /// `Bool`, `Categorical`); text, explicit nulls and mixed-type fields fall
    /// back to [`Column::Values`], preserving each value exactly. Rows missing
    /// a field are tracked in the column's presence mask.
    pub fn from_database(db: &Database<Record>) -> Self {
        #[derive(Clone, Copy, PartialEq)]
        enum Kind {
            Int,
            Float,
            Bool,
            Categorical,
            Mixed,
        }
        // Pass 1: field order, per-field type uniformity and presence counts.
        // A name → slot index keeps both passes linear in the number of
        // (record, field) pairs regardless of how many distinct fields the
        // schema accumulates.
        let len = db.len();
        let mut fields: Vec<(String, Kind, usize)> = Vec::new();
        let mut slot_of: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for record in db.iter() {
            for (name, value) in record.iter() {
                let kind = match value {
                    Value::Int(_) => Kind::Int,
                    Value::Float(_) => Kind::Float,
                    Value::Bool(_) => Kind::Bool,
                    Value::Categorical(_) => Kind::Categorical,
                    Value::Text(_) | Value::Null => Kind::Mixed,
                };
                match slot_of.get(name) {
                    Some(&slot) => {
                        let (_, k, count) = &mut fields[slot];
                        if *k != kind {
                            *k = Kind::Mixed;
                        }
                        *count += 1;
                    }
                    None => {
                        slot_of.insert(name.to_string(), fields.len());
                        fields.push((name.to_string(), kind, 1));
                    }
                }
            }
        }
        // Pass 2: fill the columns.
        let mut columns: Vec<FrameColumn> = fields
            .iter()
            .map(|(name, kind, count)| {
                let values = match kind {
                    Kind::Int => Column::Int(vec![0; len]),
                    Kind::Float => Column::Float(vec![0.0; len]),
                    Kind::Bool => Column::Bool(vec![false; len]),
                    Kind::Categorical => Column::Categorical(vec![0; len]),
                    Kind::Mixed => Column::Values(vec![Value::Null; len]),
                };
                let present = if *count == len { None } else { Some(PolicyMask::zeros(len)) };
                FrameColumn { name: name.clone(), values, present }
            })
            .collect();
        for (row, record) in db.iter().enumerate() {
            for (name, value) in record.iter() {
                let slot = *slot_of.get(name).expect("every field was registered in pass 1");
                let column = &mut columns[slot];
                match (&mut column.values, value) {
                    (Column::Int(v), Value::Int(x)) => v[row] = *x,
                    (Column::Float(v), Value::Float(x)) => v[row] = *x,
                    (Column::Bool(v), Value::Bool(x)) => v[row] = *x,
                    (Column::Categorical(v), Value::Categorical(x)) => v[row] = *x,
                    (Column::Values(v), x) => v[row] = x.clone(),
                    _ => unreachable!("pass 1 demoted mixed-type fields to Values"),
                }
                if let Some(present) = &mut column.present {
                    present.set(row, true);
                }
            }
        }
        Self { len, weights: None, columns }
    }

    /// Expands a `(x, x_ns)` histogram pair into a weighted two-column frame.
    ///
    /// Every bin `b` contributes up to two rows: `(bin = b, non_sensitive =
    /// true)` with weight `x_ns[b]` and `(bin = b, non_sensitive = false)`
    /// with weight `x[b] − x_ns[b]` (zero-weight rows are omitted). Scanning
    /// the frame with the query `GROUP BY bin` under the policy *sensitive
    /// when `non_sensitive = false`* reproduces the pair — which is how
    /// histogram-level workloads (DPBench, sampled policies) ride the same
    /// columnar pipeline as record-level databases.
    ///
    /// Reconstruction is **bit-exact for integer-valued counts** (up to
    /// 2⁵³, i.e. every real histogram of record counts): the split weights
    /// re-sum to `x[b]` without rounding. Fractional counts reproduce the
    /// pair only up to one f64 rounding step per bin
    /// (`x_ns[b] + (x[b] − x_ns[b]) ≠ x[b]` in general).
    ///
    /// Fails when the histograms disagree on the domain, `x_ns` has a
    /// negative count, or `x_ns` exceeds `x` in some bin.
    pub fn from_histogram_pair(full: &Histogram, non_sensitive: &Histogram) -> Result<Self> {
        if full.len() != non_sensitive.len() {
            return Err(OsdpError::DimensionMismatch {
                expected: full.len(),
                actual: non_sensitive.len(),
            });
        }
        if !non_sensitive.is_non_negative() {
            return Err(OsdpError::InvalidInput(
                "non-sensitive histogram has a negative count".into(),
            ));
        }
        if !non_sensitive.dominated_by(full)? {
            return Err(OsdpError::InvalidInput(
                "non-sensitive histogram exceeds the full histogram in some bin".into(),
            ));
        }
        if full.len() >= DROPPED_BIN as usize {
            return Err(OsdpError::InvalidInput(format!(
                "histogram domain of {} bins exceeds the frame bin limit",
                full.len()
            )));
        }
        let mut bins: Vec<u32> = Vec::new();
        let mut flags: Vec<bool> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for (b, (&x, &x_ns)) in full.counts().iter().zip(non_sensitive.counts()).enumerate() {
            if x_ns > 0.0 {
                bins.push(b as u32);
                flags.push(true);
                weights.push(x_ns);
            }
            let sensitive = x - x_ns;
            if sensitive > 0.0 {
                bins.push(b as u32);
                flags.push(false);
                weights.push(sensitive);
            }
        }
        Self::builder(bins.len())
            .column_categorical(PAIR_BIN_FIELD, bins)
            .column_bool(PAIR_FLAG_FIELD, flags)
            .weights(weights)
            .build()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns, in field order.
    pub fn columns(&self) -> &[FrameColumn] {
        &self.columns
    }

    /// Looks up a column by field name.
    pub fn column(&self, name: &str) -> Option<&FrameColumn> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// The row weights, when the frame is weighted.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// The multiplicity of row `i` (1 for unweighted frames).
    pub fn weight(&self, i: usize) -> f64 {
        self.weights.as_ref().map_or(1.0, |w| w[i])
    }

    /// Total record mass: the number of rows, or the sum of weights.
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.iter().sum(),
            None => self.len as f64,
        }
    }
}

/// Column-by-column frame construction (see [`ColumnarFrame::builder`]).
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    len: usize,
    weights: Option<Vec<f64>>,
    columns: Vec<FrameColumn>,
}

impl FrameBuilder {
    /// Adds a column with an explicit payload and presence mask.
    pub fn column(mut self, name: impl Into<String>, values: Column) -> Self {
        self.columns.push(FrameColumn { name: name.into(), values, present: None });
        self
    }

    /// Adds a column whose field is absent in the rows cleared in `present`.
    pub fn column_with_presence(
        mut self,
        name: impl Into<String>,
        values: Column,
        present: PolicyMask,
    ) -> Self {
        self.columns.push(FrameColumn { name: name.into(), values, present: Some(present) });
        self
    }

    /// Adds an integer column.
    pub fn column_int(self, name: impl Into<String>, values: Vec<i64>) -> Self {
        self.column(name, Column::Int(values))
    }

    /// Adds a float column.
    pub fn column_float(self, name: impl Into<String>, values: Vec<f64>) -> Self {
        self.column(name, Column::Float(values))
    }

    /// Adds a boolean column.
    pub fn column_bool(self, name: impl Into<String>, values: Vec<bool>) -> Self {
        self.column(name, Column::Bool(values))
    }

    /// Adds a categorical-code column.
    pub fn column_categorical(self, name: impl Into<String>, values: Vec<u32>) -> Self {
        self.column(name, Column::Categorical(values))
    }

    /// Adds a 64-bit membership-mask column.
    pub fn column_mask64(self, name: impl Into<String>, values: Vec<u64>) -> Self {
        self.column(name, Column::Mask64(values))
    }

    /// Adds an exact-value column.
    pub fn column_values(self, name: impl Into<String>, values: Vec<Value>) -> Self {
        self.column(name, Column::Values(values))
    }

    /// Sets per-row weights (row multiplicities).
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Finishes the frame, validating column lengths, presence-mask lengths,
    /// weight length/signs and field-name uniqueness.
    pub fn build(self) -> Result<ColumnarFrame> {
        for column in &self.columns {
            if column.values.len() != self.len {
                return Err(OsdpError::DimensionMismatch {
                    expected: self.len,
                    actual: column.values.len(),
                });
            }
            if let Some(present) = &column.present {
                if present.len() != self.len {
                    return Err(OsdpError::DimensionMismatch {
                        expected: self.len,
                        actual: present.len(),
                    });
                }
            }
        }
        for (i, a) in self.columns.iter().enumerate() {
            if self.columns[i + 1..].iter().any(|b| b.name == a.name) {
                return Err(OsdpError::InvalidInput(format!(
                    "duplicate frame column {:?}",
                    a.name
                )));
            }
        }
        if let Some(weights) = &self.weights {
            if weights.len() != self.len {
                return Err(OsdpError::DimensionMismatch {
                    expected: self.len,
                    actual: weights.len(),
                });
            }
            if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                return Err(OsdpError::InvalidInput(
                    "frame weights must be finite and non-negative".into(),
                ));
            }
        }
        Ok(ColumnarFrame { len: self.len, weights: self.weights, columns: self.columns })
    }
}

// ---------------------------------------------------------------------------
// CompiledPolicy
// ---------------------------------------------------------------------------

/// The compiled, vectorized form of a policy function.
///
/// Produced by [`crate::policy::Policy::compiled`]; evaluated by
/// [`CompiledPolicy::evaluate`] in one pass over a single column instead of a
/// virtual `classify` call per record. Each variant mirrors its row-at-a-time
/// reference semantics *exactly* — including the treatment of missing fields
/// and unexpectedly typed values — so row and columnar backends agree
/// bit-for-bit.
#[derive(Clone)]
pub enum CompiledPolicy {
    /// Every row is sensitive (`P_all`).
    AllSensitive,
    /// No row is sensitive.
    NoneSensitive,
    /// Sensitive when the integer field is `≤ threshold` (non-integer values
    /// are non-sensitive; missing fields follow `missing_is_sensitive`).
    IntAtMost {
        /// The inspected field.
        field: String,
        /// Sensitivity threshold (inclusive).
        threshold: i64,
        /// Classification of rows missing the field.
        missing_is_sensitive: bool,
    },
    /// Sensitive when the boolean field is `false` **or** the value is not a
    /// boolean (the fail-closed opt-in semantics); missing fields follow
    /// `missing_is_sensitive`.
    OptIn {
        /// The inspected field.
        field: String,
        /// Classification of rows missing the field.
        missing_is_sensitive: bool,
    },
    /// Sensitive when the integer/mask field intersects `sensitive_bits`
    /// (integers are reinterpreted as raw 64-bit patterns; non-integer values
    /// are non-sensitive; missing fields follow `missing_is_sensitive`).
    MaskIntersects {
        /// The inspected field.
        field: String,
        /// The membership bits that make a row sensitive.
        sensitive_bits: u64,
        /// Classification of rows missing the field.
        missing_is_sensitive: bool,
    },
    /// The general single-attribute form: sensitive when the predicate holds
    /// on the field's value; missing fields follow `missing_is_sensitive`.
    /// Still one pass over one column, but with an indirect predicate call
    /// per present row.
    Attribute {
        /// The inspected field.
        field: String,
        /// Classification of rows missing the field.
        missing_is_sensitive: bool,
        /// Predicate returning `true` for sensitive values.
        sensitive_when: Arc<dyn Fn(&Value) -> bool + Send + Sync>,
    },
}

impl std::fmt::Debug for CompiledPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompiledPolicy::AllSensitive => f.write_str("CompiledPolicy::AllSensitive"),
            CompiledPolicy::NoneSensitive => f.write_str("CompiledPolicy::NoneSensitive"),
            CompiledPolicy::IntAtMost { field, threshold, .. } => f
                .debug_struct("CompiledPolicy::IntAtMost")
                .field("field", field)
                .field("threshold", threshold)
                .finish(),
            CompiledPolicy::OptIn { field, .. } => {
                f.debug_struct("CompiledPolicy::OptIn").field("field", field).finish()
            }
            CompiledPolicy::MaskIntersects { field, sensitive_bits, .. } => f
                .debug_struct("CompiledPolicy::MaskIntersects")
                .field("field", field)
                .field("sensitive_bits", sensitive_bits)
                .finish(),
            CompiledPolicy::Attribute { field, .. } => {
                f.debug_struct("CompiledPolicy::Attribute").field("field", field).finish()
            }
        }
    }
}

impl CompiledPolicy {
    /// Evaluates the policy over a frame, returning the mask of
    /// **non-sensitive** rows.
    pub fn evaluate(&self, frame: &ColumnarFrame) -> PolicyMask {
        let len = frame.len();
        let (field, missing_is_sensitive): (&str, bool) = match self {
            CompiledPolicy::AllSensitive => return PolicyMask::zeros(len),
            CompiledPolicy::NoneSensitive => return PolicyMask::ones(len),
            CompiledPolicy::IntAtMost { field, missing_is_sensitive, .. }
            | CompiledPolicy::OptIn { field, missing_is_sensitive }
            | CompiledPolicy::MaskIntersects { field, missing_is_sensitive, .. }
            | CompiledPolicy::Attribute { field, missing_is_sensitive, .. } => {
                (field, *missing_is_sensitive)
            }
        };
        let Some(column) = frame.column(field) else {
            // The whole field is absent: every row counts as missing.
            return if missing_is_sensitive {
                PolicyMask::zeros(len)
            } else {
                PolicyMask::ones(len)
            };
        };
        let mut mask = PolicyMask::zeros(len);
        match (self, column.values()) {
            // Branch-free comparisons over the typed fast paths.
            (CompiledPolicy::IntAtMost { threshold, .. }, Column::Int(values)) => {
                for (i, &v) in values.iter().enumerate() {
                    mask.set(i, v > *threshold);
                }
            }
            (CompiledPolicy::OptIn { .. }, Column::Bool(values)) => {
                for (i, &v) in values.iter().enumerate() {
                    mask.set(i, v);
                }
            }
            (CompiledPolicy::MaskIntersects { sensitive_bits, .. }, Column::Mask64(values)) => {
                for (i, &v) in values.iter().enumerate() {
                    mask.set(i, v & sensitive_bits == 0);
                }
            }
            (CompiledPolicy::MaskIntersects { sensitive_bits, .. }, Column::Int(values)) => {
                for (i, &v) in values.iter().enumerate() {
                    mask.set(i, (v as u64) & sensitive_bits == 0);
                }
            }
            // Exact-value storage: apply the reference predicate directly.
            (_, Column::Values(values)) => {
                for (i, v) in values.iter().enumerate() {
                    mask.set(i, !self.value_is_sensitive(v));
                }
            }
            // A typed column the predicate does not special-case: rebuild the
            // value on the stack and apply the reference predicate. Exact, at
            // one indirect call per present row.
            (_, column) => {
                for i in 0..len {
                    mask.set(i, !self.value_is_sensitive(&column.value(i)));
                }
            }
        }
        // Missing rows follow the policy's fail-open/closed choice.
        if let Some(present) = &column.present {
            for i in 0..len {
                if !present.get(i) {
                    mask.set(i, !missing_is_sensitive);
                }
            }
        }
        mask
    }

    /// The row-at-a-time reference predicate: is this value sensitive?
    fn value_is_sensitive(&self, value: &Value) -> bool {
        match self {
            CompiledPolicy::AllSensitive => true,
            CompiledPolicy::NoneSensitive => false,
            CompiledPolicy::IntAtMost { threshold, .. } => {
                value.as_int().is_some_and(|v| v <= *threshold)
            }
            CompiledPolicy::OptIn { .. } => !value.as_bool().unwrap_or(false),
            CompiledPolicy::MaskIntersects { sensitive_bits, .. } => {
                value.as_int().is_some_and(|v| (v as u64) & sensitive_bits != 0)
            }
            CompiledPolicy::Attribute { sensitive_when, .. } => sensitive_when(value),
        }
    }
}

// ---------------------------------------------------------------------------
// BinSpec
// ---------------------------------------------------------------------------

/// The compiled form of a histogram bin assignment (`GROUP BY`).
///
/// [`BinSpec::bin_of_record`] is the row-at-a-time reference semantics;
/// [`BinSpec::assign`] is the vectorized evaluation over a frame. The two
/// agree exactly, including which rows are dropped.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BinSpec {
    /// The bin is the categorical code of `field` (non-categorical or missing
    /// values are dropped).
    Categorical {
        /// The grouped field.
        field: String,
    },
    /// The bin is `(value − origin) / width` of the integer `field`
    /// (non-integer or missing values, values below `origin`, and
    /// non-positive widths drop the row).
    IntLinear {
        /// The grouped field.
        field: String,
        /// Value mapped to bin 0.
        origin: i64,
        /// Width of each bin (must be ≥ 1 to bin anything).
        width: i64,
    },
}

impl BinSpec {
    /// The field this spec groups by.
    pub fn field(&self) -> &str {
        match self {
            BinSpec::Categorical { field } | BinSpec::IntLinear { field, .. } => field,
        }
    }

    /// Row-at-a-time reference semantics: the bin of one record, or `None`
    /// when the record is dropped. Out-of-range bins are *not* filtered here;
    /// backends compare against the query's bin count, exactly like handwritten
    /// `count_by` closures.
    pub fn bin_of_record(&self, record: &Record) -> Option<usize> {
        self.bin_of_value(record.get(self.field())?)
    }

    /// The bin of one field value (shared by both evaluation paths).
    pub fn bin_of_value(&self, value: &Value) -> Option<usize> {
        match self {
            BinSpec::Categorical { .. } => value.as_categorical().map(|c| c as usize),
            BinSpec::IntLinear { origin, width, .. } => {
                if *width < 1 {
                    return None;
                }
                let v = value.as_int()?;
                let offset = v.checked_sub(*origin)?;
                if offset < 0 {
                    return None;
                }
                Some((offset / width) as usize)
            }
        }
    }

    /// Vectorized evaluation: one bin index per row, with [`DROPPED_BIN`]
    /// marking dropped or out-of-range rows. `bins` is the query's domain
    /// size and must stay below [`DROPPED_BIN`].
    pub fn assign(&self, frame: &ColumnarFrame, bins: usize) -> Result<Vec<u32>> {
        if bins >= DROPPED_BIN as usize {
            return Err(OsdpError::InvalidInput(format!(
                "bin count {bins} exceeds the columnar bin limit"
            )));
        }
        let len = frame.len();
        let mut assignment = vec![DROPPED_BIN; len];
        let Some(column) = frame.column(self.field()) else {
            return Ok(assignment);
        };
        match (self, column.values()) {
            (BinSpec::Categorical { .. }, Column::Categorical(values)) => {
                for (slot, &code) in assignment.iter_mut().zip(values) {
                    if (code as usize) < bins {
                        *slot = code;
                    }
                }
            }
            (BinSpec::IntLinear { origin, width, .. }, Column::Int(values)) if *width >= 1 => {
                for (slot, &v) in assignment.iter_mut().zip(values) {
                    if let Some(offset) = v.checked_sub(*origin) {
                        if offset >= 0 {
                            let bin = (offset / width) as usize;
                            if bin < bins {
                                *slot = bin as u32;
                            }
                        }
                    }
                }
            }
            (_, Column::Values(values)) => {
                for (slot, v) in assignment.iter_mut().zip(values) {
                    if let Some(bin) = self.bin_of_value(v) {
                        if bin < bins {
                            *slot = bin as u32;
                        }
                    }
                }
            }
            // Mask64 columns surface as Int values, so an int-linear spec
            // bins their raw bit patterns.
            (BinSpec::IntLinear { origin, width, .. }, Column::Mask64(values)) if *width >= 1 => {
                for (slot, &v) in assignment.iter_mut().zip(values) {
                    if let Some(offset) = (v as i64).checked_sub(*origin) {
                        if offset >= 0 {
                            let bin = (offset / width) as usize;
                            if bin < bins {
                                *slot = bin as u32;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        // Rows missing the field drop (bin_of_record returns None for them).
        if let Some(present) = &column.present {
            for (i, slot) in assignment.iter_mut().enumerate() {
                if !present.get(i) {
                    *slot = DROPPED_BIN;
                }
            }
        }
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_db() -> Database<Record> {
        vec![
            Record::builder().field("age", 10i64).field("zone", 3u32).field("opt", true).build(),
            Record::builder().field("age", 40i64).field("zone", 1u32).build(),
            Record::builder()
                .field("age", 17i64)
                .field("zone", 9u32)
                .field("opt", false)
                .field("note", "hi")
                .build(),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn policy_mask_basics() {
        let mut m = PolicyMask::zeros(70);
        assert_eq!(m.len(), 70);
        assert!(!m.is_empty());
        assert_eq!(m.count_set(), 0);
        m.set(0, true);
        m.set(69, true);
        assert!(m.get(0) && m.get(69) && !m.get(33));
        assert_eq!(m.count_set(), 2);
        assert_eq!(m.count_clear(), 68);
        assert_eq!(m.set_indices(), vec![0, 69]);
        m.set(69, false);
        assert_eq!(m.count_set(), 1);

        let ones = PolicyMask::ones(70);
        assert_eq!(ones.count_set(), 70);
        assert_eq!(ones.words().len(), 2);
        assert_eq!(ones.words()[1] >> 6, 0, "tail bits stay clear");

        let f = PolicyMask::from_fn(5, |i| i % 2 == 0);
        assert_eq!(f.set_indices(), vec![0, 2, 4]);
        assert!(PolicyMask::zeros(0).is_empty());
    }

    #[test]
    fn from_database_types_columns_and_tracks_presence() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        assert_eq!(frame.len(), 3);
        assert_eq!(frame.total_weight(), 3.0);
        assert!(frame.weights().is_none());
        assert_eq!(frame.weight(1), 1.0);

        let age = frame.column("age").unwrap();
        assert!(matches!(age.values(), Column::Int(_)));
        assert!(age.is_present(0) && age.is_present(1) && age.is_present(2));
        assert_eq!(age.value_at(1), Some(Value::Int(40)));

        let zone = frame.column("zone").unwrap();
        assert!(matches!(zone.values(), Column::Categorical(_)));

        let opt = frame.column("opt").unwrap();
        assert!(matches!(opt.values(), Column::Bool(_)));
        assert!(!opt.is_present(1), "record 1 has no opt field");
        assert_eq!(opt.value_at(1), None);
        assert_eq!(opt.value_at(2), Some(Value::Bool(false)));

        let note = frame.column("note").unwrap();
        assert!(matches!(note.values(), Column::Values(_)), "text falls back to Values");
        assert_eq!(note.value_at(2), Some(Value::Text("hi".into())));
        assert!(frame.column("missing").is_none());
    }

    #[test]
    fn mixed_type_fields_demote_to_values() {
        let db: Database<Record> = vec![
            Record::builder().field("x", 1i64).build(),
            Record::builder().field("x", 2.5f64).build(),
        ]
        .into_iter()
        .collect();
        let frame = ColumnarFrame::from_database(&db);
        let x = frame.column("x").unwrap();
        assert!(matches!(x.values(), Column::Values(_)));
        assert_eq!(x.value_at(0), Some(Value::Int(1)));
        assert_eq!(x.value_at(1), Some(Value::Float(2.5)));
    }

    #[test]
    fn builder_validates_shapes() {
        assert!(ColumnarFrame::builder(2).column_int("a", vec![1]).build().is_err());
        assert!(ColumnarFrame::builder(2)
            .column_int("a", vec![1, 2])
            .column_int("a", vec![3, 4])
            .build()
            .is_err());
        assert!(ColumnarFrame::builder(2)
            .column_int("a", vec![1, 2])
            .weights(vec![1.0])
            .build()
            .is_err());
        assert!(ColumnarFrame::builder(2)
            .column_int("a", vec![1, 2])
            .weights(vec![1.0, -3.0])
            .build()
            .is_err());
        assert!(ColumnarFrame::builder(1)
            .column_with_presence("a", Column::Int(vec![0]), PolicyMask::zeros(2))
            .build()
            .is_err());
        let ok = ColumnarFrame::builder(2)
            .column_int("a", vec![1, 2])
            .column_mask64("m", vec![0b11, 0b00])
            .weights(vec![2.0, 3.0])
            .build()
            .unwrap();
        assert_eq!(ok.total_weight(), 5.0);
        assert_eq!(ok.columns().len(), 2);
        assert_eq!(ok.column("m").unwrap().values().type_name(), "Mask64");
    }

    #[test]
    fn histogram_pair_expansion_reproduces_the_pair() {
        let full = Histogram::from_counts(vec![4.0, 0.0, 3.0, 2.0]);
        let ns = Histogram::from_counts(vec![4.0, 0.0, 1.0, 0.0]);
        let frame = ColumnarFrame::from_histogram_pair(&full, &ns).unwrap();
        // bin 0: ns row only; bin 2: both; bin 3: sensitive row only.
        assert_eq!(frame.len(), 4);
        assert_eq!(frame.total_weight(), full.total());

        // Reconstruct the pair by hand.
        let bins = match frame.column(PAIR_BIN_FIELD).unwrap().values() {
            Column::Categorical(v) => v.clone(),
            other => panic!("unexpected column {other:?}"),
        };
        let flags = match frame.column(PAIR_FLAG_FIELD).unwrap().values() {
            Column::Bool(v) => v.clone(),
            other => panic!("unexpected column {other:?}"),
        };
        let mut rebuilt_full = Histogram::zeros(4);
        let mut rebuilt_ns = Histogram::zeros(4);
        for i in 0..frame.len() {
            rebuilt_full.increment(bins[i] as usize, frame.weight(i));
            if flags[i] {
                rebuilt_ns.increment(bins[i] as usize, frame.weight(i));
            }
        }
        assert_eq!(rebuilt_full, full);
        assert_eq!(rebuilt_ns, ns);
    }

    #[test]
    fn histogram_pair_expansion_rejects_bad_pairs() {
        let full = Histogram::from_counts(vec![1.0, 2.0]);
        assert!(ColumnarFrame::from_histogram_pair(&full, &Histogram::zeros(3)).is_err());
        let exceeds = Histogram::from_counts(vec![5.0, 0.0]);
        assert!(ColumnarFrame::from_histogram_pair(&full, &exceeds).is_err());
        let negative = Histogram::from_counts(vec![-1.0, 0.0]);
        assert!(ColumnarFrame::from_histogram_pair(&full, &negative).is_err());
    }

    #[test]
    fn compiled_constant_policies() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        assert_eq!(CompiledPolicy::AllSensitive.evaluate(&frame).count_set(), 0);
        assert_eq!(CompiledPolicy::NoneSensitive.evaluate(&frame).count_set(), 3);
    }

    #[test]
    fn compiled_int_at_most_matches_reference() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        let p = CompiledPolicy::IntAtMost {
            field: "age".into(),
            threshold: 17,
            missing_is_sensitive: true,
        };
        // ages 10, 40, 17 -> sensitive, non-sensitive, sensitive.
        assert_eq!(p.evaluate(&frame).set_indices(), vec![1]);
        assert!(format!("{p:?}").contains("IntAtMost"));
    }

    #[test]
    fn compiled_opt_in_handles_missing_fields() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        let fail_closed = CompiledPolicy::OptIn { field: "opt".into(), missing_is_sensitive: true };
        // opt: true, missing, false -> non-sensitive, sensitive, sensitive.
        assert_eq!(fail_closed.evaluate(&frame).set_indices(), vec![0]);
        let fail_open = CompiledPolicy::OptIn { field: "opt".into(), missing_is_sensitive: false };
        assert_eq!(fail_open.evaluate(&frame).set_indices(), vec![0, 1]);
    }

    #[test]
    fn compiled_policy_on_absent_column_follows_missing_choice() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        let closed = CompiledPolicy::OptIn { field: "nope".into(), missing_is_sensitive: true };
        assert_eq!(closed.evaluate(&frame).count_set(), 0);
        let open = CompiledPolicy::OptIn { field: "nope".into(), missing_is_sensitive: false };
        assert_eq!(open.evaluate(&frame).count_set(), 3);
    }

    #[test]
    fn compiled_mask_intersects_on_mask_and_int_columns() {
        let frame = ColumnarFrame::builder(3)
            .column_mask64("m", vec![0b0110, 0b1000, 0b0000])
            .column_int("i", vec![0b0110, 0b1000, 0b0000])
            .build()
            .unwrap();
        for field in ["m", "i"] {
            let p = CompiledPolicy::MaskIntersects {
                field: field.into(),
                sensitive_bits: 0b0010,
                missing_is_sensitive: true,
            };
            assert_eq!(p.evaluate(&frame).set_indices(), vec![1, 2], "field {field}");
        }
    }

    #[test]
    fn compiled_attribute_falls_back_to_the_predicate() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        let p = CompiledPolicy::Attribute {
            field: "zone".into(),
            missing_is_sensitive: true,
            sensitive_when: Arc::new(|v: &Value| v.as_categorical().unwrap_or(0) >= 5),
        };
        // zones 3, 1, 9 -> non-sensitive, non-sensitive, sensitive.
        assert_eq!(p.evaluate(&frame).set_indices(), vec![0, 1]);
    }

    #[test]
    fn type_mismatched_predicates_agree_with_reference_semantics() {
        // An IntAtMost policy applied to a Bool column: as_int() is None, so
        // present rows are non-sensitive.
        let frame = ColumnarFrame::builder(2).column_bool("x", vec![true, false]).build().unwrap();
        let p = CompiledPolicy::IntAtMost {
            field: "x".into(),
            threshold: 100,
            missing_is_sensitive: true,
        };
        assert_eq!(p.evaluate(&frame).count_set(), 2);
        // An OptIn policy applied to an Int column: as_bool() is None, so
        // every present row is sensitive (fail-closed opt-in).
        let p2 = CompiledPolicy::OptIn { field: "x".into(), missing_is_sensitive: true };
        let int_frame = ColumnarFrame::builder(2).column_int("x", vec![1, 0]).build().unwrap();
        assert_eq!(p2.evaluate(&int_frame).count_set(), 0);
    }

    #[test]
    fn bin_spec_categorical_assignment() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        let spec = BinSpec::Categorical { field: "zone".into() };
        assert_eq!(spec.field(), "zone");
        // zones 3, 1, 9 with 4 bins: 9 is out of range.
        assert_eq!(spec.assign(&frame, 4).unwrap(), vec![3, 1, DROPPED_BIN]);
        let r = Record::builder().field("zone", 2u32).build();
        assert_eq!(spec.bin_of_record(&r), Some(2));
        let wrong_type = Record::builder().field("zone", 2i64).build();
        assert_eq!(spec.bin_of_record(&wrong_type), None);
    }

    #[test]
    fn bin_spec_int_linear_assignment() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        let spec = BinSpec::IntLinear { field: "age".into(), origin: 10, width: 10 };
        // ages 10, 40, 17 with 3 bins -> 0, dropped (bin 3), 0.
        assert_eq!(spec.assign(&frame, 3).unwrap(), vec![0, DROPPED_BIN, 0]);
        // below origin drops.
        let r = Record::builder().field("age", 9i64).build();
        assert_eq!(spec.bin_of_record(&r), None);
        assert_eq!(spec.bin_of_record(&Record::builder().field("age", 25i64).build()), Some(1));
        // degenerate width drops everything, on both paths.
        let bad = BinSpec::IntLinear { field: "age".into(), origin: 0, width: 0 };
        assert_eq!(bad.assign(&frame, 3).unwrap(), vec![DROPPED_BIN; 3]);
        assert_eq!(bad.bin_of_record(&Record::builder().field("age", 25i64).build()), None);
    }

    #[test]
    fn bin_spec_missing_column_and_rows_drop() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        let spec = BinSpec::Categorical { field: "nope".into() };
        assert_eq!(spec.assign(&frame, 4).unwrap(), vec![DROPPED_BIN; 3]);
        // The opt column is missing in row 1: an opt-grouping spec drops it.
        let by_opt = BinSpec::IntLinear { field: "opt".into(), origin: 0, width: 1 };
        let assignment = by_opt.assign(&frame, 4).unwrap();
        assert_eq!(assignment, vec![DROPPED_BIN; 3], "bool values cannot int-bin");
    }

    #[test]
    fn bin_spec_rejects_oversized_domains() {
        let frame = ColumnarFrame::from_database(&mixed_db());
        let spec = BinSpec::Categorical { field: "zone".into() };
        assert!(spec.assign(&frame, DROPPED_BIN as usize).is_err());
    }

    #[test]
    fn weighted_mask64_frame_roundtrip() {
        let frame = ColumnarFrame::builder(2)
            .column_mask64("aps", vec![0b101, 0b010])
            .weights(vec![7.0, 2.0])
            .build()
            .unwrap();
        assert_eq!(frame.weights(), Some(&[7.0, 2.0][..]));
        assert_eq!(frame.weight(0), 7.0);
        assert_eq!(frame.total_weight(), 9.0);
        assert_eq!(
            frame.column("aps").unwrap().value_at(0),
            Some(Value::Int(0b101)),
            "mask columns surface as Int values"
        );
    }
}
