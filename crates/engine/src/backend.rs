//! Pluggable scan backends: how a session turns *data + policy + query* into
//! a histogram pair.
//!
//! A [`Backend`] owns the data a record-level session releases against and
//! answers one question — [`Backend::scan`]: given a [`QueryPlan`] (bin
//! assignment + policy), produce the full histogram `x` and its non-sensitive
//! sub-histogram `x_ns` (Section 5.1 of the paper). Everything else the
//! session does (budget, audit, sampling) is backend-agnostic, so every
//! future store — sharded, streaming, SQL — plugs in by implementing this one
//! trait instead of re-threading closures through the session.
//!
//! Two implementations ship today:
//!
//! * [`RowBackend`] — the reference row-at-a-time path over any
//!   [`Database<R>`]. It evaluates the boxed bin closure and (on first use
//!   per policy) the virtual policy per record, and caches the resulting
//!   sensitive/non-sensitive partition per `(policy label, policy identity,
//!   epoch version)` so repeated releases under one policy never
//!   re-classify.
//! * [`ColumnarBackend`] — the vectorized path over a
//!   [`ColumnarFrame`]: compiled policies
//!   ([`osdp_core::frame::CompiledPolicy`]) and compiled
//!   bin specs ([`osdp_core::BinSpec`]) evaluate column-at-a-time, the
//!   [`PolicyMask`] partition is cached the same way, and weighted frames
//!   let pre-aggregated histogram pairs ride the identical code path.
//!   Policies or queries without a compiled form fall back to the retained
//!   rows (when constructed via [`ColumnarBackend::from_database`]), so the
//!   backend never answers differently from [`RowBackend`] — only faster.
//!
//! ## Value counts
//!
//! A histogram over a low-cardinality column does not need its rows: it
//! needs how many rows hold each value, and how many of those the policy
//! clears. [`ColumnarBackend`] caches exactly that inside each partition
//! entry — for one column, `full[v − min]`, `non_sensitive[v − min]` and the
//! count of rows missing the field — built in one pass the first time the
//! column is scanned under that partition. Later `IntLinear` scans of an
//! `Int` column and `Categorical` scans of a `Categorical` column fold the
//! counts into bins with [`BinSpec::bin_of_value`] (values it maps to no bin
//! or to a bin `≥ bins` are dropped, as in the row loop): O(max − min) per
//! scan instead of O(rows). Two conditions gate the path, and scans that
//! miss either run the row loop:
//!
//! * **Unweighted frame.** Every count is then a small integer, so folding
//!   them in a different order than the row loop adds them gives the same
//!   `f64` sums, bit for bit. Weighted frames (pre-aggregated pairs) carry
//!   fractional masses whose sums depend on the order.
//! * **Dense column:** `max − min + 1 ≤ rows / 64`, at most one value slot
//!   per word of the mask. The two count vectors then take at most twice the
//!   memory of the mask they sit beside; sparse columns (ids, bit patterns)
//!   would cost more than they save.
//!
//! The counts share their partition's lifetime: the same
//! `(policy label, policy identity, epoch version)` key, the same
//! cache cap, and the same [`Backend::invalidate_partitions`] on an epoch
//! transition, so no scan can read counts built under an earlier mask.
//!
//! The two backends are **bit-for-bit equivalent** on any record database:
//! same full histogram, same non-sensitive histogram, same dropped count
//! (property-tested in `tests/backend_parity.rs`, including frames on both
//! sides of the density bound).

use osdp_core::error::{OsdpError, Result};
use osdp_core::frame::{BinSpec, Column, ColumnarFrame, FrameColumn, PolicyMask, DROPPED_BIN};
use osdp_core::policy::Policy;
use osdp_core::{Database, Histogram, Record, Value};
use osdp_mechanisms::HistogramTask;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The result of one backend scan: the paper's `(x, x_ns)` pair plus the
/// record mass the query dropped (bin closure returned `None` or an
/// out-of-range bin).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramPair {
    /// The full histogram `x`.
    pub full: Histogram,
    /// The non-sensitive sub-histogram `x_ns` (bin-wise ≤ `full`).
    pub non_sensitive: Histogram,
    /// Total weight of records the query did not bin.
    pub dropped: f64,
}

impl HistogramPair {
    /// Converts the pair into the mechanism-facing [`HistogramTask`],
    /// revalidating the domination invariant.
    pub fn into_task(self) -> Result<HistogramTask> {
        HistogramTask::new(self.full, self.non_sensitive)
    }
}

/// A compiled query: everything a backend needs to evaluate one histogram
/// release. Sessions assemble plans from a
/// [`crate::SessionQuery`] plus the effective policy; the `Arc`s make the
/// plan cheap to build per release.
pub struct QueryPlan<R = Record> {
    /// Audit-log label of the query.
    pub label: String,
    /// Number of bins in the query domain.
    pub bins: usize,
    /// Row-at-a-time bin assignment (the reference semantics).
    #[allow(clippy::type_complexity)]
    pub bin_of: Arc<dyn Fn(&R) -> Option<usize> + Send + Sync>,
    /// The compiled bin assignment, when the query carries one.
    pub bin_spec: Option<BinSpec>,
    /// The policy the scan classifies under.
    pub policy: Arc<dyn Policy<R>>,
    /// Label of the policy (cache key component and audit-log field).
    pub policy_label: String,
    /// The policy epoch version the release was stamped with (cache key
    /// component; 0 for sessions that never transition).
    pub policy_version: u64,
}

impl<R> QueryPlan<R> {
    /// The partition-cache key: the policy label, the policy's identity
    /// (two different policies registered under one label must not share a
    /// cached partition), and the epoch version (a transition that
    /// re-installs a policy at a recycled allocation address must not reach
    /// the pre-transition partition).
    fn partition_key(&self) -> (String, usize, u64) {
        (
            self.policy_label.clone(),
            Arc::as_ptr(&self.policy) as *const () as usize,
            self.policy_version,
        )
    }
}

impl<R> std::fmt::Debug for QueryPlan<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPlan")
            .field("label", &self.label)
            .field("bins", &self.bins)
            .field("bin_spec", &self.bin_spec)
            .field("policy_label", &self.policy_label)
            .finish()
    }
}

/// A pluggable data store a record-level session scans against.
pub trait Backend<R = Record>: Send + Sync {
    /// Short, stable backend name (bench labels, debug output).
    fn name(&self) -> &'static str;

    /// Number of records (rows or total weight rounded down for weighted
    /// frames is **not** implied — this is the row count).
    fn len(&self) -> usize;

    /// Whether the backend holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates the plan: bins every record into the full histogram and
    /// every policy-cleared record into the non-sensitive sub-histogram.
    fn scan(&self, plan: &QueryPlan<R>) -> Result<HistogramPair>;

    /// Row access for record-level releases (`OsdpRR`'s true-sample front
    /// door), when this backend retains the records. Frame-only backends
    /// return `None` and can answer histogram queries only.
    fn database(&self) -> Option<&Database<R>> {
        None
    }

    /// Drops any cached policy partitions. Called by the session when a
    /// policy epoch transition lands, so post-transition scans re-classify
    /// under the new epoch instead of hitting a pre-transition mask.
    /// Pure-cache semantics: in-flight scans finish with the masks they
    /// already hold, later scans recompute. Backends without a partition
    /// cache need not override.
    fn invalidate_partitions(&self) {}
}

/// One cached policy partition: the non-sensitive mask plus, on a columnar
/// backend, one lazily built [`ValueCounts`] slot per frame column. The
/// entry **retains the policy `Arc`** whose address keyed it: the allocation
/// can never be reused while the entry lives, so an address collision always
/// means the same policy object (no ABA through dropped policies).
struct Partition<R> {
    policy: Arc<dyn Policy<R>>,
    mask: PolicyMask,
    /// Indexed like the frame's columns (empty on row backends). `None` once
    /// built means the column does not qualify for the value-count path.
    counts: Box<[OnceLock<Option<ValueCounts>>]>,
}

/// Shared partition cache: `(policy label, policy identity, epoch version) →
/// partition`, so repeated releases under one policy skip re-classification.
type PartitionMap<R> = HashMap<(String, usize, u64), Arc<Partition<R>>>;
type PartitionCache<R> = Mutex<PartitionMap<R>>;

/// Cap on cached partitions per backend. Sessions bind a handful of policies
/// (the bound one plus occasional `release_with_policy` overrides); a caller
/// minting a fresh policy `Arc` per release would otherwise grow the cache —
/// and the masks it pins — without bound. When the cap is hit the cache is
/// cleared (it is a pure cache: results are unaffected, only recomputed).
const PARTITION_CACHE_CAP: usize = 64;

/// Looks up the plan's partition in `cache`, building it with `classify` on
/// a miss (a failed classification caches nothing). Each partition gets
/// `columns` value-count slots.
fn cached_partition<R>(
    cache: &PartitionCache<R>,
    plan: &QueryPlan<R>,
    columns: usize,
    classify: impl FnOnce() -> Result<PolicyMask>,
) -> Result<Arc<Partition<R>>> {
    let key = plan.partition_key();
    if let Some(partition) = cache.lock().get(&key) {
        debug_assert!(
            Arc::ptr_eq(&partition.policy, &plan.policy),
            "pinned allocation cannot be reused"
        );
        return Ok(Arc::clone(partition));
    }
    let partition = Arc::new(Partition {
        policy: Arc::clone(&plan.policy),
        mask: classify()?,
        counts: (0..columns).map(|_| OnceLock::new()).collect(),
    });
    let mut cache = cache.lock();
    if cache.len() >= PARTITION_CACHE_CAP {
        cache.clear();
    }
    cache.insert(key, Arc::clone(&partition));
    Ok(partition)
}

/// Per-value row counts of one integer or categorical column under one
/// partition mask: `full[k]` counts the rows holding value `min + k`,
/// `non_sensitive[k]` the mask-set (non-sensitive) ones among them, and
/// `absent` the rows missing the field. Built only for **dense** columns —
/// at most one value slot per 64 rows, i.e. per mask word — so the counts
/// never outweigh twice the mask they sit beside.
struct ValueCounts {
    min: i64,
    full: Vec<u64>,
    non_sensitive: Vec<u64>,
    absent: u64,
}

impl ValueCounts {
    /// Counts `column` under `mask`, or `None` when the column is not an
    /// `Int`/`Categorical` column with at least one present value in a range
    /// of at most `rows / 64` values.
    fn build(column: &FrameColumn, mask: &PolicyMask) -> Option<Self> {
        match column.values() {
            Column::Int(values) => Self::count(values, column.presence(), mask),
            Column::Categorical(values) => Self::count(values, column.presence(), mask),
            _ => None,
        }
    }

    fn count<T: Copy + Into<i64>>(
        values: &[T],
        presence: Option<&PolicyMask>,
        mask: &PolicyMask,
    ) -> Option<Self> {
        let present = || {
            values
                .iter()
                .enumerate()
                .filter(move |&(i, _)| presence.is_none_or(|p| p.get(i)))
                .map(|(i, &v)| (i, v.into()))
        };
        let (min, max) = present().fold(None, |acc: Option<(i64, i64)>, (_, v)| match acc {
            None => Some((v, v)),
            Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
        })?;
        let slots = usize::try_from(max.checked_sub(min)?).ok()?.checked_add(1)?;
        if slots > values.len() / 64 {
            return None;
        }
        let mut full = vec![0u64; slots];
        let mut non_sensitive = vec![0u64; slots];
        let mut seen = 0u64;
        for (i, v) in present() {
            let k = (v - min) as usize;
            full[k] += 1;
            non_sensitive[k] += (mask.words()[i / 64] >> (i % 64)) & 1;
            seen += 1;
        }
        Some(Self { min, full, non_sensitive, absent: values.len() as u64 - seen })
    }

    /// Folds the counts into `bins` bins: value `v` lands in `bin_of(v)` when
    /// that is `Some(bin)` with `bin < bins`, and in `dropped` otherwise —
    /// the row loop's exact rule, applied once per value instead of per row.
    fn fold(&self, bins: usize, bin_of: impl Fn(i64) -> Option<usize>) -> HistogramPair {
        let mut full = Histogram::zeros(bins);
        let mut non_sensitive = Histogram::zeros(bins);
        let mut dropped = self.absent as f64;
        for (k, (&all, &ns)) in self.full.iter().zip(&self.non_sensitive).enumerate() {
            match bin_of(self.min + k as i64) {
                Some(bin) if bin < bins => {
                    full.increment(bin, all as f64);
                    non_sensitive.increment(bin, ns as f64);
                }
                _ => dropped += all as f64,
            }
        }
        HistogramPair { full, non_sensitive, dropped }
    }
}

/// The shared row-at-a-time scan loop: bins every record through the boxed
/// closure, splitting by the precomputed partition mask. Used by
/// [`RowBackend`] and by [`ColumnarBackend`]'s retained-row fallback, so the
/// two can never drift in drop accounting.
fn scan_rows<R>(db: &Database<R>, mask: &PolicyMask, plan: &QueryPlan<R>) -> HistogramPair {
    let mut full = Histogram::zeros(plan.bins);
    let mut non_sensitive = Histogram::zeros(plan.bins);
    let mut dropped = 0.0;
    for (i, record) in db.iter().enumerate() {
        match (plan.bin_of)(record) {
            Some(bin) if bin < plan.bins => {
                full.increment(bin, 1.0);
                if mask.get(i) {
                    non_sensitive.increment(bin, 1.0);
                }
            }
            _ => dropped += 1.0,
        }
    }
    HistogramPair { full, non_sensitive, dropped }
}

// ---------------------------------------------------------------------------
// RowBackend
// ---------------------------------------------------------------------------

/// The reference row-at-a-time backend over any [`Database<R>`].
///
/// Kept for record types without a columnar projection (trajectories, plain
/// codes) and as the semantics oracle the columnar path is tested against.
pub struct RowBackend<R> {
    db: Database<R>,
    partitions: PartitionCache<R>,
}

impl<R> RowBackend<R> {
    /// Wraps a database.
    pub fn new(db: Database<R>) -> Self {
        Self { db, partitions: Mutex::new(HashMap::new()) }
    }
}

impl<R> std::fmt::Debug for RowBackend<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowBackend").field("records", &self.db.len()).finish()
    }
}

impl<R: Send + Sync> Backend<R> for RowBackend<R> {
    fn name(&self) -> &'static str {
        "row"
    }

    fn len(&self) -> usize {
        self.db.len()
    }

    fn scan(&self, plan: &QueryPlan<R>) -> Result<HistogramPair> {
        let partition = cached_partition(&self.partitions, plan, 0, || {
            Ok(self.db.policy_mask(plan.policy.as_ref()))
        })?;
        Ok(scan_rows(&self.db, &partition.mask, plan))
    }

    fn database(&self) -> Option<&Database<R>> {
        Some(&self.db)
    }

    fn invalidate_partitions(&self) {
        self.partitions.lock().clear();
    }
}

// ---------------------------------------------------------------------------
// ColumnarBackend
// ---------------------------------------------------------------------------

/// The vectorized backend over a [`ColumnarFrame`].
///
/// Constructed from a record database (retaining the rows, so opaque
/// closures still work) or directly from a frame (loaders that never
/// materialise records; compiled policies and bin specs only).
///
/// Compiled bin specs over dense columns of unweighted frames are answered
/// from per-value counts cached in the policy partition (see the
/// [module docs](self#value-counts)); other compiled specs run a row loop
/// over [`BinSpec::assign`].
pub struct ColumnarBackend {
    frame: ColumnarFrame,
    rows: Option<Database<Record>>,
    partitions: PartitionCache<Record>,
}

impl ColumnarBackend {
    /// Snapshots a record database into columns, retaining the rows as the
    /// fallback for policies and queries without a compiled form.
    pub fn from_database(db: Database<Record>) -> Self {
        let frame = ColumnarFrame::from_database(&db);
        Self { frame, rows: Some(db), partitions: Mutex::new(HashMap::new()) }
    }

    /// Wraps a pre-built frame (possibly weighted). Without retained rows,
    /// every policy must compile ([`Policy::compiled`]) and every query must
    /// carry a [`BinSpec`]; otherwise the scan fails instead of silently
    /// degrading.
    pub fn from_frame(frame: ColumnarFrame) -> Self {
        Self { frame, rows: None, partitions: Mutex::new(HashMap::new()) }
    }

    /// The columnar snapshot this backend scans.
    pub fn frame(&self) -> &ColumnarFrame {
        &self.frame
    }

    fn partition_for(&self, plan: &QueryPlan<Record>) -> Result<Arc<Partition<Record>>> {
        cached_partition(&self.partitions, plan, self.frame.columns().len(), || {
            if let Some(compiled) = plan.policy.compiled() {
                Ok(compiled.evaluate(&self.frame))
            } else if let Some(rows) = &self.rows {
                Ok(rows.policy_mask(plan.policy.as_ref()))
            } else {
                Err(OsdpError::InvalidInput(format!(
                    "policy {:?} has no vectorized compilation and this frame-backed \
                     columnar backend retains no rows to fall back on",
                    plan.policy_label
                )))
            }
        })
    }

    /// Answers `spec` from the partition's value counts of the grouped
    /// column, building them on the column's first scan under this
    /// partition. `None` when the scan must take the row loop instead: a
    /// weighted frame, a spec/column pair other than `IntLinear`/`Int` or
    /// `Categorical`/`Categorical`, a bin count the row loop rejects, or a
    /// column too sparse for counts.
    fn value_count_scan(
        &self,
        partition: &Partition<Record>,
        spec: &BinSpec,
        bins: usize,
    ) -> Option<HistogramPair> {
        if self.frame.weights().is_some() || bins >= DROPPED_BIN as usize {
            return None;
        }
        let index = self.frame.columns().iter().position(|c| c.name() == spec.field())?;
        let column = &self.frame.columns()[index];
        let value_of: fn(i64) -> Value = match (spec, column.values()) {
            (BinSpec::IntLinear { .. }, Column::Int(_)) => Value::Int,
            (BinSpec::Categorical { .. }, Column::Categorical(_)) => {
                |v| Value::Categorical(v as u32)
            }
            _ => return None,
        };
        let counts = partition.counts[index]
            .get_or_init(|| ValueCounts::build(column, &partition.mask))
            .as_ref()?;
        Some(counts.fold(bins, |v| spec.bin_of_value(&value_of(v))))
    }
}

impl std::fmt::Debug for ColumnarBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarBackend")
            .field("rows", &self.frame.len())
            .field("columns", &self.frame.columns().len())
            .field("weighted", &self.frame.weights().is_some())
            .field("row_fallback", &self.rows.is_some())
            .finish()
    }
}

impl Backend<Record> for ColumnarBackend {
    fn name(&self) -> &'static str {
        "columnar"
    }

    fn len(&self) -> usize {
        self.frame.len()
    }

    fn scan(&self, plan: &QueryPlan<Record>) -> Result<HistogramPair> {
        let partition = self.partition_for(plan)?;
        let mask = &partition.mask;
        if let Some(spec) = &plan.bin_spec {
            if let Some(pair) = self.value_count_scan(&partition, spec, plan.bins) {
                return Ok(pair);
            }
            // The row loop: one pass over the grouped column, then one pass
            // over the assignment — no per-record closure calls at all.
            let assignment = spec.assign(&self.frame, plan.bins)?;
            let mut full = Histogram::zeros(plan.bins);
            let mut non_sensitive = Histogram::zeros(plan.bins);
            let mut dropped = 0.0;
            for (i, &bin) in assignment.iter().enumerate() {
                let weight = self.frame.weight(i);
                if bin == DROPPED_BIN {
                    dropped += weight;
                } else {
                    full.increment(bin as usize, weight);
                    if mask.get(i) {
                        non_sensitive.increment(bin as usize, weight);
                    }
                }
            }
            Ok(HistogramPair { full, non_sensitive, dropped })
        } else if let Some(rows) = &self.rows {
            // Closure-only query: bin from the retained rows through the
            // exact loop RowBackend runs (weights are only ever attached to
            // loader-built frames, which always carry compiled bin specs).
            debug_assert!(self.frame.weights().is_none());
            Ok(scan_rows(rows, mask, plan))
        } else {
            Err(OsdpError::InvalidInput(format!(
                "query {:?} has no compiled bin spec and this frame-backed columnar \
                 backend retains no rows to fall back on",
                plan.label
            )))
        }
    }

    fn database(&self) -> Option<&Database<Record>> {
        self.rows.as_ref()
    }

    fn invalidate_partitions(&self) {
        self.partitions.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdp_core::policy::{AttributePolicy, ClosurePolicy};
    use osdp_core::Value;

    fn ages_db(n: i64) -> Database<Record> {
        (0..n).map(|i| Record::builder().field("age", Value::Int(i % 60)).build()).collect()
    }

    fn minors_plan(policy: Arc<dyn Policy<Record>>, with_spec: bool) -> QueryPlan<Record> {
        let spec = BinSpec::IntLinear { field: "age".into(), origin: 0, width: 10 };
        let closure_spec = spec.clone();
        QueryPlan {
            label: "decades".into(),
            bins: 6,
            bin_of: Arc::new(move |r: &Record| closure_spec.bin_of_record(r)),
            bin_spec: with_spec.then_some(spec),
            policy,
            policy_label: "minors".into(),
            policy_version: 0,
        }
    }

    fn minors_policy() -> Arc<dyn Policy<Record>> {
        Arc::new(AttributePolicy::int_at_most("age", 17))
    }

    #[test]
    fn row_and_columnar_scans_agree() {
        let db = ages_db(600);
        let row = RowBackend::new(db.clone());
        let col = ColumnarBackend::from_database(db);
        let plan = minors_plan(minors_policy(), true);
        let a = row.scan(&plan).unwrap();
        let b = col.scan(&plan).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.full.total(), 600.0);
        assert_eq!(a.dropped, 0.0);
        // 18 of every 60 ages are minor-sensitive.
        assert_eq!(a.non_sensitive.total(), 600.0 - 180.0);
        assert_eq!(row.name(), "row");
        assert_eq!(col.name(), "columnar");
        assert_eq!(row.len(), col.len());
        assert!(!row.is_empty());
    }

    #[test]
    fn partition_cache_is_keyed_by_label_and_identity() {
        let db = ages_db(100);
        let backend = ColumnarBackend::from_database(db);
        let policy = minors_policy();
        let plan = minors_plan(Arc::clone(&policy), true);
        let first = backend.scan(&plan).unwrap();
        // Re-scan: served from the cached partition, identical output.
        assert_eq!(backend.scan(&plan).unwrap(), first);
        // A different policy under a *different* label must not collide.
        let seniors: Arc<dyn Policy<Record>> =
            Arc::new(AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) >= 40));
        let mut other = minors_plan(seniors, true);
        other.policy_label = "seniors".into();
        let second = backend.scan(&other).unwrap();
        assert_ne!(first.non_sensitive, second.non_sensitive);
        // And the first plan still answers from its own cache entry.
        assert_eq!(backend.scan(&plan).unwrap(), first);
    }

    #[test]
    fn same_label_different_policy_does_not_share_a_partition() {
        let db = ages_db(100);
        let backend = RowBackend::new(db);
        let plan_a = minors_plan(minors_policy(), false);
        let adults: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", 30));
        let mut plan_b = minors_plan(adults, false);
        plan_b.policy_label = "minors".into(); // deliberately the same label
        let a = backend.scan(&plan_a).unwrap();
        let b = backend.scan(&plan_b).unwrap();
        assert_ne!(a.non_sensitive, b.non_sensitive, "identity keeps the cache honest");
    }

    #[test]
    fn columnar_falls_back_to_rows_for_opaque_policies_and_closure_queries() {
        let db = ages_db(200);
        let row = RowBackend::new(db.clone());
        let col = ColumnarBackend::from_database(db);
        let opaque: Arc<dyn Policy<Record>> =
            Arc::new(ClosurePolicy::new("opaque", |r: &Record| {
                r.int("age").map(|a| a % 7 == 0).unwrap_or(true)
            }));
        // No spec AND no compiled policy: full row fallback.
        let plan = minors_plan(opaque, false);
        assert_eq!(row.scan(&plan).unwrap(), col.scan(&plan).unwrap());
    }

    #[test]
    fn frame_only_backends_require_compiled_forms() {
        let frame = ColumnarFrame::builder(3).column_int("age", vec![5, 25, 45]).build().unwrap();
        let backend = ColumnarBackend::from_frame(frame);
        assert!(backend.database().is_none());
        // Compiled policy + spec: fine.
        let plan = minors_plan(minors_policy(), true);
        let pair = backend.scan(&plan).unwrap();
        assert_eq!(pair.full.total(), 3.0);
        assert_eq!(pair.non_sensitive.total(), 2.0);
        // Opaque policy: refused.
        let opaque: Arc<dyn Policy<Record>> =
            Arc::new(ClosurePolicy::new("opaque", |_: &Record| true));
        assert!(backend.scan(&minors_plan(opaque, true)).is_err());
        // Closure-only query: refused.
        assert!(backend.scan(&minors_plan(minors_policy(), false)).is_err());
    }

    #[test]
    fn weighted_frames_scan_with_multiplicities() {
        let frame = ColumnarFrame::builder(3)
            .column_categorical("bin", vec![0, 1, 1])
            .column_bool("non_sensitive", vec![true, false, true])
            .weights(vec![4.0, 2.0, 3.0])
            .build()
            .unwrap();
        let backend = ColumnarBackend::from_frame(frame);
        let spec = BinSpec::Categorical { field: "bin".into() };
        let closure_spec = spec.clone();
        let plan = QueryPlan {
            label: "pair".into(),
            bins: 2,
            bin_of: Arc::new(move |r: &Record| closure_spec.bin_of_record(r)),
            bin_spec: Some(spec),
            policy: Arc::new(AttributePolicy::opt_in("non_sensitive")),
            policy_label: "P".into(),
            policy_version: 0,
        };
        let pair = backend.scan(&plan).unwrap();
        assert_eq!(pair.full.counts(), &[4.0, 5.0]);
        assert_eq!(pair.non_sensitive.counts(), &[4.0, 3.0]);
        assert_eq!(pair.dropped, 0.0);
        pair.into_task().unwrap();
    }

    #[test]
    fn partition_cache_stays_bounded_under_fresh_policy_arcs() {
        let db = ages_db(50);
        let backend = RowBackend::new(db.clone());
        let reference = backend.scan(&minors_plan(minors_policy(), false)).unwrap();
        // Mint far more distinct policy Arcs than the cap: results stay
        // correct and the cache never exceeds the cap.
        for _ in 0..(3 * PARTITION_CACHE_CAP) {
            let pair = backend.scan(&minors_plan(minors_policy(), false)).unwrap();
            assert_eq!(pair, reference);
            assert!(backend.partitions.lock().len() <= PARTITION_CACHE_CAP);
        }
    }

    #[test]
    fn epoch_versions_partition_the_cache_and_invalidate_cleanly() {
        let db = ages_db(100);
        let backend = ColumnarBackend::from_database(db);
        let policy = minors_policy();
        let v0 = minors_plan(Arc::clone(&policy), true);
        let mut v1 = minors_plan(policy, true);
        v1.policy_version = 1;
        let a = backend.scan(&v0).unwrap();
        let b = backend.scan(&v1).unwrap();
        assert_eq!(a, b, "same policy object answers identically across versions");
        assert_eq!(backend.partitions.lock().len(), 2, "versions get distinct entries");
        backend.invalidate_partitions();
        assert_eq!(backend.partitions.lock().len(), 0);
        assert_eq!(backend.scan(&v1).unwrap(), a, "re-derived after invalidation");
    }

    /// The built value counts of `backend`'s only cached partition, per
    /// column slot.
    fn built_counts(backend: &ColumnarBackend) -> Vec<bool> {
        let cache = backend.partitions.lock();
        assert_eq!(cache.len(), 1);
        let partition = cache.values().next().unwrap();
        partition.counts.iter().map(|slot| matches!(slot.get(), Some(Some(_)))).collect()
    }

    #[test]
    fn value_counts_take_dense_columns_and_skip_sparse_or_weighted_ones() {
        // 60 distinct ages need 60 × 64 rows to pass the density guard.
        let dense = ages_db(60 * 64);
        let col = ColumnarBackend::from_database(dense.clone());
        let plan = minors_plan(minors_policy(), true);
        assert_eq!(col.scan(&plan).unwrap(), RowBackend::new(dense).scan(&plan).unwrap());
        assert_eq!(built_counts(&col), [true]);
        // One row short of the bound: the scan takes the row loop.
        let sparse = ColumnarBackend::from_database(ages_db(60 * 64 - 1));
        sparse.scan(&plan).unwrap();
        assert_eq!(built_counts(&sparse), [false]);
        // Weighted frames never build counts.
        let frame = ColumnarFrame::builder(64)
            .column_int("age", vec![3; 64])
            .weights(vec![0.5; 64])
            .build()
            .unwrap();
        let weighted = ColumnarBackend::from_frame(frame);
        assert_eq!(weighted.scan(&plan).unwrap().full.counts()[0], 32.0);
        let cache = weighted.partitions.lock();
        assert!(cache.values().all(|p| p.counts.iter().all(|slot| slot.get().is_none())));
    }

    #[test]
    fn value_counts_are_rebuilt_after_a_tighten_epoch() {
        use crate::{SessionBuilder, SessionQuery};
        use osdp_core::policy::EpochDirection;
        let db = ages_db(60 * 64);
        // The query `minors_plan` compiles.
        let query = SessionQuery::count_by_int_linear("decades", "age", 0, 10, 6);
        let minors = minors_policy();
        let adults: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", 40));
        let reference = |policy: &Arc<dyn Policy<Record>>| {
            RowBackend::new(db.clone()).scan(&minors_plan(Arc::clone(policy), true)).unwrap()
        };
        // Through a session: the Tighten transition must reach the new mask.
        let session = SessionBuilder::new(db.clone())
            .columnar()
            .policy_arc(Arc::clone(&minors), "minors")
            .build()
            .unwrap();
        let before = session.scan(&query).unwrap();
        assert_eq!(before, reference(&minors));
        session.set_policy_epoch(Arc::clone(&adults), "adults", EpochDirection::Tighten).unwrap();
        let after = session.scan(&query).unwrap();
        assert_eq!(after, reference(&adults));
        assert_ne!(after.non_sensitive, before.non_sensitive);

        // On the backend: invalidation drops the counts with their partition,
        // even when the next plan reuses the old policy object and version.
        let backend = ColumnarBackend::from_database(db);
        let plan = minors_plan(Arc::clone(&minors), true);
        let first = backend.scan(&plan).unwrap();
        assert_eq!(built_counts(&backend), [true]);
        backend.invalidate_partitions();
        assert!(backend.partitions.lock().is_empty());
        let mut tightened = minors_plan(adults, true);
        tightened.policy_version = 1;
        let second = backend.scan(&tightened).unwrap();
        assert_eq!(built_counts(&backend), [true], "rebuilt for the new mask");
        assert_ne!(second.non_sensitive, first.non_sensitive);
        backend.invalidate_partitions();
        assert_eq!(backend.scan(&plan).unwrap(), first);
    }

    #[test]
    fn dropped_mass_is_reported() {
        let db = ages_db(100); // ages 0..60
        let row = RowBackend::new(db.clone());
        let col = ColumnarBackend::from_database(db);
        let spec = BinSpec::IntLinear { field: "age".into(), origin: 0, width: 10 };
        let closure_spec = spec.clone();
        let plan = QueryPlan {
            label: "three-decades".into(),
            bins: 3, // ages >= 30 fall outside
            bin_of: Arc::new(move |r: &Record| closure_spec.bin_of_record(r)),
            bin_spec: Some(spec),
            policy: minors_policy(),
            policy_label: "minors".into(),
            policy_version: 0,
        };
        let a = row.scan(&plan).unwrap();
        let b = col.scan(&plan).unwrap();
        assert_eq!(a, b);
        assert!(a.dropped > 0.0);
        assert_eq!(a.full.total() + a.dropped, 100.0);
    }
}
