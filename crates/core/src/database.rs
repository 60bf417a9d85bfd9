//! Databases: multisets of records.
//!
//! Following the bounded model of differential privacy adopted by the paper
//! (Section 2), a database is a multiset of records drawn from a universe `T`.
//! The [`Database`] type is generic over the record type so that relational
//! records (`osdp_core::Record`), trajectories (in `osdp-data`) and plain
//! categorical codes can all reuse the same machinery.

use crate::frame::PolicyMask;
use crate::histogram::Histogram;
use crate::policy::Policy;

/// A multiset of records.
///
/// The representation is a plain vector; order carries no semantics but is
/// preserved to keep data generation and experiments deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Database<R = crate::record::Record> {
    records: Vec<R>,
}

impl<R> Default for Database<R> {
    fn default() -> Self {
        Self { records: Vec::new() }
    }
}

impl<R> Database<R> {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a database from a vector of records.
    pub fn from_records(records: Vec<R>) -> Self {
        Self { records }
    }

    /// Creates an empty database with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { records: Vec::with_capacity(capacity) }
    }

    /// Number of records (the paper's `n = |D|`).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    pub fn push(&mut self, record: R) {
        self.records.push(record);
    }

    /// Iterates over records.
    pub fn iter(&self) -> std::slice::Iter<'_, R> {
        self.records.iter()
    }

    /// The records as a slice.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Consumes the database and returns the underlying records.
    pub fn into_records(self) -> Vec<R> {
        self.records
    }

    /// Returns a record by positional index.
    pub fn get(&self, index: usize) -> Option<&R> {
        self.records.get(index)
    }

    /// Replaces the record at `index`, returning the previous value.
    ///
    /// This is the elementary operation that produces neighboring databases in
    /// the bounded DP model: `D' = D \ {r} ∪ {r'}`.
    pub fn replace(&mut self, index: usize, record: R) -> Option<R> {
        self.records.get_mut(index).map(|slot| std::mem::replace(slot, record))
    }

    /// Removes the record at `index` (shifting the tail), returning it.
    ///
    /// Used by the *extended* one-sided neighbor relation of the appendix,
    /// where neighbors may differ in size by one.
    pub fn remove(&mut self, index: usize) -> Option<R> {
        if index < self.records.len() {
            Some(self.records.remove(index))
        } else {
            None
        }
    }

    /// Number of sensitive records under `policy`.
    pub fn count_sensitive<P: Policy<R> + ?Sized>(&self, policy: &P) -> usize {
        self.records.iter().filter(|r| policy.is_sensitive(r)).count()
    }

    /// Number of non-sensitive records under `policy`.
    pub fn count_non_sensitive<P: Policy<R> + ?Sized>(&self, policy: &P) -> usize {
        self.records.iter().filter(|r| policy.is_non_sensitive(r)).count()
    }

    /// Fraction of non-sensitive records (the paper's non-sensitive ratio).
    ///
    /// Returns 0 for an empty database.
    pub fn non_sensitive_ratio<P: Policy<R> + ?Sized>(&self, policy: &P) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.count_non_sensitive(policy) as f64 / self.records.len() as f64
        }
    }

    /// Whether the policy is non-trivial on this database, i.e. classifies at
    /// least one record as sensitive and at least one as non-sensitive
    /// (the paper only considers non-trivial policies).
    pub fn policy_is_non_trivial<P: Policy<R> + ?Sized>(&self, policy: &P) -> bool {
        let mut saw_sensitive = false;
        let mut saw_non_sensitive = false;
        for r in &self.records {
            if policy.is_sensitive(r) {
                saw_sensitive = true;
            } else {
                saw_non_sensitive = true;
            }
            if saw_sensitive && saw_non_sensitive {
                return true;
            }
        }
        false
    }

    /// Builds a histogram with `bins` bins by applying `bin_of` to every
    /// record. Records binned outside `0..bins` (or mapped to `None`) are
    /// silently ignored; use [`Database::histogram_by_counted`] when the
    /// number of dropped records matters.
    pub fn histogram_by<F>(&self, bins: usize, bin_of: F) -> Histogram
    where
        F: FnMut(&R) -> Option<usize>,
    {
        self.histogram_by_counted(bins, bin_of).0
    }

    /// Like [`Database::histogram_by`], but also returns how many records
    /// were **not** counted — either because `bin_of` mapped them to `None`
    /// or because their bin fell outside `0..bins`. Loaders surface this
    /// count so silently truncated domains are visible instead of being
    /// absorbed into the histogram totals.
    pub fn histogram_by_counted<F>(&self, bins: usize, mut bin_of: F) -> (Histogram, usize)
    where
        F: FnMut(&R) -> Option<usize>,
    {
        let mut hist = Histogram::zeros(bins);
        let mut dropped = 0usize;
        for r in &self.records {
            match bin_of(r) {
                Some(b) if b < bins => hist.increment(b, 1.0),
                _ => dropped += 1,
            }
        }
        (hist, dropped)
    }

    /// Splits the records into sensitive and non-sensitive **index** lists
    /// (`D_s`, `D_ns` as positions into [`Database::records`]) without
    /// cloning a single record. This is what backends cache per policy:
    /// repeated releases under the same policy reuse the partition instead of
    /// re-classifying the database.
    pub fn partition_indices<P: Policy<R> + ?Sized>(&self, policy: &P) -> (Vec<usize>, Vec<usize>) {
        let mut sensitive = Vec::new();
        let mut non_sensitive = Vec::new();
        for (i, r) in self.records.iter().enumerate() {
            if policy.is_sensitive(r) {
                sensitive.push(i);
            } else {
                non_sensitive.push(i);
            }
        }
        (sensitive, non_sensitive)
    }

    /// The per-record classification under `policy` as a packed bitmask (bit
    /// set ⇔ non-sensitive), the row-path analog of a vectorized policy
    /// evaluation.
    pub fn policy_mask<P: Policy<R> + ?Sized>(&self, policy: &P) -> PolicyMask {
        PolicyMask::from_fn(self.records.len(), |i| policy.is_non_sensitive(&self.records[i]))
    }
}

impl<R: Clone> Database<R> {
    /// Splits the database into its sensitive and non-sensitive parts
    /// (`D_s`, `D_ns` in Section 5.1).
    pub fn partition_by_policy<P: Policy<R> + ?Sized>(
        &self,
        policy: &P,
    ) -> (Database<R>, Database<R>) {
        let (sensitive, non_sensitive) = self.partition_indices(policy);
        (
            sensitive.into_iter().map(|i| self.records[i].clone()).collect(),
            non_sensitive.into_iter().map(|i| self.records[i].clone()).collect(),
        )
    }

    /// The non-sensitive subset `D_ns = {r ∈ D | P(r) = 1}`.
    pub fn non_sensitive_subset<P: Policy<R> + ?Sized>(&self, policy: &P) -> Database<R> {
        Database::from_records(
            self.records.iter().filter(|r| policy.is_non_sensitive(r)).cloned().collect(),
        )
    }

    /// The sensitive subset `{r ∈ D | P(r) = 0}`.
    pub fn sensitive_subset<P: Policy<R> + ?Sized>(&self, policy: &P) -> Database<R> {
        Database::from_records(
            self.records.iter().filter(|r| policy.is_sensitive(r)).cloned().collect(),
        )
    }
}

impl<R> FromIterator<R> for Database<R> {
    fn from_iter<T: IntoIterator<Item = R>>(iter: T) -> Self {
        Self { records: iter.into_iter().collect() }
    }
}

impl<R> IntoIterator for Database<R> {
    type Item = R;
    type IntoIter = std::vec::IntoIter<R>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a, R> IntoIterator for &'a Database<R> {
    type Item = &'a R;
    type IntoIter = std::slice::Iter<'a, R>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl<R> Extend<R> for Database<R> {
    fn extend<T: IntoIterator<Item = R>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AllSensitive, AttributePolicy, NoneSensitive};
    use crate::record::Record;

    fn age_db(ages: &[i64]) -> Database {
        ages.iter().map(|&a| Record::builder().field("age", a).build()).collect()
    }

    fn minors() -> AttributePolicy {
        AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) <= 17)
    }

    #[test]
    fn construction_and_basic_accessors() {
        let db = age_db(&[10, 20, 30]);
        assert_eq!(db.len(), 3);
        assert!(!db.is_empty());
        assert!(db.get(0).is_some());
        assert!(db.get(3).is_none());
        assert_eq!(db.records().len(), 3);
        assert_eq!(db.iter().count(), 3);
        assert_eq!(db.clone().into_records().len(), 3);
        assert_eq!(Database::<Record>::new().len(), 0);
        assert!(Database::<Record>::with_capacity(8).is_empty());
    }

    #[test]
    fn counting_by_policy() {
        let db = age_db(&[5, 10, 17, 18, 40, 65]);
        let p = minors();
        assert_eq!(db.count_sensitive(&p), 3);
        assert_eq!(db.count_non_sensitive(&p), 3);
        assert!((db.non_sensitive_ratio(&p) - 0.5).abs() < 1e-12);
        assert!(db.policy_is_non_trivial(&p));
        assert!(!db.policy_is_non_trivial(&AllSensitive));
        assert!(!db.policy_is_non_trivial(&NoneSensitive));
        assert_eq!(Database::<Record>::new().non_sensitive_ratio(&p), 0.0);
    }

    #[test]
    fn partitioning_preserves_counts_and_membership() {
        let db = age_db(&[5, 10, 17, 18, 40, 65]);
        let p = minors();
        let (sens, nons) = db.partition_by_policy(&p);
        assert_eq!(sens.len() + nons.len(), db.len());
        assert!(sens.iter().all(|r| p.is_sensitive(r)));
        assert!(nons.iter().all(|r| p.is_non_sensitive(r)));
        assert_eq!(db.non_sensitive_subset(&p), nons);
        assert_eq!(db.sensitive_subset(&p), sens);
    }

    #[test]
    fn replace_and_remove_edit_the_multiset() {
        let mut db = age_db(&[1, 2, 3]);
        let old = db.replace(1, Record::builder().field("age", 99i64).build());
        assert_eq!(old.unwrap().int("age").unwrap(), 2);
        assert_eq!(db.get(1).unwrap().int("age").unwrap(), 99);
        assert!(db.replace(10, Record::new()).is_none());

        let removed = db.remove(0).unwrap();
        assert_eq!(removed.int("age").unwrap(), 1);
        assert_eq!(db.len(), 2);
        assert!(db.remove(10).is_none());
    }

    #[test]
    fn histogram_by_counts_in_bins() {
        let db = age_db(&[0, 1, 1, 2, 2, 2, 9]);
        let hist = db.histogram_by(3, |r| r.int("age").ok().map(|a| a as usize));
        assert_eq!(hist.counts(), &[1.0, 2.0, 3.0]); // the `9` falls outside and is ignored
        assert_eq!(hist.total(), 6.0);
    }

    #[test]
    fn histogram_by_counted_reports_dropped_records() {
        let db = age_db(&[0, 1, 1, 2, 2, 2, 9]);
        let (hist, dropped) = db.histogram_by_counted(3, |r| {
            r.int("age").ok().and_then(|a| if a == 1 { None } else { Some(a as usize) })
        });
        assert_eq!(hist.counts(), &[1.0, 0.0, 3.0]);
        assert_eq!(dropped, 3, "two filtered to None plus one out of range");
        let (full, none_dropped) =
            db.histogram_by_counted(10, |r| r.int("age").ok().map(|a| a as usize));
        assert_eq!(none_dropped, 0);
        assert_eq!(full.total(), db.len() as f64);
    }

    #[test]
    fn partition_indices_agree_with_the_cloning_partition() {
        let db = age_db(&[5, 10, 17, 18, 40, 65]);
        let p = minors();
        let (sens_idx, nons_idx) = db.partition_indices(&p);
        assert_eq!(sens_idx, vec![0, 1, 2]);
        assert_eq!(nons_idx, vec![3, 4, 5]);
        let (sens, nons) = db.partition_by_policy(&p);
        let by_index: Vec<_> = sens_idx.iter().map(|&i| db.get(i).unwrap().clone()).collect();
        assert_eq!(sens.records(), &by_index[..]);
        assert_eq!(sens.len() + nons.len(), db.len());

        let mask = db.policy_mask(&p);
        assert_eq!(mask.set_indices(), nons_idx, "mask bit set == non-sensitive");
        assert_eq!(mask.count_clear(), sens_idx.len());
    }

    #[test]
    fn iterator_and_extend_impls() {
        let mut db: Database = vec![Record::new()].into_iter().collect();
        db.extend(vec![Record::new(), Record::new()]);
        assert_eq!(db.len(), 3);
        let borrowed: Vec<&Record> = (&db).into_iter().collect();
        assert_eq!(borrowed.len(), 3);
        let owned: Vec<Record> = db.into_iter().collect();
        assert_eq!(owned.len(), 3);
    }

    #[test]
    fn works_with_non_record_types() {
        // Database over plain categorical codes (used by the DPBench datasets).
        let db: Database<u32> = (0..100u32).map(|i| i % 4).collect();
        let hist = db.histogram_by(4, |&code| Some(code as usize));
        assert_eq!(hist.counts(), &[25.0, 25.0, 25.0, 25.0]);
        let even = crate::policy::ClosurePolicy::new("odd-sensitive", |c: &u32| c % 2 == 1);
        assert_eq!(db.count_sensitive(&even), 50);
    }
}
