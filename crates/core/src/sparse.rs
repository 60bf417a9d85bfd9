//! Sparse histograms over very large categorical domains.
//!
//! The n-gram experiments of Section 6.3.2 count sequences over a domain of
//! `64ⁿ` bins (over a billion cells for n = 5). Such histograms are never
//! materialised densely: only the non-zero bins are stored, the domain size is
//! tracked analytically, and error metrics account for the all-zero remainder
//! in closed form.

use std::collections::{BTreeMap, BTreeSet};

/// A sparse histogram: non-zero counts keyed by a dense `u64` bin index, plus
/// the (possibly astronomically large) total domain size.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseHistogram {
    counts: BTreeMap<u64, f64>,
    domain_size: f64,
}

impl SparseHistogram {
    /// An empty sparse histogram over a domain of the given size.
    pub fn new(domain_size: f64) -> Self {
        Self { counts: BTreeMap::new(), domain_size }
    }

    /// The domain size `d` (number of bins, counted analytically).
    pub fn domain_size(&self) -> f64 {
        self.domain_size
    }

    /// The count of a bin (0 if not materialised).
    pub fn get(&self, bin: u64) -> f64 {
        self.counts.get(&bin).copied().unwrap_or(0.0)
    }

    /// Sets the count of a bin; zero counts are dropped from the support.
    pub fn set(&mut self, bin: u64, value: f64) {
        if value == 0.0 {
            self.counts.remove(&bin);
        } else {
            self.counts.insert(bin, value);
        }
    }

    /// Adds `delta` to a bin.
    pub fn add(&mut self, bin: u64, delta: f64) {
        let v = self.get(bin) + delta;
        self.set(bin, v);
    }

    /// Number of materialised (non-zero) bins.
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over the non-zero bins.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Sum of all counts.
    pub fn total(&self) -> f64 {
        self.counts.values().sum()
    }

    /// The union of this histogram's support with another's.
    pub fn support_union(&self, other: &SparseHistogram) -> BTreeSet<u64> {
        self.counts.keys().chain(other.counts.keys()).copied().collect()
    }

    /// Mean relative error of `estimate` against `self` as the ground truth,
    /// over the **entire** domain, with floor `δ = 1`: bins that are zero in
    /// both contribute zero error; every other bin contributes
    /// `|t − e| / max(t, 1)`.
    pub fn mean_relative_error(&self, estimate: &SparseHistogram) -> f64 {
        let mut sum = 0.0;
        for bin in self.support_union(estimate) {
            let t = self.get(bin);
            let e = estimate.get(bin);
            sum += (t - e).abs() / t.max(1.0);
        }
        sum / self.domain_size
    }

    /// L1 distance to another sparse histogram over the same domain.
    pub fn l1_distance(&self, other: &SparseHistogram) -> f64 {
        self.support_union(other).into_iter().map(|b| (self.get(b) - other.get(b)).abs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let mut h = SparseHistogram::new(1000.0);
        assert_eq!(h.domain_size(), 1000.0);
        assert_eq!(h.get(5), 0.0);
        h.set(5, 3.0);
        h.add(5, 1.0);
        h.add(9, 2.0);
        assert_eq!(h.get(5), 4.0);
        assert_eq!(h.support_size(), 2);
        assert_eq!(h.total(), 6.0);
        h.set(9, 0.0);
        assert_eq!(h.support_size(), 1);
        assert_eq!(h.iter().count(), 1);
    }

    #[test]
    fn mre_and_l1() {
        let mut truth = SparseHistogram::new(100.0);
        truth.set(1, 10.0);
        truth.set(2, 5.0);
        let mut est = SparseHistogram::new(100.0);
        est.set(1, 8.0);
        est.set(3, 4.0);
        // bins: 1 -> 2/10, 2 -> 5/5, 3 -> 4/1 ; rest zero
        let mre = truth.mean_relative_error(&est);
        assert!((mre - (0.2 + 1.0 + 4.0) / 100.0).abs() < 1e-12);
        assert!((truth.l1_distance(&est) - (2.0 + 5.0 + 4.0)).abs() < 1e-12);
        assert_eq!(truth.mean_relative_error(&truth), 0.0);
        assert_eq!(truth.support_union(&est).len(), 3);
    }
}
