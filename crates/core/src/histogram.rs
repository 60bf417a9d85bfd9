//! Dense histograms: the query class studied in Section 5 of the paper.
//!
//! A histogram query is a set of counts over a non-overlapping partitioning of
//! the dataset (`SELECT group, COUNT(*) ... GROUP BY keys`), reporting both
//! zero and non-zero groups. [`Histogram`] stores the counts densely as `f64`
//! so that true histograms, noisy estimates and post-processed estimates share
//! one representation. [`Histogram2D`] adds 2-D indexing on top of a
//! [`GridDomain`].

use crate::domain::GridDomain;
use crate::error::{OsdpError, Result};

/// A one-dimensional histogram: a dense vector of (possibly noisy) counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<f64>,
}

impl Histogram {
    /// A histogram of `bins` zeros.
    pub fn zeros(bins: usize) -> Self {
        Self { counts: vec![0.0; bins] }
    }

    /// Wraps an existing count vector.
    pub fn from_counts(counts: Vec<f64>) -> Self {
        Self { counts }
    }

    /// Builds a histogram from integer counts.
    pub fn from_u64(counts: &[u64]) -> Self {
        Self { counts: counts.iter().map(|&c| c as f64).collect() }
    }

    /// Number of bins (the paper's `d`).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the histogram has no bins.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The raw counts.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Mutable access to the raw counts.
    pub fn counts_mut(&mut self) -> &mut [f64] {
        &mut self.counts
    }

    /// Consumes the histogram, returning the counts.
    pub fn into_counts(self) -> Vec<f64> {
        self.counts
    }

    /// Resizes the histogram to `bins` bins, all zero, **reusing** the
    /// existing allocation when it is large enough. This is the reset step of
    /// the buffer-reuse release path (`HistogramMechanism::release_into`):
    /// callers hand the same output histogram to release after release and
    /// pay for its allocation once.
    pub fn reset_zeroed(&mut self, bins: usize) {
        self.counts.clear();
        self.counts.resize(bins, 0.0);
    }

    /// Overwrites this histogram with a copy of `counts`, reusing the
    /// existing allocation when possible (the buffer-reuse analogue of
    /// [`Histogram::from_counts`]).
    pub fn assign(&mut self, counts: &[f64]) {
        self.counts.clear();
        self.counts.extend_from_slice(counts);
    }

    /// The count in bin `i` (panics if out of range).
    pub fn get(&self, i: usize) -> f64 {
        self.counts[i]
    }

    /// Sets the count in bin `i`.
    pub fn set(&mut self, i: usize, value: f64) {
        self.counts[i] = value;
    }

    /// Adds `delta` to bin `i`.
    pub fn increment(&mut self, i: usize, delta: f64) {
        self.counts[i] += delta;
    }

    /// Sum of all counts (the scale `‖x‖₁` for non-negative histograms).
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Number of bins with a count of exactly zero.
    pub fn zero_bins(&self) -> usize {
        self.counts.iter().filter(|&&c| c == 0.0).count()
    }

    /// Indices of bins with a count of exactly zero.
    pub fn zero_bin_indices(&self) -> Vec<usize> {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| if c == 0.0 { Some(i) } else { None })
            .collect()
    }

    /// Number of bins with a non-zero count (the "active domain").
    pub fn non_zero_bins(&self) -> usize {
        self.len() - self.zero_bins()
    }

    /// Sparsity: fraction of the domain that does **not** appear in the active
    /// domain, matching the definition used for Table 2 of the paper.
    pub fn sparsity(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.zero_bins() as f64 / self.len() as f64
        }
    }

    /// L1 distance to another histogram.
    pub fn l1_distance(&self, other: &Histogram) -> Result<f64> {
        self.check_same_len(other)?;
        Ok(self.counts.iter().zip(other.counts.iter()).map(|(a, b)| (a - b).abs()).sum())
    }

    /// L2 distance to another histogram.
    pub fn l2_distance(&self, other: &Histogram) -> Result<f64> {
        self.check_same_len(other)?;
        Ok(self
            .counts
            .iter()
            .zip(other.counts.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt())
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Histogram) -> Result<Histogram> {
        self.check_same_len(other)?;
        Ok(Histogram::from_counts(
            self.counts.iter().zip(other.counts.iter()).map(|(a, b)| a + b).collect(),
        ))
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Histogram) -> Result<Histogram> {
        self.check_same_len(other)?;
        Ok(Histogram::from_counts(
            self.counts.iter().zip(other.counts.iter()).map(|(a, b)| a - b).collect(),
        ))
    }

    /// Multiplies every count by `factor`.
    pub fn scale(&self, factor: f64) -> Histogram {
        Histogram::from_counts(self.counts.iter().map(|c| c * factor).collect())
    }

    /// Clamps every count to be at least zero (a common post-processing step
    /// that never hurts the privacy guarantee). `-0.0` and NaN are left as
    /// they are, since neither compares below zero.
    ///
    /// The loop is written as an unconditional select, not as
    /// `if *c < 0.0 { *c = 0.0 }`. After one-sided noise at small ε a bin is
    /// clamped with probability e^(−ε·x), so for counts up to a few 1/ε the
    /// outcome is close to a coin flip per bin, and a branch on it
    /// mispredicts about half the time. The select has no branch to
    /// mispredict (the optimiser can lower it to a vector compare and mask)
    /// and writes the same bits as the `if` form for every input. Do not
    /// replace it with `f64::max`, which differs on `-0.0` and NaN.
    pub fn clamp_non_negative(&mut self) {
        for c in &mut self.counts {
            *c = if *c < 0.0 { 0.0 } else { *c };
        }
    }

    /// Returns `true` if every count is `>= 0`.
    pub fn is_non_negative(&self) -> bool {
        self.counts.iter().all(|&c| c >= 0.0)
    }

    /// Returns `true` if, bin by bin, `self[i] <= other[i]`.
    ///
    /// This is the domination property that makes one-sided noise correct: the
    /// non-sensitive histogram of a database is dominated by the non-sensitive
    /// histogram of any of its one-sided neighbors (Section 5.1).
    pub fn dominated_by(&self, other: &Histogram) -> Result<bool> {
        self.check_same_len(other)?;
        Ok(self.counts.iter().zip(other.counts.iter()).all(|(a, b)| a <= b))
    }

    /// Cumulative sums, used by range-query evaluation and DAWA partitioning.
    pub fn prefix_sums(&self) -> Vec<f64> {
        let mut acc = 0.0;
        let mut out = Vec::with_capacity(self.counts.len() + 1);
        out.push(0.0);
        for &c in &self.counts {
            acc += c;
            out.push(acc);
        }
        out
    }

    /// Sum of the counts in `range` (half-open).
    pub fn range_sum(&self, range: std::ops::Range<usize>) -> f64 {
        self.counts[range].iter().sum()
    }

    fn check_same_len(&self, other: &Histogram) -> Result<()> {
        if self.len() == other.len() {
            Ok(())
        } else {
            Err(OsdpError::DimensionMismatch { expected: self.len(), actual: other.len() })
        }
    }
}

/// A two-dimensional histogram over a [`GridDomain`], stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2D {
    domain: GridDomain,
    flat: Histogram,
}

impl Histogram2D {
    /// An all-zero 2-D histogram over `domain`.
    pub fn zeros(domain: GridDomain) -> Self {
        let size = domain.size();
        Self { domain, flat: Histogram::zeros(size) }
    }

    /// Wraps a flat histogram; its length must equal the domain size.
    pub fn from_flat(domain: GridDomain, flat: Histogram) -> Result<Self> {
        if flat.len() != domain.size() {
            return Err(OsdpError::DimensionMismatch {
                expected: domain.size(),
                actual: flat.len(),
            });
        }
        Ok(Self { domain, flat })
    }

    /// The grid domain.
    pub fn domain(&self) -> &GridDomain {
        &self.domain
    }

    /// The flattened histogram (row-major).
    pub fn flat(&self) -> &Histogram {
        &self.flat
    }

    /// Consumes the 2-D histogram and returns the flattened counts.
    pub fn into_flat(self) -> Histogram {
        self.flat
    }

    /// The count at `(row, col)`, or `None` if out of range.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        self.domain.flatten(row, col).map(|i| self.flat.get(i))
    }

    /// Adds `delta` at `(row, col)`; out-of-range coordinates are ignored and
    /// reported as `false`.
    pub fn increment(&mut self, row: usize, col: usize, delta: f64) -> bool {
        match self.domain.flatten(row, col) {
            Some(i) => {
                self.flat.increment(i, delta);
                true
            }
            None => false,
        }
    }

    /// Sum of all cells.
    pub fn total(&self) -> f64 {
        self.flat.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::CategoricalDomain;

    #[test]
    fn construction_and_accessors() {
        let h = Histogram::zeros(4);
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        assert_eq!(h.total(), 0.0);
        let h = Histogram::from_u64(&[1, 2, 3]);
        assert_eq!(h.counts(), &[1.0, 2.0, 3.0]);
        assert_eq!(h.get(2), 3.0);
        assert_eq!(h.clone().into_counts(), vec![1.0, 2.0, 3.0]);
        assert!(Histogram::zeros(0).is_empty());
    }

    #[test]
    fn reset_and_assign_reuse_the_buffer() {
        let mut h = Histogram::from_counts(vec![1.0, 2.0, 3.0, 4.0]);
        h.reset_zeroed(2);
        assert_eq!(h.counts(), &[0.0, 0.0]);
        h.reset_zeroed(5);
        assert_eq!(h.counts(), &[0.0; 5]);
        h.assign(&[7.0, 8.0]);
        assert_eq!(h.counts(), &[7.0, 8.0]);
        assert_eq!(h, Histogram::from_counts(vec![7.0, 8.0]));
    }

    #[test]
    fn mutation_and_totals() {
        let mut h = Histogram::zeros(3);
        h.increment(0, 2.0);
        h.set(1, 5.0);
        h.counts_mut()[2] = 1.0;
        assert_eq!(h.counts(), &[2.0, 5.0, 1.0]);
        assert_eq!(h.total(), 8.0);
        assert_eq!(h.range_sum(0..2), 7.0);
    }

    #[test]
    fn sparsity_and_zero_bins() {
        let h = Histogram::from_counts(vec![0.0, 3.0, 0.0, 0.0, 1.0]);
        assert_eq!(h.zero_bins(), 3);
        assert_eq!(h.non_zero_bins(), 2);
        assert_eq!(h.zero_bin_indices(), vec![0, 2, 3]);
        assert!((h.sparsity() - 0.6).abs() < 1e-12);
        assert_eq!(Histogram::zeros(0).sparsity(), 0.0);
    }

    #[test]
    fn distances_and_arithmetic() {
        let a = Histogram::from_counts(vec![1.0, 2.0, 3.0]);
        let b = Histogram::from_counts(vec![2.0, 2.0, 1.0]);
        assert_eq!(a.l1_distance(&b).unwrap(), 3.0);
        assert!((a.l2_distance(&b).unwrap() - (5.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(a.add(&b).unwrap().counts(), &[3.0, 4.0, 4.0]);
        assert_eq!(a.sub(&b).unwrap().counts(), &[-1.0, 0.0, 2.0]);
        assert_eq!(a.scale(2.0).counts(), &[2.0, 4.0, 6.0]);

        let short = Histogram::zeros(2);
        assert!(a.l1_distance(&short).is_err());
        assert!(a.l2_distance(&short).is_err());
        assert!(a.add(&short).is_err());
        assert!(a.sub(&short).is_err());
        assert!(a.dominated_by(&short).is_err());
    }

    #[test]
    fn clamp_and_domination() {
        let mut h = Histogram::from_counts(vec![-1.0, 0.5, -0.2]);
        assert!(!h.is_non_negative());
        h.clamp_non_negative();
        assert!(h.is_non_negative());
        assert_eq!(h.counts(), &[0.0, 0.5, 0.0]);

        // Edge values, bitwise: only values that compare below zero become
        // `+0.0`; `-0.0` and NaN (whatever its payload) pass through.
        let nan = f64::from_bits(0x7ff8_0000_0000_0abc);
        let edges =
            [-0.0, f64::NAN, nan, -nan, f64::INFINITY, f64::NEG_INFINITY, -f64::MIN_POSITIVE];
        let mut h = Histogram::from_counts(edges.to_vec());
        h.clamp_non_negative();
        let expected = [-0.0, f64::NAN, nan, -nan, f64::INFINITY, 0.0, 0.0];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(h.counts()), bits(&expected));

        let small = Histogram::from_counts(vec![1.0, 2.0]);
        let big = Histogram::from_counts(vec![1.0, 3.0]);
        assert!(small.dominated_by(&big).unwrap());
        assert!(!big.dominated_by(&small).unwrap());
    }

    #[test]
    fn prefix_sums_support_range_queries() {
        let h = Histogram::from_counts(vec![1.0, 2.0, 3.0, 4.0]);
        let ps = h.prefix_sums();
        assert_eq!(ps, vec![0.0, 1.0, 3.0, 6.0, 10.0]);
        // range_sum(i..j) == ps[j] - ps[i]
        for i in 0..4 {
            for j in i..=4 {
                assert!((h.range_sum(i..j) - (ps[j] - ps[i])).abs() < 1e-12);
            }
        }
    }

    fn grid() -> GridDomain {
        GridDomain::new(CategoricalDomain::new("ap", 4), CategoricalDomain::new("hour", 3))
    }

    #[test]
    fn histogram2d_indexing() {
        let mut h = Histogram2D::zeros(grid());
        assert_eq!(h.domain().size(), 12);
        assert!(h.increment(1, 2, 5.0));
        assert!(h.increment(3, 0, 1.0));
        assert!(!h.increment(4, 0, 1.0), "row out of range");
        assert!(!h.increment(0, 3, 1.0), "col out of range");
        assert_eq!(h.get(1, 2), Some(5.0));
        assert_eq!(h.get(9, 9), None);
        assert_eq!(h.total(), 6.0);
        assert_eq!(h.flat().len(), 12);
        assert_eq!(h.clone().into_flat().total(), 6.0);
    }

    #[test]
    fn histogram2d_from_flat_checks_size() {
        assert!(Histogram2D::from_flat(grid(), Histogram::zeros(12)).is_ok());
        assert!(Histogram2D::from_flat(grid(), Histogram::zeros(11)).is_err());
    }
}
