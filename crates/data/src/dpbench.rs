//! DPBench-style synthetic benchmark datasets (Table 2 of the paper).
//!
//! The original DPBench collection contains seven real one-dimensional
//! histograms over a 4096-bin categorical domain. The raw data is not
//! redistributable, so this module generates synthetic histograms whose
//! published characteristics — **sparsity** (fraction of empty bins),
//! **scale** (total number of records) and qualitative **shape** — match the
//! numbers reported in Table 2:
//!
//! | Dataset    | Sparsity | Scale      |
//! |------------|----------|------------|
//! | Adult      | 0.98     | 17,665     |
//! | Hepth      | 0.21     | 347,414    |
//! | Income     | 0.45     | 20,787,122 |
//! | Nettrace   | 0.97     | 25,714     |
//! | Medcost    | 0.75     | 9,415      |
//! | Patent     | 0.06     | 27,948,226 |
//! | Searchlogs | 0.51     | 335,889    |
//!
//! What matters for reproducing Figures 6–9 is that sparsity and scale span
//! the same range as the originals (sparsity drives the OSDP zero-bin
//! advantage; scale relative to ε drives the DP signal-to-noise ratio), and
//! that Nettrace is sorted (which favours DAWA).

use crate::shapes;
use osdp_core::{ColumnarFrame, Histogram};
use rand::Rng;

/// Domain size shared by all benchmark datasets.
pub const DOMAIN_SIZE: usize = 4096;

/// The seven benchmark datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkDataset {
    /// Sparse, small-scale census extract (sparsity 0.98, scale 17,665).
    Adult,
    /// Dense, mid-scale citation histogram (sparsity 0.21, scale 347,414).
    Hepth,
    /// Mid-sparsity, very large-scale income histogram (0.45, 20,787,122).
    Income,
    /// Sparse, small-scale, *sorted* network trace (0.97, 25,714).
    Nettrace,
    /// Mid-sparsity, small-scale medical-cost histogram (0.75, 9,415).
    Medcost,
    /// Dense, very large-scale patent histogram (0.06, 27,948,226).
    Patent,
    /// Mid-sparsity, mid-scale search-log histogram (0.51, 335,889).
    Searchlogs,
}

/// All benchmark datasets in the order the paper lists them (Table 2).
pub const ALL_DATASETS: [BenchmarkDataset; 7] = [
    BenchmarkDataset::Adult,
    BenchmarkDataset::Hepth,
    BenchmarkDataset::Income,
    BenchmarkDataset::Nettrace,
    BenchmarkDataset::Medcost,
    BenchmarkDataset::Patent,
    BenchmarkDataset::Searchlogs,
];

/// Published characteristics of a benchmark dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Dataset identity.
    pub dataset: BenchmarkDataset,
    /// Target fraction of empty bins.
    pub sparsity: f64,
    /// Target total record count.
    pub scale: u64,
}

impl BenchmarkDataset {
    /// The dataset's display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkDataset::Adult => "Adult",
            BenchmarkDataset::Hepth => "Hepth",
            BenchmarkDataset::Income => "Income",
            BenchmarkDataset::Nettrace => "Nettrace",
            BenchmarkDataset::Medcost => "Medcost",
            BenchmarkDataset::Patent => "Patent",
            BenchmarkDataset::Searchlogs => "Searchlogs",
        }
    }

    /// The published sparsity / scale characteristics (Table 2).
    pub fn spec(&self) -> DatasetSpec {
        let (sparsity, scale) = match self {
            BenchmarkDataset::Adult => (0.98, 17_665),
            BenchmarkDataset::Hepth => (0.21, 347_414),
            BenchmarkDataset::Income => (0.45, 20_787_122),
            BenchmarkDataset::Nettrace => (0.97, 25_714),
            BenchmarkDataset::Medcost => (0.75, 9_415),
            BenchmarkDataset::Patent => (0.06, 27_948_226),
            BenchmarkDataset::Searchlogs => (0.51, 335_889),
        };
        DatasetSpec { dataset: *self, sparsity, scale }
    }

    /// Generates the synthetic histogram for this dataset.
    ///
    /// The output has exactly [`DOMAIN_SIZE`] bins, integer counts, total
    /// count equal (up to rounding) to the published scale, and the published
    /// fraction of zero bins.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Histogram {
        let spec = self.spec();
        let weights = match self {
            // Sparse and spiky: a few heavy categories, most of the domain empty.
            BenchmarkDataset::Adult => shapes::spiky(DOMAIN_SIZE, 60, 50.0, rng),
            // Dense and smooth-ish with moderate skew.
            BenchmarkDataset::Hepth => {
                let mut w = shapes::bimodal(DOMAIN_SIZE);
                let z = shapes::zipfian(DOMAIN_SIZE, 0.6, true, rng);
                for (a, b) in w.iter_mut().zip(z) {
                    *a = 0.5 * *a + 0.5 * b;
                }
                w
            }
            // Very large scale, mid sparsity, heavy-tailed.
            BenchmarkDataset::Income => shapes::zipfian(DOMAIN_SIZE, 1.1, true, rng),
            // Sparse *and sorted*: monotone decay (favours DAWA partitioning).
            BenchmarkDataset::Nettrace => shapes::sorted_decay(DOMAIN_SIZE, 0.015),
            // Small scale, mid sparsity, clustered.
            BenchmarkDataset::Medcost => shapes::clustered(DOMAIN_SIZE, 80, rng),
            // Very dense and very large: smooth mixture with mild noise.
            BenchmarkDataset::Patent => {
                let mut w = shapes::gaussian_mixture(
                    DOMAIN_SIZE,
                    &[(0.2, 0.15, 1.0), (0.55, 0.2, 0.8), (0.85, 0.1, 0.5)],
                );
                for v in &mut w {
                    *v = *v * (0.8 + 0.4 * rng.gen::<f64>()) + 0.05;
                }
                w
            }
            // Mid everything: zipf mixed with clusters.
            BenchmarkDataset::Searchlogs => {
                let mut w = shapes::clustered(DOMAIN_SIZE, 200, rng);
                let z = shapes::zipfian(DOMAIN_SIZE, 0.8, true, rng);
                for (a, b) in w.iter_mut().zip(z) {
                    *a = *a * 0.02 + b;
                }
                w
            }
        };
        realize(&weights, spec, rng)
    }

    /// Generates the synthetic dataset directly as a weighted columnar frame
    /// (every record non-sensitive), the form the engine's columnar backend
    /// scans: one row per non-empty bin with the bin's count as its weight,
    /// instead of one row per record. Policy samplers produce frames for
    /// their own `(x, x_ns)` pairs via
    /// [`crate::sampling::SampledPolicy::to_frame`].
    pub fn generate_frame<R: Rng + ?Sized>(&self, rng: &mut R) -> ColumnarFrame {
        let hist = self.generate(rng);
        ColumnarFrame::from_histogram_pair(&hist, &hist).expect("x_ns = x is always a valid pair")
    }
}

/// Turns raw non-negative weights into an integer histogram with the target
/// sparsity and scale.
///
/// The `target_sparsity` fraction of bins with the *smallest* weights is
/// zeroed out (ties broken by position so the procedure is deterministic for
/// a fixed weight vector), then the remaining weights are scaled and rounded
/// so they sum to `scale`, keeping every surviving bin at count ≥ 1.
fn realize<R: Rng + ?Sized>(weights: &[f64], spec: DatasetSpec, _rng: &mut R) -> Histogram {
    let d = weights.len();
    let zero_bins = ((spec.sparsity * d as f64).round() as usize).min(d);
    let keep = d - zero_bins;

    // Rank bins by weight, descending; keep the `keep` heaviest.
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    let kept: Vec<usize> = order.into_iter().take(keep).collect();

    let mut counts = vec![0.0f64; d];
    if keep == 0 || spec.scale == 0 {
        return Histogram::from_counts(counts);
    }

    // Give every kept bin one record, then distribute the remainder
    // proportionally to weight (largest-remainder rounding).
    let base = keep as u64;
    let scale = spec.scale.max(base);
    let remainder = scale - base;
    let kept_weight: f64 = kept.iter().map(|&i| weights[i].max(1e-12)).sum();

    let mut fractional: Vec<(usize, f64)> = Vec::with_capacity(keep);
    let mut assigned: u64 = 0;
    for &i in &kept {
        let share = weights[i].max(1e-12) / kept_weight * remainder as f64;
        let whole = share.floor() as u64;
        counts[i] = (1 + whole) as f64;
        assigned += whole;
        fractional.push((i, share - whole as f64));
    }
    // Distribute the leftover records to the bins with the largest fractional
    // parts so the total is exact.
    let mut leftover = remainder - assigned;
    fractional.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut idx = 0;
    while leftover > 0 && !fractional.is_empty() {
        let (bin, _) = fractional[idx % fractional.len()];
        counts[bin] += 1.0;
        leftover -= 1;
        idx += 1;
    }

    Histogram::from_counts(counts)
}

/// Generates all seven benchmark histograms with a shared RNG.
pub fn generate_all<R: Rng + ?Sized>(rng: &mut R) -> Vec<(BenchmarkDataset, Histogram)> {
    ALL_DATASETS.iter().map(|d| (*d, d.generate(rng))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(2024)
    }

    #[test]
    fn names_and_specs_match_table_2() {
        assert_eq!(BenchmarkDataset::Adult.name(), "Adult");
        assert_eq!(BenchmarkDataset::Patent.spec().scale, 27_948_226);
        assert_eq!(BenchmarkDataset::Nettrace.spec().sparsity, 0.97);
        assert_eq!(ALL_DATASETS.len(), 7);
        // Specs are distinct.
        let scales: Vec<u64> = ALL_DATASETS.iter().map(|d| d.spec().scale).collect();
        let mut dedup = scales.clone();
        dedup.dedup();
        assert_eq!(scales.len(), dedup.len());
    }

    #[test]
    fn generated_histograms_hit_target_scale_exactly() {
        let mut r = rng();
        for d in ALL_DATASETS {
            let h = d.generate(&mut r);
            assert_eq!(h.len(), DOMAIN_SIZE);
            assert_eq!(h.total() as u64, d.spec().scale, "{}", d.name());
            assert!(h.is_non_negative());
            // Counts are integers.
            assert!(h.counts().iter().all(|c| (c.round() - c).abs() < 1e-9));
        }
    }

    #[test]
    fn generated_histograms_hit_target_sparsity() {
        let mut r = rng();
        for d in ALL_DATASETS {
            let h = d.generate(&mut r);
            let target = d.spec().sparsity;
            assert!(
                (h.sparsity() - target).abs() < 0.01,
                "{}: sparsity {} vs target {}",
                d.name(),
                h.sparsity(),
                target
            );
        }
    }

    #[test]
    fn nettrace_is_sorted() {
        let mut r = rng();
        let h = BenchmarkDataset::Nettrace.generate(&mut r);
        // Non-increasing over the non-zero prefix.
        let counts = h.counts();
        let nonzero_prefix: Vec<f64> = counts.iter().copied().filter(|&c| c > 0.0).collect();
        for w in nonzero_prefix.windows(2) {
            assert!(w[0] >= w[1], "Nettrace must be non-increasing");
        }
        // And the zero bins are all at the tail.
        let first_zero = counts.iter().position(|&c| c == 0.0).unwrap();
        assert!(counts[first_zero..].iter().all(|&c| c == 0.0));
    }

    #[test]
    fn generate_frame_matches_the_histogram() {
        let hist = BenchmarkDataset::Medcost.generate(&mut rng());
        let frame = BenchmarkDataset::Medcost.generate_frame(&mut rng());
        assert_eq!(frame.len(), hist.non_zero_bins(), "one weighted row per non-empty bin");
        assert_eq!(frame.total_weight(), hist.total());
        // Every row is flagged non-sensitive (x_ns = x).
        let flags = frame.column(osdp_core::frame::PAIR_FLAG_FIELD).unwrap();
        assert!((0..frame.len()).all(|i| flags.value_at(i) == Some(osdp_core::Value::Bool(true))));
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let a = BenchmarkDataset::Adult.generate(&mut rng());
        let b = BenchmarkDataset::Adult.generate(&mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn generate_all_returns_each_dataset_once() {
        let mut r = rng();
        let all = generate_all(&mut r);
        assert_eq!(all.len(), 7);
        for (d, h) in all {
            assert_eq!(h.total() as u64, d.spec().scale);
        }
    }

    #[test]
    fn dense_datasets_are_denser_than_sparse_ones() {
        let mut r = rng();
        let patent = BenchmarkDataset::Patent.generate(&mut r);
        let adult = BenchmarkDataset::Adult.generate(&mut r);
        assert!(patent.non_zero_bins() > 5 * adult.non_zero_bins());
    }
}
