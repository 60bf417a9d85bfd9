//! Laplace release of user-level n-gram counts with trajectory truncation
//! (the `LM Tk` baselines of Section 6.3.2).
//!
//! A user's daily trajectory can contribute to as many as `64ⁿ` n-gram counts,
//! so the naive sensitivity of the n-gram histogram is enormous. The standard
//! fix is **truncation**: keep at most `k` (distinct) n-grams per trajectory,
//! which bounds the histogram's L1 sensitivity by `2k` in the bounded model.
//! The truncated counts are then released with per-bin `Lap(2k/ε)` noise.
//!
//! The 64ⁿ-bin domain is never materialised: noise is added to the truncated
//! support, and error metrics account for the unmaterialised noisy bins
//! analytically via [`TruncatedNgramLaplace::expected_background_abs_error`]
//! (used together with `osdp_metrics::sparse_mre_with_background`).
//!
//! `LM T1` is this mechanism with `k = 1`; `LM T*` is the (non-private)
//! oracle choice of `k` that the paper also reports.

use osdp_core::error::{validate_epsilon, OsdpError, Result};
use osdp_core::SparseHistogram;
use osdp_noise::Laplace;
use rand::distributions::Distribution;
use rand::Rng;

/// The truncated Laplace mechanism for sparse user-level count histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedNgramLaplace {
    epsilon: f64,
    k: usize,
    name: String,
}

impl TruncatedNgramLaplace {
    /// Creates the mechanism for a budget ε and truncation parameter `k`.
    pub fn new(epsilon: f64, k: usize) -> Result<Self> {
        validate_epsilon(epsilon)?;
        if k == 0 {
            return Err(OsdpError::InvalidInput("truncation parameter k must be >= 1".into()));
        }
        Ok(Self { epsilon, k, name: format!("LM T{k}") })
    }

    /// The display name, e.g. `"LM T1"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The truncation parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-bin noise scale `2k/ε` (sensitivity `2k` after truncation).
    pub fn noise_scale(&self) -> f64 {
        2.0 * self.k as f64 / self.epsilon
    }

    /// Expected absolute noise on a bin whose true (truncated) count is zero —
    /// the background term of the full-domain MRE.
    pub fn expected_background_abs_error(&self) -> f64 {
        self.noise_scale()
    }

    /// Releases the truncated counts with Laplace noise on the materialised
    /// support. `truncated` must already be the `k`-truncated counts (the
    /// truncation itself is a property of how the counts were collected; see
    /// `osdp_data::tippers::NgramCounts::from_trajectories`).
    pub fn release<G: Rng + ?Sized>(
        &self,
        truncated: &SparseHistogram,
        rng: &mut G,
    ) -> SparseHistogram {
        let noise = Laplace::centered(self.noise_scale()).expect("validated");
        let mut out = SparseHistogram::new(truncated.domain_size());
        for (bin, count) in truncated.iter() {
            out.set(bin, count + noise.sample(rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(14)
    }

    fn sample_counts() -> SparseHistogram {
        let mut h = SparseHistogram::new(64f64.powi(4));
        h.set(100, 25.0);
        h.set(7_000, 3.0);
        h.set(900_000, 110.0);
        h
    }

    #[test]
    fn construction_and_parameters() {
        assert!(TruncatedNgramLaplace::new(0.0, 1).is_err());
        assert!(TruncatedNgramLaplace::new(1.0, 0).is_err());
        let m = TruncatedNgramLaplace::new(0.5, 3).unwrap();
        assert_eq!(m.name(), "LM T3");
        assert_eq!(m.epsilon(), 0.5);
        assert_eq!(m.k(), 3);
        assert_eq!(m.noise_scale(), 12.0);
        assert_eq!(m.expected_background_abs_error(), 12.0);
    }

    #[test]
    fn release_perturbs_only_the_materialised_support() {
        let m = TruncatedNgramLaplace::new(1.0, 1).unwrap();
        let mut r = rng();
        let truth = sample_counts();
        let est = m.release(&truth, &mut r);
        assert_eq!(est.domain_size(), truth.domain_size());
        assert_eq!(est.support_size(), truth.support_size());
        for (bin, value) in est.iter() {
            assert!(truth.get(bin) > 0.0, "noise only materialised on the support");
            assert_ne!(value, truth.get(bin), "noise actually added");
        }
    }

    #[test]
    fn noise_magnitude_scales_with_k_over_epsilon() {
        let mut r = rng();
        let truth = sample_counts();
        let deviation = |m: &TruncatedNgramLaplace, r: &mut ChaCha12Rng| {
            let mut total = 0.0;
            for _ in 0..400 {
                total += truth.l1_distance(&m.release(&truth, r));
            }
            total / 400.0
        };
        let small = deviation(&TruncatedNgramLaplace::new(1.0, 1).unwrap(), &mut r);
        let big = deviation(&TruncatedNgramLaplace::new(1.0, 5).unwrap(), &mut r);
        // Expected L1 deviation per bin is the noise scale; 5x the truncation
        // should give about 5x the deviation.
        assert!((big / small - 5.0).abs() < 0.8, "ratio {}", big / small);
    }

    #[test]
    fn full_domain_mre_is_dominated_by_background_noise_at_low_epsilon() {
        use osdp_metrics::sparse_mre_with_background;
        let truth = sample_counts();
        let mut r = rng();
        let m = TruncatedNgramLaplace::new(0.01, 1).unwrap();
        let est = m.release(&truth, &mut r);
        let mre = sparse_mre_with_background(&truth, &est, m.expected_background_abs_error());
        // The background term alone is ~(d-3)/d * 200 ≈ 200.
        assert!(mre > 100.0, "low-epsilon truncated Laplace MRE should explode, got {mre}");
    }
}
