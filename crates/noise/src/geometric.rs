//! The two-sided geometric distribution: the discrete analogue of Laplace.
//!
//! Not used directly by the paper's algorithms, but provided as the natural
//! integer-valued alternative for count queries, and exercised by the
//! ablation benches.

use crate::ln::ln;
use osdp_core::error::{OsdpError, Result};
use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Two-sided geometric distribution with parameter `alpha ∈ (0, 1)`:
/// `P[X = k] = (1 − α) / (1 + α) · α^{|k|}` for integer `k`.
///
/// Adding this noise to an integer count of sensitivity 1 gives ε-DP with
/// `α = e^{−ε}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoSidedGeometric {
    alpha: f64,
}

impl TwoSidedGeometric {
    /// Creates a two-sided geometric distribution with decay `alpha`.
    pub fn new(alpha: f64) -> Result<Self> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(OsdpError::InvalidInput(format!(
                "two-sided geometric alpha must be in (0,1), got {alpha}"
            )));
        }
        Ok(Self { alpha })
    }

    /// The distribution achieving ε-DP on sensitivity-`sensitivity` integer
    /// counts: `α = e^{−ε / sensitivity}`.
    pub fn for_epsilon(sensitivity: f64, epsilon: f64) -> Result<Self> {
        osdp_core::error::validate_epsilon(epsilon)?;
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(OsdpError::InvalidInput(format!(
                "sensitivity must be finite and positive, got {sensitivity}"
            )));
        }
        Self::new((-epsilon / sensitivity).exp())
    }

    /// The decay parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Probability mass at integer `k`.
    pub fn pmf(&self, k: i64) -> f64 {
        (1.0 - self.alpha) / (1.0 + self.alpha) * self.alpha.powi(k.unsigned_abs() as i32)
    }

    /// Theoretical variance `2α / (1 − α)²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.alpha / ((1.0 - self.alpha) * (1.0 - self.alpha))
    }

    /// Fills `out` with i.i.d. samples, drawing the two uniforms behind each
    /// variate in blocks over a concrete RNG. Bitwise-identical to
    /// `out.len()` scalar [`sample`](Distribution::sample) calls — see
    /// [`crate::Laplace::fill`] for the full kernel contract.
    pub fn fill<R: Rng + ?Sized>(&self, out: &mut [i64], rng: &mut R) {
        const PAIRS: usize = crate::kernels::BLOCK / 2;
        let ln_alpha = self.alpha.ln();
        let mut unit = [0.0f64; crate::kernels::BLOCK];
        let mut bytes = [0u8; 8 * crate::kernels::BLOCK];
        for chunk in out.chunks_mut(PAIRS) {
            let unit = &mut unit[..2 * chunk.len()];
            crate::kernels::draw_unit_block(unit, &mut bytes, rng);
            for (slot, pair) in chunk.iter_mut().zip(unit.chunks_exact(2)) {
                let g1 = (ln(pair[0].max(f64::MIN_POSITIVE)) / ln_alpha).floor() as i64;
                let g2 = (ln(pair[1].max(f64::MIN_POSITIVE)) / ln_alpha).floor() as i64;
                *slot = g1 - g2;
            }
        }
    }
}

impl Distribution<i64> for TwoSidedGeometric {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        // Sample two one-sided geometric variables (number of failures before
        // first success with success probability 1 - alpha) and take the
        // difference; their difference has the two-sided geometric law.
        let g1 = sample_geometric(self.alpha, rng);
        let g2 = sample_geometric(self.alpha, rng);
        g1 - g2
    }
}

/// Samples a geometric random variable counting failures before the first
/// success, where the failure probability is `alpha`.
fn sample_geometric<R: Rng + ?Sized>(alpha: f64, rng: &mut R) -> i64 {
    // Inverse CDF: floor(ln(U) / ln(alpha)) for U ~ Uniform(0,1). `alpha`
    // may be subnormal, outside the crate `ln`'s domain, so it takes std's.
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (ln(u) / alpha.ln()).floor() as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn construction_validates_alpha() {
        assert!(TwoSidedGeometric::new(0.5).is_ok());
        assert!(TwoSidedGeometric::new(0.0).is_err());
        assert!(TwoSidedGeometric::new(1.0).is_err());
        assert!(TwoSidedGeometric::new(f64::NAN).is_err());
        assert!(TwoSidedGeometric::for_epsilon(1.0, 1.0).is_ok());
        assert!(TwoSidedGeometric::for_epsilon(0.0, 1.0).is_err());
        assert!(TwoSidedGeometric::for_epsilon(1.0, -1.0).is_err());
    }

    #[test]
    fn pmf_is_symmetric_and_sums_to_one() {
        let d = TwoSidedGeometric::for_epsilon(1.0, 0.5).unwrap();
        assert!((d.pmf(3) - d.pmf(-3)).abs() < 1e-15);
        let total: f64 = (-200..=200).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "pmf sums to {total}");
    }

    #[test]
    fn pmf_ratio_bounded_by_exp_epsilon() {
        let eps = 0.7;
        let d = TwoSidedGeometric::for_epsilon(1.0, eps).unwrap();
        for k in -5..=5 {
            let ratio = d.pmf(k) / d.pmf(k + 1);
            assert!(ratio <= eps.exp() + 1e-9);
            assert!(ratio >= (-eps).exp() - 1e-9);
        }
    }

    #[test]
    fn fill_kernel_matches_the_scalar_oracle_exactly() {
        let d = TwoSidedGeometric::for_epsilon(1.0, 0.6).unwrap();
        for n in [1usize, 127, 128, 129, 500] {
            let mut scalar_rng = ChaCha12Rng::seed_from_u64(13);
            let scalar: Vec<i64> = (0..n).map(|_| d.sample(&mut scalar_rng)).collect();
            let mut filled = vec![0i64; n];
            d.fill(&mut filled, &mut ChaCha12Rng::seed_from_u64(13));
            assert_eq!(scalar, filled, "fill drifted from the scalar oracle at n = {n}");
        }
    }

    #[test]
    fn sample_mean_is_zero_and_variance_matches() {
        let d = TwoSidedGeometric::for_epsilon(1.0, 1.0).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let n = 200_000;
        let samples: Vec<i64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var = samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - d.variance()).abs() < 0.1, "var {var} vs {}", d.variance());
    }
}
