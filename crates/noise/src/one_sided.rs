//! The one-sided Laplace distribution (Definition 5.1 of the paper).
//!
//! `Lap⁻(λ)` is the mirror image of the exponential distribution: all mass
//! lies on the non-positive reals, with density `exp(x/λ)/λ` for `x ≤ 0`.
//! Adding `Lap⁻(1/ε)` noise to histogram counts computed **only on the
//! non-sensitive records** satisfies `(P, ε)`-OSDP (Theorem 5.2), because
//! one-sided neighbors can only *increase* non-sensitive counts.

use crate::exponential::Exponential;
use osdp_core::error::Result;
use rand::distributions::Distribution;
use rand::Rng;

/// The one-sided (negative) Laplace distribution `Lap⁻(λ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneSidedLaplace {
    exp: Exponential,
}

impl OneSidedLaplace {
    /// Creates a one-sided Laplace distribution with scale `lambda`.
    pub fn new(lambda: f64) -> Result<Self> {
        Ok(Self { exp: Exponential::new(lambda)? })
    }

    /// The scale used by a `(P, ε)`-OSDP one-sided Laplace mechanism:
    /// `λ = 1/ε` (Theorem 5.2).
    pub fn for_epsilon(epsilon: f64) -> Result<Self> {
        osdp_core::error::validate_epsilon(epsilon)?;
        Self::new(1.0 / epsilon)
    }

    /// The scale parameter λ.
    pub fn lambda(&self) -> f64 {
        self.exp.lambda()
    }

    /// Probability density at `x` (0 for positive `x`).
    pub fn pdf(&self, x: f64) -> f64 {
        if x > 0.0 {
            0.0
        } else {
            self.exp.pdf(-x)
        }
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x >= 0.0 {
            1.0
        } else {
            // P[X <= x] = P[-E <= x] = P[E >= -x] = 1 - cdf_E(-x)
            1.0 - self.exp.cdf(-x)
        }
    }

    /// Theoretical mean `−λ`: one-sided noise is biased downwards, which is
    /// why `OsdpLaplaceL1` adds back the median.
    pub fn mean(&self) -> f64 {
        -self.exp.mean()
    }

    /// Theoretical variance `λ²` — half the variance of a Laplace with the
    /// same scale, which (together with the sensitivity dropping from 2 to 1)
    /// yields the 1/8-variance claim of Section 5.1.
    pub fn variance(&self) -> f64 {
        self.exp.variance()
    }

    /// Median `−λ · ln 2`, the value that `OsdpLaplaceL1` (Algorithm 2, step 3)
    /// subtracts from positive noisy counts to de-bias them.
    pub fn median(&self) -> f64 {
        -self.exp.median()
    }

    /// The inverse-CDF transform shared by the scalar sampler and the slice
    /// kernels: the negated exponential draw.
    #[inline]
    pub(crate) fn transform_unit(&self, u: f64) -> f64 {
        -self.exp.transform_unit(u)
    }

    /// Fills `out` with i.i.d. samples, drawing uniforms in blocks over a
    /// concrete RNG. Bitwise-identical to `out.len()` scalar
    /// [`sample`](Distribution::sample) calls — see
    /// [`crate::Laplace::fill`] for the full kernel contract.
    pub fn fill<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        crate::kernels::fill_with(out, rng, |u| self.transform_unit(u));
    }

    /// Adds one i.i.d. (non-positive) sample to every slot of `out`; same
    /// parity contract as [`OneSidedLaplace::fill`]. This is the hot kernel
    /// of `OsdpLaplace` / `OsdpLaplaceL1`'s buffer-reuse release path.
    pub fn add_assign<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        crate::kernels::add_with(out, rng, |u| self.transform_unit(u));
    }
}

impl Distribution<f64> for OneSidedLaplace {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -self.exp.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::Laplace;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn construction_and_epsilon_scale() {
        assert!(OneSidedLaplace::new(1.0).is_ok());
        assert!(OneSidedLaplace::new(0.0).is_err());
        assert!(OneSidedLaplace::for_epsilon(0.0).is_err());
        let d = OneSidedLaplace::for_epsilon(0.5).unwrap();
        assert!((d.lambda() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn density_is_zero_on_positives_and_integrates_on_negatives() {
        let d = OneSidedLaplace::new(1.0).unwrap();
        assert_eq!(d.pdf(0.5), 0.0);
        assert!((d.pdf(0.0) - 1.0).abs() < 1e-12);
        assert!(d.pdf(-1.0) < d.pdf(0.0));
        // Numeric integral of the pdf over the negatives should be ~1.
        let mut integral = 0.0;
        let step = 0.001;
        let mut x = -20.0;
        while x <= 0.0 {
            integral += d.pdf(x) * step;
            x += step;
        }
        assert!((integral - 1.0).abs() < 0.01, "integral {integral}");
    }

    #[test]
    fn cdf_matches_definition() {
        let d = OneSidedLaplace::new(2.0).unwrap();
        assert_eq!(d.cdf(0.0), 1.0);
        assert_eq!(d.cdf(5.0), 1.0);
        assert!((d.cdf(d.median()) - 0.5).abs() < 1e-12);
        assert!(d.cdf(-10.0) < 0.01);
        assert!(d.cdf(-1.0) < d.cdf(-0.5));
    }

    #[test]
    fn moments_mean_median_variance() {
        let d = OneSidedLaplace::new(3.0).unwrap();
        assert_eq!(d.mean(), -3.0);
        assert_eq!(d.variance(), 9.0);
        assert!((d.median() + 3.0 * std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn samples_are_non_positive_and_match_moments() {
        let d = OneSidedLaplace::for_epsilon(1.0).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x <= 0.0);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean + 1.0).abs() < 0.02, "sample mean {mean} expected -1");
        assert!((var - 1.0).abs() < 0.05, "sample variance {var} expected 1");
    }

    #[test]
    fn fill_kernels_match_the_scalar_oracle_bitwise() {
        let d = OneSidedLaplace::for_epsilon(0.4).unwrap();
        for n in [1usize, 255, 256, 513] {
            let mut scalar_rng = ChaCha12Rng::seed_from_u64(21);
            let scalar: Vec<f64> = (0..n).map(|_| d.sample(&mut scalar_rng)).collect();
            let mut filled = vec![0.0; n];
            d.fill(&mut filled, &mut ChaCha12Rng::seed_from_u64(21));
            assert!(scalar.iter().zip(&filled).all(|(a, b)| a.to_bits() == b.to_bits()));
            let mut added = vec![10.0; n];
            d.add_assign(&mut added, &mut ChaCha12Rng::seed_from_u64(21));
            assert!(added.iter().zip(&scalar).all(|(a, s)| a.to_bits() == (10.0 + s).to_bits()));
        }
    }

    #[test]
    fn variance_is_one_eighth_of_dp_laplace_for_histograms() {
        // DP histogram release: sensitivity 2, scale 2/ε, variance 2*(2/ε)^2 = 8/ε².
        // OSDP one-sided release: scale 1/ε, variance 1/ε².
        let eps = 0.4;
        let dp = Laplace::for_epsilon(2.0, eps).unwrap();
        let osdp = OneSidedLaplace::for_epsilon(eps).unwrap();
        let ratio = osdp.variance() / dp.variance();
        assert!((ratio - 1.0 / 8.0).abs() < 1e-12, "ratio {ratio}");
    }

    #[test]
    fn density_ratio_satisfies_epsilon_bound_for_unit_shift() {
        // Theorem 5.2's core inequality: for y <= x <= x' with x' - x <= 1,
        // pdf(y - x) / pdf(y - x') <= e^{ε (x' - x)} <= e^ε.
        let eps = 0.8;
        let d = OneSidedLaplace::for_epsilon(eps).unwrap();
        for y in [-5.0, -2.0, -1.0, -0.3] {
            let ratio = d.pdf(y) / d.pdf(y - 1.0);
            assert!(ratio <= eps.exp() + 1e-9, "ratio {ratio} exceeds e^eps");
        }
    }
}
