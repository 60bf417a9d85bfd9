//! The exponential distribution, the building block of one-sided noise.

use crate::ln::ln;
use osdp_core::error::{OsdpError, Result};
use rand::distributions::Distribution;
use rand::Rng;

/// Exponential distribution with scale `lambda` (mean `lambda`).
///
/// Density: `f(x; λ) = exp(−x/λ) / λ` for `x ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given scale (mean).
    pub fn new(lambda: f64) -> Result<Self> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(OsdpError::InvalidInput(format!(
                "Exponential scale must be finite and positive, got {lambda}"
            )));
        }
        Ok(Self { lambda })
    }

    /// The scale parameter λ (which equals the mean).
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Probability density at `x` (0 for negative `x`).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            (-x / self.lambda).exp() / self.lambda
        }
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-x / self.lambda).exp()
        }
    }

    /// Theoretical mean (= λ).
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    /// Theoretical variance (= λ²).
    pub fn variance(&self) -> f64 {
        self.lambda * self.lambda
    }

    /// Median `λ · ln 2`.
    pub fn median(&self) -> f64 {
        self.lambda * std::f64::consts::LN_2
    }

    /// The inverse-CDF transform shared by the scalar sampler and the slice
    /// kernels (one uniform in `[0, 1)` per sample).
    #[inline]
    pub(crate) fn transform_unit(&self, u: f64) -> f64 {
        // Every double in [0, 1) is at most 1 − 2⁻⁵³, so 1 − u ≥ 2⁻⁵³ and the
        // clamp never fires for a uniform draw; it only keeps `ln` inside its
        // domain. The largest draw is λ · 53 ln 2 ≈ 36.7 λ.
        -self.lambda * ln((1.0 - u).max(f64::MIN_POSITIVE))
    }

    /// Fills `out` with i.i.d. samples, drawing uniforms in blocks over a
    /// concrete RNG. Bitwise-identical to `out.len()` scalar
    /// [`sample`](Distribution::sample) calls — see
    /// [`crate::Laplace::fill`] for the full kernel contract.
    pub fn fill<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        crate::kernels::fill_with(out, rng, |u| self.transform_unit(u));
    }

    /// Adds one i.i.d. sample to every slot of `out`; same parity contract
    /// as [`Exponential::fill`].
    pub fn add_assign<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        crate::kernels::add_with(out, rng, |u| self.transform_unit(u));
    }
}

impl Distribution<f64> for Exponential {
    /// Inverse-CDF sampling: `−λ · ln(1 − U)` with `U ~ Uniform[0, 1)`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.transform_unit(rng.gen::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn construction_validates_scale() {
        assert!(Exponential::new(1.0).is_ok());
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-2.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn analytic_quantities() {
        let d = Exponential::new(2.0).unwrap();
        assert_eq!(d.lambda(), 2.0);
        assert_eq!(d.mean(), 2.0);
        assert_eq!(d.variance(), 4.0);
        assert!((d.median() - 2.0 * std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert!((d.pdf(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert!((d.cdf(d.median()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fill_kernels_match_the_scalar_oracle_bitwise() {
        let d = Exponential::new(2.5).unwrap();
        for n in [3usize, 256, 300] {
            let mut scalar_rng = ChaCha12Rng::seed_from_u64(5);
            let scalar: Vec<f64> = (0..n).map(|_| d.sample(&mut scalar_rng)).collect();
            let mut filled = vec![0.0; n];
            d.fill(&mut filled, &mut ChaCha12Rng::seed_from_u64(5));
            assert!(scalar.iter().zip(&filled).all(|(a, b)| a.to_bits() == b.to_bits()));
            let mut added = vec![-1.0; n];
            d.add_assign(&mut added, &mut ChaCha12Rng::seed_from_u64(5));
            assert!(added.iter().zip(&scalar).all(|(a, s)| a.to_bits() == (-1.0 + s).to_bits()));
        }
    }

    #[test]
    fn samples_are_non_negative_with_correct_mean() {
        let d = Exponential::new(1.5).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.5).abs() < 0.02, "sample mean {mean}");
    }
}
