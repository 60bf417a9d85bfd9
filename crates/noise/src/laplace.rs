//! The two-sided Laplace distribution (Definition 2.3 of the paper).

use crate::ln::ln;
use osdp_core::error::{OsdpError, Result};
use rand::distributions::Distribution;
use rand::Rng;

/// Laplace distribution with mean `mu` and scale `beta`.
///
/// Density: `f(x; μ, β) = exp(−|x − μ| / β) / (2β)`.
///
/// The DP Laplace mechanism (Definition 2.5) adds `Lap(S(f)/ε)` noise, i.e.
/// a zero-mean Laplace with scale equal to sensitivity over epsilon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    mu: f64,
    beta: f64,
}

impl Laplace {
    /// Creates a Laplace distribution; `beta` must be finite and positive.
    pub fn new(mu: f64, beta: f64) -> Result<Self> {
        if !beta.is_finite() || beta <= 0.0 {
            return Err(OsdpError::InvalidInput(format!(
                "Laplace scale must be finite and positive, got {beta}"
            )));
        }
        if !mu.is_finite() {
            return Err(OsdpError::InvalidInput(format!("Laplace mean must be finite, got {mu}")));
        }
        Ok(Self { mu, beta })
    }

    /// Zero-mean Laplace with the given scale, written `Lap(β)` in the paper.
    pub fn centered(beta: f64) -> Result<Self> {
        Self::new(0.0, beta)
    }

    /// The zero-mean Laplace used by an ε-DP Laplace mechanism on a query of
    /// the given L1 `sensitivity`: scale `= sensitivity / ε`.
    pub fn for_epsilon(sensitivity: f64, epsilon: f64) -> Result<Self> {
        osdp_core::error::validate_epsilon(epsilon)?;
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(OsdpError::InvalidInput(format!(
                "sensitivity must be finite and positive, got {sensitivity}"
            )));
        }
        Self::centered(sensitivity / epsilon)
    }

    /// The location parameter μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale parameter β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (-((x - self.mu).abs()) / self.beta).exp() / (2.0 * self.beta)
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.beta;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }

    /// Theoretical variance `2β²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.beta * self.beta
    }

    /// Theoretical mean (= μ).
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// Expected absolute deviation from the mean, `E|X − μ| = β`.
    ///
    /// The expected L1 error of a `d`-bin Laplace-mechanism histogram release
    /// is therefore `d · β = d · S(f) / ε` (the paper quotes `2d/ε` for the
    /// sensitivity-2 histogram query).
    pub fn expected_absolute_deviation(&self) -> f64 {
        self.beta
    }

    /// The inverse-CDF transform shared by the scalar sampler and the slice
    /// kernels, applied to one uniform variate in `[0, 1)` — sharing it is
    /// what makes the kernels bitwise-identical to repeated `sample` calls.
    #[inline]
    pub(crate) fn transform_unit(&self, unit: f64) -> f64 {
        // `u` is uniform on the 2⁻⁵³ grid in [−0.5, 0.5), computed exactly.
        // At `unit == 0` (u = −0.5) the argument 1 − 2|u| is 0 and the clamp
        // fires: the draw is the finite μ − β · 1022 ln 2 ≈ μ − 708.4 β rather
        // than −∞. Every other argument is at least 2⁻⁵² and passes through.
        let u = unit - 0.5;
        let magnitude = ln((1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE));
        self.mu - self.beta * u.signum() * magnitude
    }

    /// Fills `out` with i.i.d. samples, drawing uniforms in blocks over a
    /// concrete RNG.
    ///
    /// **Contract**: produces the bitwise-identical value sequence (and
    /// leaves the RNG in the identical state) as `out.len()` scalar
    /// [`sample`](Distribution::sample) calls; the scalar path stays the
    /// oracle. The speed comes from three places, none of them a
    /// distributional shortcut: a concrete `R` (the engine uses
    /// `ChaCha12Rng`) makes every draw monomorphize and lets one bulk
    /// `fill_bytes` call serve a block of draws; the transform's logarithm is
    /// the crate's branch-free `ln` rather than a libm call, so the transform
    /// pass vectorises; and on x86_64 CPUs with AVX-512F that pass runs as a
    /// copy compiled for AVX-512F, eight lanes wide, with the same bits.
    pub fn fill<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        crate::kernels::fill_with(out, rng, |u| self.transform_unit(u));
    }

    /// Adds one i.i.d. sample to every slot of `out` — the perturbation form
    /// of [`Laplace::fill`], with the same bitwise-parity contract (each slot
    /// receives `slot + sample`).
    pub fn add_assign<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        crate::kernels::add_with(out, rng, |u| self.transform_unit(u));
    }
}

impl Distribution<f64> for Laplace {
    /// Inverse-CDF sampling: with `U ~ Uniform(−1/2, 1/2)`,
    /// `μ − β · sign(U) · ln(1 − 2|U|)` is Laplace(μ, β).
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
    fn construction_validates_parameters() {
        assert!(Laplace::new(0.0, 1.0).is_ok());
        assert!(Laplace::new(0.0, 0.0).is_err());
        assert!(Laplace::new(0.0, -1.0).is_err());
        assert!(Laplace::new(f64::NAN, 1.0).is_err());
        assert!(Laplace::new(0.0, f64::INFINITY).is_err());
        assert!(Laplace::centered(2.0).is_ok());
        assert!(Laplace::for_epsilon(2.0, 1.0).is_ok());
        assert!(Laplace::for_epsilon(2.0, 0.0).is_err());
        assert!(Laplace::for_epsilon(0.0, 1.0).is_err());
    }

    #[test]
    fn for_epsilon_sets_scale_to_sensitivity_over_epsilon() {
        let d = Laplace::for_epsilon(2.0, 0.5).unwrap();
        assert!((d.beta() - 4.0).abs() < 1e-12);
        assert_eq!(d.mu(), 0.0);
        assert!((d.variance() - 32.0).abs() < 1e-12);
        assert!((d.expected_absolute_deviation() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pdf_and_cdf_have_expected_shape() {
        let d = Laplace::centered(1.0).unwrap();
        assert!((d.pdf(0.0) - 0.5).abs() < 1e-12);
        assert!(d.pdf(1.0) < d.pdf(0.0));
        assert!((d.pdf(1.0) - d.pdf(-1.0)).abs() < 1e-12, "symmetric");
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(d.cdf(-10.0) < 1e-4);
        assert!(d.cdf(10.0) > 1.0 - 1e-4);
        // CDF is monotone.
        assert!(d.cdf(-1.0) < d.cdf(0.0));
        assert!(d.cdf(0.0) < d.cdf(1.0));
    }

    #[test]
    fn sample_moments_match_theory() {
        let d = Laplace::new(3.0, 2.0).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "sample mean {mean} too far from 3.0");
        assert!((var - 8.0).abs() < 0.3, "sample variance {var} too far from 8.0");
    }

    #[test]
    fn samples_match_cdf_at_quartiles() {
        let d = Laplace::centered(1.0).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let n = 100_000;
        let below_zero = (0..n).filter(|_| d.sample(&mut rng) < 0.0).count() as f64 / n as f64;
        assert!((below_zero - 0.5).abs() < 0.01, "median should be 0, got fraction {below_zero}");
    }

    #[test]
    fn fill_kernels_match_the_scalar_oracle_bitwise() {
        let d = Laplace::new(-1.5, 0.7).unwrap();
        for seed in [0u64, 9, 1234] {
            // Sizes straddling the block boundary.
            for n in [0usize, 1, 7, 255, 256, 257, 1000] {
                let mut scalar_rng = ChaCha12Rng::seed_from_u64(seed);
                let scalar: Vec<f64> = (0..n).map(|_| d.sample(&mut scalar_rng)).collect();
                let mut fill_rng = ChaCha12Rng::seed_from_u64(seed);
                let mut filled = vec![0.0; n];
                d.fill(&mut filled, &mut fill_rng);
                assert!(
                    scalar.iter().zip(&filled).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "fill drifted from the scalar oracle (seed {seed}, n {n})"
                );
                // Identical residual RNG state.
                use rand::RngCore;
                assert_eq!(scalar_rng.next_u64(), fill_rng.next_u64());

                let base: Vec<f64> = (0..n).map(|i| i as f64 * 3.0).collect();
                let mut added = base.clone();
                d.add_assign(&mut added, &mut ChaCha12Rng::seed_from_u64(seed));
                assert!(
                    added
                        .iter()
                        .zip(base.iter().zip(&scalar))
                        .all(|(sum, (b, s))| sum.to_bits() == (b + s).to_bits()),
                    "add_assign drifted (seed {seed}, n {n})"
                );
            }
        }
    }

    #[test]
    fn epsilon_ratio_bound_holds_empirically() {
        // For neighboring counts differing by 1 the density ratio is bounded
        // by e^ε — spot-check the analytic densities.
        let eps = 0.7;
        let d = Laplace::for_epsilon(1.0, eps).unwrap();
        for x in [-3.0, -1.0, 0.0, 0.4, 2.0, 5.0] {
            let ratio = d.pdf(x) / d.pdf(x - 1.0);
            assert!(ratio <= (eps).exp() + 1e-9);
            assert!(ratio >= (-eps).exp() - 1e-9);
        }
    }
}
