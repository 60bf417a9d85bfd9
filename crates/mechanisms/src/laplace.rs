//! The ε-DP Laplace mechanism (Definition 2.5) and its histogram wrapper.

use crate::traits::{HistogramMechanism, HistogramTask};
use osdp_core::error::{validate_epsilon, OsdpError, Result};
use osdp_core::{Guarantee, Histogram};
use osdp_noise::Laplace;
use rand::distributions::Distribution;
use rand::Rng;

/// The general Laplace mechanism for a numeric query of known L1 sensitivity:
/// `M(D) = f(D) + Lap(S(f)/ε)^d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Creates the mechanism for a query of the given L1 sensitivity.
    pub fn new(epsilon: f64, sensitivity: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(OsdpError::InvalidInput(format!(
                "sensitivity must be finite and positive, got {sensitivity}"
            )));
        }
        Ok(Self { epsilon, sensitivity })
    }

    /// The privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The query sensitivity `S(f)`.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The noise scale `S(f) / ε`.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// Perturbs a scalar query answer.
    pub fn perturb_scalar<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        let noise = Laplace::centered(self.scale()).expect("validated");
        value + noise.sample(rng)
    }

    /// Perturbs a vector query answer (i.i.d. noise per coordinate).
    pub fn perturb_vector<R: Rng + ?Sized>(&self, values: &[f64], rng: &mut R) -> Vec<f64> {
        let noise = Laplace::centered(self.scale()).expect("validated");
        values.iter().map(|v| v + noise.sample(rng)).collect()
    }

    /// Expected L1 error of a `d`-dimensional release: `d · S(f)/ε`.
    pub fn expected_l1_error(&self, d: usize) -> f64 {
        d as f64 * self.scale()
    }
}

/// The DP baseline for histogram release: per-bin Laplace noise with
/// sensitivity 2 (bounded DP: one record changing value moves one unit of
/// count between two bins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpLaplaceHistogram {
    inner: LaplaceMechanism,
    clamp_non_negative: bool,
}

impl DpLaplaceHistogram {
    /// Histogram L1 sensitivity in the bounded DP model.
    pub const HISTOGRAM_SENSITIVITY: f64 = 2.0;

    /// Creates the baseline for a budget ε.
    pub fn new(epsilon: f64) -> Result<Self> {
        Ok(Self {
            inner: LaplaceMechanism::new(epsilon, Self::HISTOGRAM_SENSITIVITY)?,
            clamp_non_negative: false,
        })
    }

    /// Enables clamping of negative noisy counts to zero (post-processing).
    pub fn with_clamping(mut self) -> Self {
        self.clamp_non_negative = true;
        self
    }

    /// The privacy budget.
    pub fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    /// Expected L1 error on a `d`-bin histogram: `2d/ε` (Theorem 5.1).
    pub fn expected_l1_error(&self, d: usize) -> f64 {
        self.inner.expected_l1_error(d)
    }
}

impl HistogramMechanism for DpLaplaceHistogram {
    fn name(&self) -> &str {
        "Laplace"
    }

    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        let noise = Laplace::centered(self.inner.scale()).expect("validated");
        out.assign(task.full().counts());
        noise.add_assign(out.counts_mut(), rng);
        if self.clamp_non_negative {
            out.clamp_non_negative();
        }
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Dp { eps: self.epsilon() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::task_from_counts;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(31)
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(LaplaceMechanism::new(1.0, 1.0).is_ok());
        assert!(LaplaceMechanism::new(0.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        assert!(LaplaceMechanism::new(1.0, f64::NAN).is_err());
        let m = LaplaceMechanism::new(0.5, 2.0).unwrap();
        assert_eq!(m.epsilon(), 0.5);
        assert_eq!(m.sensitivity(), 2.0);
        assert_eq!(m.scale(), 4.0);
        assert_eq!(m.expected_l1_error(10), 40.0);
    }

    #[test]
    fn scalar_and_vector_perturbation_are_unbiased() {
        let m = LaplaceMechanism::new(1.0, 1.0).unwrap();
        let mut r = rng();
        let trials = 20_000;
        let mean_scalar: f64 =
            (0..trials).map(|_| m.perturb_scalar(10.0, &mut r)).sum::<f64>() / trials as f64;
        assert!((mean_scalar - 10.0).abs() < 0.1);

        let v = vec![1.0, 2.0, 3.0];
        let out = m.perturb_vector(&v, &mut r);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn histogram_release_uses_sensitivity_two() {
        let m = DpLaplaceHistogram::new(0.5).unwrap();
        assert_eq!(m.epsilon(), 0.5);
        assert_eq!(m.expected_l1_error(100), 400.0);
        assert_eq!(m.name(), "Laplace");
        assert!(matches!(m.guarantee(), Guarantee::Dp { eps } if eps == 0.5));
    }

    #[test]
    fn histogram_release_shape_and_clamping() {
        let task = task_from_counts(&[0.0; 64], &[0.0; 64]).unwrap();
        let mut r = rng();
        let plain = DpLaplaceHistogram::new(0.2).unwrap();
        let est = plain.release(&task, &mut r);
        assert_eq!(est.len(), 64);
        assert!(est.counts().iter().any(|&c| c < 0.0), "unclamped noise goes negative");

        let clamped = DpLaplaceHistogram::new(0.2).unwrap().with_clamping();
        let est = clamped.release(&task, &mut r);
        assert!(est.is_non_negative());
    }

    #[test]
    fn dp_release_ignores_the_policy_split() {
        // A DP mechanism must depend only on the full histogram: with the RNG
        // re-seeded identically, two tasks with the same full histogram but
        // different non-sensitive parts give identical releases.
        let full = [5.0, 9.0, 1.0, 0.0];
        let t1 = task_from_counts(&full, &[5.0, 9.0, 1.0, 0.0]).unwrap();
        let t2 = task_from_counts(&full, &[0.0, 0.0, 0.0, 0.0]).unwrap();
        let m = DpLaplaceHistogram::new(1.0).unwrap();
        let a = m.release(&t1, &mut ChaCha12Rng::seed_from_u64(5));
        let b = m.release(&t2, &mut ChaCha12Rng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_error_matches_expectation() {
        let task = task_from_counts(&[50.0; 128], &[0.0; 128]).unwrap();
        let m = DpLaplaceHistogram::new(1.0).unwrap();
        let mut r = rng();
        let trials = 40;
        let mut total = 0.0;
        for _ in 0..trials {
            total += task.full().l1_distance(&m.release(&task, &mut r)).unwrap();
        }
        let mean = total / trials as f64;
        let expected = m.expected_l1_error(128);
        assert!((mean - expected).abs() < 0.2 * expected, "mean {mean} vs expected {expected}");
    }
}
