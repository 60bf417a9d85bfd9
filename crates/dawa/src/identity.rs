//! The Identity (per-bin Laplace) DP baseline.
//!
//! This is the Laplace mechanism of Definition 2.5 applied to the histogram
//! query: every bin receives independent `Lap(2/ε)` noise (sensitivity 2 in
//! the bounded model, since changing one record's value moves a unit of count
//! between two bins).

use osdp_core::error::{validate_epsilon, Result};
use osdp_core::Histogram;
use osdp_noise::Laplace;
use rand::distributions::Distribution;
use rand::Rng;

/// The per-bin Laplace baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Identity {
    epsilon: f64,
}

impl Identity {
    /// Creates the mechanism for a given total budget ε.
    pub fn new(epsilon: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        Ok(Self { epsilon })
    }

    /// The privacy budget.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Expected L1 error of a `d`-bin release: `d · 2/ε` (the `2d/ε` quoted in
    /// Theorem 5.1 of the OSDP paper).
    pub fn expected_l1_error(&self, bins: usize) -> f64 {
        bins as f64 * 2.0 / self.epsilon
    }

    /// Releases an ε-DP histogram estimate.
    pub fn release<R: Rng + ?Sized>(&self, hist: &Histogram, rng: &mut R) -> Histogram {
        let noise = Laplace::for_epsilon(2.0, self.epsilon).expect("validated");
        Histogram::from_counts(hist.counts().iter().map(|&c| c + noise.sample(rng)).collect())
    }

    /// Releases and clamps negative counts to zero (common post-processing).
    pub fn release_non_negative<R: Rng + ?Sized>(
        &self,
        hist: &Histogram,
        rng: &mut R,
    ) -> Histogram {
        let mut estimate = self.release(hist, rng);
        estimate.clamp_non_negative();
        estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn construction_and_expected_error() {
        assert!(Identity::new(0.0).is_err());
        let m = Identity::new(0.5).unwrap();
        assert_eq!(m.epsilon(), 0.5);
        assert_eq!(m.expected_l1_error(100), 400.0);
    }

    #[test]
    fn release_is_unbiased_and_has_right_shape() {
        let m = Identity::new(1.0).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let hist = Histogram::from_counts(vec![10.0; 64]);
        let mut sums = vec![0.0; 64];
        let trials = 2_000;
        for _ in 0..trials {
            let est = m.release(&hist, &mut rng);
            assert_eq!(est.len(), 64);
            for (s, &v) in sums.iter_mut().zip(est.counts()) {
                *s += v;
            }
        }
        let worst = sums.iter().map(|s| (s / trials as f64 - 10.0).abs()).fold(0.0f64, f64::max);
        assert!(worst < 0.5, "per-bin mean deviates by {worst}");
    }

    #[test]
    fn empirical_l1_error_tracks_the_analytic_value() {
        let m = Identity::new(0.5).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(10);
        let hist = Histogram::from_counts(vec![100.0; 256]);
        let mut total = 0.0;
        let trials = 50;
        for _ in 0..trials {
            total += hist.l1_distance(&m.release(&hist, &mut rng)).unwrap();
        }
        let mean_error = total / trials as f64;
        let expected = m.expected_l1_error(256);
        assert!(
            (mean_error - expected).abs() < 0.15 * expected,
            "empirical {mean_error} vs expected {expected}"
        );
    }

    #[test]
    fn non_negative_release_clamps() {
        let m = Identity::new(0.1).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let hist = Histogram::zeros(128);
        let est = m.release_non_negative(&hist, &mut rng);
        assert!(est.is_non_negative());
        // The unclamped release of an all-zero histogram must contain
        // negatives (with overwhelming probability over 128 bins).
        let raw = m.release(&hist, &mut rng);
        assert!(raw.counts().iter().any(|&c| c < 0.0));
    }
}
