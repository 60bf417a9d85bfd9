//! `OsdpLaplace` (Definition 5.2): one-sided noise on non-sensitive counts.
//!
//! The mechanism computes the histogram on the non-sensitive records only and
//! adds i.i.d. one-sided Laplace noise `Lap⁻(1/ε)` to every bin. Because a
//! one-sided neighbor can only *increase* non-sensitive counts, and the noise
//! only ever *decreases* the released value, the support condition of
//! Theorem 5.2 holds and the release satisfies `(P, ε)`-OSDP. The noise
//! variance is 1/8 of the DP Laplace mechanism's (half from the one-sided
//! distribution, a factor 4 from the sensitivity dropping from 2 to 1).

use crate::traits::{HistogramMechanism, HistogramTask};
use osdp_core::error::{validate_epsilon, Result};
use osdp_core::{Guarantee, Histogram};
use osdp_noise::OneSidedLaplace;
use rand::Rng;

/// The one-sided Laplace mechanism over the non-sensitive histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsdpLaplace {
    epsilon: f64,
}

impl OsdpLaplace {
    /// Creates the mechanism for a budget ε.
    pub fn new(epsilon: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        Ok(Self { epsilon })
    }

    /// The privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The one-sided noise distribution `Lap⁻(1/ε)` used per bin.
    pub fn noise(&self) -> OneSidedLaplace {
        OneSidedLaplace::for_epsilon(self.epsilon).expect("validated")
    }

    /// Adds one-sided noise to the non-sensitive counts, overwriting `out`
    /// through the block fill kernel ([`OneSidedLaplace::add_assign`]).
    pub fn perturb_into<G: Rng + ?Sized>(
        &self,
        non_sensitive: &Histogram,
        rng: &mut G,
        out: &mut Histogram,
    ) {
        out.assign(non_sensitive.counts());
        self.noise().add_assign(out.counts_mut(), rng);
    }
}

impl HistogramMechanism for OsdpLaplace {
    fn name(&self) -> &str {
        "OsdpLaplace"
    }

    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        self.perturb_into(task.non_sensitive(), rng, out);
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Osdp { eps: self.epsilon() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::task_from_counts;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(8)
    }

    #[test]
    fn construction_and_noise_scale() {
        assert!(OsdpLaplace::new(0.0).is_err());
        let m = OsdpLaplace::new(0.5).unwrap();
        assert_eq!(m.epsilon(), 0.5);
        assert_eq!(m.noise().lambda(), 2.0);
        assert_eq!(m.name(), "OsdpLaplace");
        assert!(!m.guarantee().is_differentially_private());
    }

    #[test]
    fn noisy_counts_never_exceed_the_true_counts() {
        let m = OsdpLaplace::new(1.0).unwrap();
        let mut r = rng();
        let task = task_from_counts(&[10.0, 0.0, 200.0, 5.0], &[8.0, 0.0, 150.0, 0.0]).unwrap();
        for _ in 0..200 {
            let est = m.release(&task, &mut r);
            assert!(est.dominated_by(task.non_sensitive()).unwrap());
        }
    }

    #[test]
    fn release_is_biased_down_by_one_over_epsilon() {
        let m = OsdpLaplace::new(1.0).unwrap();
        let mut r = rng();
        let task = task_from_counts(&[1000.0; 32], &[1000.0; 32]).unwrap();
        let trials = 500;
        let mut total = 0.0;
        for _ in 0..trials {
            total += m.release(&task, &mut r).total();
        }
        let mean_per_bin = total / (trials as f64 * 32.0);
        // one-sided noise has mean -1/eps = -1
        assert!((mean_per_bin - 999.0).abs() < 0.2, "mean per bin {mean_per_bin}");
    }

    #[test]
    fn variance_is_one_eighth_of_dp_laplace() {
        use crate::laplace::DpLaplaceHistogram;
        let eps = 1.0;
        let task = task_from_counts(&[500.0; 16], &[500.0; 16]).unwrap();
        let mut r = rng();
        let osdp = OsdpLaplace::new(eps).unwrap();
        let dp = DpLaplaceHistogram::new(eps).unwrap();
        let sample_var = |estimates: Vec<f64>| {
            let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
            estimates.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / estimates.len() as f64
        };
        let trials = 3000;
        let osdp_samples: Vec<f64> =
            (0..trials).map(|_| osdp.release(&task, &mut r).get(0)).collect();
        let dp_samples: Vec<f64> = (0..trials).map(|_| dp.release(&task, &mut r).get(0)).collect();
        let ratio = sample_var(osdp_samples) / sample_var(dp_samples);
        assert!((ratio - 0.125).abs() < 0.05, "variance ratio {ratio} should be about 1/8");
    }

    #[test]
    fn fully_sensitive_bins_are_estimated_at_or_below_zero() {
        let m = OsdpLaplace::new(1.0).unwrap();
        let mut r = rng();
        let task = task_from_counts(&[100.0], &[0.0]).unwrap();
        let est = m.release(&task, &mut r);
        assert!(est.get(0) <= 0.0);
    }
}
