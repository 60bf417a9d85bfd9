//! `DAWAz` (Algorithm 3): the recipe of Section 5.2 instantiated with DAWA.
//!
//! `DAWAz` spends `ρ·ε` on an `OsdpRR` pass over the non-sensitive records to
//! estimate the set of zero-count bins, runs DAWA with the remaining
//! `(1−ρ)·ε` on the full histogram, zeroes the detected bins and reallocates
//! each DAWA bucket's mass to its surviving bins. The paper uses `ρ = 0.1`.

use crate::recipe::{DawaTwoPhase, ZeroBinRecipe, ZeroDetector, DEFAULT_RHO};
use crate::traits::{HistogramMechanism, HistogramTask};
use osdp_core::error::Result;
use osdp_core::{Guarantee, Histogram};

/// The `DAWAz` hybrid OSDP histogram algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Dawaz {
    inner: ZeroBinRecipe<DawaTwoPhase>,
}

impl Dawaz {
    /// Creates `DAWAz` with the paper's default budget split (ρ = 0.1) and
    /// `OsdpRR` zero detection.
    pub fn new(epsilon: f64) -> Result<Self> {
        Self::with_rho(epsilon, DEFAULT_RHO)
    }

    /// Creates `DAWAz` with an explicit zero-detection budget share ρ.
    pub fn with_rho(epsilon: f64, rho: f64) -> Result<Self> {
        Ok(Self {
            inner: ZeroBinRecipe::new(epsilon, rho, ZeroDetector::OsdpRr, DawaTwoPhase::default())?,
        })
    }

    /// Creates `DAWAz` with the `OsdpLaplaceL1` zero detector (ablation).
    pub fn with_laplace_detector(epsilon: f64, rho: f64) -> Result<Self> {
        Ok(Self {
            inner: ZeroBinRecipe::new(
                epsilon,
                rho,
                ZeroDetector::OsdpLaplaceL1,
                DawaTwoPhase::default(),
            )?,
        })
    }

    /// Total privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    /// Zero-detection budget share ρ.
    pub fn rho(&self) -> f64 {
        self.inner.rho()
    }
}

impl HistogramMechanism for Dawaz {
    fn name(&self) -> &str {
        "DAWAz"
    }

    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        // Delegates to the recipe's override, which owns the thread-local
        // scratch acquisition (exactly one `with_scratch` per release).
        self.inner.release_into(task, rng, out)
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Osdp { eps: self.epsilon() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::DawaHistogram;
    use crate::traits::task_from_counts;
    use osdp_metrics::mean_relative_error;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(101)
    }

    #[test]
    fn construction_and_parameters() {
        assert!(Dawaz::new(0.0).is_err());
        assert!(Dawaz::with_rho(1.0, 0.0).is_err());
        let d = Dawaz::new(1.0).unwrap();
        assert_eq!(d.epsilon(), 1.0);
        assert!((d.rho() - 0.1).abs() < 1e-12);
        assert_eq!(d.name(), "DAWAz");
        assert!(matches!(d.guarantee(), Guarantee::Osdp { eps } if eps == 1.0));
        assert!(Dawaz::with_laplace_detector(1.0, 0.2).is_ok());
    }

    #[test]
    fn output_shape_and_true_zero_bins() {
        let mut full = vec![0.0; 128];
        for i in (0..128).step_by(16) {
            full[i] = 400.0;
        }
        let task = task_from_counts(&full, &full).unwrap();
        let d = Dawaz::new(1.0).unwrap();
        let mut r = rng();
        let est = d.release(&task, &mut r);
        assert_eq!(est.len(), 128);
        for (i, &count) in full.iter().enumerate() {
            if count == 0.0 {
                assert_eq!(est.get(i), 0.0);
            }
        }
    }

    #[test]
    fn dawaz_tracks_dawa_when_nothing_is_non_sensitive() {
        // With an all-sensitive policy the zero detector sees nothing and
        // zeroes every bin... which is exactly the degenerate case where the
        // paper says a plain DP algorithm should be preferred. The test only
        // checks the mechanism stays well-defined (all-zero output).
        let task = task_from_counts(&[10.0, 20.0, 30.0], &[0.0, 0.0, 0.0]).unwrap();
        let d = Dawaz::new(1.0).unwrap();
        let mut r = rng();
        let est = d.release(&task, &mut r);
        assert_eq!(est.counts(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn dawaz_beats_dawa_at_small_epsilon_on_sparse_mostly_non_sensitive_data() {
        // Figure 6b / 9a regime: small epsilon, sparse histogram, most records
        // non-sensitive.
        let mut full = vec![0.0; 1024];
        for i in (0..1024).step_by(128) {
            full[i] = 2_000.0;
        }
        let ns: Vec<f64> = full.iter().map(|&c: &f64| (c * 0.9).round()).collect();
        let task = task_from_counts(&full, &ns).unwrap();
        let eps = 0.05;
        let mut r = rng();
        let dawaz = Dawaz::new(eps).unwrap();
        let dawa = DawaHistogram::new(eps).unwrap();
        let avg = |m: &dyn HistogramMechanism, r: &mut ChaCha12Rng| {
            let mut total = 0.0;
            for _ in 0..8 {
                total += mean_relative_error(task.full(), &m.release(&task, r)).unwrap();
            }
            total / 8.0
        };
        let z = avg(&dawaz, &mut r);
        let plain = avg(&dawa, &mut r);
        assert!(z < plain, "DAWAz ({z}) should beat DAWA ({plain}) in this regime");
    }
}
