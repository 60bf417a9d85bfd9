//! The `Suppress` algorithm: the personalized-DP baseline of Section 3.4.
//!
//! `Suppress` models how personalized differential privacy (PDP) would handle
//! a sensitive/non-sensitive dichotomy: sensitive records (personal privacy
//! level ε) are dropped entirely, and a τ-differentially private computation
//! is run on the remaining (non-sensitive) records. `Suppress` satisfies PDP
//! but **not** `(P, ε)`-OSDP, and it only enjoys τ-freedom from exclusion
//! attacks (Theorem 3.4): with the large thresholds (τ = 10…100) needed for it
//! to be competitive in accuracy, its exclusion-attack protection is 10–100×
//! weaker than the OSDP algorithms it is compared against in Figure 10.

use crate::traits::{HistogramMechanism, HistogramTask};
use osdp_core::error::{validate_epsilon, Result};
use osdp_core::{Guarantee, Histogram};
use osdp_noise::Laplace;

/// The PDP threshold algorithm for histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct Suppress {
    tau: f64,
    name: String,
}

impl Suppress {
    /// Creates the algorithm with threshold τ (the budget of the DP
    /// computation run on the non-sensitive records).
    pub fn new(tau: f64) -> Result<Self> {
        validate_epsilon(tau)?;
        Ok(Self { tau, name: format!("Suppress{}", tau.round() as i64) })
    }

    /// The threshold τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The exclusion-attack protection level this algorithm actually provides:
    /// φ = τ (Theorem 3.4), compared to φ = ε for any `(P, ε)`-OSDP mechanism.
    pub fn exclusion_attack_phi(&self) -> f64 {
        self.tau
    }
}

impl HistogramMechanism for Suppress {
    fn name(&self) -> &str {
        &self.name
    }

    /// A τ-DP Laplace release of the histogram over the *non-sensitive*
    /// records only (sensitivity 2 in the bounded model).
    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        let noise = Laplace::for_epsilon(2.0, self.tau).expect("validated");
        out.assign(task.non_sensitive().counts());
        noise.add_assign(out.counts_mut(), rng);
    }

    fn guarantee(&self) -> Guarantee {
        // PDP with threshold tau: *not* OSDP (Theorem 3.4).
        Guarantee::Pdp { eps: self.tau }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osdp_laplace_l1::OsdpLaplaceL1;
    use crate::traits::task_from_counts;
    use osdp_metrics::l1_error;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(55)
    }

    #[test]
    fn construction_and_naming() {
        assert!(Suppress::new(0.0).is_err());
        let s = Suppress::new(100.0).unwrap();
        assert_eq!(s.tau(), 100.0);
        assert_eq!(s.name(), "Suppress100");
        assert_eq!(s.exclusion_attack_phi(), 100.0);
        assert!(matches!(s.guarantee(), Guarantee::Pdp { eps } if eps == 100.0));
        assert_eq!(Suppress::new(10.0).unwrap().name(), "Suppress10");
    }

    #[test]
    fn suppress_ignores_sensitive_records() {
        // With an enormous tau the noise vanishes, so the release is exactly
        // the non-sensitive histogram: the sensitive records are simply gone.
        let task = task_from_counts(&[100.0, 60.0], &[40.0, 60.0]).unwrap();
        let s = Suppress::new(1e9).unwrap();
        let mut r = rng();
        let est = s.release(&task, &mut r);
        assert!((est.get(0) - 40.0).abs() < 0.01);
        assert!((est.get(1) - 60.0).abs() < 0.01);
    }

    #[test]
    fn larger_tau_means_less_noise() {
        let task = task_from_counts(&[500.0; 64], &[400.0; 64]).unwrap();
        let mut r = rng();
        let err = |tau: f64, r: &mut ChaCha12Rng| {
            let s = Suppress::new(tau).unwrap();
            let mut total = 0.0;
            for _ in 0..20 {
                total += l1_error(task.non_sensitive(), &s.release(&task, r)).unwrap();
            }
            total / 20.0
        };
        let noisy = err(1.0, &mut r);
        let crisp = err(100.0, &mut r);
        assert!(
            crisp < noisy / 10.0,
            "tau=100 ({crisp}) should be far less noisy than tau=1 ({noisy})"
        );
    }

    #[test]
    fn suppress_needs_large_tau_to_match_osdp_accuracy() {
        // The Figure 10 story: at the same nominal budget (tau = eps = 1)
        // Suppress is no better than OsdpLaplaceL1; it only catches up by
        // cranking tau (i.e. giving up exclusion-attack protection).
        let eps = 1.0;
        let task = task_from_counts(&[300.0; 128], &[200.0; 128]).unwrap();
        let mut r = rng();
        let osdp = OsdpLaplaceL1::new(eps).unwrap();
        let small_tau = Suppress::new(eps).unwrap();
        let big_tau = Suppress::new(100.0).unwrap();
        let avg = |m: &dyn HistogramMechanism, r: &mut ChaCha12Rng| {
            let mut total = 0.0;
            for _ in 0..20 {
                total += l1_error(task.non_sensitive(), &m.release(&task, r)).unwrap();
            }
            total / 20.0
        };
        let osdp_err = avg(&osdp, &mut r);
        let small_err = avg(&small_tau, &mut r);
        let big_err = avg(&big_tau, &mut r);
        assert!(osdp_err < small_err, "OSDP ({osdp_err}) beats Suppress at tau=eps ({small_err})");
        assert!(big_err < osdp_err, "Suppress100 ({big_err}) buys accuracy with privacy");
        // …and the price is 100x weaker exclusion-attack protection.
        assert_eq!(big_tau.exclusion_attack_phi() / eps, 100.0);
    }
}
