//! The per-bin hybrid mechanism for value-based policies.
//!
//! When the policy is *value based* — e.g. the TIPPERS policies, where a
//! trajectory is sensitive exactly when it passes a sensitive access point —
//! many histogram bins contain only non-sensitive records while others
//! contain a mix. Section 6.3.3.1 of the paper explains the strong empirical
//! showing of the one-sided mechanisms on TIPPERS by exactly this structure:
//! *"OsdpLaplaceL1 is able to add normal Laplace noise to the sensitive
//! buckets (ensuring DP) and one-sided noise to non-sensitive buckets
//! (ensuring OSDP); the overall algorithm ensures OSDP by composition."*
//!
//! [`HybridLaplace`] implements that strategy explicitly:
//!
//! * bins whose records are all non-sensitive (`x_ns[i] = x[i]`) are released
//!   with the de-biased one-sided mechanism of Algorithm 2;
//! * every other bin is released with the ordinary ε-DP Laplace mechanism on
//!   its full count.
//!
//! The two sub-mechanisms act on disjoint sets of records (records are
//! partitioned by bin), so the release is `(P, ε)`-OSDP by the parallel
//! composition theorem of the extended definition (Theorem 10.2); a
//! conservative caller can instead split the budget in half per part, which
//! corresponds to accounting via sequential composition (Theorem 3.3).

use crate::osdp_laplace_l1::OsdpLaplaceL1;
use crate::traits::{HistogramMechanism, HistogramTask};
use osdp_core::error::{validate_epsilon, Result};
use osdp_core::{Guarantee, Histogram};
use osdp_noise::Laplace;
use rand::distributions::Distribution;

/// Per-bin hybrid of one-sided and two-sided Laplace noise.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridLaplace {
    epsilon: f64,
    split_budget: bool,
    name: String,
}

impl HybridLaplace {
    /// Creates the hybrid mechanism with parallel-composition accounting
    /// (each part uses the full ε on its disjoint record set).
    pub fn new(epsilon: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        Ok(Self { epsilon, split_budget: false, name: "OsdpLaplaceL1".to_string() })
    }

    /// Uses conservative sequential-composition accounting instead: each part
    /// receives ε/2.
    pub fn with_sequential_accounting(mut self) -> Self {
        self.split_budget = true;
        self.name = "OsdpLaplaceL1 (seq)".to_string();
        self
    }

    /// The total privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The budget each per-bin sub-mechanism receives.
    pub fn per_part_epsilon(&self) -> f64 {
        if self.split_budget {
            self.epsilon / 2.0
        } else {
            self.epsilon
        }
    }
}

impl HistogramMechanism for HybridLaplace {
    fn name(&self) -> &str {
        &self.name
    }

    /// One noise draw per bin, its branch chosen by the policy split; the
    /// per-bin branch rules out a straight slice kernel.
    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        let eps = self.per_part_epsilon();
        let one_sided = OsdpLaplaceL1::new(eps).expect("validated");
        let dp_noise = Laplace::for_epsilon(2.0, eps).expect("validated");
        let correction_noise = one_sided.median_correction();
        let one_sided_dist = osdp_noise::OneSidedLaplace::for_epsilon(eps).expect("validated");

        out.reset_zeroed(task.bins());
        let counts = out.counts_mut();
        let full_counts = task.full().counts();
        let ns_counts = task.non_sensitive().counts();
        for i in 0..full_counts.len() {
            let full = full_counts[i];
            let ns = ns_counts[i];
            counts[i] = if (full - ns).abs() < f64::EPSILON {
                // Purely non-sensitive bin: Algorithm 2 on the single count.
                let noisy = ns + one_sided_dist.sample(rng);
                if noisy <= 0.0 {
                    0.0
                } else {
                    noisy + correction_noise
                }
            } else {
                // Bin containing sensitive records: ordinary DP Laplace.
                full + dp_noise.sample(rng)
            };
        }
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Osdp { eps: self.epsilon() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::DpLaplaceHistogram;
    use crate::osdp_laplace_l1::OsdpLaplaceL1;
    use crate::traits::task_from_counts;
    use osdp_metrics::l1_error;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(66)
    }

    #[test]
    fn construction_and_accounting_modes() {
        assert!(HybridLaplace::new(0.0).is_err());
        let parallel = HybridLaplace::new(1.0).unwrap();
        assert_eq!(parallel.epsilon(), 1.0);
        assert_eq!(parallel.per_part_epsilon(), 1.0);
        assert_eq!(parallel.name(), "OsdpLaplaceL1");
        let sequential = HybridLaplace::new(1.0).unwrap().with_sequential_accounting();
        assert_eq!(sequential.per_part_epsilon(), 0.5);
        assert_eq!(sequential.name(), "OsdpLaplaceL1 (seq)");
    }

    #[test]
    fn purely_non_sensitive_bins_use_one_sided_noise() {
        // In a task whose bins are all purely non-sensitive, the hybrid must
        // behave exactly like OsdpLaplaceL1 statistically: non-negative,
        // zero bins stay zero.
        let task = task_from_counts(&[40.0, 0.0, 7.0], &[40.0, 0.0, 7.0]).unwrap();
        let m = HybridLaplace::new(1.0).unwrap();
        let mut r = rng();
        for _ in 0..200 {
            let est = m.release(&task, &mut r);
            assert!(est.is_non_negative());
            assert_eq!(est.get(1), 0.0);
        }
    }

    #[test]
    fn mixed_bins_get_estimates_of_the_full_count() {
        // Bin 0 is mixed (50 of 100 sensitive): the DP part estimates the
        // *full* count 100, not the non-sensitive 50.
        let task = task_from_counts(&[100.0, 80.0], &[50.0, 80.0]).unwrap();
        let m = HybridLaplace::new(1.0).unwrap();
        let mut r = rng();
        let trials = 2000;
        let mut total = 0.0;
        for _ in 0..trials {
            total += m.release(&task, &mut r).get(0);
        }
        let mean = total / trials as f64;
        assert!((mean - 100.0).abs() < 1.0, "mixed bin mean {mean} should track the full count");
    }

    #[test]
    fn hybrid_beats_both_pure_strategies_on_value_based_policies() {
        // A value-based policy: half the bins are purely non-sensitive, half
        // are purely sensitive. The hybrid should beat (a) pure DP Laplace on
        // everything and (b) pure one-sided on the non-sensitive histogram
        // (which estimates the sensitive bins as zero).
        let bins = 64;
        let mut full = vec![0.0; bins];
        let mut ns = vec![0.0; bins];
        for i in 0..bins {
            full[i] = 120.0;
            ns[i] = if i % 2 == 0 { 120.0 } else { 0.0 };
        }
        let task = task_from_counts(&full, &ns).unwrap();
        let eps = 1.0;
        let mut r = rng();
        let hybrid = HybridLaplace::new(eps).unwrap();
        let dp = DpLaplaceHistogram::new(eps).unwrap();
        let pure = OsdpLaplaceL1::new(eps).unwrap();
        let avg = |m: &dyn HistogramMechanism, r: &mut ChaCha12Rng| {
            let mut total = 0.0;
            for _ in 0..30 {
                total += l1_error(task.full(), &m.release(&task, r)).unwrap();
            }
            total / 30.0
        };
        let hybrid_err = avg(&hybrid, &mut r);
        let dp_err = avg(&dp, &mut r);
        let pure_err = avg(&pure, &mut r);
        assert!(hybrid_err < dp_err, "hybrid {hybrid_err} vs DP {dp_err}");
        assert!(hybrid_err < pure_err, "hybrid {hybrid_err} vs pure one-sided {pure_err}");
    }
}
