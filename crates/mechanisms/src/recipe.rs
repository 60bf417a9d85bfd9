//! The general recipe for turning two-phase DP histogram algorithms into OSDP
//! algorithms (Section 5.2).
//!
//! The recipe targets DP algorithms that (a) learn a model / partition of the
//! data and (b) release noisy aggregate counts according to that model. It
//! spends a `ρ` fraction of the budget on an OSDP primitive over the
//! non-sensitive records to identify the set `Z` of zero-count bins, runs the
//! DP algorithm with the remaining budget, and post-processes the result:
//! bins in `Z` are forced to zero and the bucket mass the model assigned to
//! them is reallocated to the surviving bins of the same bucket.
//!
//! The composite release satisfies `(P_mr, ε)`-OSDP by sequential composition
//! (Theorem 3.3): the zero-detection stage is `(P, ρ·ε)`-OSDP, the DP stage is
//! `(1−ρ)·ε`-DP (hence also OSDP for any policy by Lemma 3.1), and everything
//! afterwards is post-processing.

use crate::osdp_laplace::OsdpLaplace;
use crate::osdp_rr::OsdpRr;
use crate::scratch::with_scratch;
use crate::traits::{HistogramMechanism, HistogramTask};
use osdp_core::error::{validate_epsilon, validate_fraction, Result};
use osdp_core::{Guarantee, Histogram};
use osdp_dawa::{Dawa, DawaScratch, Hierarchical, Identity, Partition};
use rand::Rng;

/// A two-phase DP histogram algorithm usable inside the recipe: it releases an
/// estimate together with the partition (model) that produced it.
pub trait TwoPhaseDp: Send + Sync {
    /// Display name of the underlying DP algorithm.
    fn dp_name(&self) -> &str;

    /// Runs the DP algorithm with budget `epsilon` on the full histogram,
    /// writing the estimate into `out` and the bucket partition of the
    /// domain into `scratch.partition`.
    fn release_partitioned_into<R: Rng>(
        &self,
        hist: &Histogram,
        epsilon: f64,
        rng: &mut R,
        scratch: &mut DawaScratch,
        out: &mut Histogram,
    );
}

/// DAWA as a two-phase DP algorithm (its natural form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DawaTwoPhase {
    /// Budget share DAWA itself spends on its private partitioning stage.
    pub partition_share: f64,
}

impl Default for DawaTwoPhase {
    fn default() -> Self {
        Self { partition_share: osdp_dawa::estimate::DEFAULT_PARTITION_SHARE }
    }
}

impl TwoPhaseDp for DawaTwoPhase {
    fn dp_name(&self) -> &str {
        "DAWA"
    }

    fn release_partitioned_into<R: Rng>(
        &self,
        hist: &Histogram,
        epsilon: f64,
        rng: &mut R,
        scratch: &mut DawaScratch,
        out: &mut Histogram,
    ) {
        let dawa = Dawa::with_partition_share(epsilon, self.partition_share)
            .expect("validated by the recipe");
        dawa.release_into(hist, rng, scratch, out);
    }
}

/// The Identity (per-bin Laplace) mechanism as a degenerate two-phase
/// algorithm whose "partition" is one bucket per bin. Used by the ablation
/// benches to show how much of DAWAz's win comes from the zero-bin knowledge
/// alone.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IdentityTwoPhase;

impl TwoPhaseDp for IdentityTwoPhase {
    fn dp_name(&self) -> &str {
        "Identity"
    }

    fn release_partitioned_into<R: Rng>(
        &self,
        hist: &Histogram,
        epsilon: f64,
        rng: &mut R,
        scratch: &mut DawaScratch,
        out: &mut Histogram,
    ) {
        *out = Identity::new(epsilon).expect("validated by the recipe").release(hist, rng);
        one_bucket_per_bin(&mut scratch.partition, hist.len());
    }
}

/// The hierarchical mechanism as a two-phase algorithm (per-bin partition).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HierarchicalTwoPhase;

impl TwoPhaseDp for HierarchicalTwoPhase {
    fn dp_name(&self) -> &str {
        "H2"
    }

    fn release_partitioned_into<R: Rng>(
        &self,
        hist: &Histogram,
        epsilon: f64,
        rng: &mut R,
        scratch: &mut DawaScratch,
        out: &mut Histogram,
    ) {
        *out = Hierarchical::new(epsilon).expect("validated by the recipe").release(hist, rng);
        one_bucket_per_bin(&mut scratch.partition, hist.len());
    }
}

/// The one-bucket-per-bin partition of the two-phase baselines that have no
/// partitioning stage.
fn one_bucket_per_bin(partition: &mut Partition, bins: usize) {
    partition.clear();
    partition.extend((0..bins).map(|i| (i, i + 1)));
}

/// Which OSDP primitive the recipe uses to detect zero bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZeroDetector {
    /// Binomial thinning of the non-sensitive counts (`OsdpRR`) — the choice
    /// used by the paper's experiments. Over-reports zeros at small budgets,
    /// which the paper observes is *better* than adding large noise.
    OsdpRr,
    /// The de-biased one-sided Laplace mechanism (`OsdpLaplaceL1`); bins whose
    /// noisy count is zero (clamped) are declared zero.
    OsdpLaplaceL1,
}

/// The zero-bin recipe around a two-phase DP algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroBinRecipe<M> {
    epsilon: f64,
    rho: f64,
    detector: ZeroDetector,
    dp: M,
    name: String,
}

/// Default budget share spent on zero detection (the paper uses ρ = 0.1).
pub const DEFAULT_RHO: f64 = 0.1;

impl<M: TwoPhaseDp> ZeroBinRecipe<M> {
    /// Creates the recipe around a DP algorithm.
    pub fn new(epsilon: f64, rho: f64, detector: ZeroDetector, dp: M) -> Result<Self> {
        validate_epsilon(epsilon)?;
        validate_fraction("rho", rho)?;
        let name = format!("{}z", dp.dp_name());
        Ok(Self { epsilon, rho, detector, dp, name })
    }

    /// Total privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Budget share spent on zero detection.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The zero detector in use.
    pub fn detector(&self) -> ZeroDetector {
        self.detector
    }

    /// Detects the zero set `Z` with budget `ρ·ε`, writing the per-bin
    /// verdicts into `flags` without materialising the noisy histogram: one
    /// variate per bin for either detector, since a thinned count is zero
    /// iff the binomial sample is zero, and a clamped-and-corrected noisy
    /// count is zero iff the raw noisy count is non-positive.
    fn detect_zero_bins_into<R: Rng + ?Sized>(
        &self,
        task: &HistogramTask,
        rng: &mut R,
        flags: &mut Vec<bool>,
    ) {
        use rand::distributions::Distribution;
        let eps1 = self.epsilon * self.rho;
        flags.clear();
        match self.detector {
            ZeroDetector::OsdpRr => {
                let rr = OsdpRr::new(eps1).expect("validated");
                let keep = rr.keep_probability();
                flags.extend(task.non_sensitive().counts().iter().map(|&count| {
                    let n = count.round().max(0.0) as u64;
                    crate::osdp_rr::sample_binomial_is_zero(n, keep, rng)
                }));
            }
            ZeroDetector::OsdpLaplaceL1 => {
                let noise = OsdpLaplace::new(eps1).expect("validated").noise();
                flags.extend(
                    task.non_sensitive()
                        .counts()
                        .iter()
                        .map(|&count| count + noise.sample(rng) <= 0.0),
                );
            }
        }
    }

    /// Algorithm 3's post-processing, written onto `estimate` in place: zero
    /// out the detected bins and reallocate each bucket's mass to its
    /// surviving bins (Algorithm 3, lines 5-11: the rescale preserves the
    /// bucket total, as described in the text).
    fn reallocate_zeroed_buckets(
        partition: &[(usize, usize)],
        is_zero: &[bool],
        estimate: &mut Histogram,
    ) {
        for &(start, end) in partition {
            let width = end - start;
            let zeroed = (start..end).filter(|&i| is_zero[i]).count();
            if zeroed == 0 {
                continue;
            }
            if zeroed == width {
                for i in start..end {
                    estimate.set(i, 0.0);
                }
                continue;
            }
            let rescale = width as f64 / (width - zeroed) as f64;
            for (&zero, slot) in
                is_zero[start..end].iter().zip(&mut estimate.counts_mut()[start..end])
            {
                if zero {
                    *slot = 0.0;
                } else {
                    *slot *= rescale;
                }
            }
        }
    }
}

impl<M: TwoPhaseDp> HistogramMechanism for ZeroBinRecipe<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        with_scratch(|scratch| {
            // Stage 1: (P, ρ·ε)-OSDP zero detection, flags into per-thread
            // scratch.
            self.detect_zero_bins_into(task, rng, &mut scratch.flags);
            // Stage 2: (1-ρ)·ε-DP release of the full histogram, with the
            // partition left in scratch.
            let eps2 = self.epsilon * (1.0 - self.rho);
            self.dp.release_partitioned_into(task.full(), eps2, rng, &mut scratch.dawa, out);
            // Post-processing: zero the detected bins and reallocate bucket
            // mass.
            Self::reallocate_zeroed_buckets(&scratch.dawa.partition, &scratch.flags, out);
        })
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Osdp { eps: self.epsilon() }
    }
}

/// DAWA wrapped directly as a histogram mechanism (the paper's DP baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DawaHistogram {
    epsilon: f64,
}

impl DawaHistogram {
    /// Creates the baseline for a budget ε.
    pub fn new(epsilon: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        Ok(Self { epsilon })
    }

    /// The privacy budget.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl HistogramMechanism for DawaHistogram {
    fn name(&self) -> &str {
        "DAWA"
    }

    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        with_scratch(|scratch| {
            let dawa = Dawa::new(self.epsilon).expect("validated");
            dawa.release_into(task.full(), rng, &mut scratch.dawa, out);
        })
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
        ChaCha12Rng::seed_from_u64(88)
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(ZeroBinRecipe::new(1.0, 0.1, ZeroDetector::OsdpRr, DawaTwoPhase::default()).is_ok());
        assert!(
            ZeroBinRecipe::new(0.0, 0.1, ZeroDetector::OsdpRr, DawaTwoPhase::default()).is_err()
        );
        assert!(
            ZeroBinRecipe::new(1.0, 0.0, ZeroDetector::OsdpRr, DawaTwoPhase::default()).is_err()
        );
        assert!(
            ZeroBinRecipe::new(1.0, 1.0, ZeroDetector::OsdpRr, DawaTwoPhase::default()).is_err()
        );
        let r =
            ZeroBinRecipe::new(1.0, 0.1, ZeroDetector::OsdpRr, DawaTwoPhase::default()).unwrap();
        assert_eq!(r.name(), "DAWAz");
        assert_eq!(r.epsilon(), 1.0);
        assert_eq!(r.rho(), 0.1);
        assert_eq!(r.detector(), ZeroDetector::OsdpRr);
        assert!(matches!(r.guarantee(), Guarantee::Osdp { .. }));
        assert!(DawaHistogram::new(0.0).is_err());
        assert_eq!(DawaHistogram::new(1.0).unwrap().name(), "DAWA");
        assert!(DawaHistogram::new(1.0).unwrap().guarantee().is_differentially_private());
    }

    #[test]
    fn recipe_names_follow_the_dp_algorithm() {
        let id = ZeroBinRecipe::new(1.0, 0.1, ZeroDetector::OsdpRr, IdentityTwoPhase).unwrap();
        assert_eq!(id.name(), "Identityz");
        let h2 = ZeroBinRecipe::new(1.0, 0.1, ZeroDetector::OsdpLaplaceL1, HierarchicalTwoPhase)
            .unwrap();
        assert_eq!(h2.name(), "H2z");
    }

    #[test]
    fn true_zero_bins_are_released_as_zero() {
        // Every bin that is truly empty (in the full histogram, hence also in
        // the non-sensitive one) must be detected as zero and released as 0.
        let mut full = vec![0.0; 64];
        for i in (0..64).step_by(8) {
            full[i] = 500.0;
        }
        let task = task_from_counts(&full, &full).unwrap();
        let recipe =
            ZeroBinRecipe::new(1.0, 0.1, ZeroDetector::OsdpRr, DawaTwoPhase::default()).unwrap();
        let mut r = rng();
        let est = recipe.release(&task, &mut r);
        for (i, &count) in full.iter().enumerate() {
            if count == 0.0 {
                assert_eq!(est.get(i), 0.0, "bin {i} should be zeroed");
            }
        }
    }

    #[test]
    fn recipe_beats_plain_dawa_on_sparse_data_with_many_non_sensitive_records() {
        use osdp_metrics::mean_relative_error;
        // A sparse histogram (most bins empty) with 99% non-sensitive records:
        // the zero-bin knowledge should cut the error substantially (this is
        // the Figure 9a story, where the sparsest dataset shows a 25x gap).
        let mut full = vec![0.0; 512];
        for i in (0..512).step_by(64) {
            full[i] = 300.0;
        }
        let ns: Vec<f64> = full.iter().map(|&c: &f64| (c * 0.99).round()).collect();
        let task = task_from_counts(&full, &ns).unwrap();
        let eps = 0.1;
        let mut r = rng();
        let dawaz =
            ZeroBinRecipe::new(eps, 0.1, ZeroDetector::OsdpRr, DawaTwoPhase::default()).unwrap();
        let dawa = DawaHistogram::new(eps).unwrap();
        let avg = |m: &dyn HistogramMechanism, r: &mut ChaCha12Rng| {
            let mut total = 0.0;
            for _ in 0..10 {
                total += mean_relative_error(task.full(), &m.release(&task, r)).unwrap();
            }
            total / 10.0
        };
        let dawaz_err = avg(&dawaz, &mut r);
        let dawa_err = avg(&dawa, &mut r);
        assert!(
            dawaz_err < dawa_err,
            "DAWAz ({dawaz_err}) should beat DAWA ({dawa_err}) on sparse, mostly non-sensitive data"
        );
    }

    #[test]
    fn bucket_mass_is_reallocated_not_destroyed() {
        // One bucket, half its bins detected as zero: the surviving bins are
        // scaled so the bucket total is preserved.
        struct FixedPartition;
        impl TwoPhaseDp for FixedPartition {
            fn dp_name(&self) -> &str {
                "Fixed"
            }
            fn release_partitioned_into<R: Rng>(
                &self,
                hist: &Histogram,
                _epsilon: f64,
                _rng: &mut R,
                scratch: &mut DawaScratch,
                out: &mut Histogram,
            ) {
                // Perfect uniform-expansion estimate over a single bucket.
                let per_bin = hist.total() / hist.len() as f64;
                *out = Histogram::from_counts(vec![per_bin; hist.len()]);
                scratch.partition = vec![(0, hist.len())];
            }
        }
        // Bins 0,1 carry all the data; bins 2,3 are empty and will be detected
        // as zero with certainty (their non-sensitive counts are 0).
        let task = task_from_counts(&[100.0, 100.0, 0.0, 0.0], &[100.0, 100.0, 0.0, 0.0]).unwrap();
        let recipe = ZeroBinRecipe::new(5.0, 0.5, ZeroDetector::OsdpRr, FixedPartition).unwrap();
        let mut r = rng();
        let est = recipe.release(&task, &mut r);
        assert_eq!(est.get(2), 0.0);
        assert_eq!(est.get(3), 0.0);
        // The bucket total (200) is preserved on the surviving bins.
        assert!((est.get(0) + est.get(1) - 200.0).abs() < 1e-9);
        assert!((est.total() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn all_bins_zeroed_bucket_collapses_to_zero() {
        struct OneBucket;
        impl TwoPhaseDp for OneBucket {
            fn dp_name(&self) -> &str {
                "OneBucket"
            }
            fn release_partitioned_into<R: Rng>(
                &self,
                hist: &Histogram,
                _epsilon: f64,
                _rng: &mut R,
                scratch: &mut DawaScratch,
                out: &mut Histogram,
            ) {
                *out = Histogram::from_counts(vec![7.0; hist.len()]);
                scratch.partition = vec![(0, hist.len())];
            }
        }
        // Everything is sensitive, so the RR detector sees an all-zero
        // non-sensitive histogram and zeroes every bin.
        let task = task_from_counts(&[50.0, 50.0], &[0.0, 0.0]).unwrap();
        let recipe = ZeroBinRecipe::new(1.0, 0.1, ZeroDetector::OsdpRr, OneBucket).unwrap();
        let mut r = rng();
        let est = recipe.release(&task, &mut r);
        assert_eq!(est.counts(), &[0.0, 0.0]);
    }

    #[test]
    fn laplace_l1_detector_also_works() {
        let mut full = vec![0.0; 32];
        full[5] = 1000.0;
        full[20] = 800.0;
        let task = task_from_counts(&full, &full).unwrap();
        let recipe =
            ZeroBinRecipe::new(2.0, 0.3, ZeroDetector::OsdpLaplaceL1, DawaTwoPhase::default())
                .unwrap();
        let mut r = rng();
        let est = recipe.release(&task, &mut r);
        assert_eq!(est.len(), 32);
        // Empty bins stay empty.
        assert_eq!(est.get(0), 0.0);
        assert_eq!(est.get(31), 0.0);
    }
}
