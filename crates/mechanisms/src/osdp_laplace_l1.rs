//! `OsdpLaplaceL1` (Algorithm 2): the de-biased one-sided Laplace mechanism.
//!
//! Steps, exactly as in the paper:
//!
//! 1. `x̃_ns = x_ns + Lap⁻(1/ε)^d`  — one-sided noise per bin;
//! 2. `x̃_ns[x̃_ns < 0] = 0`         — clamp negatives (zero bins stay zero);
//! 3. `μ = −ln(2)/ε`                — the median of the one-sided noise;
//! 4. `x̃_ns[x̃_ns > 0] −= μ`        — i.e. add `ln(2)/ε` back to the positive
//!    counts to remove the downward bias of the one-sided noise.
//!
//! Both post-processing steps operate on the already-released noisy counts,
//! so the mechanism inherits `(P, ε)`-OSDP from `OsdpLaplace`.

use crate::osdp_laplace::OsdpLaplace;
use crate::traits::{HistogramMechanism, HistogramTask};
use osdp_core::error::Result;
use osdp_core::{Guarantee, Histogram};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The clamped, median-corrected one-sided Laplace mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OsdpLaplaceL1 {
    inner: OsdpLaplace,
}

impl OsdpLaplaceL1 {
    /// Creates the mechanism for a budget ε.
    pub fn new(epsilon: f64) -> Result<Self> {
        Ok(Self { inner: OsdpLaplace::new(epsilon)? })
    }

    /// The privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    /// The median correction `|μ| = ln(2)/ε` added to positive noisy counts.
    pub fn median_correction(&self) -> f64 {
        std::f64::consts::LN_2 / self.epsilon()
    }

    /// Runs Algorithm 2 on a non-sensitive histogram (the scalar reference
    /// path; [`OsdpLaplaceL1::perturb_into`] is the buffer-reuse equivalent).
    /// Its de-bias keeps the literal per-bin `if` of the paper, so it is the
    /// oracle for the branch-free form.
    pub fn perturb<G: Rng + ?Sized>(&self, non_sensitive: &Histogram, rng: &mut G) -> Histogram {
        // Step 1: one-sided noise.
        let mut noisy = self.inner.perturb(non_sensitive, rng);
        // Step 2: clamp negative counts to zero.
        noisy.clamp_non_negative();
        // Steps 3–4: de-bias the surviving positive counts by the median.
        let correction = self.median_correction();
        for value in noisy.counts_mut() {
            if *value > 0.0 {
                *value += correction;
            }
        }
        noisy
    }

    /// The buffer-reuse form of [`OsdpLaplaceL1::perturb`]: Algorithm 2
    /// written into `out` through the block fill kernel, bitwise-identical
    /// to the scalar path and drawing the same random values.
    ///
    /// The clamp ([`Histogram::clamp_non_negative`]) and the de-bias are
    /// unconditional selects rather than per-bin `if`s. At small ε a bin
    /// with count x survives the clamp with probability 1 − e^(−ε·x), which
    /// for x up to a few 1/ε is close to a coin flip per bin, so a branch
    /// on it mispredicts about half the bins. The select computes
    /// `value + correction` for every bin and keeps it only where
    /// `value > 0.0`, which gives the same bits as the `if` form: `0.0`,
    /// `-0.0` and NaN come out unchanged. (Adding `0.0` to the bins that
    /// are not positive instead would turn `-0.0` into `0.0`.)
    pub fn perturb_into<G: Rng + ?Sized>(
        &self,
        non_sensitive: &Histogram,
        rng: &mut G,
        out: &mut Histogram,
    ) {
        // Step 1: one-sided noise.
        self.inner.perturb_into(non_sensitive, rng, out);
        // Step 2: clamp negative counts to zero.
        out.clamp_non_negative();
        // Steps 3–4: de-bias the surviving positive counts by the median.
        let correction = self.median_correction();
        for value in out.counts_mut() {
            *value = if *value > 0.0 { *value + correction } else { *value };
        }
    }
}

impl HistogramMechanism for OsdpLaplaceL1 {
    fn name(&self) -> &str {
        "OsdpLaplaceL1"
    }

    fn release(&self, task: &HistogramTask, rng: &mut dyn rand::RngCore) -> Histogram {
        self.perturb(task.non_sensitive(), rng)
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
    use crate::laplace::DpLaplaceHistogram;
    use crate::traits::task_from_counts;
    use osdp_metrics::l1_error;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(44)
    }

    #[test]
    fn construction_and_correction_value() {
        assert!(OsdpLaplaceL1::new(0.0).is_err());
        let m = OsdpLaplaceL1::new(0.5).unwrap();
        assert_eq!(m.epsilon(), 0.5);
        assert!((m.median_correction() - std::f64::consts::LN_2 / 0.5).abs() < 1e-12);
        assert_eq!(m.name(), "OsdpLaplaceL1");
        assert!(!m.guarantee().is_differentially_private());
    }

    #[test]
    fn release_into_matches_release_bitwise_when_clamps_are_coin_flips() {
        // At ε ≤ 0.01 and counts 0–200 a bin is clamped with probability
        // e^(−ε·x) ≥ 0.13, so clamp outcomes vary from bin to bin. Lengths
        // straddle the 256-value block of the noise kernel.
        for eps in [0.01, 0.001] {
            let m = OsdpLaplaceL1::new(eps).unwrap();
            for len in [1usize, 255, 256, 257, 1024, 4097] {
                let counts: Vec<f64> = (0..len)
                    .map(|i| if i % 7 == 3 { 0.0 } else { ((i * 7919 + len) % 201) as f64 })
                    .collect();
                let task = task_from_counts(&counts, &counts).unwrap();
                let seed = len as u64 ^ eps.to_bits();

                let mut reference_rng = ChaCha12Rng::seed_from_u64(seed);
                let reference = m.release(&task, &mut reference_rng);
                let mut reuse_rng = ChaCha12Rng::seed_from_u64(seed);
                let mut out = Histogram::zeros(3);
                m.release_into(&task, &mut reuse_rng, &mut out);

                // Algorithm 2 spelled out with per-bin `if`s on the raw
                // one-sided noise, independent of `clamp_non_negative`.
                let mut literal_rng = ChaCha12Rng::seed_from_u64(seed);
                let mut literal = m.inner.perturb(task.non_sensitive(), &mut literal_rng);
                for value in literal.counts_mut() {
                    if *value < 0.0 {
                        *value = 0.0;
                    }
                    if *value > 0.0 {
                        *value += m.median_correction();
                    }
                }

                assert_eq!(out.len(), len);
                if len > 1 {
                    let clamped = reference.counts().iter().filter(|&&c| c == 0.0).count();
                    assert!(clamped > 0 && clamped < len, "eps {eps}, len {len}: {clamped}");
                }
                for (bin, ((a, b), c)) in
                    reference.counts().iter().zip(out.counts()).zip(literal.counts()).enumerate()
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "eps {eps}, len {len}, bin {bin}");
                    assert_eq!(a.to_bits(), c.to_bits(), "eps {eps}, len {len}, bin {bin}");
                }
                let residual = reference_rng.next_u64();
                assert_eq!(residual, reuse_rng.next_u64(), "eps {eps}, len {len}: draws");
                assert_eq!(residual, literal_rng.next_u64(), "eps {eps}, len {len}: draws");
            }
        }
    }

    /// FNV-1a hashes of ten seeded 1024-bin releases (counts 6–197 in the
    /// non-sensitive part, as on the serving benchmark's `recover-heal`) and
    /// of the generator's next word. They pin the noise bits of the one-sided
    /// and the DP baseline release paths, through `release_into` and the
    /// scalar `release` alike.
    #[test]
    fn releases_match_their_golden_hashes() {
        let non_sensitive: Vec<f64> = (0..1024).map(|i| (6 + i * 37 % 192) as f64).collect();
        let full: Vec<f64> =
            non_sensitive.iter().zip(0..).map(|(x, i)| x + (i % 5) as f64).collect();
        let task = task_from_counts(&full, &non_sensitive).unwrap();
        let hash = |release: &dyn Fn(&mut ChaCha12Rng) -> Histogram| {
            let mut rng = ChaCha12Rng::seed_from_u64(0x601D);
            let mut words = Vec::new();
            for _ in 0..10 {
                words.extend(release(&mut rng).counts().iter().map(|x| x.to_bits()));
            }
            words.push(rng.next_u64());
            words.iter().flat_map(|w| w.to_le_bytes()).fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        let cases: [(Box<dyn HistogramMechanism>, u64); 2] = [
            (Box::new(OsdpLaplaceL1::new(0.01).unwrap()), 0x7E33_7F1A_6BCA_06D6),
            (Box::new(DpLaplaceHistogram::new(1.0).unwrap()), 0x3004_FBF5_B7C6_E40C),
        ];
        for (mechanism, want) in cases {
            let into = hash(&|rng| {
                let mut out = Histogram::zeros(0);
                mechanism.release_into(&task, rng, &mut out);
                out
            });
            assert_eq!(into, want, "{} release_into hashed to {into:#018X}", mechanism.name());
            let scalar = hash(&|rng| mechanism.release(&task, rng));
            assert_eq!(scalar, want, "{} release", mechanism.name());
        }
    }

    #[test]
    fn output_is_non_negative_and_zero_bins_stay_zero() {
        let m = OsdpLaplaceL1::new(1.0).unwrap();
        let mut r = rng();
        let task = task_from_counts(&[50.0, 0.0, 3.0, 0.0], &[40.0, 0.0, 2.0, 0.0]).unwrap();
        for _ in 0..300 {
            let est = m.release(&task, &mut r);
            assert!(est.is_non_negative());
            assert_eq!(est.get(1), 0.0, "true zero bins are always released as zero");
            assert_eq!(est.get(3), 0.0);
        }
    }

    #[test]
    fn positive_estimates_are_nearly_unbiased() {
        // For counts much larger than 1/eps the clamp almost never fires and
        // the median correction removes most of the one-sided bias
        // (a residual of (ln 2 − 1)/ε ≈ −0.3/ε remains by design, since the
        // paper corrects by the median rather than the mean).
        let m = OsdpLaplaceL1::new(1.0).unwrap();
        let mut r = rng();
        let task = task_from_counts(&[1000.0; 16], &[1000.0; 16]).unwrap();
        let trials = 2000;
        let mut total = 0.0;
        for _ in 0..trials {
            total += m.release(&task, &mut r).get(0);
        }
        let mean = total / trials as f64;
        assert!(
            (mean - 1000.0).abs() < 0.5,
            "mean estimate {mean}; median-corrected bias should be ≈ ln2 − 1 ≈ −0.31"
        );
    }

    #[test]
    fn l1_error_beats_dp_laplace_when_everything_is_non_sensitive() {
        let eps = 0.5;
        let mut r = rng();
        let counts = vec![200.0; 128];
        let task = task_from_counts(&counts, &counts).unwrap();
        let osdp = OsdpLaplaceL1::new(eps).unwrap();
        let dp = DpLaplaceHistogram::new(eps).unwrap();
        let mut osdp_err = 0.0;
        let mut dp_err = 0.0;
        for _ in 0..30 {
            osdp_err += l1_error(task.full(), &osdp.release(&task, &mut r)).unwrap();
            dp_err += l1_error(task.full(), &dp.release(&task, &mut r)).unwrap();
        }
        assert!(
            osdp_err < 0.6 * dp_err,
            "one-sided mechanism ({osdp_err}) should clearly beat DP Laplace ({dp_err})"
        );
    }

    #[test]
    fn error_grows_as_the_sensitive_fraction_grows() {
        let eps = 1.0;
        let mut r = rng();
        let full = vec![100.0; 64];
        let mostly_ns = task_from_counts(&full, &vec![90.0; 64]).unwrap();
        let mostly_sens = task_from_counts(&full, &vec![10.0; 64]).unwrap();
        let m = OsdpLaplaceL1::new(eps).unwrap();
        let err = |task: &crate::traits::HistogramTask, r: &mut ChaCha12Rng| {
            let mut total = 0.0;
            for _ in 0..20 {
                total += l1_error(task.full(), &m.release(task, r)).unwrap();
            }
            total / 20.0
        };
        let low = err(&mostly_ns, &mut r);
        let high = err(&mostly_sens, &mut r);
        assert!(high > 5.0 * low, "suppressing 90% of records must hurt: {high} vs {low}");
    }
}
