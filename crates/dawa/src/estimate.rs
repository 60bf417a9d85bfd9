//! Stage 2 of DAWA and the end-to-end algorithm.
//!
//! Given the partition produced by stage 1, stage 2 releases each bucket's
//! total with Laplace noise (histogram sensitivity 2 in the bounded model)
//! and expands it uniformly over the bucket's bins. The full algorithm
//! composes the ε₁ partitioning stage with the ε₂ estimation stage:
//! `ε = ε₁ + ε₂`.

use crate::partition::{Partition, PartitionScratch, Partitioner};
use osdp_core::error::{validate_epsilon, validate_fraction, Result};
use osdp_core::Histogram;
use osdp_noise::Laplace;
use rand::Rng;

/// The share of the budget DAWA spends on partitioning by default (the value
/// used by the original implementation).
pub const DEFAULT_PARTITION_SHARE: f64 = 0.25;

/// The DAWA differentially private histogram-release algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dawa {
    epsilon: f64,
    partition_share: f64,
}

/// Reusable buffers for [`Dawa::release_into`]. After a call,
/// [`DawaScratch::partition`] and [`DawaScratch::bucket_totals`] hold the
/// chosen partition and the noisy bucket totals (which `DAWAz`'s zero-bin
/// redistribution reads), so a caller running release after release (trial
/// batches, `DAWAz`'s DP stage) stops paying DAWA's per-release allocation
/// bill.
#[derive(Debug, Default)]
pub struct DawaScratch {
    partitioner: PartitionScratch,
    /// The partition chosen by stage 1 of the most recent release.
    pub partition: Partition,
    /// The noisy bucket totals of stage 2, aligned with `partition`.
    pub bucket_totals: Vec<f64>,
}

impl DawaScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Dawa {
    /// Creates a DAWA instance with the default 25% / 75% budget split.
    pub fn new(epsilon: f64) -> Result<Self> {
        Self::with_partition_share(epsilon, DEFAULT_PARTITION_SHARE)
    }

    /// Creates a DAWA instance with an explicit partitioning budget share.
    pub fn with_partition_share(epsilon: f64, partition_share: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        validate_fraction("partition_share", partition_share)?;
        Ok(Self { epsilon, partition_share })
    }

    /// Total privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Budget spent on stage 1.
    pub fn epsilon1(&self) -> f64 {
        self.epsilon * self.partition_share
    }

    /// Budget spent on stage 2.
    pub fn epsilon2(&self) -> f64 {
        self.epsilon * (1.0 - self.partition_share)
    }

    /// Releases an ε-DP estimate of the histogram into `out` (resized and
    /// overwritten), leaving the chosen partition and the noisy bucket
    /// totals in `scratch`.
    ///
    /// The arena partitioner and the reused buffers remove every
    /// per-release allocation except the cost evaluator's prefix sums.
    pub fn release_into<R: Rng + ?Sized>(
        &self,
        hist: &Histogram,
        rng: &mut R,
        scratch: &mut DawaScratch,
        out: &mut Histogram,
    ) {
        let partitioner = Partitioner::new(self.epsilon1(), self.epsilon2())
            .expect("budgets validated at construction");
        let DawaScratch { partitioner: partition_scratch, partition, bucket_totals } = scratch;
        partitioner.partition_into(hist, rng, partition_scratch, partition);

        // Stage 2 noise, one draw per bucket, pre-drawn as a block through
        // the fill kernel. Bounded-DP histogram sensitivity is 2: one record
        // changing value moves one unit of count between two buckets.
        let noise = Laplace::for_epsilon(2.0, self.epsilon2()).expect("validated at construction");
        let noise_buf = partition_scratch.noise_buffer();
        noise_buf.resize(partition.len(), 0.0);
        noise.fill(noise_buf, rng);

        out.reset_zeroed(hist.len());
        let counts = out.counts_mut();
        bucket_totals.clear();
        bucket_totals.reserve(partition.len());
        for (&(start, end), &z) in partition.iter().zip(noise_buf.iter()) {
            let true_total = hist.range_sum(start..end);
            let noisy_total = (true_total + z).max(0.0);
            bucket_totals.push(noisy_total);
            let per_bin = noisy_total / (end - start) as f64;
            for slot in &mut counts[start..end] {
                *slot = per_bin;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdp_metrics::mean_relative_error;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(77)
    }

    fn release(d: &Dawa, hist: &Histogram, rng: &mut ChaCha12Rng) -> Histogram {
        let mut out = Histogram::zeros(0);
        d.release_into(hist, rng, &mut DawaScratch::new(), &mut out);
        out
    }

    #[test]
    fn construction_and_budget_split() {
        let d = Dawa::new(1.0).unwrap();
        assert_eq!(d.epsilon(), 1.0);
        assert!((d.epsilon1() - 0.25).abs() < 1e-12);
        assert!((d.epsilon2() - 0.75).abs() < 1e-12);
        assert!(Dawa::new(0.0).is_err());
        assert!(Dawa::with_partition_share(1.0, 0.0).is_err());
        assert!(Dawa::with_partition_share(1.0, 1.0).is_err());
        let custom = Dawa::with_partition_share(2.0, 0.5).unwrap();
        assert_eq!(custom.epsilon1(), 1.0);
        assert_eq!(custom.epsilon2(), 1.0);
    }

    #[test]
    fn release_has_right_shape_and_nonnegative_counts() {
        let d = Dawa::new(1.0).unwrap();
        let mut r = rng();
        let hist = Histogram::from_counts((0..128).map(|i| ((i / 16) * 10) as f64).collect());
        let mut scratch = DawaScratch::new();
        let mut estimate = Histogram::zeros(0);
        d.release_into(&hist, &mut r, &mut scratch, &mut estimate);
        assert_eq!(estimate.len(), hist.len());
        assert!(estimate.is_non_negative());
        assert_eq!(scratch.bucket_totals.len(), scratch.partition.len());
        assert!(crate::partition::is_valid_partition(&scratch.partition, hist.len()));
        // Bins inside a bucket share the same estimate.
        for (b, &(start, end)) in scratch.partition.iter().enumerate() {
            let per_bin = scratch.bucket_totals[b] / (end - start) as f64;
            for i in start..end {
                assert!((estimate.get(i) - per_bin).abs() < 1e-9);
            }
        }
    }

    /// FNV-1a hashes of `release_into`'s estimate and noisy bucket totals,
    /// and of the generator's next word, with one scratch and one output
    /// buffer reused across domains.
    #[test]
    fn releases_match_their_golden_hashes() {
        use rand::RngCore;
        let want: [(usize, u64, u64); 4] = [
            (1, 1, 0xCBDC_B4CD_6CD0_87A8),
            (257, 44, 0x8B2A_6106_6AF8_BE35),
            (512, 901, 0xF427_60AF_901B_C465),
            (4097, 3, 0xF3E0_2B94_9DB2_C947),
        ];
        let d = Dawa::new(0.7).unwrap();
        let mut scratch = DawaScratch::new();
        let mut out = Histogram::zeros(0);
        let mut failures = Vec::new();
        for (n, seed, want) in want {
            let hist = Histogram::from_counts((0..n).map(|i| ((i / 32) * 7) as f64).collect());
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            d.release_into(&hist, &mut rng, &mut scratch, &mut out);
            assert_eq!(scratch.bucket_totals.len(), scratch.partition.len());
            let bits = out.counts().iter().chain(&scratch.bucket_totals).map(|x| x.to_bits());
            let got = crate::fnv1a(bits.chain([rng.next_u64()]));
            if got != want {
                failures.push(format!("n={n}: {got:#018X}"));
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn accuracy_improves_with_larger_epsilon() {
        let mut r = rng();
        let hist =
            Histogram::from_counts((0..512).map(|i| if i < 256 { 100.0 } else { 5.0 }).collect());
        let mre_of = |eps: f64, r: &mut ChaCha12Rng| {
            let d = Dawa::new(eps).unwrap();
            let mut total = 0.0;
            for _ in 0..5 {
                total += mean_relative_error(&hist, &release(&d, &hist, r)).unwrap();
            }
            total / 5.0
        };
        let low = mre_of(0.05, &mut r);
        let high = mre_of(2.0, &mut r);
        assert!(high < low, "MRE at eps=2 ({high}) should beat eps=0.05 ({low})");
    }

    #[test]
    fn dawa_beats_identity_on_clustered_data() {
        // DAWA's raison d'être: on piecewise-constant data the partition
        // averages away most of the noise.
        use crate::identity::Identity;
        let mut r = rng();
        let counts: Vec<f64> = (0..1024)
            .map(|i| match i / 128 {
                0 | 1 => 40.0,
                2..=4 => 200.0,
                _ => 3.0,
            })
            .collect();
        let hist = Histogram::from_counts(counts);
        let eps = 0.05;
        let dawa = Dawa::new(eps).unwrap();
        let identity = Identity::new(eps).unwrap();
        let mut dawa_err = 0.0;
        let mut id_err = 0.0;
        for _ in 0..5 {
            dawa_err += mean_relative_error(&hist, &release(&dawa, &hist, &mut r)).unwrap();
            id_err += mean_relative_error(&hist, &identity.release(&hist, &mut r)).unwrap();
        }
        assert!(
            dawa_err < id_err,
            "DAWA ({dawa_err}) should beat the Laplace identity mechanism ({id_err}) on clustered data"
        );
    }
}
