//! Stage 1 of DAWA: ε₁-private, data-aware partitioning of the domain.
//!
//! The partitioner searches for a partition of the domain into buckets that
//! minimises the estimated total error of the second stage:
//!
//! ```text
//! cost(partition) = Σ_B [ dev(B) + c ]
//! ```
//!
//! where `dev(B)` is the L1 deviation of bucket `B` from its mean
//! (approximation error of uniform expansion) and `c` is the expected L1
//! error of the noisy bucket total added in stage 2 (`c = 2/ε₂`).
//!
//! The search follows DAWA's dyadic strategy: candidate buckets are intervals
//! of a binary tree over the domain and the optimal dyadic partition is found
//! by a bottom-up merge. To make the stage ε₁-differentially private every
//! deviation is evaluated with Laplace noise whose scale accounts for the
//! number of tree levels a single record can influence.

use crate::cost::CostEvaluator;
use osdp_core::error::{validate_epsilon, Result};
use osdp_core::Histogram;
use osdp_noise::Laplace;
use rand::Rng;

/// A partition of `0..domain` into consecutive, non-overlapping buckets
/// (half-open intervals), in increasing order.
pub type Partition = Vec<(usize, usize)>;

/// Reusable buffers for [`Partitioner::partition_into`].
///
/// The dyadic merge (including its odd-node carry rule) has a structural
/// fact the buffers exploit: the node at `(level, index)` always covers
/// exactly `[index << level, min(index << level + 2^level, domain))`, so the
/// only per-node state worth storing is the best cost and one decision bit,
/// in flat per-level arenas rather than one bucket list per node. A scratch
/// amortizes to zero allocations once it has been through one release of
/// the same domain size.
#[derive(Debug, Default)]
pub struct PartitionScratch {
    /// `costs[l][j]`: best cost of node `j` at tree level `l` (0 = leaves).
    costs: Vec<Vec<f64>>,
    /// `merged[l][j]`: whether node `j`'s best solution is the single merged
    /// bucket (`true`) or its children's concatenated partitions.
    merged: Vec<Vec<bool>>,
    /// Per-level noise block (leaf costs, then one draw per attempted merge).
    noise: Vec<f64>,
    /// DFS stack of `(level, index)` used by partition reconstruction.
    stack: Vec<(usize, usize)>,
}

impl PartitionScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The noise block, free for reuse between partitioning runs (stage 2 of
    /// `Dawa::release_into` borrows it for the bucket-total draws).
    pub(crate) fn noise_buffer(&mut self) -> &mut Vec<f64> {
        &mut self.noise
    }

    /// Clears and returns handles to level `depth`'s buffers, growing the
    /// per-level vectors on first use.
    fn level_mut(&mut self, depth: usize) -> (&mut Vec<f64>, &mut Vec<bool>) {
        while self.costs.len() <= depth {
            self.costs.push(Vec::new());
            self.merged.push(Vec::new());
        }
        let costs = &mut self.costs[depth];
        let merged = &mut self.merged[depth];
        costs.clear();
        merged.clear();
        (costs, merged)
    }
}

/// The interval covered by dyadic-tree node `(level, index)` over a domain
/// of `n` bins (the odd-carry rule preserves this invariant: a carried node
/// keeps its index scaled by 2 and always sits at the ragged right edge).
#[inline]
fn node_interval(level: usize, index: usize, n: usize) -> (usize, usize) {
    let start = index << level;
    (start, (start + (1usize << level)).min(n))
}

/// The ε₁-private dyadic partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partitioner {
    epsilon1: f64,
    bucket_constant: f64,
}

impl Partitioner {
    /// Creates a partitioner.
    ///
    /// * `epsilon1` — privacy budget of the partitioning stage.
    /// * `epsilon2` — budget that stage 2 will use; it only enters the cost
    ///   model (per-bucket constant `2/ε₂`), not the privacy accounting of
    ///   this stage.
    pub fn new(epsilon1: f64, epsilon2: f64) -> Result<Self> {
        validate_epsilon(epsilon1)?;
        validate_epsilon(epsilon2)?;
        Ok(Self { epsilon1, bucket_constant: 2.0 / epsilon2 })
    }

    /// The per-bucket noise constant `c` of the cost model.
    pub fn bucket_constant(&self) -> f64 {
        self.bucket_constant
    }

    /// Computes an ε₁-private partition of the histogram's domain, writing
    /// it into `out` and reusing `scratch` across calls.
    ///
    /// A single record influences at most two bins (bounded DP), each bin
    /// belongs to one candidate interval per tree level, and a unit change of
    /// a count changes an interval's deviation by at most 2 — so the total L1
    /// sensitivity of all evaluated costs is `4·levels` and each cost is
    /// perturbed with `Lap(4·levels / ε₁)`.
    ///
    /// The draws are one leaf cost per bin, then one per attempted merge,
    /// level by level; each level's draws are one block through the fill
    /// kernel. Golden hashes of the chosen buckets pin the result.
    pub fn partition_into<R: Rng + ?Sized>(
        &self,
        hist: &Histogram,
        rng: &mut R,
        scratch: &mut PartitionScratch,
        out: &mut Partition,
    ) {
        out.clear();
        let n = hist.len();
        if n == 0 {
            return;
        }
        if n == 1 {
            out.push((0, 1));
            return;
        }
        let ev = CostEvaluator::new(hist);
        let levels = (n as f64).log2().ceil().max(1.0);
        let noise = Laplace::centered(4.0 * levels / self.epsilon1)
            .expect("scale is positive by construction");

        // Level 0: one leaf per bin, its noise drawn through the block fill
        // kernel. A leaf's best solution is itself, so its merged bit is set.
        let mut depth = 0usize;
        scratch.noise.resize(n, 0.0);
        noise.fill(&mut scratch.noise, rng);
        {
            let noise_buf = std::mem::take(&mut scratch.noise);
            let (costs, merged) = scratch.level_mut(0);
            costs.extend(noise_buf.iter().map(|z| self.bucket_constant + z));
            merged.resize(n, true);
            scratch.noise = noise_buf;
        }

        // Bottom-up merge of adjacent pairs: each level's merge noise is
        // pre-drawn as one block, and the odd trailing node is carried up
        // verbatim (its child mapping stays `2·j` because
        // `2·⌊len/2⌋ = len − 1` for odd lengths).
        while scratch.costs[depth].len() > 1 {
            let len = scratch.costs[depth].len();
            let pairs = len / 2;
            scratch.noise.resize(pairs, 0.0);
            noise.fill(&mut scratch.noise[..pairs], rng);

            // The next level is built into buffers temporarily moved out of
            // the scratch, so the current level can be read in peace.
            let (next_costs_slot, next_merged_slot) = scratch.level_mut(depth + 1);
            let mut next_costs = std::mem::take(next_costs_slot);
            let mut next_merged = std::mem::take(next_merged_slot);
            next_costs.reserve(pairs + 1);
            next_merged.reserve(pairs + 1);
            let cur_costs = &scratch.costs[depth];
            let cur_merged = &scratch.merged[depth];
            for (j, z) in scratch.noise[..pairs].iter().enumerate() {
                let (start, end) = node_interval(depth + 1, j, n);
                let merged_cost = ev.bucket_cost(start, end) + self.bucket_constant + z;
                let split_cost = cur_costs[2 * j] + cur_costs[2 * j + 1];
                if merged_cost <= split_cost {
                    next_costs.push(merged_cost);
                    next_merged.push(true);
                } else {
                    next_costs.push(split_cost);
                    next_merged.push(false);
                }
            }
            if len % 2 == 1 {
                next_costs.push(cur_costs[len - 1]);
                next_merged.push(cur_merged[len - 1]);
            }
            scratch.costs[depth + 1] = next_costs;
            scratch.merged[depth + 1] = next_merged;
            depth += 1;
        }

        // Reconstruct the winning partition left-to-right by following the
        // decision bits (right child pushed first so the left pops first).
        scratch.stack.clear();
        scratch.stack.push((depth, 0));
        while let Some((lvl, j)) = scratch.stack.pop() {
            if lvl == 0 || scratch.merged[lvl][j] {
                out.push(node_interval(lvl, j, n));
            } else {
                let child_len = scratch.costs[lvl - 1].len();
                if 2 * j + 1 < child_len {
                    scratch.stack.push((lvl - 1, 2 * j + 1));
                }
                scratch.stack.push((lvl - 1, 2 * j));
            }
        }
    }
}

/// Checks that a partition covers `0..domain` with consecutive, non-empty,
/// non-overlapping buckets. Used by tests and by `DAWAz`'s post-processing.
pub fn is_valid_partition(partition: &Partition, domain: usize) -> bool {
    if domain == 0 {
        return partition.is_empty();
    }
    let mut expected_start = 0usize;
    for &(start, end) in partition {
        if start != expected_start || end <= start {
            return false;
        }
        expected_start = end;
    }
    expected_start == domain
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(10)
    }

    fn partition(p: &Partitioner, hist: &Histogram, rng: &mut ChaCha12Rng) -> Partition {
        let mut out = Partition::new();
        p.partition_into(hist, rng, &mut PartitionScratch::new(), &mut out);
        out
    }

    #[test]
    fn construction_validates_budgets() {
        assert!(Partitioner::new(0.1, 0.9).is_ok());
        assert!(Partitioner::new(0.0, 0.9).is_err());
        assert!(Partitioner::new(0.1, -0.1).is_err());
        let p = Partitioner::new(0.5, 0.5).unwrap();
        assert_eq!(p.bucket_constant(), 4.0);
    }

    #[test]
    fn partition_is_always_valid() {
        let p = Partitioner::new(0.1, 0.9).unwrap();
        let mut r = rng();
        for n in [1usize, 2, 3, 7, 16, 100, 257] {
            let hist = Histogram::from_counts((0..n).map(|i| (i % 5) as f64).collect());
            let partition = partition(&p, &hist, &mut r);
            assert!(is_valid_partition(&partition, n), "n={n}: {partition:?}");
        }
        assert!(partition(&p, &Histogram::zeros(0), &mut r).is_empty());
    }

    /// FNV-1a hashes of the bucket bounds `partition_into` chooses, and of
    /// the generator's next word, from the empty domain to 4097 bins (odd
    /// carries at every level). One scratch is reused across domain sizes.
    #[test]
    fn partitions_match_their_golden_hashes() {
        use rand::RngCore;
        let want: [(usize, u64); 9] = [
            (0, 0x28D4_1AA5_38B7_3BF2),
            (1, 0xD962_745F_DE08_AE29),
            (2, 0xA228_CAAF_5FC9_2759),
            (3, 0xB8ED_E415_68B4_6DCE),
            (255, 0x7976_7F3E_E1B9_B6C6),
            (256, 0xFE52_9164_4AAE_4C65),
            (257, 0x8FD3_F6BF_80C4_F534),
            (1024, 0x2CA6_A8B9_CE41_5371),
            (4097, 0xD08A_F4F0_18B5_0743),
        ];
        let p = Partitioner::new(0.4, 0.8).unwrap();
        let mut scratch = PartitionScratch::new();
        let mut out = Partition::new();
        let mut failures = Vec::new();
        for (n, want) in want {
            // Uniform stretches of 64 bins between irregular ones, so the
            // merge both merges and splits.
            let hist = Histogram::from_counts(
                (0..n)
                    .map(|i| if i / 64 % 2 == 0 { 50.0 } else { (i * 7 % 13) as f64 * 10.0 })
                    .collect(),
            );
            let mut rng = ChaCha12Rng::seed_from_u64(n as u64);
            p.partition_into(&hist, &mut rng, &mut scratch, &mut out);
            assert!(is_valid_partition(&out, n), "n={n}: {out:?}");
            let bounds = out.iter().flat_map(|&(start, end)| [start as u64, end as u64]);
            let got = crate::fnv1a(bounds.chain([rng.next_u64()]));
            if got != want {
                failures.push(format!("n={n}: {got:#018X}"));
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn uniform_data_gets_merged_into_few_buckets() {
        // With a generous stage-1 budget the cost comparisons are essentially
        // exact, so the dyadic DP must collapse perfectly uniform data into a
        // handful of buckets (each merge saves one per-bucket noise constant).
        let p = Partitioner::new(50.0, 1.0).unwrap();
        let mut r = rng();
        let hist = Histogram::from_counts(vec![50.0; 256]);
        let partition = partition(&p, &hist, &mut r);
        assert!(
            partition.len() <= 8,
            "uniform data should collapse to a handful of buckets, got {}",
            partition.len()
        );
    }

    #[test]
    fn uniform_data_merges_more_than_spiky_data_at_moderate_budget() {
        let p = Partitioner::new(1.0, 1.0).unwrap();
        let mut r = rng();
        let uniform = Histogram::from_counts(vec![50.0; 256]);
        let mut spiky_counts = vec![0.0; 256];
        for i in (0..256).step_by(8) {
            spiky_counts[i] = 10_000.0;
        }
        let spiky = Histogram::from_counts(spiky_counts);
        let avg_buckets = |h: &Histogram, r: &mut ChaCha12Rng| {
            (0..5).map(|_| partition(&p, h, r).len()).sum::<usize>() as f64 / 5.0
        };
        let uniform_buckets = avg_buckets(&uniform, &mut r);
        let spiky_buckets = avg_buckets(&spiky, &mut r);
        assert!(
            uniform_buckets < spiky_buckets,
            "uniform ({uniform_buckets}) should merge more than spiky ({spiky_buckets})"
        );
    }

    #[test]
    fn spiky_data_isolates_the_spikes() {
        let p = Partitioner::new(2.0, 2.0).unwrap();
        let mut r = rng();
        let mut counts = vec![0.0; 256];
        counts[40] = 5_000.0;
        counts[200] = 8_000.0;
        let hist = Histogram::from_counts(counts);
        let partition = partition(&p, &hist, &mut r);
        assert!(is_valid_partition(&partition, 256));
        // The buckets containing the spikes should be small (the spike is not
        // averaged into a huge uniform region).
        for &(start, end) in &partition {
            if (start..end).contains(&40) || (start..end).contains(&200) {
                assert!(end - start <= 64, "spike bucket too large: {start}..{end}");
            }
        }
        assert!(partition.len() > 2);
    }

    #[test]
    fn validity_checker_rejects_bad_partitions() {
        assert!(is_valid_partition(&vec![(0, 3), (3, 5)], 5));
        assert!(!is_valid_partition(&vec![(0, 3), (4, 5)], 5), "gap");
        assert!(!is_valid_partition(&vec![(0, 3), (2, 5)], 5), "overlap");
        assert!(!is_valid_partition(&vec![(0, 3)], 5), "does not cover");
        assert!(!is_valid_partition(&vec![(0, 0), (0, 5)], 5), "empty bucket");
        assert!(is_valid_partition(&vec![], 0));
        assert!(!is_valid_partition(&vec![], 3));
    }
}
