//! A hierarchical (binary-tree) DP histogram baseline.
//!
//! Not used by the paper's headline comparison (which pits the OSDP
//! algorithms against Laplace and DAWA), but included as an additional DP
//! baseline for the regret pools and the ablation benches. The mechanism is
//! the classic H2/"Boost" approach of Hay et al.: release noisy counts for
//! every node of a binary tree over the domain (splitting the budget evenly
//! across levels), then post-process with weighted averaging (up sweep) and
//! mean-consistency (down sweep).

use osdp_core::error::{validate_epsilon, Result};
use osdp_core::Histogram;
use osdp_noise::Laplace;
use rand::distributions::Distribution;
use rand::Rng;

/// The hierarchical-counts DP mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hierarchical {
    epsilon: f64,
}

impl Hierarchical {
    /// Creates the mechanism for a total budget ε.
    pub fn new(epsilon: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        Ok(Self { epsilon })
    }

    /// The privacy budget.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Releases an ε-DP histogram estimate.
    pub fn release<R: Rng + ?Sized>(&self, hist: &Histogram, rng: &mut R) -> Histogram {
        let n = hist.len();
        if n == 0 {
            return Histogram::zeros(0);
        }
        // Pad to the next power of two with empty bins.
        let size = n.next_power_of_two();
        let levels = (size as f64).log2() as usize + 1;
        let eps_per_level = self.epsilon / levels as f64;
        let noise = Laplace::for_epsilon(2.0, eps_per_level).expect("validated");

        // Tree stored level by level: level 0 is the root.
        // node_count(level) = 2^level, node width = size >> level.
        let mut noisy: Vec<Vec<f64>> = Vec::with_capacity(levels);
        for level in 0..levels {
            let nodes = 1usize << level;
            let width = size >> level;
            let mut values = Vec::with_capacity(nodes);
            for node in 0..nodes {
                let start = node * width;
                let end = ((node + 1) * width).min(n);
                let true_count =
                    if start < n { hist.range_sum(start..end.max(start)) } else { 0.0 };
                values.push(true_count + noise.sample(rng));
            }
            noisy.push(values);
        }

        // Up sweep: weighted average of a node's own noisy count and the sum
        // of its children's averaged estimates. With equal per-node variance V
        // the children sum has variance 2V at the leaves' parents and the
        // standard recursive weights apply.
        let mut averaged = noisy.clone();
        for level in (0..levels - 1).rev() {
            let child_level = level + 1;
            for node in 0..averaged[level].len() {
                let left = averaged[child_level][2 * node];
                let right = averaged[child_level][2 * node + 1];
                // Weight from Hay et al.: alpha = (2^h - 2^(h-1)) / (2^h - 1)
                // where h is the node's height; for a uniform-variance tree
                // this reduces to 2/3 just above the leaves and approaches 1/2
                // near the root. We use the height-dependent form.
                let height = (levels - 1 - level) as i32;
                let pow = 2f64.powi(height);
                let alpha = (pow - pow / 2.0) / (pow - 1.0);
                averaged[level][node] = alpha * noisy[level][node] + (1.0 - alpha) * (left + right);
            }
        }

        // Down sweep: enforce that children sum to their parent.
        let mut consistent = averaged.clone();
        for level in 1..levels {
            for node in 0..consistent[level].len() {
                let parent = consistent[level - 1][node / 2];
                let sibling_sum =
                    averaged[level][2 * (node / 2)] + averaged[level][2 * (node / 2) + 1];
                let adjustment = (parent - sibling_sum) / 2.0;
                consistent[level][node] = averaged[level][node] + adjustment;
            }
        }

        let leaves = &consistent[levels - 1];
        Histogram::from_counts(leaves.iter().take(n).copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdp_metrics::l1_error;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(123)
    }

    #[test]
    fn construction_validates_epsilon() {
        assert!(Hierarchical::new(1.0).is_ok());
        assert!(Hierarchical::new(0.0).is_err());
        assert_eq!(Hierarchical::new(2.0).unwrap().epsilon(), 2.0);
    }

    #[test]
    fn release_shape_and_empty_input() {
        let m = Hierarchical::new(1.0).unwrap();
        let mut r = rng();
        assert_eq!(m.release(&Histogram::zeros(0), &mut r).len(), 0);
        let hist = Histogram::from_counts((0..100).map(|i| i as f64).collect());
        let est = m.release(&hist, &mut r);
        assert_eq!(est.len(), 100);
    }

    #[test]
    fn consistency_children_sum_to_total() {
        // After the down sweep the leaf estimates should sum approximately to
        // the root estimate, which itself is close to the true total for a
        // large epsilon.
        let m = Hierarchical::new(50.0).unwrap();
        let mut r = rng();
        let hist = Histogram::from_counts(vec![7.0; 64]);
        let est = m.release(&hist, &mut r);
        assert!((est.total() - hist.total()).abs() < 5.0, "total {}", est.total());
    }

    #[test]
    fn hierarchical_is_reasonably_accurate_on_ranges() {
        // Hierarchical structures shine on range queries; as a histogram
        // estimator it should at least land within a few times the identity
        // mechanism on smooth data.
        use crate::identity::Identity;
        let mut r = rng();
        let hist = Histogram::from_counts(vec![50.0; 512]);
        let eps = 0.5;
        let h = Hierarchical::new(eps).unwrap();
        let id = Identity::new(eps).unwrap();
        let mut h_err = 0.0;
        let mut id_err = 0.0;
        for _ in 0..5 {
            h_err += l1_error(&hist, &h.release(&hist, &mut r)).unwrap();
            id_err += l1_error(&hist, &id.release(&hist, &mut r)).unwrap();
        }
        assert!(h_err < 10.0 * id_err, "hierarchical error {h_err} vs identity {id_err}");
    }

    #[test]
    fn non_power_of_two_domains_are_handled() {
        let m = Hierarchical::new(1.0).unwrap();
        let mut r = rng();
        for n in [3usize, 17, 100, 513] {
            let hist = Histogram::from_counts(vec![5.0; n]);
            assert_eq!(m.release(&hist, &mut r).len(), n);
        }
    }
}
