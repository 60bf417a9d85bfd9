//! Deterministic, forkable random-number generation for experiments.
//!
//! Every experiment in the reproduction harness needs to be repeatable: the
//! same seed must produce the same tables. `rand`'s `StdRng` makes no
//! cross-version stability promise, so the harness pins `ChaCha12Rng`.
//! [`SeedSequence`] derives independent child RNGs for named subtasks (one per
//! dataset × policy × trial), so adding a new subtask never perturbs the
//! random stream of existing ones.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// A deterministic factory of independent RNG streams.
#[derive(Debug, Clone)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { root: seed }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives an RNG for a named subtask; the same `(seed, label, index)`
    /// always yields the same stream.
    pub fn rng_for(&self, label: &str, index: u64) -> ChaCha12Rng {
        self.rng_for_parts(&[label], index)
    }

    /// [`SeedSequence::rng_for`] with the label given as consecutive parts:
    /// the stream of `(seed, parts.concat(), index)`, without building the
    /// concatenation. The label is hashed byte by byte, so how it is split
    /// into parts never changes the stream.
    pub fn rng_for_parts(&self, parts: &[&str], index: u64) -> ChaCha12Rng {
        let mut hash = self.root ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1));
        for part in parts {
            for b in part.as_bytes() {
                hash = hash.rotate_left(5) ^ u64::from(*b);
                hash = hash.wrapping_mul(0x100_0000_01B3);
            }
        }
        ChaCha12Rng::seed_from_u64(hash)
    }

    /// Derives a plain RNG stream by numeric index.
    pub fn rng(&self, index: u64) -> ChaCha12Rng {
        self.rng_for("stream", index)
    }

    /// Derives a child sequence, useful for handing a whole experiment its own
    /// seed space.
    pub fn child(&self, label: &str) -> SeedSequence {
        let mut rng = self.rng_for(label, 0);
        SeedSequence { root: rng.next_u64() }
    }
}

impl Default for SeedSequence {
    /// The default seed used across the experiment harness.
    fn default() -> Self {
        Self::new(0x05D9_2020)
    }
}

/// Convenience: draws `n` f64 samples from a distribution into a vector.
pub fn sample_vec<D, R>(dist: &D, n: usize, rng: &mut R) -> Vec<f64>
where
    D: rand::distributions::Distribution<f64>,
    R: Rng + ?Sized,
{
    (0..n).map(|_| dist.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_labels_give_same_streams() {
        let s = SeedSequence::new(7);
        let a: Vec<u64> =
            (0..5).map(|_| 0).scan(s.rng_for("x", 3), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> =
            (0..5).map(|_| 0).scan(s.rng_for("x", 3), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_or_indices_give_different_streams() {
        let s = SeedSequence::new(7);
        let a = s.rng_for("x", 0).next_u64();
        let b = s.rng_for("y", 0).next_u64();
        let c = s.rng_for("x", 1).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        let d = SeedSequence::new(8).rng_for("x", 0).next_u64();
        assert_ne!(a, d, "different roots diverge");
    }

    #[test]
    fn parted_labels_give_the_concatenated_labels_stream() {
        let s = SeedSequence::new(0x05D9_2020);
        for name in ["OsdpLaplaceL1", "DAWAz", "Laplace", ""] {
            for index in [0, 1, 7, 1 << 40] {
                let whole: Vec<u64> = (0..8)
                    .scan(s.rng_for(&format!("release/{name}"), index), |r, _| Some(r.next_u64()))
                    .collect();
                let parted: Vec<u64> = (0..8)
                    .scan(s.rng_for_parts(&["release/", name], index), |r, _| Some(r.next_u64()))
                    .collect();
                assert_eq!(whole, parted, "release/{name} at index {index}");
            }
        }
        assert_ne!(
            s.rng_for_parts(&["release/", "DAWAz"], 0).next_u64(),
            s.rng_for_parts(&["release/", "Laplace"], 0).next_u64()
        );
    }

    #[test]
    fn children_are_deterministic_and_distinct() {
        let s = SeedSequence::new(123);
        let c1 = s.child("classification");
        let c2 = s.child("classification");
        let c3 = s.child("ngrams");
        assert_eq!(c1.root(), c2.root());
        assert_ne!(c1.root(), c3.root());
        assert_ne!(c1.root(), s.root());
    }

    #[test]
    fn default_seed_is_fixed() {
        assert_eq!(SeedSequence::default().root(), SeedSequence::default().root());
    }

    #[test]
    fn sample_vec_draws_n_values() {
        let dist = crate::laplace::Laplace::centered(1.0).unwrap();
        let mut rng = SeedSequence::new(1).rng(0);
        let v = sample_vec(&dist, 100, &mut rng);
        assert_eq!(v.len(), 100);
        assert!(v.iter().any(|&x| x != v[0]), "values vary");
    }
}
