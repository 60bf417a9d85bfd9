//! # osdp-dawa
//!
//! A from-scratch implementation of the **DAWA** family of differentially
//! private histogram-release algorithms, used by the paper as the
//! state-of-the-art DP baseline (Sections 5.2 and 6.3.3) and as the DP stage
//! of the hybrid `DAWAz` algorithm.
//!
//! DAWA (Li, Hay, Miklau; *A Data- and Workload-Aware Algorithm for Range
//! Queries Under Differential Privacy*, VLDB 2014) is a **two-phase**
//! algorithm:
//!
//! 1. **Private partitioning** (budget `ε₁ = ρ·ε`): the domain is split into
//!    buckets inside which the data is approximately uniform. Bucket quality
//!    is measured by the L1 deviation from the bucket mean, evaluated on
//!    noisy costs so the stage itself is differentially private. Our
//!    implementation follows the original's strategy of considering
//!    dyadic-interval candidates and merging bottom-up (the original's
//!    dynamic program over arbitrary intervals is approximated by a
//!    bottom-up merge over a binary tree of intervals, which preserves the
//!    qualitative behaviour: large uniform regions get merged, spiky regions
//!    stay fine-grained).
//! 2. **Bucket estimation** (budget `ε₂ = (1 − ρ)·ε`): each bucket's total is
//!    released with Laplace noise of sensitivity 2 and expanded uniformly
//!    over the bucket's bins.
//!
//! The crate also ships the [`Identity`] (per-bin Laplace) baseline and a
//! [`Hierarchical`] (binary-tree) baseline used by the regret pools and the
//! ablation benches.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cost;
pub mod estimate;
pub mod hierarchical;
pub mod identity;
pub mod partition;

pub use estimate::{Dawa, DawaScratch};
pub use hierarchical::Hierarchical;
pub use identity::Identity;
pub use partition::{Partition, PartitionScratch, Partitioner};

/// FNV-1a over the little-endian bytes of `words`: the hash behind the
/// golden-hash tests.
#[cfg(test)]
pub(crate) fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}
