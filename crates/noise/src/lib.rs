//! # osdp-noise
//!
//! Random-variate substrate for the OSDP workspace. There is no
//! differential-privacy ecosystem crate to lean on, so every distribution the
//! paper uses is implemented here directly from `rand` uniforms:
//!
//! * [`Laplace`] — the two-sided Laplace distribution of Definition 2.3, used
//!   by the DP Laplace mechanism (Definition 2.5) and by DAWA's second stage.
//! * [`OneSidedLaplace`] — the mirrored exponential of Definition 5.1 whose
//!   mass lies entirely on the non-positive reals; the noise of
//!   `OsdpLaplace` / `OsdpLaplaceL1`.
//! * [`Exponential`] — standard exponential, building block of the above.
//! * [`TwoSidedGeometric`] — the discrete analogue of the Laplace mechanism,
//!   provided for integer-valued extensions.
//! * [`bernoulli_keep_probability`] and [`sample_bernoulli`] — the
//!   `1 − e^{−ε}` coin used by `OsdpRR` (Algorithm 1).
//!
//! All samplers implement [`rand::distributions::Distribution<f64>`], so they
//! compose with any `rand`-compatible RNG. Experiments use the portable,
//! seedable [`seeded::SeedSequence`] so every table in the paper reproduction
//! is deterministic.
//!
//! ## Slice fill kernels
//!
//! The continuous distributions additionally expose slice kernels —
//! [`Laplace::fill`] / [`Laplace::add_assign`], the one-sided and
//! exponential equivalents, and [`TwoSidedGeometric::fill`] — that draw
//! noise in blocks over a concrete RNG: uniforms are generated with one bulk
//! `fill_bytes` call per block and transformed in a second pass, instead of
//! one virtual `&mut dyn RngCore` round-trip per variate. The kernels are
//! **bitwise-identical** to repeated scalar `sample` calls (the scalar path
//! stays the oracle; parity is tested per distribution), so callers switch
//! freely between the two paths without perturbing any seeded experiment.
//!
//! Every inverse-CDF transform, scalar or sliced, takes its logarithm from
//! one crate-private, branch-free `ln` built from IEEE arithmetic and bit
//! operations only (the fdlibm reduction, within 1 ULP of `f64::ln`). Its
//! bits do not depend on the target or the SIMD width, so the transform pass
//! vectorises, and on x86_64 CPUs with AVX-512F the kernels run it through a
//! copy of the block loop compiled for that feature, with the same output.
//! Golden hashes of seeded output pin those bits.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bernoulli;
pub mod exponential;
pub mod geometric;
pub(crate) mod kernels;
pub mod laplace;
pub(crate) mod ln;
pub mod one_sided;
pub mod seeded;
pub mod stats;

pub use bernoulli::{bernoulli_keep_probability, sample_bernoulli};
pub use exponential::Exponential;
pub use geometric::TwoSidedGeometric;
pub use laplace::Laplace;
pub use one_sided::OneSidedLaplace;
pub use seeded::SeedSequence;
