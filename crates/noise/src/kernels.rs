//! Block-drawing helpers behind the slice `fill` kernels.
//!
//! Every distribution in this crate keeps its scalar
//! [`Distribution::sample`](rand::distributions::Distribution::sample) as the
//! **oracle**: the slice kernels (`fill` / `add_assign`) must produce the
//! *bitwise identical* sequence of values that repeated scalar sampling
//! would, for any RNG in any state. What they change is *how* the work is
//! scheduled:
//!
//! * the kernels are generic over a **concrete** RNG (`R: Rng`), so with the
//!   engine's `ChaCha12Rng` every uniform draw is a monomorphized, inlinable
//!   call instead of per-sample `&mut dyn RngCore` virtual dispatch;
//! * uniform variates are drawn into a stack block of [`BLOCK`] values first
//!   and transformed in a second pass, so the RNG's hot state stays live
//!   across a run of draws and the (branchy) inverse-CDF transforms do not
//!   interleave with it. Each block is one 2 KiB `fill_bytes` call, so
//!   with `ChaCha12Rng` on an AVX-512F CPU the draw takes the RNG's wide
//!   path (16 ChaCha blocks per step written straight into the block);
//!   elsewhere, and for blocks under 1 KiB, it goes through the RNG's
//!   4-block buffer. The stream is the same either way.
//!
//! The parity contract is property-tested per distribution (`fill` versus a
//! fresh identically-seeded scalar loop) — a kernel that drifts from its
//! oracle by even one ULP or one extra RNG draw fails those tests.

use rand::{Rng, RngCore};

/// Number of uniform variates drawn per block (16 KiB of `f64` on the stack
/// is far too much; 256 × 8 B = 2 KiB keeps the block L1-resident).
pub(crate) const BLOCK: usize = 256;

/// Draws `chunk.len()` uniform variates in `[0, 1)` into `unit` with one
/// bulk `fill_bytes` call.
///
/// Stream-compatible with per-sample `gen::<f64>()`: `rand`'s `Standard`
/// `f64` is `(next_u64() >> 11) · 2⁻⁵³`, `next_u64` is the little-endian
/// composition of two `next_u32` words, and `fill_bytes` is specified to
/// emit exactly that word stream — so reading 8 little-endian bytes per
/// variate reproduces the identical `f64` sequence while letting the RNG
/// serve whole keystream blocks at once.
#[inline]
pub(crate) fn draw_unit_block<R: RngCore + ?Sized>(
    unit: &mut [f64],
    bytes: &mut [u8; 8 * BLOCK],
    rng: &mut R,
) {
    let bytes = &mut bytes[..8 * unit.len()];
    rng.fill_bytes(bytes);
    for (u, raw) in unit.iter_mut().zip(bytes.chunks_exact(8)) {
        let word = u64::from_le_bytes(raw.try_into().expect("8-byte chunk"));
        *u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    }
}

/// Writes `transform(u)` of one uniform draw per slot into `out`.
///
/// Draw order is slot order, exactly one `gen::<f64>()`-equivalent per slot
/// — the same stream consumption as a scalar `sample` loop.
#[inline]
pub(crate) fn fill_with<R: Rng + ?Sized>(
    out: &mut [f64],
    rng: &mut R,
    transform: impl Fn(f64) -> f64,
) {
    let mut unit = [0.0f64; BLOCK];
    let mut bytes = [0u8; 8 * BLOCK];
    for chunk in out.chunks_mut(BLOCK) {
        let unit = &mut unit[..chunk.len()];
        draw_unit_block(unit, &mut bytes, rng);
        for (slot, &u) in chunk.iter_mut().zip(unit.iter()) {
            *slot = transform(u);
        }
    }
}

/// Adds `transform(u)` of one uniform draw per slot onto `out` (the
/// perturbation form used by the mechanisms' buffer-reuse path).
#[inline]
pub(crate) fn add_with<R: Rng + ?Sized>(
    out: &mut [f64],
    rng: &mut R,
    transform: impl Fn(f64) -> f64,
) {
    let mut unit = [0.0f64; BLOCK];
    let mut bytes = [0u8; 8 * BLOCK];
    for chunk in out.chunks_mut(BLOCK) {
        let unit = &mut unit[..chunk.len()];
        draw_unit_block(unit, &mut bytes, rng);
        for (slot, &u) in chunk.iter_mut().zip(unit.iter()) {
            *slot += transform(u);
        }
    }
}
