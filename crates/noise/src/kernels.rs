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
//!   and transformed in a second pass. Each block is one 2 KiB `fill_bytes`
//!   call, so with `ChaCha12Rng` on an AVX-512F CPU the draw takes the RNG's
//!   wide path (16 ChaCha blocks per step written straight into the block);
//!   elsewhere, and for blocks under 1 KiB, it goes through the RNG's
//!   4-block buffer. The stream is the same either way;
//! * the transform pass is branch-free: every inverse-CDF transform takes
//!   its logarithm from the crate's own [`ln`](crate::ln::ln), which uses
//!   only IEEE arithmetic and bit operations, so the pass vectorises. On
//!   x86_64 CPUs with AVX-512F the block loop runs as a copy compiled for
//!   that feature ([`block_loop_avx512`]), eight transforms per
//!   instruction; elsewhere it runs as the portable [`block_loop`]. Both
//!   compile the same `#[inline(always)]` body, and `ln` rounds the same at
//!   every width, so the two agree bit for bit.
//!
//! The parity contract is property-tested per distribution (`fill` versus a
//! fresh identically-seeded scalar loop) — a kernel that drifts from its
//! oracle by even one ULP or one extra RNG draw fails those tests. Golden
//! hashes of seeded output pin the bits of both block loops.

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
#[inline(always)]
pub(crate) fn draw_unit_block<R: RngCore + ?Sized>(
    unit: &mut [f64],
    bytes: &mut [u8; 8 * BLOCK],
    rng: &mut R,
) {
    let bytes = &mut bytes[..8 * unit.len()];
    rng.fill_bytes(bytes);
    for (u, raw) in unit.iter_mut().zip(bytes.chunks_exact(8)) {
        let word = u64::from_le_bytes(raw.try_into().expect("8-byte chunk"));
        *u = exact_u53_to_f64(word >> 11) * (1.0 / (1u64 << 53) as f64);
    }
}

/// `x as f64` for `x < 2⁵³`, without an int-to-float conversion (a `u64`
/// one only vectorises on AVX-512DQ). OR-ing the low 32 bits into the
/// mantissa of 2⁵², and the high 21 bits into that of 2⁸⁴ (whose mantissa
/// unit is 2³²), gives `2⁵² + lo` and `2⁸⁴ + hi · 2³²` exactly; removing the
/// offsets and adding is exact too, since every partial result is an integer
/// below 2⁵³.
#[inline(always)]
fn exact_u53_to_f64(x: u64) -> f64 {
    const TWO_POW_52: f64 = f64::from_bits(0x4330_0000_0000_0000);
    const TWO_POW_84: f64 = f64::from_bits(0x4530_0000_0000_0000);
    let lo = f64::from_bits(TWO_POW_52.to_bits() | (x & 0xFFFF_FFFF)) - TWO_POW_52;
    let hi = f64::from_bits(TWO_POW_84.to_bits() | (x >> 32)) - TWO_POW_84;
    hi + lo
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
    dispatch::<false, _, _>(out, rng, transform);
}

/// Adds `transform(u)` of one uniform draw per slot onto `out` (the
/// perturbation form used by the mechanisms' buffer-reuse path).
#[inline]
pub(crate) fn add_with<R: Rng + ?Sized>(
    out: &mut [f64],
    rng: &mut R,
    transform: impl Fn(f64) -> f64,
) {
    dispatch::<true, _, _>(out, rng, transform);
}

/// Runs the widest block loop the CPU supports.
#[inline]
fn dispatch<const ADD: bool, R: Rng + ?Sized, T: Fn(f64) -> f64>(
    out: &mut [f64],
    rng: &mut R,
    transform: T,
) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") {
        // SAFETY: guarded by the `is_x86_feature_detected!("avx512f")` test
        // on the line above.
        return unsafe { block_loop_avx512::<ADD, _, _>(out, rng, transform) };
    }
    block_loop::<ADD, _, _>(out, rng, transform);
}

/// The block loop: draws a block of uniforms, then stores (`ADD = false`)
/// or adds (`ADD = true`) `transform(u)` into each slot.
#[inline(always)]
pub(crate) fn block_loop<const ADD: bool, R: Rng + ?Sized, T: Fn(f64) -> f64>(
    out: &mut [f64],
    rng: &mut R,
    transform: T,
) {
    let mut unit = [0.0f64; BLOCK];
    let mut bytes = [0u8; 8 * BLOCK];
    for chunk in out.chunks_mut(BLOCK) {
        let unit = &mut unit[..chunk.len()];
        draw_unit_block(unit, &mut bytes, rng);
        for (slot, &u) in chunk.iter_mut().zip(unit.iter()) {
            let x = transform(u);
            *slot = if ADD { *slot + x } else { x };
        }
    }
}

/// [`block_loop`] compiled for AVX-512F, so the unit conversion and the
/// transform vectorise eight lanes wide.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn block_loop_avx512<const ADD: bool, R: Rng + ?Sized, T: Fn(f64) -> f64>(
    out: &mut [f64],
    rng: &mut R,
    transform: T,
) {
    block_loop::<ADD, _, _>(out, rng, transform);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exponential, Laplace, OneSidedLaplace, TwoSidedGeometric};
    use rand::distributions::Distribution;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

    fn fnv1a(hash: u64, word: u64) -> u64 {
        word.to_le_bytes()
            .iter()
            .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
    }

    /// FNV-1a over the bits of `draw`'s output at each golden length, each
    /// from a fresh generator at `seed`, followed by that generator's next
    /// word. Slots start at `i / 4`, so an additive kernel is hashed too.
    fn golden_hash<T: Copy>(
        seed: u64,
        from_index: impl Fn(usize) -> T,
        bits: impl Fn(T) -> u64,
        mut draw: impl FnMut(&mut [T], &mut ChaCha12Rng),
    ) -> u64 {
        let mut hash = FNV_OFFSET;
        for n in [1, 255, 256, 257, 1024, 4097] {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut out: Vec<T> = (0..n).map(&from_index).collect();
            draw(&mut out, &mut rng);
            hash = out.iter().fold(hash, |h, &x| fnv1a(h, bits(x)));
            hash = fnv1a(hash, rng.next_u64());
        }
        hash
    }

    fn f64_hash(seed: u64, draw: impl FnMut(&mut [f64], &mut ChaCha12Rng)) -> u64 {
        golden_hash(seed, |i| i as f64 / 4.0, f64::to_bits, draw)
    }

    const SEEDS: [u64; 2] = [0x1A9, 0xD15C];

    /// Checks one continuous distribution's slice kernel against its golden
    /// hashes along every path that can produce it: the public kernel, the
    /// scalar `sample` oracle, the portable block loop called directly and,
    /// when the CPU has AVX-512F, the AVX-512 block loop.
    fn check_paths<const ADD: bool>(
        name: &str,
        golden: [u64; 2],
        public: impl Fn(&mut [f64], &mut ChaCha12Rng),
        sample: impl Fn(&mut ChaCha12Rng) -> f64,
        transform: impl Fn(f64) -> f64 + Copy,
    ) {
        for (seed, want) in SEEDS.into_iter().zip(golden) {
            let got = f64_hash(seed, &public);
            assert_eq!(got, want, "{name}, seed {seed}: public kernel hashed to {got:#018X}");
            let oracle = f64_hash(seed, |out, rng| {
                for slot in out {
                    let x = sample(rng);
                    *slot = if ADD { *slot + x } else { x };
                }
            });
            assert_eq!(oracle, want, "{name}, seed {seed}: scalar oracle");
            let portable = f64_hash(seed, |out, rng| block_loop::<ADD, _, _>(out, rng, transform));
            assert_eq!(portable, want, "{name}, seed {seed}: portable block loop");
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx512f") {
                let wide = f64_hash(seed, |out, rng| {
                    // SAFETY: guarded by the `is_x86_feature_detected!("avx512f")`
                    // test on the enclosing `if`.
                    unsafe { block_loop_avx512::<ADD, _, _>(out, rng, transform) }
                });
                assert_eq!(wide, want, "{name}, seed {seed}: AVX-512 block loop");
            } else {
                eprintln!("AVX-512F not detected: the wide path was not checked");
            }
        }
    }

    /// Golden hashes of seeded kernel output (lengths 1, 255, 256, 257, 1024
    /// and 4097, two seeds, plus the generator's next word), captured once
    /// the transforms took the crate's own `ln`. They pin the bits that the
    /// scalar paths and both block loops must keep producing.
    #[test]
    fn kernels_match_their_golden_hashes() {
        let laplace = Laplace::new(-1.5, 0.7).unwrap();
        check_paths::<false>(
            "Laplace::fill",
            [0xAE45_926C_C052_A0EB, 0xA19B_C4D7_76DF_A66C],
            |out, rng| laplace.fill(out, rng),
            |rng| laplace.sample(rng),
            |u| laplace.transform_unit(u),
        );
        let one_sided = OneSidedLaplace::for_epsilon(0.01).unwrap();
        check_paths::<true>(
            "OneSidedLaplace::add_assign",
            [0xC8B4_478C_662A_00EC, 0x599F_B5C6_D295_17FF],
            |out, rng| one_sided.add_assign(out, rng),
            |rng| one_sided.sample(rng),
            |u| one_sided.transform_unit(u),
        );
        let exponential = Exponential::new(2.5).unwrap();
        check_paths::<false>(
            "Exponential::fill",
            [0xBC77_B4BA_E6B9_3862, 0xAE0F_C7AB_C7E6_9C1A],
            |out, rng| exponential.fill(out, rng),
            |rng| exponential.sample(rng),
            |u| exponential.transform_unit(u),
        );
        // The geometric kernel draws pairs in its own (portable) loop.
        let geometric = TwoSidedGeometric::for_epsilon(1.0, 0.6).unwrap();
        for (seed, want) in SEEDS.into_iter().zip([0xCC73_A382_DE77_0AF3, 0xF3C2_A069_F116_7C0F]) {
            let hash = |draw: &dyn Fn(&mut [i64], &mut ChaCha12Rng)| {
                golden_hash(seed, |i| i as i64, |x| x as u64, draw)
            };
            let got = hash(&|out, rng| geometric.fill(out, rng));
            assert_eq!(got, want, "TwoSidedGeometric::fill, seed {seed}: hashed to {got:#018X}");
            let oracle = hash(&|out, rng| out.iter_mut().for_each(|x| *x = geometric.sample(rng)));
            assert_eq!(oracle, want, "TwoSidedGeometric::sample, seed {seed}");
        }
    }

    /// The AVX-512 block loop equals the portable one bit for bit, in both
    /// modes, on lengths around [`BLOCK`] and from generators whose buffer
    /// is partly drained, and leaves the generator in the same state.
    #[test]
    fn portable_and_avx512_block_loops_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            fn agree<const ADD: bool>(transform: impl Fn(f64) -> f64 + Copy) {
                let lengths = [1, 7, 8, 9, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 4 * BLOCK];
                for (n, skip) in lengths.into_iter().flat_map(|n| [(n, 0), (n, 3)]) {
                    let start = (0..n).map(|i| i as f64 - 100.0).collect::<Vec<_>>();
                    let mut rng = ChaCha12Rng::seed_from_u64(n as u64);
                    (0..skip).for_each(|_| {
                        rng.next_u32();
                    });
                    let (mut portable, mut wide) = (start.clone(), start);
                    let (mut rng_p, mut rng_w) = (rng.clone(), rng);
                    block_loop::<ADD, _, _>(&mut portable, &mut rng_p, transform);
                    // SAFETY: guarded by the `is_x86_feature_detected!("avx512f")`
                    // test on the enclosing `if`.
                    unsafe { block_loop_avx512::<ADD, _, _>(&mut wide, &mut rng_w, transform) };
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&portable), bits(&wide), "add {ADD}, n {n}, skip {skip}");
                    assert_eq!(rng_p.next_u64(), rng_w.next_u64(), "add {ADD}, n {n}");
                }
            }
            let laplace = Laplace::new(3.0, 100.0).unwrap();
            let one_sided = OneSidedLaplace::for_epsilon(0.01).unwrap();
            let exponential = Exponential::new(0.5).unwrap();
            agree::<false>(|u| laplace.transform_unit(u));
            agree::<true>(|u| laplace.transform_unit(u));
            agree::<true>(|u| one_sided.transform_unit(u));
            agree::<false>(|u| exponential.transform_unit(u));
            println!("AVX-512F detected: the wide path agrees with the portable loop");
            return;
        }
        println!("AVX-512F not detected: the wide path was not checked");
    }
}
