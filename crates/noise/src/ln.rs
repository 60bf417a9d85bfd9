//! The natural logarithm behind every inverse-CDF transform in this crate.
//!
//! `ln` is the fdlibm/musl `log` reduction with its special-case branches
//! removed, because the transforms only pass it positive normal numbers:
//! `x = 2ᵏ · (1 + f)` with `1 + f ∈ [√2/2, √2)`, `s = f / (2 + f)`, and
//! `ln(1 + f) = f − f²/2 + s · (f²/2 + R(s²))`, where `R` is the `LG1..LG7`
//! polynomial; `k · ln 2` is added back in two parts (`LN2_HI`, whose low
//! bits are zero so `k · LN2_HI` is exact, and `LN2_LO`).
//!
//! It uses only IEEE `+ − × ÷` and integer bit operations: no branch, no
//! fused multiply-add and no libm call. So its bits are the same on every
//! target and at every SIMD width, and a loop of it vectorises (the AVX-512F
//! block loop in [`crate::kernels`] relies on that). It is within 1 ULP of a
//! correctly rounded logarithm and non-decreasing over its domain; the tests
//! below check both against `f64::ln`.

/// `ln 2` rounded so that `k · LN2_HI` is exact for `|k| < 2¹¹`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);

/// High word of `√2/2`'s bit pattern: mantissas at or above it reduce into
/// `[√2/2, 1)` with the exponent raised by one.
const SQRT_HALF_HI: u64 = 0x3FE6_A09E;
/// `2⁵²`: OR-ing an integer `e < 2⁵²` into its mantissa gives the double
/// `2⁵² + e` exactly.
const TWO_POW_52: f64 = f64::from_bits(0x4330_0000_0000_0000);

/// Natural logarithm of `x` for `x ∈ [f64::MIN_POSITIVE, 1]`.
///
/// Callers clamp into that domain first (every transform takes
/// `max(f64::MIN_POSITIVE)`); zero, subnormal, negative, infinite and NaN
/// arguments return garbage rather than `f64::ln`'s special values. Any
/// positive normal argument is in fact handled, but only `[MIN_POSITIVE, 1]`
/// is tested.
#[inline(always)]
pub(crate) fn ln(x: f64) -> f64 {
    // Shift the mantissa's reduction boundary √2/2 onto the exponent
    // boundary, so the biased exponent of `bits` is `k + 1023`...
    let bits = x.to_bits() + ((0x3FF0_0000 - SQRT_HALF_HI) << 32);
    let biased_k = bits >> 52;
    // ...then rebuild the mantissa over √2/2's exponent: `m ∈ [√2/2, √2)`.
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) + (SQRT_HALF_HI << 32));
    // `k` as a double without an int-to-float conversion, so vectorising
    // does not rest on the compiler narrowing a 64-bit one (which has no
    // vector form before AVX-512DQ): `2⁵² + (k + 1023)` minus `2⁵² + 1023`,
    // the same bits as `k as f64`.
    let k = f64::from_bits(TWO_POW_52.to_bits() | biased_k) - (TWO_POW_52 + 1023.0);

    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

#[cfg(test)]
mod tests {
    use super::{ln, SQRT_HALF_HI};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    /// Distance in ULPs between two finite doubles of the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    #[test]
    fn within_one_ulp_of_std_over_a_million_seeded_points() {
        let mut rng = ChaCha12Rng::seed_from_u64(0x10C);
        let n = 500_000;
        // The transforms' own arguments: multiples of 2⁻⁵³ in (0, 1].
        let grid: Vec<f64> = (0..n)
            .map(|_| (rng.gen::<u64>() >> 11).max(1) as f64 * (1.0 / (1u64 << 53) as f64))
            .collect();
        // A random exponent over the whole domain.
        let binades: Vec<f64> = (0..n)
            .map(|_| {
                let exponent = rng.gen_range(1..=1023u64);
                f64::from_bits(exponent << 52 | rng.gen::<u64>() >> 12).min(1.0)
            })
            .collect();
        for (name, points) in [("uniform grid", grid), ("random binade", binades)] {
            let mut differ = 0;
            for &x in &points {
                let (got, want) = (ln(x), x.ln());
                assert!(ulps(got, want) <= 1, "ln({x:e}) = {got:e}, std {want:e}");
                differ += usize::from(got != want);
            }
            println!(
                "ln, {name}: {differ} of {n} points ({:.2}%) differ from f64::ln by 1 ULP",
                100.0 * differ as f64 / n as f64
            );
        }
    }

    #[test]
    fn exact_on_the_domain_edges() {
        let unit = 1.0 / (1u64 << 53) as f64;
        let grid_ends = (1..=64u64).chain((1u64 << 53) - 64..=1u64 << 53);
        let powers = (0..=1022).map(|e| f64::from_bits((1023 - e) << 52));
        // The reduction switches binade where the high word reaches
        // `SQRT_HALF_HI` (0.70710659…, just below √2/2): ±4 ULPs around it
        // in the top, a middle and the bottom binade.
        let boundary = [0, 500, 1021]
            .into_iter()
            .map(|down: u64| (SQRT_HALF_HI << 32) - (down << 52))
            .flat_map(|at| (at - 4..=at + 4).map(f64::from_bits));
        for x in grid_ends.map(|m| m as f64 * unit).chain(powers).chain(boundary) {
            assert_eq!(ln(x).to_bits(), x.ln().to_bits(), "ln({x:e})");
        }
        assert_eq!(ln(f64::MIN_POSITIVE), f64::MIN_POSITIVE.ln());
        assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn non_decreasing_over_a_sorted_sweep() {
        let mut rng = ChaCha12Rng::seed_from_u64(0x5EE9);
        let mut xs: Vec<f64> = (0..200_000)
            .map(|_| {
                let exponent = rng.gen_range(1..=1023u64);
                f64::from_bits(exponent << 52 | rng.gen::<u64>() >> 12).min(1.0)
            })
            .collect();
        // Runs of adjacent doubles, where a 1-ULP error could step backwards.
        for start in [f64::MIN_POSITIVE, 2f64.powi(-53), std::f64::consts::FRAC_1_SQRT_2, 0.75] {
            xs.extend((0..2_000).map(|i| f64::from_bits(start.to_bits() + i)));
        }
        xs.extend((0..2_000).map(|i| f64::from_bits(1f64.to_bits() - i)));
        xs.sort_by(f64::total_cmp);
        for pair in xs.windows(2) {
            assert!(ln(pair[0]) <= ln(pair[1]), "ln({:e}) > ln({:e})", pair[0], pair[1]);
        }
    }
}
