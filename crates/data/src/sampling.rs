//! Simulated opt-in/opt-out policies for histogram benchmarks.
//!
//! The DPBench datasets have no notion of sensitivity, so the paper simulates
//! opt-in/opt-out policies by sampling a non-sensitive sub-histogram `x_ns`
//! from the full histogram `x` (Section 6.1.2):
//!
//! * **MSampling** — the *Close* policy: the empirical distribution of `x_ns`
//!   stays close to that of `x` (an individual's privacy preference has low
//!   correlation with their value). Parameter `θ` bounds the per-bin
//!   deviation of the sampling rate.
//! * **HiLoSampling** — the *Far* policy: the domain is split into a "High"
//!   region (a random window of width `2·β·d` around a random centre bin) and
//!   a "Low" region; High bins are sampled with weight `γ > 1`, so the
//!   empirical distribution of `x_ns` is skewed away from `x` (privacy
//!   preference strongly correlated with value).
//!
//! Both samplers maintain the invariant `x_ns[i] ≤ x[i]` bin-wise — the
//! non-sensitive records are a *subset* of the records — which is what the
//! one-sided-noise mechanisms rely on.

use osdp_core::error::{validate_fraction, OsdpError, Result};
use osdp_core::{ColumnarFrame, Histogram};
use rand::Rng;

/// Which sampling procedure generated a non-sensitive sub-histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// `MSampling`: the non-sensitive distribution is close to the full one.
    Close,
    /// `HiLoSampling`: the non-sensitive distribution is far from the full one.
    Far,
}

impl PolicyKind {
    /// Display name used in experiment reports ("Close" / "Far").
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Close => "Close",
            PolicyKind::Far => "Far",
        }
    }
}

/// A simulated policy: the non-sensitive sub-histogram plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledPolicy {
    /// Which sampler produced this policy.
    pub kind: PolicyKind,
    /// The target non-sensitive ratio ρx.
    pub rho: f64,
    /// The non-sensitive sub-histogram `x_ns` (bin-wise ≤ the full histogram).
    pub non_sensitive: Histogram,
}

impl SampledPolicy {
    /// The achieved non-sensitive ratio `‖x_ns‖₁ / ‖x‖₁` given the full
    /// histogram.
    pub fn achieved_ratio(&self, full: &Histogram) -> f64 {
        let total = full.total();
        if total > 0.0 {
            self.non_sensitive.total() / total
        } else {
            0.0
        }
    }

    /// Expands the `(x, x_ns)` pair into a weighted columnar frame
    /// ([`ColumnarFrame::from_histogram_pair`]): the form the engine's
    /// columnar backend scans directly, so sampled policies ride the same
    /// vectorized pipeline as record-level databases. Fails when `x_ns` is
    /// not a sub-histogram of `full`.
    pub fn to_frame(&self, full: &Histogram) -> Result<ColumnarFrame> {
        ColumnarFrame::from_histogram_pair(full, &self.non_sensitive)
    }
}

/// Default `θ` used by the paper for MSampling.
pub const DEFAULT_THETA: f64 = 0.1;
/// Default `γ` used by the paper for HiLoSampling.
pub const DEFAULT_GAMMA: f64 = 5.0;
/// Default `β` used by the paper for HiLoSampling.
pub const DEFAULT_BETA: f64 = 0.4;

/// MSampling: draws a non-sensitive sub-histogram whose shape tracks the full
/// histogram (the *Close* policy).
///
/// Every bin keeps records at a rate of `ρx` up to a `±θ` multiplicative
/// jitter; the result is then adjusted so the total equals `round(ρx·‖x‖₁)`
/// exactly, without ever exceeding a bin's true count.
pub fn m_sampling<R: Rng + ?Sized>(
    full: &Histogram,
    rho: f64,
    theta: f64,
    rng: &mut R,
) -> Result<SampledPolicy> {
    validate_fraction("rho", rho)?;
    if !(0.0..1.0).contains(&theta) {
        return Err(OsdpError::InvalidFraction { name: "theta", value: theta });
    }
    let weights: Vec<f64> = full
        .counts()
        .iter()
        .map(|&c| {
            let jitter = 1.0 + theta * (2.0 * rng.gen::<f64>() - 1.0);
            c * jitter.max(0.0)
        })
        .collect();
    let target = (rho * full.total()).round();
    let ns = allocate_with_caps(full, &weights, target)?;
    Ok(SampledPolicy { kind: PolicyKind::Close, rho, non_sensitive: ns })
}

/// HiLoSampling: draws a non-sensitive sub-histogram that is deliberately
/// dissimilar from the full histogram (the *Far* policy).
///
/// A random window of half-width `β·d` around a random centre bin forms the
/// "High" region whose bins are preferentially sampled with weight `γ`.
pub fn hilo_sampling<R: Rng + ?Sized>(
    full: &Histogram,
    rho: f64,
    gamma: f64,
    beta: f64,
    rng: &mut R,
) -> Result<SampledPolicy> {
    validate_fraction("rho", rho)?;
    if gamma <= 1.0 || !gamma.is_finite() {
        return Err(OsdpError::InvalidInput(format!("gamma must be > 1, got {gamma}")));
    }
    if !(0.0..1.0).contains(&beta) || beta <= 0.0 {
        return Err(OsdpError::InvalidFraction { name: "beta", value: beta });
    }
    let d = full.len();
    if d == 0 {
        return Err(OsdpError::InvalidInput("empty histogram".into()));
    }
    let center = rng.gen_range(0..d);
    let half_width = ((beta * d as f64).round() as usize).max(1);
    let lo = center.saturating_sub(half_width);
    let hi = (center + half_width).min(d - 1);

    let weights: Vec<f64> = full
        .counts()
        .iter()
        .enumerate()
        .map(|(i, &c)| if i >= lo && i <= hi { c * gamma } else { c })
        .collect();
    let target = (rho * full.total()).round();
    let ns = allocate_with_caps(full, &weights, target)?;
    Ok(SampledPolicy { kind: PolicyKind::Far, rho, non_sensitive: ns })
}

/// Convenience dispatcher used by the experiment harness.
pub fn sample_policy<R: Rng + ?Sized>(
    kind: PolicyKind,
    full: &Histogram,
    rho: f64,
    rng: &mut R,
) -> Result<SampledPolicy> {
    match kind {
        PolicyKind::Close => m_sampling(full, rho, DEFAULT_THETA, rng),
        PolicyKind::Far => hilo_sampling(full, rho, DEFAULT_GAMMA, DEFAULT_BETA, rng),
    }
}

/// Allocates `target` records across bins proportionally to `weights`, never
/// exceeding the bin's true count, and returning integer counts that sum to
/// `min(target, ‖x‖₁)` exactly.
fn allocate_with_caps(full: &Histogram, weights: &[f64], target: f64) -> Result<Histogram> {
    if weights.len() != full.len() {
        return Err(OsdpError::DimensionMismatch { expected: full.len(), actual: weights.len() });
    }
    let caps = full.counts();
    let total_cap: f64 = caps.iter().sum();
    let mut remaining = target.min(total_cap).max(0.0);

    let mut alloc = vec![0.0f64; caps.len()];
    // Iterative proportional filling with caps: distribute the remaining mass
    // proportionally to the weights of unsaturated bins, clamp, repeat. A few
    // rounds converge because every round either exhausts the mass or
    // saturates at least one bin.
    for _ in 0..64 {
        if remaining <= 0.5 {
            break;
        }
        let open_weight: f64 = weights
            .iter()
            .zip(alloc.iter().zip(caps.iter()))
            .filter(|(_, (a, c))| **a < **c)
            .map(|(w, _)| w.max(0.0))
            .sum();
        if open_weight <= 0.0 {
            break;
        }
        let mut distributed = 0.0;
        for i in 0..caps.len() {
            if alloc[i] >= caps[i] || weights[i] <= 0.0 {
                continue;
            }
            let share = remaining * weights[i] / open_weight;
            let add = share.min(caps[i] - alloc[i]);
            alloc[i] += add;
            distributed += add;
        }
        remaining -= distributed;
        if distributed <= 0.0 {
            break;
        }
    }

    // Round down to integers, then hand the lost mass back greedily to the
    // bins with the largest fractional parts that still have headroom.
    let mut result: Vec<f64> = alloc.iter().map(|a| a.floor()).collect();
    let mut lost = (alloc.iter().sum::<f64>() - result.iter().sum::<f64>()).round() as i64;
    let mut by_fraction: Vec<(usize, f64)> =
        alloc.iter().enumerate().map(|(i, a)| (i, a - a.floor())).collect();
    by_fraction.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut cursor = 0usize;
    while lost > 0 && cursor < 10 * by_fraction.len().max(1) {
        let (i, _) = by_fraction[cursor % by_fraction.len()];
        if result[i] + 1.0 <= caps[i] {
            result[i] += 1.0;
            lost -= 1;
        }
        cursor += 1;
    }

    Ok(Histogram::from_counts(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpbench::BenchmarkDataset;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(99)
    }

    fn test_histogram() -> Histogram {
        let mut r = rng();
        BenchmarkDataset::Medcost.generate(&mut r)
    }

    #[test]
    fn policy_kind_names() {
        assert_eq!(PolicyKind::Close.name(), "Close");
        assert_eq!(PolicyKind::Far.name(), "Far");
    }

    #[test]
    fn to_frame_expands_the_sampled_pair() {
        let full = test_histogram();
        let policy = sample_policy(PolicyKind::Close, &full, 0.75, &mut rng()).unwrap();
        let frame = policy.to_frame(&full).unwrap();
        assert_eq!(frame.total_weight(), full.total());
        // The pair is not expandable against a mismatched full histogram.
        assert!(policy.to_frame(&Histogram::zeros(full.len())).is_err());
    }

    #[test]
    fn m_sampling_respects_caps_and_ratio() {
        let x = test_histogram();
        let mut r = rng();
        for rho in [0.99, 0.75, 0.5, 0.25, 0.1, 0.01] {
            let policy = m_sampling(&x, rho, DEFAULT_THETA, &mut r).unwrap();
            assert_eq!(policy.kind, PolicyKind::Close);
            assert!(policy.non_sensitive.dominated_by(&x).unwrap(), "x_ns must be a sub-histogram");
            let achieved = policy.achieved_ratio(&x);
            assert!((achieved - rho).abs() < 0.02, "rho {rho} achieved {achieved}");
            assert!(policy.non_sensitive.counts().iter().all(|c| (c.round() - c).abs() < 1e-9));
        }
    }

    #[test]
    fn m_sampling_preserves_shape() {
        let x = test_histogram();
        let mut r = rng();
        let policy = m_sampling(&x, 0.5, DEFAULT_THETA, &mut r).unwrap();
        // Close policy: the scaled-up non-sensitive histogram should be close
        // to the original in L1 (within ~2.5 * theta of the total mass).
        let rescaled = policy.non_sensitive.scale(1.0 / 0.5);
        let l1 = rescaled.l1_distance(&x).unwrap();
        assert!(l1 < 0.25 * x.total(), "Close policy too far: l1 {l1} vs total {}", x.total());
    }

    #[test]
    fn hilo_sampling_skews_the_distribution() {
        let x = test_histogram();
        let mut r = rng();
        let close = m_sampling(&x, 0.5, DEFAULT_THETA, &mut r).unwrap();
        let far = hilo_sampling(&x, 0.5, DEFAULT_GAMMA, DEFAULT_BETA, &mut r).unwrap();
        assert_eq!(far.kind, PolicyKind::Far);
        assert!(far.non_sensitive.dominated_by(&x).unwrap());
        assert!((far.achieved_ratio(&x) - 0.5).abs() < 0.02);

        // The Far sub-histogram should be farther from the (rescaled) original
        // than the Close sub-histogram is.
        let close_l1 = close.non_sensitive.scale(2.0).l1_distance(&x).unwrap();
        let far_l1 = far.non_sensitive.scale(2.0).l1_distance(&x).unwrap();
        assert!(
            far_l1 > close_l1,
            "Far policy ({far_l1}) should distort more than Close ({close_l1})"
        );
    }

    #[test]
    fn parameter_validation() {
        let x = test_histogram();
        let mut r = rng();
        assert!(m_sampling(&x, 0.0, 0.1, &mut r).is_err());
        assert!(m_sampling(&x, 1.0, 0.1, &mut r).is_err());
        assert!(m_sampling(&x, 0.5, 1.5, &mut r).is_err());
        assert!(hilo_sampling(&x, 0.5, 1.0, 0.4, &mut r).is_err());
        assert!(hilo_sampling(&x, 0.5, 5.0, 0.0, &mut r).is_err());
        assert!(hilo_sampling(&x, 0.5, 5.0, 1.0, &mut r).is_err());
        assert!(hilo_sampling(&Histogram::zeros(0), 0.5, 5.0, 0.4, &mut r).is_err());
        assert!(m_sampling(&x, 1.5, 0.1, &mut r).is_err());
    }

    #[test]
    fn sample_policy_dispatches_by_kind() {
        let x = test_histogram();
        let mut r = rng();
        let close = sample_policy(PolicyKind::Close, &x, 0.25, &mut r).unwrap();
        let far = sample_policy(PolicyKind::Far, &x, 0.25, &mut r).unwrap();
        assert_eq!(close.kind, PolicyKind::Close);
        assert_eq!(far.kind, PolicyKind::Far);
        assert!((close.achieved_ratio(&x) - 0.25).abs() < 0.02);
        assert!((far.achieved_ratio(&x) - 0.25).abs() < 0.02);
    }

    #[test]
    fn extreme_ratios_are_handled() {
        let x = test_histogram();
        let mut r = rng();
        let tiny = m_sampling(&x, 0.01, DEFAULT_THETA, &mut r).unwrap();
        assert!(tiny.non_sensitive.total() > 0.0);
        assert!(tiny.non_sensitive.dominated_by(&x).unwrap());
        let huge = m_sampling(&x, 0.99, DEFAULT_THETA, &mut r).unwrap();
        assert!(huge.non_sensitive.dominated_by(&x).unwrap());
        assert!((huge.achieved_ratio(&x) - 0.99).abs() < 0.02);
    }

    #[test]
    fn achieved_ratio_of_empty_histogram_is_zero() {
        let p =
            SampledPolicy { kind: PolicyKind::Close, rho: 0.5, non_sensitive: Histogram::zeros(4) };
        assert_eq!(p.achieved_ratio(&Histogram::zeros(4)), 0.0);
    }
}
