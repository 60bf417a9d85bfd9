//! `OsdpRR` (Algorithm 1): truthful release of a sample of the non-sensitive
//! records.
//!
//! For every record `r` in the database, if `P(r) = 1` (non-sensitive) the
//! record is added to the output **unchanged** with probability `1 − e^{−ε}`;
//! sensitive records are never released. The resulting release satisfies
//! `(P, ε)`-OSDP (Theorem 4.1): an adversary observing that a record was *not*
//! released cannot tell (beyond a factor `e^ε`) whether it was a suppressed
//! non-sensitive record or a sensitive one.

use crate::traits::{HistogramMechanism, HistogramTask};
use osdp_core::error::{validate_epsilon, Result};
use osdp_core::policy::Policy;
use osdp_core::{Database, Guarantee, Histogram};
use osdp_noise::bernoulli::{bernoulli_keep_probability, sample_bernoulli};
use rand::Rng;

/// The randomized-response release mechanism for true records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsdpRr {
    epsilon: f64,
    keep_probability: f64,
}

impl OsdpRr {
    /// Creates the mechanism for a budget ε.
    pub fn new(epsilon: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        Ok(Self { epsilon, keep_probability: bernoulli_keep_probability(epsilon)? })
    }

    /// The privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The probability `1 − e^{−ε}` with which each non-sensitive record is
    /// released (Table 1: ≈63% at ε=1, ≈39% at ε=0.5, ≈9.5% at ε=0.1).
    pub fn keep_probability(&self) -> f64 {
        self.keep_probability
    }

    /// Releases a true sample of the non-sensitive records of `db`.
    pub fn release<R, P, G>(&self, db: &Database<R>, policy: &P, rng: &mut G) -> Database<R>
    where
        R: Clone,
        P: Policy<R> + ?Sized,
        G: Rng + ?Sized,
    {
        let mut out =
            Database::with_capacity((db.len() as f64 * self.keep_probability) as usize + 1);
        for record in db.iter() {
            if policy.is_non_sensitive(record)
                && sample_bernoulli(self.keep_probability, rng).expect("validated probability")
            {
                out.push(record.clone());
            }
        }
        out
    }

    /// Applies the record-level mechanism to a histogram of non-sensitive
    /// counts, writing into `out` (resized and fully overwritten): each of
    /// the `x_ns[i]` records survives independently with the keep
    /// probability (binomial thinning). This is exactly what running
    /// Algorithm 1 and then computing the histogram on its output would do.
    pub fn thin_histogram_into<G: Rng + ?Sized>(
        &self,
        non_sensitive: &Histogram,
        rng: &mut G,
        out: &mut Histogram,
    ) {
        out.reset_zeroed(non_sensitive.len());
        let counts = out.counts_mut();
        for (slot, &count) in counts.iter_mut().zip(non_sensitive.counts()) {
            let n = count.round().max(0.0) as u64;
            *slot = sample_binomial(n, self.keep_probability, rng) as f64;
        }
    }
}

/// `OsdpRR` packaged as a histogram mechanism.
///
/// The estimate is the histogram of the released sample; when `rescale` is
/// enabled the counts are divided by the keep probability `1 − e^{−ε}`
/// (inverse-propensity post-processing, which does not affect the privacy
/// guarantee). The paper's error analysis (Theorem 5.1) considers the
/// unrescaled variant, so that is the default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsdpRrHistogram {
    inner: OsdpRr,
    rescale: bool,
}

impl OsdpRrHistogram {
    /// Creates the histogram wrapper (no rescaling, as analysed in the paper).
    pub fn new(epsilon: f64) -> Result<Self> {
        Ok(Self { inner: OsdpRr::new(epsilon)?, rescale: false })
    }

    /// Enables inverse-propensity rescaling of the sampled counts.
    pub fn with_rescaling(mut self) -> Self {
        self.rescale = true;
        self
    }

    /// The underlying record-level mechanism.
    pub fn inner(&self) -> &OsdpRr {
        &self.inner
    }
}

impl HistogramMechanism for OsdpRrHistogram {
    fn name(&self) -> &str {
        if self.rescale {
            "OsdpRR (rescaled)"
        } else {
            "OsdpRR"
        }
    }

    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        self.inner.thin_histogram_into(task.non_sensitive(), rng, out);
        if self.rescale {
            let factor = 1.0 / self.inner.keep_probability();
            for count in out.counts_mut() {
                *count *= factor;
            }
        }
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Osdp { eps: self.inner.epsilon() }
    }
}

/// Samples `Binomial(n, p)`: exactly (CDF inversion) in the small / low
/// variance regime, via a normal approximation for large `n` (the counts in
/// the benchmark histograms go up to tens of millions, where exact sampling
/// is unnecessary).
///
/// The exact branch used to simulate all `n` Bernoulli trials — one uniform
/// draw per trial, so a 1024-count bin cost 1024 RNG draws (and a
/// huge-`n`/tiny-`p` bin cost `n` of them). Inversion draws **one** uniform
/// and walks the CDF through the pmf recurrence
/// `P[k] = P[k−1] · (n−k+1)/k · p/(1−p)`, which terminates after about
/// `n·p + O(√(n·p))` cheap floating-point steps while still sampling the
/// exact binomial law.
pub(crate) fn sample_binomial<G: Rng + ?Sized>(n: u64, p: f64, rng: &mut G) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let variance = n as f64 * p * (1.0 - p);
    if n <= 1024 || variance < 25.0 {
        sample_binomial_inversion(n, p, rng)
    } else {
        // Box–Muller normal approximation with continuity clamping.
        let mean = n as f64 * p;
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sample = mean + variance.sqrt() * z;
        sample.round().clamp(0.0, n as f64) as u64
    }
}

/// Tests `sample_binomial(n, p, rng) == 0` while consuming the RNG exactly
/// as the sampler would — the zero-detection fast path of `DAWAz`'s recipe,
/// which only needs the flag, never the count.
///
/// On the non-mirrored exact branch the full CDF walk is unnecessary: the
/// sampled count is zero iff the single uniform lands below the starting
/// mass `(1 − p)^n` (the walk's very first comparison), computed by the
/// bit-identical expression the sampler uses. The mirrored and
/// normal-approximation branches fall back to the sampler itself, so the
/// returned flag is always bit-for-bit the sampler's `== 0` verdict.
pub(crate) fn sample_binomial_is_zero<G: Rng + ?Sized>(n: u64, p: f64, rng: &mut G) -> bool {
    if n == 0 || p <= 0.0 {
        return true;
    }
    if p >= 1.0 {
        return false;
    }
    let variance = n as f64 * p * (1.0 - p);
    if (n <= 1024 || variance < 25.0) && p <= 0.5 {
        let pmf0 = (n as f64 * (1.0 - p).ln()).exp();
        let u: f64 = rng.gen::<f64>();
        u < pmf0
    } else {
        sample_binomial(n, p, rng) == 0
    }
}

/// Exact binomial sampling by CDF inversion (the BINV algorithm).
///
/// The success probability is mirrored to `min(p, 1 − p)` (sampling
/// `n − Binomial(n, 1 − p)` when `p > 1/2`), which keeps the starting mass
/// `(1 − p)^n` away from zero: with `1 − p ≥ 1/2` and `n ≤ 1024` it is at
/// least `2⁻¹⁰²⁴` (subnormal but nonzero), and on the low-variance branch
/// `n·p ≲ 50` keeps it no smaller than `≈ e⁻⁵⁰`. The walk is capped at `n`,
/// so floating-point rounding in the CDF accumulation can never loop forever
/// or return an out-of-range count.
fn sample_binomial_inversion<G: Rng + ?Sized>(n: u64, p: f64, rng: &mut G) -> u64 {
    debug_assert!(n > 0 && p > 0.0 && p < 1.0);
    let mirrored = p > 0.5;
    let ps = if mirrored { 1.0 - p } else { p };
    let q = 1.0 - ps;
    let ratio = ps / q;
    let mut pmf = (n as f64 * q.ln()).exp();
    let u: f64 = rng.gen::<f64>();
    let mut cdf = pmf;
    let mut k = 0u64;
    while u >= cdf && k < n {
        k += 1;
        pmf *= ratio * (n - k + 1) as f64 / k as f64;
        cdf += pmf;
    }
    if mirrored {
        n - k
    } else {
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::task_from_counts;
    use osdp_core::policy::{AllSensitive, ClosurePolicy, NoneSensitive};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(2)
    }

    #[test]
    fn construction_and_keep_probability_table_1() {
        assert!(OsdpRr::new(0.0).is_err());
        assert!(OsdpRr::new(-1.0).is_err());
        let m = OsdpRr::new(1.0).unwrap();
        assert_eq!(m.epsilon(), 1.0);
        assert!((m.keep_probability() - 0.632).abs() < 0.001);
        assert!((OsdpRr::new(0.5).unwrap().keep_probability() - 0.393).abs() < 0.001);
        assert!((OsdpRr::new(0.1).unwrap().keep_probability() - 0.095).abs() < 0.001);
    }

    #[test]
    fn sensitive_records_are_never_released() {
        let db: Database<u32> = (0..1000u32).collect();
        let policy = ClosurePolicy::new("odd-sensitive", |&v: &u32| v % 2 == 1);
        let m = OsdpRr::new(1.0).unwrap();
        let mut r = rng();
        let sample = m.release(&db, &policy, &mut r);
        assert!(sample.iter().all(|v| v % 2 == 0), "only non-sensitive records may appear");
        assert!(!sample.is_empty());
        // All released values are true values from the database.
        assert!(sample.iter().all(|v| *v < 1000));
    }

    #[test]
    fn release_rate_matches_expected_fraction() {
        let db: Database<u32> = (0..20_000u32).collect();
        let mut r = rng();
        for eps in [1.0, 0.5, 0.1] {
            let m = OsdpRr::new(eps).unwrap();
            let sample = m.release(&db, &NoneSensitive, &mut r);
            let rate = sample.len() as f64 / db.len() as f64;
            assert!(
                (rate - m.keep_probability()).abs() < 0.02,
                "eps {eps}: rate {rate} vs expected {}",
                m.keep_probability()
            );
        }
    }

    #[test]
    fn all_sensitive_policy_suppresses_everything() {
        let db: Database<u32> = (0..100u32).collect();
        let m = OsdpRr::new(2.0).unwrap();
        let mut r = rng();
        assert!(m.release(&db, &AllSensitive, &mut r).is_empty());
    }

    #[test]
    fn histogram_thinning_matches_record_level_semantics() {
        let m = OsdpRr::new(1.0).unwrap();
        let mut r = rng();
        let ns = Histogram::from_counts(vec![10_000.0, 0.0, 500.0]);
        let mut thinned = Histogram::zeros(0);
        m.thin_histogram_into(&ns, &mut r, &mut thinned);
        assert_eq!(thinned.len(), 3);
        assert_eq!(thinned.get(1), 0.0, "empty bins stay empty");
        assert!(thinned.dominated_by(&ns).unwrap(), "a sample never exceeds the population");
        let rate0 = thinned.get(0) / 10_000.0;
        assert!((rate0 - m.keep_probability()).abs() < 0.03);
    }

    #[test]
    fn histogram_mechanism_uses_only_non_sensitive_counts() {
        let task = task_from_counts(&[100.0, 50.0], &[0.0, 50.0]).unwrap();
        let m = OsdpRrHistogram::new(1.0).unwrap();
        let mut r = rng();
        let est = m.release(&task, &mut r);
        assert_eq!(est.get(0), 0.0, "a fully sensitive bin yields zero");
        assert!(est.get(1) <= 50.0);
        assert_eq!(m.name(), "OsdpRR");
        assert!(matches!(m.guarantee(), Guarantee::Osdp { .. }));
        assert_eq!(m.inner().epsilon(), 1.0);
    }

    #[test]
    fn rescaled_estimates_are_approximately_unbiased() {
        let task = task_from_counts(&[20_000.0], &[20_000.0]).unwrap();
        let m = OsdpRrHistogram::new(0.5).unwrap().with_rescaling();
        assert_eq!(m.name(), "OsdpRR (rescaled)");
        let mut r = rng();
        let mut total = 0.0;
        for _ in 0..20 {
            total += m.release(&task, &mut r).get(0);
        }
        let mean = total / 20.0;
        assert!((mean - 20_000.0).abs() < 500.0, "rescaled mean {mean}");
    }

    #[test]
    fn binomial_sampler_handles_edge_cases_and_large_n() {
        let mut r = rng();
        assert_eq!(sample_binomial(0, 0.5, &mut r), 0);
        assert_eq!(sample_binomial(100, 0.0, &mut r), 0);
        assert_eq!(sample_binomial(100, 1.0, &mut r), 100);
        // Large n uses the normal approximation; the mean should be close.
        let n = 1_000_000u64;
        let p = 0.37;
        let samples: Vec<u64> = (0..50).map(|_| sample_binomial(n, p, &mut r)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / 50.0;
        assert!((mean - n as f64 * p).abs() < 0.005 * n as f64);
        assert!(samples.iter().all(|&s| s <= n));
    }

    #[test]
    fn inversion_sampler_matches_the_exact_binomial_pmf() {
        // n = 6 has only 7 outcomes: compare empirical frequencies against
        // the analytic pmf on both sides of the p = 1/2 mirror.
        let mut r = rng();
        for p in [0.3, 0.72] {
            let n = 6u64;
            let trials = 120_000;
            let mut freq = [0u64; 7];
            for _ in 0..trials {
                freq[sample_binomial(n, p, &mut r) as usize] += 1;
            }
            let choose =
                |k: u64| -> f64 { (1..=k).map(|i| (n - k + i) as f64 / i as f64).product() };
            for k in 0..=n {
                let pmf = choose(k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32);
                let observed = freq[k as usize] as f64 / trials as f64;
                assert!(
                    (observed - pmf).abs() < 0.01,
                    "p={p}, k={k}: observed {observed} vs pmf {pmf}"
                );
            }
        }
    }

    #[test]
    fn inversion_sampler_handles_huge_n_with_tiny_variance() {
        // The old Bernoulli loop ran n iterations here (10^7 draws per
        // sample); inversion walks ~n·p ≈ 10 CDF steps. Mean must match.
        let mut r = rng();
        let n = 10_000_000u64;
        let p = 1e-6;
        let trials = 2_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let s = sample_binomial(n, p, &mut r);
            assert!(s <= n);
            sum += s;
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean} should be near n·p = 10");
        // And the mirrored extreme: huge n, p near 1, tiny variance.
        let p = 1.0 - 1e-6;
        let sample = sample_binomial(n, p, &mut r);
        assert!(n - sample < 100, "mirrored sample should sit near n");
    }

    #[test]
    fn empirical_epsilon_bound_on_suppression_probabilities() {
        // Theorem 4.1, case 2.2: the probability of suppression for a
        // sensitive record (1.0) vs a non-sensitive record (e^{-eps}) differs
        // by exactly e^eps. Check the empirical suppression rate of
        // non-sensitive records against e^{-eps}.
        let m = OsdpRr::new(0.7).unwrap();
        let db: Database<u32> = (0..50_000u32).collect();
        let mut r = rng();
        let sample = m.release(&db, &NoneSensitive, &mut r);
        let suppressed_rate = 1.0 - sample.len() as f64 / db.len() as f64;
        let expected = (-0.7f64).exp();
        assert!((suppressed_rate - expected).abs() < 0.01);
        // ratio of suppression probabilities ≈ e^eps
        let ratio = 1.0 / suppressed_rate;
        assert!((ratio - 0.7f64.exp()).abs() < 0.05);
    }
}
