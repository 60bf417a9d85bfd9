//! Per-record release models with exactly computable output distributions.
//!
//! The exclusion-attack analysis needs, for every possible value `v` of the
//! target record, the full probability distribution of what the mechanism
//! reveals about that record. Working per record is sufficient for the
//! mechanisms studied here because they treat records independently (the
//! proof of Theorem 4.1 uses exactly this factorisation), and it keeps the
//! output spaces finite so posteriors can be computed in closed form.

use osdp_core::policy::Policy;

/// An observable outcome concerning the target record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// The record was published truthfully with this value.
    Released(u32),
    /// Nothing about the record appears in the release.
    Suppressed,
    /// A noisy statistic about the record took this integer value
    /// (used by the count-based models).
    NoisyCount(i64),
}

/// A per-record release model: the distribution of [`Outcome`]s given the
/// record's true value.
pub trait ReleaseModel: Send + Sync {
    /// Display name of the mechanism.
    fn name(&self) -> &str;

    /// The output distribution for a record with value `value`; probabilities
    /// must sum to (approximately) one.
    fn output_distribution(&self, value: u32, policy: &dyn Policy<u32>) -> Vec<(Outcome, f64)>;
}

/// `OsdpRR` (Algorithm 1) applied to the target record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsdpRrModel {
    /// The privacy budget ε.
    pub epsilon: f64,
}

impl ReleaseModel for OsdpRrModel {
    fn name(&self) -> &str {
        "OsdpRR"
    }

    fn output_distribution(&self, value: u32, policy: &dyn Policy<u32>) -> Vec<(Outcome, f64)> {
        if policy.is_sensitive(&value) {
            vec![(Outcome::Suppressed, 1.0)]
        } else {
            let keep = 1.0 - (-self.epsilon).exp();
            vec![(Outcome::Released(value), keep), (Outcome::Suppressed, 1.0 - keep)]
        }
    }
}

/// Truthful release of every non-sensitive record — the Truman-model /
/// "All NS" baseline, and the behaviour of personalized DP with `ε = ∞` for
/// non-sensitive records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TruthfulModel;

impl ReleaseModel for TruthfulModel {
    fn name(&self) -> &str {
        "All NS"
    }

    fn output_distribution(&self, value: u32, policy: &dyn Policy<u32>) -> Vec<(Outcome, f64)> {
        if policy.is_sensitive(&value) {
            vec![(Outcome::Suppressed, 1.0)]
        } else {
            vec![(Outcome::Released(value), 1.0)]
        }
    }
}

/// The PDP `Suppress` algorithm with threshold τ, modelled on the target
/// record: a sensitive record is dropped before a τ-DP noisy count of the
/// remaining (non-sensitive) records is published. The noise is the
/// two-sided geometric distribution so the output space stays discrete.
///
/// The support is truncated at `±MAX_NOISE` standard-score-equivalents; the
/// residual mass (well below 1e-9 for reasonable τ) is folded into the
/// extreme outcomes so distributions still sum to one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuppressModel {
    /// The DP budget τ the mechanism spends on the non-sensitive records.
    pub tau: f64,
}

impl SuppressModel {
    const MAX_NOISE: i64 = 60;

    fn geometric_pmf(&self, k: i64) -> f64 {
        let alpha = (-self.tau).exp();
        (1.0 - alpha) / (1.0 + alpha) * alpha.powi(k.unsigned_abs() as i32)
    }

    fn count_distribution(&self, true_count: i64) -> Vec<(Outcome, f64)> {
        // A fixed output support shared by every possible true count (0 or 1),
        // so that likelihood ratios stay finite at the boundaries; the tiny
        // truncated tail mass is renormalised away. The support shrinks for
        // large τ so that the geometric tail never underflows to an exact
        // zero (which would turn a finite likelihood ratio into infinity).
        // The largest exponent evaluated is (max_noise + 1)·τ, which must stay
        // clear of f64's underflow threshold (exp(-745) == 0).
        let max_noise = ((690.0 / self.tau).floor() as i64 - 1).clamp(2, Self::MAX_NOISE);
        let lo = -max_noise;
        let hi = max_noise + 1;
        let mut out = Vec::with_capacity((hi - lo + 1) as usize);
        let mut total = 0.0;
        for v in lo..=hi {
            let p = self.geometric_pmf(v - true_count);
            total += p;
            out.push((Outcome::NoisyCount(v), p));
        }
        for (_, p) in &mut out {
            *p /= total;
        }
        out
    }
}

impl ReleaseModel for SuppressModel {
    fn name(&self) -> &str {
        "Suppress"
    }

    fn output_distribution(&self, value: u32, policy: &dyn Policy<u32>) -> Vec<(Outcome, f64)> {
        // The mechanism reports a noisy count of the non-sensitive records it
        // kept; the target record contributes 1 when non-sensitive, 0 when
        // sensitive (it is silently dropped).
        let contribution = if policy.is_sensitive(&value) { 0 } else { 1 };
        self.count_distribution(contribution)
    }
}

/// A plain ε-DP mechanism over the target record: a noisy (two-sided
/// geometric) count of non-sensitive records, but *without* dropping the
/// sensitive ones — i.e. the count it perturbs is policy-independent. Any DP
/// mechanism is ε-free of exclusion attacks for every policy (the remark
/// after Theorem 3.1); this model is the sanity check for that claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpGeometricModel {
    /// The privacy budget ε.
    pub epsilon: f64,
}

impl ReleaseModel for DpGeometricModel {
    fn name(&self) -> &str {
        "DP geometric"
    }

    fn output_distribution(&self, value: u32, _policy: &dyn Policy<u32>) -> Vec<(Outcome, f64)> {
        // A noisy version of the record's value parity (an arbitrary
        // sensitivity-1 statistic): what matters is that neighbouring values
        // change the true statistic by at most 1.
        let statistic = i64::from(value % 2);
        SuppressModel { tau: self.epsilon }.count_distribution(statistic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdp_core::policy::ClosurePolicy;

    fn policy() -> ClosurePolicy<u32> {
        // values >= 8 are sensitive
        ClosurePolicy::new("hi-sensitive", |&v: &u32| v >= 8)
    }

    fn total_probability(dist: &[(Outcome, f64)]) -> f64 {
        dist.iter().map(|(_, p)| p).sum()
    }

    #[test]
    fn osdp_rr_distributions_match_algorithm_1() {
        let model = OsdpRrModel { epsilon: 1.0 };
        assert_eq!(model.name(), "OsdpRR");
        let p = policy();
        let sensitive = model.output_distribution(9, &p);
        assert_eq!(sensitive, vec![(Outcome::Suppressed, 1.0)]);
        let non_sensitive = model.output_distribution(3, &p);
        assert_eq!(non_sensitive.len(), 2);
        assert!((total_probability(&non_sensitive) - 1.0).abs() < 1e-12);
        let released = non_sensitive
            .iter()
            .find(|(o, _)| matches!(o, Outcome::Released(3)))
            .map(|(_, p)| *p)
            .unwrap();
        assert!((released - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn truthful_model_is_deterministic() {
        let model = TruthfulModel;
        let p = policy();
        assert_eq!(model.output_distribution(2, &p), vec![(Outcome::Released(2), 1.0)]);
        assert_eq!(model.output_distribution(9, &p), vec![(Outcome::Suppressed, 1.0)]);
        assert_eq!(model.name(), "All NS");
    }

    #[test]
    fn suppress_model_shifts_the_count_for_non_sensitive_records() {
        let model = SuppressModel { tau: 2.0 };
        let p = policy();
        let sens = model.output_distribution(9, &p);
        let nons = model.output_distribution(1, &p);
        assert!((total_probability(&sens) - 1.0).abs() < 1e-9);
        assert!((total_probability(&nons) - 1.0).abs() < 1e-9);
        // The most likely outcome is count 0 for sensitive, 1 for non-sensitive.
        let mode = |d: &[(Outcome, f64)]| {
            d.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(o, _)| *o).unwrap()
        };
        assert_eq!(mode(&sens), Outcome::NoisyCount(0));
        assert_eq!(mode(&nons), Outcome::NoisyCount(1));
        assert_eq!(model.name(), "Suppress");
    }

    #[test]
    fn dp_model_ignores_the_policy() {
        let model = DpGeometricModel { epsilon: 0.5 };
        let p = policy();
        let all_sensitive = osdp_core::policy::AllSensitive;
        let a = model.output_distribution(4, &p);
        let b = model.output_distribution(4, &all_sensitive);
        assert_eq!(a, b, "a DP mechanism's behaviour cannot depend on the policy");
        assert!((total_probability(&a) - 1.0).abs() < 1e-9);
        assert_eq!(model.name(), "DP geometric");
    }
}
