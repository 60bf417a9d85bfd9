//! Empirical verification of the OSDP definition itself.
//!
//! For mechanisms whose per-record output distribution is known exactly, the
//! OSDP inequality (Definition 3.3) can be checked by brute force on small
//! databases: enumerate every database over a small value domain, every
//! one-sided `P`-neighbor, and every output, and compare the probability
//! ratio against `e^ε`. This module implements the single-record core of
//! that check (the proof of Theorem 4.1 reduces the general case to the
//! single-record case through per-record independence) and reports the
//! tightest ε the mechanism actually satisfies.

use crate::release_models::{Outcome, ReleaseModel};
use osdp_core::policy::Policy;
use std::collections::BTreeMap;

/// The outcome of checking the OSDP inequality on singleton databases.
#[derive(Debug, Clone, PartialEq)]
pub struct OsdpCheckOutcome {
    /// The tightest ε such that the mechanism satisfies `(P, ε)`-OSDP on the
    /// enumerated domain; infinite when the inequality fails for every finite
    /// ε.
    pub tightest_epsilon: f64,
    /// The number of (neighbor pair, output) combinations examined.
    pub comparisons: usize,
}

impl OsdpCheckOutcome {
    /// Whether the mechanism satisfies `(P, ε)`-OSDP for the claimed ε (up to
    /// numerical slack).
    pub fn satisfies(&self, epsilon: f64) -> bool {
        self.tightest_epsilon <= epsilon + 1e-9
    }
}

/// Checks the OSDP inequality over all singleton databases `D = {r}` with
/// `r ∈ 0..domain`: for every sensitive `r`, every replacement `r' ≠ r` and
/// every output `o`, the ratio `Pr[M({r}) = o] / Pr[M({r'}) = o]` must be at
/// most `e^ε`.
pub fn verify_osdp_on_singletons(
    model: &dyn ReleaseModel,
    policy: &dyn Policy<u32>,
    domain: u32,
) -> OsdpCheckOutcome {
    let distributions: Vec<BTreeMap<Outcome, f64>> = (0..domain)
        .map(|v| {
            let mut map = BTreeMap::new();
            for (o, p) in model.output_distribution(v, policy) {
                *map.entry(o).or_insert(0.0) += p;
            }
            map
        })
        .collect();

    let mut worst_ratio: f64 = 1.0;
    let mut comparisons = 0usize;
    for r in 0..domain {
        // One-sided neighbors only replace *sensitive* records.
        if !policy.is_sensitive(&r) {
            continue;
        }
        for replacement in 0..domain {
            if replacement == r {
                continue;
            }
            for (outcome, &p_r) in &distributions[r as usize] {
                comparisons += 1;
                if p_r == 0.0 {
                    continue;
                }
                let p_other =
                    distributions[replacement as usize].get(outcome).copied().unwrap_or(0.0);
                if p_other == 0.0 {
                    return OsdpCheckOutcome { tightest_epsilon: f64::INFINITY, comparisons };
                }
                worst_ratio = worst_ratio.max(p_r / p_other);
            }
        }
    }
    OsdpCheckOutcome { tightest_epsilon: worst_ratio.ln(), comparisons }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release_models::{DpGeometricModel, OsdpRrModel, SuppressModel, TruthfulModel};
    use osdp_core::policy::{AllSensitive, ClosurePolicy};

    fn policy() -> ClosurePolicy<u32> {
        ClosurePolicy::new("hi-sensitive", |&v: &u32| v >= 4)
    }

    const DOMAIN: u32 = 8;

    #[test]
    fn osdp_rr_satisfies_exactly_its_epsilon() {
        for eps in [0.1, 1.0, 2.5] {
            let outcome =
                verify_osdp_on_singletons(&OsdpRrModel { epsilon: eps }, &policy(), DOMAIN);
            assert!(outcome.comparisons > 0);
            assert!(outcome.satisfies(eps), "claimed eps {eps}, got {}", outcome.tightest_epsilon);
            assert!(
                !outcome.satisfies(eps * 0.9),
                "the bound should be tight: {} vs {}",
                outcome.tightest_epsilon,
                eps * 0.9
            );
        }
    }

    #[test]
    fn osdp_rr_under_all_sensitive_policy_is_trivially_private() {
        // With every record sensitive, OsdpRR releases nothing, so every
        // neighbor has the identical output distribution: tightest eps = 0.
        let outcome =
            verify_osdp_on_singletons(&OsdpRrModel { epsilon: 1.0 }, &AllSensitive, DOMAIN);
        assert!(outcome.tightest_epsilon.abs() < 1e-12);
        assert!(outcome.satisfies(0.001));
    }

    #[test]
    fn dp_mechanism_satisfies_osdp_for_any_policy() {
        // Lemma 3.1: an eps-DP mechanism is (P, eps)-OSDP for every policy.
        let eps = 0.6;
        let model = DpGeometricModel { epsilon: eps };
        for policy in [
            ClosurePolicy::new("hi", |&v: &u32| v >= 4),
            ClosurePolicy::new("even", |&v: &u32| v % 2 == 0),
        ] {
            let outcome = verify_osdp_on_singletons(&model, &policy, DOMAIN);
            assert!(outcome.satisfies(eps), "got {}", outcome.tightest_epsilon);
        }
    }

    #[test]
    fn truthful_release_fails_osdp_for_every_finite_epsilon() {
        let outcome = verify_osdp_on_singletons(&TruthfulModel, &policy(), DOMAIN);
        assert!(outcome.tightest_epsilon.is_infinite());
        assert!(!outcome.satisfies(1e12));
    }

    #[test]
    fn suppress_fails_the_osdp_budget_it_nominally_replaces() {
        // Suppress with tau = 10 provides a finite guarantee but nowhere near
        // (P, 1)-OSDP: its tightest epsilon is tau, not 1.
        let outcome = verify_osdp_on_singletons(&SuppressModel { tau: 10.0 }, &policy(), DOMAIN);
        assert!(!outcome.satisfies(1.0));
        assert!((outcome.tightest_epsilon - 10.0).abs() < 1e-6);
    }
}
