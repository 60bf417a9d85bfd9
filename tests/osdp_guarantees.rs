//! Integration tests of the privacy guarantees themselves, spanning
//! `osdp-core`, `osdp-mechanisms`, `osdp-noise` and `osdp-attack`.

use osdp::attack::{
    exclusion_attack_phi, verify_osdp_on_singletons, OsdpRrModel, SuppressModel, TruthfulModel,
};
use osdp::core::neighbors::{is_one_sided_neighbor, one_sided_neighbors};
use osdp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

fn value_policy() -> ClosurePolicy<u32> {
    ClosurePolicy::new("upper-half-sensitive", |&v: &u32| v >= 4)
}

/// Exact output probabilities of OsdpRR on a small database, computed
/// analytically (per-record independence).
fn osdp_rr_output_probability(db: &[u32], released: &[Option<u32>], epsilon: f64) -> f64 {
    let policy = value_policy();
    let keep = 1.0 - (-epsilon).exp();
    db.iter()
        .zip(released)
        .map(|(&value, release)| match release {
            Some(out) => {
                if policy.is_non_sensitive(&value) && *out == value {
                    keep
                } else {
                    0.0
                }
            }
            None => {
                if policy.is_non_sensitive(&value) {
                    1.0 - keep
                } else {
                    1.0
                }
            }
        })
        .product()
}

#[test]
fn osdp_rr_satisfies_the_definition_over_enumerated_neighbors() {
    // Definition 3.3, checked by brute force on databases of size 3 over the
    // domain {0..8}: for every one-sided neighbor and every output, the
    // probability ratio is bounded by e^eps.
    let epsilon = 0.8;
    let policy = value_policy();
    let universe: Vec<u32> = (0..8).collect();
    let db: Database<u32> = vec![1u32, 6, 3].into_iter().collect();

    // Enumerate all outputs: each position is either suppressed or released
    // with its own value.
    let outputs: Vec<Vec<Option<u32>>> = (0..(1 << db.len()))
        .map(|mask| {
            (0..db.len())
                .map(|i| if mask & (1 << i) != 0 { Some(*db.get(i).unwrap()) } else { None })
                .collect()
        })
        .collect();

    let neighbors = one_sided_neighbors(&db, &universe, &policy);
    assert!(!neighbors.is_empty());
    for neighbor in &neighbors {
        assert!(is_one_sided_neighbor(&db, neighbor, &policy));
        for output in &outputs {
            // The output must name the *original* values where released; for
            // the neighbor the released value constraint applies to its own
            // records, so recompute with the neighbor's records.
            let p_db = osdp_rr_output_probability(db.records(), output, epsilon);
            let p_neighbor = osdp_rr_output_probability(neighbor.records(), output, epsilon);
            if p_db > 0.0 {
                assert!(
                    p_db <= epsilon.exp() * p_neighbor + 1e-12,
                    "ratio violated: {p_db} vs {p_neighbor} for output {output:?}"
                );
            }
        }
    }
}

#[test]
fn one_sided_laplace_density_ratio_proves_theorem_5_2() {
    // The core inequality of Theorem 5.2: for neighboring non-sensitive
    // histograms (x_ns dominated by x'_ns, L1 distance <= 1) the density
    // ratio of the one-sided mechanism is bounded by e^eps.
    let epsilon = 0.5;
    let noise = OneSidedLaplace::for_epsilon(epsilon).unwrap();
    let x = 10.0; // a non-sensitive count
    let x_prime = 11.0; // the same count in a one-sided neighbor
    for y in [0.0, 3.0, 9.99, 5.0] {
        let p = noise.pdf(y - x);
        let p_prime = noise.pdf(y - x_prime);
        if p > 0.0 {
            assert!(p <= epsilon.exp() * p_prime + 1e-12);
        }
    }
    // Outputs only possible under the neighbor (case 1 of the proof) are fine:
    // the inequality is on Pr[M(D)], which is 0 there.
    assert_eq!(noise.pdf(10.5 - x), 0.0);
}

#[test]
fn composition_of_osdp_mechanisms_is_tracked_with_minimum_relaxation() {
    let minors = || AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(99) <= 17);
    let optout = || AttributePolicy::opt_in("opt_in");
    let db: Database = (0..40i64)
        .map(|i| Record::builder().field("age", 5 + i).field("opt_in", i % 3 == 0).build())
        .collect();
    // Dyadic epsilons: exact at the accountant's fixed-point resolution, so
    // they cover the cap exactly even under ceiling rounding.
    let session =
        SessionBuilder::new(db).policy(minors(), "P_minors").budget(1.0).seed(5).build().unwrap();
    session.release_records(&OsdpRr::new(0.375).unwrap()).unwrap();
    let by_age = SessionQuery::count_by_int_linear("age-decades", "age", 0, 10, 5);
    session
        .release_with_policy(
            &by_age,
            &OsdpLaplaceL1::new(0.625).unwrap(),
            Arc::new(optout()),
            "P_optout",
        )
        .unwrap();
    let (eps, policies) = session.composed_guarantee();
    assert!((eps - 1.0).abs() < 1e-12);
    assert_eq!(policies, vec!["P_minors".to_string(), "P_optout".to_string()]);
    assert!(session.release(&by_age, &OsdpLaplaceL1::new(0.2).unwrap()).is_err());

    // The actual minimum-relaxation policy object behaves as Definition 3.6
    // dictates.
    let pmr = MinimumRelaxation::of_two(minors(), optout());
    let both = Record::builder().field("age", 10i64).field("opt_in", false).build();
    let only_minor = Record::builder().field("age", 10i64).field("opt_in", true).build();
    assert!(pmr.is_sensitive(&both));
    assert!(pmr.is_non_sensitive(&only_minor));
}

#[test]
fn exclusion_attack_ordering_matches_the_paper() {
    // phi(OsdpRR at eps) = eps << phi(Suppress tau) = tau << phi(truthful) = inf.
    let policy = value_policy();
    let eps = 1.0;
    let phi_rr = exclusion_attack_phi(&OsdpRrModel { epsilon: eps }, &policy, 8);
    let phi_suppress = exclusion_attack_phi(&SuppressModel { tau: 10.0 }, &policy, 8);
    let phi_truthful = exclusion_attack_phi(&TruthfulModel, &policy, 8);
    assert!(phi_rr < phi_suppress);
    assert!(phi_suppress.is_finite());
    assert!(phi_truthful.is_infinite());

    // And the OSDP checker agrees with the nominal budgets.
    assert!(verify_osdp_on_singletons(&OsdpRrModel { epsilon: eps }, &policy, 8).satisfies(eps));
    assert!(!verify_osdp_on_singletons(&SuppressModel { tau: 10.0 }, &policy, 8).satisfies(eps));
}

#[test]
fn dp_mechanisms_ignore_the_policy_split_and_osdp_mechanisms_use_it() {
    let mut rng = ChaCha12Rng::seed_from_u64(5);
    let full = Histogram::from_counts(vec![40.0, 10.0, 0.0, 25.0]);
    let derive = |non_sensitive: Histogram| {
        histogram_session(full.clone(), non_sensitive)
            .build()
            .unwrap()
            .derive_task(&SessionQuery::bound())
            .unwrap()
    };
    let all_ns = derive(full.clone());
    let all_sens = derive(Histogram::zeros(full.len()));

    // Identical seeds: the DP Laplace release must not change with the policy.
    let dp = DpLaplaceHistogram::new(1.0).unwrap();
    let a = dp.release(&all_ns, &mut ChaCha12Rng::seed_from_u64(9));
    let b = dp.release(&all_sens, &mut ChaCha12Rng::seed_from_u64(9));
    assert_eq!(a, b);

    // The one-sided mechanism collapses to zero when everything is sensitive.
    let osdp = OsdpLaplaceL1::new(1.0).unwrap();
    let est = osdp.release(&all_sens, &mut rng);
    assert_eq!(est.counts(), &[0.0, 0.0, 0.0, 0.0]);
}
