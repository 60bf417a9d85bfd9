//! Property-based tests (proptest) of `OsdpSession` budget accounting: the
//! session must uphold sequential composition (never over-spend a cap),
//! parallel composition (a disjoint-partition block costs the max branch,
//! Theorem 10.2), and hard refusal after exhaustion.

use osdp::prelude::*;
use proptest::prelude::*;

fn capped_session(limit: f64) -> OsdpSession {
    histogram_session(
        Histogram::from_counts(vec![50.0, 30.0, 20.0, 0.0]),
        Histogram::from_counts(vec![40.0, 10.0, 20.0, 0.0]),
    )
    .policy_label("P-test")
    .budget(limit)
    .seed(99)
    .build()
    .expect("valid capped session")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_composition_never_over_spends(
        epsilons in prop::collection::vec(0.01f64..0.6, 1..12),
        limit in 0.5f64..2.0,
    ) {
        let session = capped_session(limit);
        let mut accepted = 0.0;
        let mut accepted_count = 0usize;
        for &eps in &epsilons {
            let mechanism = OsdpLaplaceL1::new(eps).unwrap();
            if session.release(&SessionQuery::bound(), &mechanism).is_ok() {
                accepted += eps;
                accepted_count += 1;
            }
        }
        // The cap is never exceeded, the accountant agrees with what was
        // accepted, and the audit log has exactly one record per grant.
        prop_assert!(session.total_spent() <= limit + 1e-9);
        prop_assert!((session.total_spent() - accepted).abs() < 1e-9);
        prop_assert_eq!(session.audit_records().len(), accepted_count);
        let verdict = session.verify_policy_lifecycle(Some(limit));
        prop_assert!(verdict.upholds_osdp());
    }

    #[test]
    fn batched_trials_never_over_spend(
        eps in 0.01f64..0.4,
        trials in 1usize..12,
        limit in 0.5f64..2.0,
    ) {
        let session = capped_session(limit);
        let mechanism = OsdpLaplace::new(eps).unwrap();
        let batch_cost = eps * trials as f64;
        let granted = session
            .release_trials(&SessionQuery::bound(), &mechanism, trials)
            .is_ok();
        // All-or-nothing: either the whole batch fit, or nothing was spent.
        if granted {
            prop_assert!((session.total_spent() - batch_cost).abs() < 1e-9);
            prop_assert!(batch_cost <= limit + 1e-9);
        } else {
            prop_assert_eq!(session.total_spent(), 0.0);
            prop_assert!(batch_cost > limit - 1e-9);
        }
    }

    #[test]
    fn parallel_composition_costs_the_max_branch(
        branches in prop::collection::vec(0.01f64..1.5, 1..8),
    ) {
        // Theorem 10.2: mechanisms over disjoint partitions compose with
        // max(eps_i), not the sum. The session's accountant implements the
        // parallel block; its cost must equal the worst branch exactly.
        let session = histogram_session(
            Histogram::from_counts(vec![10.0, 20.0]),
            Histogram::from_counts(vec![10.0, 0.0]),
        )
        .seed(1)
        .build()
        .unwrap();
        let parts: Vec<(String, f64)> = branches
            .iter()
            .enumerate()
            .map(|(i, &eps)| (format!("partition-{i}"), eps))
            .collect();
        let part_refs: Vec<(&str, &str, f64)> =
            parts.iter().map(|(label, eps)| (label.as_str(), "P-part", *eps)).collect();
        session
            .accountant()
            .spend_parallel("per-partition release", PrivacyGuarantee::ExtendedOneSided, &part_refs)
            .unwrap();
        let max_branch = branches.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!((session.total_spent() - max_branch).abs() < 1e-12);
    }

    #[test]
    fn releases_after_exhaustion_always_error(
        limit in 0.2f64..1.0,
        follow_ups in prop::collection::vec(0.01f64..2.0, 1..6),
    ) {
        // Exhaust the session exactly, then no follow-up of any size may pass.
        let session = capped_session(limit);
        let exhaust = OsdpLaplaceL1::new(limit).unwrap();
        session.release(&SessionQuery::bound(), &exhaust).unwrap();
        prop_assert!(session.remaining_budget().unwrap() < 1e-9);
        for &eps in &follow_ups {
            let mechanism = OsdpLaplaceL1::new(eps).unwrap();
            let err = session.release(&SessionQuery::bound(), &mechanism);
            prop_assert!(matches!(err, Err(OsdpError::BudgetExhausted { .. })));
            let batch = session.release_trials(&SessionQuery::bound(), &mechanism, 3);
            prop_assert!(matches!(batch, Err(OsdpError::BudgetExhausted { .. })));
            let records = SessionBuilder::new((0..10u32).collect::<Database<u32>>())
                .policy(NoneSensitive, "Pnone")
                .budget(limit)
                .build()
                .unwrap();
            // Record sessions behave identically once drained.
            records.accountant().spend("drain", "Pnone", limit, PrivacyGuarantee::OneSided).unwrap();
            prop_assert!(records
                .release_records(&OsdpRr::new(eps).unwrap())
                .is_err());
        }
        // The audit log still only contains the one granted release.
        prop_assert_eq!(session.audit_records().len(), 1);
    }
}
