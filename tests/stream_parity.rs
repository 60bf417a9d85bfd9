//! Oracle parity for the streaming release plane.
//!
//! The streaming plane is sugar over the one-shot machinery, not a parallel
//! implementation, and these tests pin that contract bitwise:
//!
//! * streaming `T` windows through a `StreamSession` produces
//!   **bitwise-identical** released histograms — and a ledger whose
//!   fixed-point ε total matches — to releasing the same `T` window tasks
//!   one-shot through an `OsdpSession` over the concatenated records
//!   (per-window `CountBy` queries, same seed);
//! * hierarchical range queries over `T` windows debit `O(log T)` node
//!   releases, and `verify_policy_lifecycle` passes on the merged stream audit
//!   log;
//! * the audit log's fixed-point accumulator always agrees with the
//!   accountant bit for bit.

use osdp::prelude::*;
use proptest::prelude::*;

const WINDOW_FIELD: &str = "w";
const VALUE_FIELD: &str = "v";
const BINS: usize = 6;

fn record(window: u64, value: i64) -> Record {
    Record::builder()
        .field(WINDOW_FIELD, Value::Int(window as i64))
        .field(VALUE_FIELD, Value::Int(value))
        .build()
}

fn value_bin(r: &Record) -> Option<usize> {
    r.int(VALUE_FIELD).ok().map(|v| (v.max(0) as usize).min(BINS - 1))
}

/// The stream under test: policy "values ≤ 2 are non-sensitive", seeded.
fn stream_session(seed: u64, budget: StreamBudget) -> StreamSession<Record> {
    StreamSession::builder("q", BINS, value_bin)
        .policy(AttributePolicy::int_at_most(VALUE_FIELD, 2), "low")
        .seed(seed)
        .stream_budget(budget)
        .build()
        .expect("valid stream session")
}

/// The one-shot oracle: a plain session over the concatenated records,
/// releasing each window as its own `CountBy` query (bin = value bin when
/// the record belongs to the window, ignored otherwise).
fn oracle_session(seed: u64, windows: &[Vec<i64>]) -> OsdpSession<Record> {
    let db: Database<Record> = windows
        .iter()
        .enumerate()
        .flat_map(|(w, values)| values.iter().map(move |&v| record(w as u64, v)))
        .collect();
    SessionBuilder::new(db)
        .policy(AttributePolicy::int_at_most(VALUE_FIELD, 2), "low")
        .seed(seed)
        .build()
        .expect("valid oracle session")
}

fn oracle_window_query(window: u64) -> SessionQuery<Record> {
    SessionQuery::count_by(format!("q@w{window}"), BINS, move |r: &Record| {
        if r.int(WINDOW_FIELD).ok() == Some(window as i64) {
            value_bin(r)
        } else {
            None
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming T windows == releasing T one-shot window queries, bit for
    /// bit: estimates, release indices, accountant units and audit units.
    #[test]
    fn streaming_matches_the_one_shot_oracle(
        windows in prop::collection::vec(
            prop::collection::vec(0i64..BINS as i64, 0..12),
            1..10,
        ),
        seed in 0u64..1000,
        eps_thousandths in 1u64..2000,
    ) {
        let eps = eps_thousandths as f64 / 1000.0;
        let mechanism = OsdpLaplaceL1::new(eps).unwrap();

        let mut stream = stream_session(seed, StreamBudget::PerWindow);
        let mut streamed = Vec::new();
        for (w, values) in windows.iter().enumerate() {
            let rows: Database<Record> =
                values.iter().map(|&v| record(w as u64, v)).collect();
            let outcome = stream
                .ingest(Window { index: w as u64, rows }, &mechanism)
                .expect("uncapped stream");
            streamed.push(outcome.release().expect("per-window releases").clone());
        }

        let oracle = oracle_session(seed, &windows);
        for (w, release) in streamed.iter().enumerate() {
            let expected = oracle
                .release(&oracle_window_query(w as u64), &mechanism)
                .expect("uncapped oracle");
            prop_assert_eq!(&release.estimate, &expected.estimate,
                "window {} estimate must be bitwise identical", w);
            prop_assert_eq!(release.index, expected.index, "same release index");
        }

        // Same fixed-point ledger totals, bit for bit.
        let s = stream.session();
        prop_assert_eq!(
            s.accountant().total_spent_units(),
            oracle.accountant().total_spent_units()
        );
        prop_assert_eq!(s.total_spent(), oracle.total_spent());
        prop_assert_eq!(s.audit_len(), oracle.audit_len());
        // Audit accumulator == accountant, on both planes.
        prop_assert_eq!(s.audit_total_epsilon(), s.total_spent());
        prop_assert_eq!(oracle.audit_total_epsilon(), oracle.total_spent());
        // The merged stream audit log verifies.
        let verdict = s.verify_policy_lifecycle(None);
        prop_assert!(verdict.upholds_osdp());
        prop_assert!((verdict.total_epsilon - eps * windows.len() as f64).abs() < 1e-9);
    }

    /// Hierarchical streams: a range over T windows debits O(log T) node
    /// releases, never one per window, and the merged audit log verifies
    /// against the wrapped session's cap.
    #[test]
    fn hierarchical_ranges_debit_log_many_nodes(
        t in 2u64..33,
        start_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let levels = 6; // covers 2^6 = 64 > 32 windows
        let mechanism = OsdpLaplaceL1::new(0.125).unwrap();
        let cap = 0.125 * (2 * levels + 2) as f64;
        let mut stream = StreamSession::builder("q", BINS, value_bin)
            .policy(AttributePolicy::int_at_most(VALUE_FIELD, 2), "low")
            .seed(seed)
            .budget(cap)
            .stream_budget(StreamBudget::Hierarchical { levels })
            .build()
            .unwrap();
        for w in 0..t {
            let rows: Database<Record> =
                (0..4).map(|v| record(w, (v + w as i64) % BINS as i64)).collect();
            stream.ingest(Window { index: w, rows }, &mechanism).unwrap();
        }
        prop_assert_eq!(stream.session().total_spent(), 0.0, "buffering debits nothing");

        let start = ((t - 1) as f64 * start_frac) as u64;
        let estimate = stream.range_query(start..t, &mechanism).unwrap();
        prop_assert_eq!(estimate.len(), BINS);

        // O(log T) nodes: the dyadic bound, not the window count.
        let span = (t - start) as f64;
        let bound = 2 * (span.log2().ceil() as usize + 1);
        prop_assert!(
            stream.released_nodes() <= bound,
            "{} nodes for a {}-window range (bound {})",
            stream.released_nodes(), span, bound
        );
        // Each node debited exactly once; audit == accountant bitwise; the
        // merged audit log verifies against the cap.
        let s = stream.session();
        prop_assert_eq!(s.audit_len(), stream.released_nodes());
        prop_assert_eq!(s.audit_total_epsilon(), s.total_spent());
        let verdict = s.verify_policy_lifecycle(Some(cap));
        prop_assert!(verdict.upholds_osdp());

        // Re-running the same range is pure post-processing.
        let before = s.total_spent();
        let again = stream.range_query(start..t, &mechanism).unwrap();
        prop_assert_eq!(again, estimate, "cached nodes reproduce the estimate bitwise");
        prop_assert_eq!(stream.session().total_spent(), before);
    }

    /// Ceiling-rounded accounting never under-debits: for any spend
    /// sequence, every debit's fixed-point view covers its ε, and the
    /// admitted total covers the real-valued sum.
    #[test]
    fn fixed_point_debits_never_undercount(
        epsilons in prop::collection::vec(1e-9f64..4.0, 1..32),
    ) {
        let acc = BudgetAccountant::unlimited();
        for &eps in &epsilons {
            let units = epsilon_to_units(eps);
            prop_assert!(
                units as f64 * BudgetAccountant::RESOLUTION >= eps,
                "per-spend undercount at {}", eps
            );
            acc.spend("m", "P", eps, PrivacyGuarantee::OneSided).unwrap();
        }
        let real_sum: f64 = epsilons.iter().sum();
        prop_assert!(
            acc.total_spent() >= real_sum - 1e-9,
            "fixed-point total {} below the real-valued sum {}",
            acc.total_spent(), real_sum
        );
    }
}

/// The sliding-window stream budget: refusals pass windows through without
/// debiting, and the granted windows still match the oracle's estimates
/// for their release indices.
#[test]
fn sliding_window_grants_match_oracle_releases() {
    let windows: Vec<Vec<i64>> = (0..6).map(|w| vec![w % 4, (w + 1) % 4, 3]).collect();
    let mechanism = OsdpLaplaceL1::new(0.25).unwrap();
    // Frame of 2 windows, cap 0.25: grants alternate with refusals.
    let mut stream = stream_session(3, StreamBudget::SlidingWindow { epsilon: 0.25, window: 2 });
    let mut grants = Vec::new();
    for (w, values) in windows.iter().enumerate() {
        let rows: Database<Record> = values.iter().map(|&v| record(w as u64, v)).collect();
        match stream.ingest(Window { index: w as u64, rows }, &mechanism).unwrap() {
            WindowOutcome::Released(release) => grants.push((w as u64, release)),
            WindowOutcome::Refused { .. } => {}
            WindowOutcome::Buffered { .. } => unreachable!("not hierarchical"),
        }
    }
    assert_eq!(grants.len(), 3, "every other window fits the frame");

    // The oracle releases only the granted windows, in order: release
    // index i on both sides, so estimates must agree bitwise.
    let oracle = oracle_session(3, &windows);
    for (i, (w, release)) in grants.iter().enumerate() {
        let expected = oracle.release(&oracle_window_query(*w), &mechanism).unwrap();
        assert_eq!(release.estimate, expected.estimate, "granted window {w}");
        assert_eq!(release.index, i as u64);
        assert_eq!(expected.index, i as u64);
    }
    let s = stream.session();
    assert_eq!(s.accountant().total_spent_units(), oracle.accountant().total_spent_units());
    assert_eq!(s.audit_total_epsilon(), s.total_spent());
    assert!(s.verify_policy_lifecycle(None).upholds_osdp());
}
