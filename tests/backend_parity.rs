//! Property tests: the columnar backend is an exact drop-in for the row
//! backend.
//!
//! For arbitrary record databases (random field values, random missing
//! fields), arbitrary query domains and arbitrary attribute policies, the
//! `HistogramPair` produced by `ColumnarBackend` must be **bitwise
//! identical** to `RowBackend`'s — full histogram, non-sensitive
//! sub-histogram and dropped mass — and the per-policy partition cache must
//! never change results across repeated releases.
//!
//! The columnar backend answers unweighted scans of dense `Int` and
//! `Categorical` columns (at most one distinct value slot per 64 rows) from
//! cached per-value counts instead of its row loop; the last property builds
//! frames at and one slot past that bound so both sides of it are covered.

use osdp::prelude::*;
use osdp_engine::QueryPlan;
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a database of records with an `age` int field (sometimes missing),
/// a `zone` categorical field and an `opt` bool field (sometimes missing).
fn build_db(rows: &[(i64, u32, bool, u8)]) -> Database<Record> {
    rows.iter()
        .map(|&(age, zone, opt, missing)| {
            let mut b = Record::builder();
            // `missing` bits 0/1 knock out the age/opt fields.
            if missing & 1 == 0 {
                b = b.field("age", Value::Int(age));
            }
            if missing & 2 == 0 {
                b = b.field("opt", Value::Bool(opt));
            }
            b.field("zone", Value::Categorical(zone)).build()
        })
        .collect()
}

fn plan_for(
    query: &SessionQuery<Record>,
    policy: Arc<dyn Policy<Record>>,
    policy_label: &str,
) -> QueryPlan<Record> {
    let SessionQuery::CountBy { label, bins, bin_of, spec } = query.clone() else {
        panic!("parity plans are CountBy queries");
    };
    QueryPlan {
        label,
        bins,
        bin_of,
        bin_spec: spec,
        policy,
        policy_label: policy_label.to_string(),
        policy_version: 0,
    }
}

fn assert_backends_agree(db: &Database<Record>, plan: &QueryPlan<Record>) {
    let row = RowBackend::new(db.clone());
    let col = ColumnarBackend::from_database(db.clone());
    let a = row.scan(plan).expect("row scan");
    let b = col.scan(plan).expect("columnar scan");
    assert_eq!(a, b, "row and columnar scans must be bitwise identical");
    // Conservation: every record is either binned or dropped.
    assert_eq!(a.full.total() + a.dropped, db.len() as f64);
    // Cache stability: scanning again (cache hit) changes nothing, on either
    // backend.
    assert_eq!(row.scan(plan).expect("row rescan"), a);
    assert_eq!(col.scan(plan).expect("columnar rescan"), b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn columnar_matches_row_for_int_threshold_policies(
        rows in prop::collection::vec(((-40i64..120), (0u32..16), (0u64..2).prop_map(|b| b == 1), (0u8..4)), 0..80),
        threshold in -10i64..60,
        bins in 1usize..12,
        width in 1i64..25,
        origin in -20i64..20,
    ) {
        let db = build_db(&rows);
        let policy: Arc<dyn Policy<Record>> =
            Arc::new(AttributePolicy::int_at_most("age", threshold));
        let query = SessionQuery::count_by_int_linear("by-age", "age", origin, width, bins);
        assert_backends_agree(&db, &plan_for(&query, policy, "P-age"));
    }

    #[test]
    fn columnar_matches_row_for_categorical_domains(
        rows in prop::collection::vec(((-40i64..120), (0u32..32), (0u64..2).prop_map(|b| b == 1), (0u8..4)), 0..80),
        bins in 1usize..40,
    ) {
        let db = build_db(&rows);
        // Opt-in policy with missing fields failing closed (the default).
        let policy: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::opt_in("opt"));
        let query = SessionQuery::count_by_categorical("by-zone", "zone", bins);
        assert_backends_agree(&db, &plan_for(&query, policy, "P-opt"));
    }

    #[test]
    fn columnar_matches_row_for_opaque_policies_and_closure_queries(
        rows in prop::collection::vec(((-40i64..120), (0u32..16), (0u64..2).prop_map(|b| b == 1), (0u8..4)), 0..60),
        modulus in 2i64..9,
        bins in 1usize..10,
    ) {
        let db = build_db(&rows);
        // An opaque closure policy: no compiled form, columnar falls back to
        // its retained rows — results must still match exactly.
        let policy: Arc<dyn Policy<Record>> = Arc::new(ClosurePolicy::new(
            "opaque",
            move |r: &Record| r.int("age").map(|a| a.rem_euclid(modulus) == 0).unwrap_or(true),
        ));
        let query = SessionQuery::count_by("by-zone-closure", bins, move |r: &Record| {
            r.categorical("zone").ok().map(|z| z as usize)
        });
        assert_backends_agree(&db, &plan_for(&query, policy, "P-opaque"));
    }

    #[test]
    fn partition_cache_never_changes_results_across_policies(
        rows in prop::collection::vec(((-40i64..120), (0u32..16), (0u64..2).prop_map(|b| b == 1), (0u8..4)), 0..60),
        t1 in -10i64..40,
        t2 in -10i64..40,
        bins in 1usize..10,
    ) {
        // Interleave scans under two policies on ONE backend instance: each
        // cache entry must keep answering for its own policy.
        let db = build_db(&rows);
        let col = ColumnarBackend::from_database(db.clone());
        let row = RowBackend::new(db);
        let p1: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", t1));
        let p2: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", t2));
        let query = SessionQuery::count_by_int_linear("by-age", "age", 0, 10, bins);
        let plan1 = plan_for(&query, p1, "P1");
        let plan2 = plan_for(&query, p2, "P2");
        let first1 = col.scan(&plan1).unwrap();
        let first2 = col.scan(&plan2).unwrap();
        for _ in 0..3 {
            prop_assert_eq!(&col.scan(&plan1).unwrap(), &first1);
            prop_assert_eq!(&col.scan(&plan2).unwrap(), &first2);
        }
        prop_assert_eq!(&row.scan(&plan1).unwrap(), &first1);
        prop_assert_eq!(&row.scan(&plan2).unwrap(), &first2);
    }

    #[test]
    fn value_count_scans_match_row_scans_at_the_density_bound(
        slots in 1usize..=12,
        extra in 0usize..64,
        over_bound in (0u8..4).prop_map(|b| b == 0),
        v_min in -50i64..50,
        c_min in 0u32..8,
        cells in prop::collection::vec(((0usize..12), (0usize..12), (0u64..2).prop_map(|b| b == 1), (0u8..8)), 13 * 64),
        origin_shift in -17i64..17,
        width in 1i64..=5,
        bins in 1usize..14,
        threshold_shift in -2i64..14,
    ) {
        // `slots` distinct values per column need `64 × slots` rows; one row
        // fewer puts the column one slot past the bound (row loop).
        let len = if over_bound { 64 * slots - 1 } else { 64 * slots + extra };
        let db: Database<Record> = cells[..len]
            .iter()
            .enumerate()
            .map(|(i, &(v, c, opt, missing))| {
                // Rows 0 and 1 pin both ends of each column's value range.
                let (v, c, missing) = match i {
                    0 => (0, 0, 0),
                    1 => (slots - 1, slots - 1, 0),
                    _ => (v % slots, c % slots, missing),
                };
                let mut b = Record::builder();
                // `missing` bits 0/1/2 knock out the v/c/opt fields.
                if missing & 1 == 0 {
                    b = b.field("v", Value::Int(v_min + v as i64));
                }
                if missing & 2 == 0 {
                    b = b.field("c", Value::Categorical(c_min + c as u32));
                }
                if missing & 4 == 0 {
                    b = b.field("opt", Value::Bool(opt));
                }
                b.build()
            })
            .collect();
        // Origins from well below to well above the value range; `bins`
        // often truncates it.
        let query =
            SessionQuery::count_by_int_linear("by-v", "v", v_min + origin_shift, width, bins);
        let threshold: Arc<dyn Policy<Record>> =
            Arc::new(AttributePolicy::int_at_most("v", v_min + threshold_shift));
        assert_backends_agree(&db, &plan_for(&query, threshold, "P-v"));
        let query = SessionQuery::count_by_categorical("by-c", "c", bins);
        let opt_in: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::opt_in("opt"));
        assert_backends_agree(&db, &plan_for(&query, opt_in, "P-opt"));
    }
}
