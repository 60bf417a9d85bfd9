//! Integration: every workload shape the experiment runners use produces
//! identical numerical output on `RowBackend` and `ColumnarBackend` — same
//! seeds, same histograms, same audit trail.

use osdp::prelude::*;
use osdp_data::sampling::{sample_policy, PolicyKind};
use osdp_data::tippers::occupancy::{ARRIVAL_FIELD, DURATION_FIELD};
use osdp_data::tippers::{generate_dataset, policy_for_ratio, TippersConfig};
use osdp_data::BenchmarkDataset;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Record-level sessions: a database released through both backends with the
/// same seed yields identical tasks, estimates, batches and audit logs.
#[test]
fn record_sessions_agree_across_backends() {
    let db: Database<Record> = (0..2_000)
        .map(|i| {
            Record::builder()
                .field("age", Value::Int(i % 95))
                .field("zone", Value::Categorical((i % 13) as u32))
                .build()
        })
        .collect();
    let policy = || AttributePolicy::int_at_most("age", 17);
    let build = |columnar: bool| {
        let mut b = SessionBuilder::new(db.clone());
        if columnar {
            b = b.columnar();
        }
        b.policy(policy(), "minors").seed(4242).build().unwrap()
    };
    let row = build(false);
    let col = build(true);
    assert_eq!(row.backend_name(), Some("row"));
    assert_eq!(col.backend_name(), Some("columnar"));

    let queries = [
        SessionQuery::count_by_categorical("by-zone", "zone", 13),
        SessionQuery::count_by_int_linear("by-decade", "age", 0, 10, 10),
        SessionQuery::count_by("by-closure", 5, |r: &Record| {
            r.int("age").ok().map(|a| (a % 5) as usize)
        }),
    ];
    let mechanism = OsdpLaplaceL1::new(0.8).unwrap();
    for query in &queries {
        assert_eq!(row.derive_task(query).unwrap(), col.derive_task(query).unwrap());
        assert_eq!(row.scan(query).unwrap(), col.scan(query).unwrap());
        let a = row.release(query, &mechanism).unwrap();
        let b = col.release(query, &mechanism).unwrap();
        assert_eq!(a.estimate, b.estimate, "query {:?}", query.label());
        assert_eq!(
            row.release_trials(query, &mechanism, 5).unwrap(),
            col.release_trials(query, &mechanism, 5).unwrap()
        );
    }
    assert_eq!(row.total_spent(), col.total_spent());
    assert_eq!(row.audit_records().len(), col.audit_records().len());
}

/// The DPBench runner path: a sampled `(x, x_ns)` pair released through the
/// weighted-frame columnar session equals the legacy histogram-backed
/// session bin for bin, mechanism for mechanism. The same pair expanded
/// into one record per row derives and scans the same on the row and the
/// columnar database.
#[test]
fn pair_frame_sessions_reproduce_histogram_sessions_on_dpbench() {
    let mut rng = ChaCha12Rng::seed_from_u64(2020);
    let full = BenchmarkDataset::Medcost.generate(&mut rng);
    for kind in [PolicyKind::Close, PolicyKind::Far] {
        let policy = sample_policy(kind, &full, 0.75, &mut rng).unwrap();
        let bound = histogram_session(full.clone(), policy.non_sensitive.clone())
            .policy_label("P-sampled")
            .seed(7)
            .build()
            .unwrap();
        let columnar = pair_session(&full, &policy.non_sensitive)
            .unwrap()
            .policy_label("P-sampled")
            .seed(7)
            .build()
            .unwrap();
        let query = pair_query(full.len());
        // Exact pair reconstruction (integer counts -> exact f64 sums)...
        let task = columnar.derive_task(&query).unwrap();
        assert_eq!(task.full(), &full);
        assert_eq!(task.non_sensitive(), &policy.non_sensitive);
        let records = expand_records(&full, &policy.non_sensitive);
        let record_query = SessionQuery::count_by_categorical("pair", "bin", full.len());
        for columnar_records in [false, true] {
            let mut b = SessionBuilder::new(records.clone());
            if columnar_records {
                b = b.columnar();
            }
            let session = b
                .policy(AttributePolicy::opt_in("non_sensitive"), "P-sampled")
                .seed(7)
                .build()
                .unwrap();
            assert_eq!(session.derive_task(&record_query).unwrap(), task);
            assert_eq!(session.scan(&record_query).unwrap(), columnar.scan(&query).unwrap());
        }
        // ...hence identical estimates for the whole pool.
        for name in ["OsdpLaplaceL1", "DAWAz", "DAWA", "Laplace"] {
            let pool = pool_from_names(&[name], 1.0).unwrap();
            let a = bound.release_trials(&SessionQuery::bound(), &pool[0], 3).unwrap();
            let b = columnar.release_trials(&query, &pool[0], 3).unwrap();
            assert_eq!(a, b, "{name} under the {} policy", kind.name());
        }
    }
}

/// The TIPPERS occupancy workload: the same trajectories scanned as a row
/// database of occupancy records and as a directly-built Mask64 frame give
/// identical releases under an access-point policy. At experiment scale
/// (about 21.5k trajectories) the 64 one-slot arrival bins are dense, so the
/// frame answers that query from its cached per-value counts instead of the
/// row loop.
#[test]
fn tippers_occupancy_agrees_across_representations() {
    for config in [TippersConfig::small(), TippersConfig::experiment()] {
        let mut rng = ChaCha12Rng::seed_from_u64(31);
        let dataset = generate_dataset(&config, &mut rng);
        let ap_policy = policy_for_ratio(&dataset, 0.75);

        let row = SessionBuilder::new(dataset.occupancy_records())
            .policy(ap_policy.record_policy(), ap_policy.label())
            .seed(55)
            .build()
            .unwrap();
        let frame = SessionBuilder::from_frame(dataset.occupancy_frame())
            .policy(ap_policy.record_policy(), ap_policy.label())
            .seed(55)
            .build()
            .unwrap();

        let arrival_hours =
            SessionQuery::count_by_int_linear("arrival-hour", ARRIVAL_FIELD, 0, 6, 24);
        let arrival_slots =
            SessionQuery::count_by_int_linear("arrival-slot", ARRIVAL_FIELD, 0, 1, 64);
        let durations = SessionQuery::count_by_int_linear("duration", DURATION_FIELD, 0, 12, 12);
        let mechanism = OsdpLaplaceL1::new(1.0).unwrap();
        for query in [&arrival_hours, &arrival_slots, &durations] {
            assert_eq!(row.scan(query).unwrap(), frame.scan(query).unwrap());
            assert_eq!(
                row.release(query, &mechanism).unwrap().estimate,
                frame.release(query, &mechanism).unwrap().estimate
            );
        }

        // The record-level policy classifies exactly like the
        // trajectory-level policy it projects: the non-sensitive mass equals
        // the trajectory count the original policy clears (durations always
        // fit the 12 × 12 domain, so nothing drops).
        let cleared =
            dataset.trajectories().iter().filter(|t| ap_policy.is_non_sensitive(t)).count();
        let pair = row.scan(&durations).unwrap();
        assert_eq!(pair.dropped, 0.0);
        assert_eq!(pair.non_sensitive.total(), cleared as f64);
    }
}

/// Expands a `(x, x_ns)` pair into one record per underlying row: `bin`
/// holds the bin index and `non_sensitive` is true for the first `x_ns`
/// rows of each bin.
fn expand_records(full: &Histogram, non_sensitive: &Histogram) -> Database<Record> {
    let mut records = Database::with_capacity(full.total() as usize);
    for (bin, (&x, &x_ns)) in full.counts().iter().zip(non_sensitive.counts()).enumerate() {
        for i in 0..x as u64 {
            records.push(
                Record::builder()
                    .field("bin", Value::Categorical(bin as u32))
                    .field("non_sensitive", Value::Bool((i as f64) < x_ns))
                    .build(),
            );
        }
    }
    records
}
