//! Perf trajectory entry 2: row vs columnar backend scans.
//!
//! The hot loop of every cache-missing release is the `(x, x_ns)` scan:
//! classify each record with the policy and bin both parts. [`RowBackend`]
//! pays a boxed bin-closure call per record (plus, on the first scan per
//! policy, a virtual policy call per record); [`ColumnarBackend`] evaluates
//! a compiled bin spec and a compiled policy column-at-a-time and serves the
//! policy partition from its per-policy cache — after warm-up, **zero**
//! policy evaluations per scan on either workload. On unweighted frames
//! whose grouped column is dense (at most one distinct value per 64 rows),
//! the partition also caches per-value counts, so a scan folds those counts
//! into bins instead of visiting rows.
//!
//! Every variant is timed through `OsdpSession::scan`, the backend scan
//! behind the session's task cache (`derive_task` would answer every
//! repetition from that cache):
//!
//! * **DPBench Medcost** (4096 bins, 9,415 records, Close policy at
//!   ρ = 0.75): expanded per-record for the row/columnar-database pair, plus
//!   the weighted pair-frame form the experiment runners use (≤ 8,192
//!   weighted rows regardless of scale).
//! * **TIPPERS occupancy** (arrival-hour histogram under an access-point
//!   policy): occupancy records vs the directly-built `Mask64` frame, where
//!   the policy is a single bitwise test per row. The default configuration
//!   (~1.8k trajectories) is too small for value counts, so the frame scan
//!   runs the row loop.
//! * **TIPPERS arrival slots** at experiment scale (~21.5k trajectories, 64
//!   one-slot bins): the arrival column is dense, so the frame scan takes
//!   the value-count path.
//!
//! All variants must produce identical tasks (asserted before timing); the
//! bench prints the measured speedups so the numbers land in the bench log.

use criterion::{criterion_group, criterion_main, Criterion};
use osdp_bench::criterion_for_figures;
use osdp_core::{Database, Record, Value};
use osdp_data::sampling::{sample_policy, PolicyKind};
use osdp_data::tippers::occupancy::ARRIVAL_FIELD;
use osdp_data::tippers::{generate_dataset, policy_for_ratio, TippersConfig};
use osdp_data::BenchmarkDataset;
use osdp_engine::{pair_query, pair_session, OsdpSession, SessionBuilder, SessionQuery};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;
use std::time::Instant;

/// Expands a `(x, x_ns)` pair into one record per underlying row — the
/// record-level form of the DPBench workload.
fn expand_records(
    full: &osdp_core::Histogram,
    non_sensitive: &osdp_core::Histogram,
) -> Database<Record> {
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

fn medcost_sessions() -> (OsdpSession, OsdpSession, OsdpSession, SessionQuery<Record>) {
    let mut rng = ChaCha12Rng::seed_from_u64(77);
    let full = BenchmarkDataset::Medcost.generate(&mut rng);
    let policy = sample_policy(PolicyKind::Close, &full, 0.75, &mut rng).expect("valid");
    let records = expand_records(&full, &policy.non_sensitive);
    let bound_policy = || osdp_core::AttributePolicy::opt_in("non_sensitive");
    let row = SessionBuilder::new(records.clone())
        .policy(bound_policy(), "Close-0.75")
        .seed(77)
        .build()
        .expect("valid session");
    let columnar = SessionBuilder::new(records)
        .columnar()
        .policy(bound_policy(), "Close-0.75")
        .seed(77)
        .build()
        .expect("valid session");
    let weighted = pair_session(&full, &policy.non_sensitive)
        .expect("sampled sub-histogram")
        .policy_label("Close-0.75")
        .seed(77)
        .build()
        .expect("valid session");
    let query = SessionQuery::count_by_categorical("pair", "bin", full.len());
    (row, columnar, weighted, query)
}

/// Row and frame sessions over one TIPPERS dataset of `config`'s size.
fn tippers_sessions(config: &TippersConfig) -> (OsdpSession, OsdpSession) {
    let mut rng = ChaCha12Rng::seed_from_u64(31);
    let dataset = generate_dataset(config, &mut rng);
    let policy = policy_for_ratio(&dataset, 0.75);
    let row = SessionBuilder::new(dataset.occupancy_records())
        .policy(policy.record_policy(), policy.label())
        .seed(31)
        .build()
        .expect("valid session");
    let frame = SessionBuilder::from_frame(dataset.occupancy_frame())
        .policy(policy.record_policy(), policy.label())
        .seed(31)
        .build()
        .expect("valid session");
    (row, frame)
}

/// Mean seconds per backend scan of `query` (the task cache is bypassed).
fn scan_time(session: &OsdpSession, query: &SessionQuery<Record>, reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(session.scan(query).expect("scan"));
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn bench_backend_scan(c: &mut Criterion) {
    let (med_row, med_col, med_pair, med_query) = medcost_sessions();
    let pair_q = pair_query(4096);
    let (tip_row, tip_frame) = tippers_sessions(&TippersConfig::default());
    let tip_query = SessionQuery::count_by_int_linear("arrival-hour", ARRIVAL_FIELD, 0, 6, 24);
    let (slot_row, slot_frame) = tippers_sessions(&TippersConfig::experiment());
    let slot_query = SessionQuery::count_by_int_linear("arrival-slot", ARRIVAL_FIELD, 0, 1, 64);

    // Correctness precondition: every representation scans the same pair.
    let reference = med_row.derive_task(&med_query).expect("scan");
    assert_eq!(reference, med_col.derive_task(&med_query).expect("scan"));
    assert_eq!(reference, med_pair.derive_task(&pair_q).expect("scan"));
    assert_eq!(med_row.scan(&med_query).expect("scan"), med_col.scan(&med_query).expect("scan"));
    assert_eq!(tip_row.scan(&tip_query).expect("scan"), tip_frame.scan(&tip_query).expect("scan"));
    assert_eq!(
        slot_row.scan(&slot_query).expect("scan"),
        slot_frame.scan(&slot_query).expect("scan")
    );

    // Headline numbers (steady state: the policy partition, and on the
    // arrival-slot frame its value counts, are cached).
    let reps = 30;
    let med_row_t = scan_time(&med_row, &med_query, reps);
    let med_col_t = scan_time(&med_col, &med_query, reps);
    let med_pair_t = scan_time(&med_pair, &pair_q, reps);
    let tip_row_t = scan_time(&tip_row, &tip_query, reps);
    let tip_frame_t = scan_time(&tip_frame, &tip_query, reps);
    let slot_row_t = scan_time(&slot_row, &slot_query, reps);
    let slot_frame_t = scan_time(&slot_frame, &slot_query, 100 * reps);
    eprintln!(
        "[perf-trajectory #2] Medcost/4096-bin scan (9.4k records): row {:.0} us, \
         columnar {:.0} us ({:.2}x), weighted pair frame {:.0} us ({:.2}x); \
         TIPPERS occupancy scan ({} trajectories): row {:.0} us, Mask64 frame {:.0} us ({:.2}x); \
         TIPPERS arrival-slot scan ({} trajectories): row {:.0} us, \
         value-count frame {:.2} us ({:.0}x)",
        med_row_t * 1e6,
        med_col_t * 1e6,
        med_row_t / med_col_t,
        med_pair_t * 1e6,
        med_row_t / med_pair_t,
        tip_row.database_len().unwrap_or(0),
        tip_row_t * 1e6,
        tip_frame_t * 1e6,
        tip_row_t / tip_frame_t,
        slot_row.database_len().unwrap_or(0),
        slot_row_t * 1e6,
        slot_frame_t * 1e6,
        slot_row_t / slot_frame_t,
    );

    let mut group = c.benchmark_group("backend_scan");
    let cases = [
        ("medcost_row", &med_row, &med_query),
        ("medcost_columnar", &med_col, &med_query),
        ("medcost_pair_frame", &med_pair, &pair_q),
        ("tippers_occupancy_row", &tip_row, &tip_query),
        ("tippers_occupancy_frame", &tip_frame, &tip_query),
        ("tippers_arrival_slot_row", &slot_row, &slot_query),
        ("tippers_arrival_slot_value_counts", &slot_frame, &slot_query),
    ];
    for (name, session, query) in cases {
        group.bench_function(name, |b| b.iter(|| black_box(session.scan(query).unwrap())));
    }
    group.finish();
}

criterion_group! {
    name = backend_scan;
    config = criterion_for_figures();
    targets = bench_backend_scan,
}
criterion_main!(backend_scan);
