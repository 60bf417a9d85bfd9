//! Perf trajectory entry 1: `OsdpSession::release_trials` (rayon, one trial
//! per core) vs a serial loop of `HistogramMechanism::release`, on the
//! DPBench Medcost workload (4096 bins) with the paper's 10-trial repetition.
//!
//! The serial loop draws from the same per-trial RNG streams as the first
//! `release_trials` of a fresh session, so the two produce **identical**
//! output and the comparison is pure wall-clock.
//! On a multi-core runner the parallel path must be ≥ 2× faster; the bench
//! prints the measured speedup so the number lands in the bench log.

use criterion::{criterion_group, criterion_main, Criterion};
use osdp_bench::criterion_for_figures;
use osdp_core::Histogram;
use osdp_data::sampling::{sample_policy, PolicyKind};
use osdp_data::BenchmarkDataset;
use osdp_engine::{histogram_session, OsdpSession, SessionQuery};
use osdp_mechanisms::{DawaHistogram, Dawaz, HistogramMechanism, HistogramTask, OsdpLaplaceL1};
use osdp_noise::SeedSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;
use std::time::Instant;

/// The paper's repetition count for the DPBench figures.
const TRIALS: usize = 10;

fn medcost_session() -> OsdpSession {
    let mut rng = ChaCha12Rng::seed_from_u64(77);
    let full = BenchmarkDataset::Medcost.generate(&mut rng);
    let policy = sample_policy(PolicyKind::Close, &full, 0.75, &mut rng).expect("valid parameters");
    histogram_session(full, policy.non_sensitive)
        .policy_label("Close-0.75")
        .seed(77)
        .build()
        .expect("sampled sub-histogram")
}

/// `TRIALS` releases one after another, over the per-trial streams of a
/// fresh session's first `release_trials` (release index 0).
fn serial_trials(task: &HistogramTask, mechanism: &dyn HistogramMechanism) -> Vec<Histogram> {
    let seeds = SeedSequence::new(77);
    let stream = format!("trials/0/{}", mechanism.name());
    (0..TRIALS as u64).map(|t| mechanism.release(task, &mut seeds.rng_for(&stream, t))).collect()
}

fn wall_clock<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn bench_release_trials(c: &mut Criterion) {
    let session = medcost_session();
    let task = session.derive_task(&SessionQuery::bound()).unwrap();
    let pool: Vec<Box<dyn HistogramMechanism>> = vec![
        Box::new(OsdpLaplaceL1::new(1.0).unwrap()),
        Box::new(Dawaz::new(1.0).unwrap()),
        Box::new(DawaHistogram::new(1.0).unwrap()),
    ];

    // Correctness precondition of the comparison: identical output from a
    // fresh session's first batch and the serial loop.
    {
        let l1 = OsdpLaplaceL1::new(1.0).unwrap();
        let par = medcost_session().release_trials(&SessionQuery::bound(), &l1, TRIALS).unwrap();
        assert_eq!(par, serial_trials(&task, &l1), "parallel and serial trials must agree");
    }

    // Headline number: speedup of the rayon batch over the serial loop on
    // the heaviest mechanism (DAWA's partitioning dominates).
    let dawa = DawaHistogram::new(1.0).unwrap();
    let serial = wall_clock(
        || {
            black_box(serial_trials(&task, &dawa));
        },
        3,
    );
    let parallel = wall_clock(
        || {
            black_box(session.release_trials(&SessionQuery::bound(), &dawa, TRIALS).unwrap());
        },
        3,
    );
    eprintln!(
        "[perf-trajectory #1] DAWA x{TRIALS} on Medcost/4096 bins: serial {:.1} ms, \
         rayon {:.1} ms, speedup {:.2}x on {} cores",
        serial * 1e3,
        parallel * 1e3,
        serial / parallel,
        rayon::current_num_threads(),
    );

    let mut group = c.benchmark_group("session_trials_medcost_4096");
    for mechanism in &pool {
        group.bench_function(format!("{}_serial_x{TRIALS}", mechanism.name()), |b| {
            b.iter(|| black_box(serial_trials(&task, mechanism)));
        });
        group.bench_function(format!("{}_rayon_x{TRIALS}", mechanism.name()), |b| {
            b.iter(|| {
                black_box(
                    session.release_trials(&SessionQuery::bound(), mechanism, TRIALS).unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = session_trials;
    config = criterion_for_figures();
    targets = bench_release_trials,
}
criterion_main!(session_trials);
