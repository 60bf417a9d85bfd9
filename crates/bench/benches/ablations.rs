//! Ablation benches for the workspace's design choices.
//!
//! Besides timing, each ablation prints (once, at setup) the measured error of
//! every variant on a fixed input, so `cargo bench` output doubles as a small
//! ablation report:
//!
//! * one-sided vs two-sided noise (the 1/8-variance claim of Section 5.1);
//! * the `DAWAz` zero-detection budget share ρ (the paper fixes 0.1);
//! * the zero-detector choice (`OsdpRR` thinning vs `OsdpLaplaceL1`);
//! * the truncation parameter k of the `LM Tk` n-gram baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use osdp_bench::criterion_for_figures;
use osdp_data::sampling::{sample_policy, PolicyKind};
use osdp_data::tippers::{generate_dataset, NgramCounts, TippersConfig};
use osdp_data::BenchmarkDataset;
use osdp_mechanisms::{
    Dawaz, DpLaplaceHistogram, HistogramMechanism, HistogramTask, OsdpLaplaceL1,
    TruncatedNgramLaplace,
};
use osdp_metrics::{mean_relative_error, sparse_mre_with_background};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;

fn task(rho: f64) -> HistogramTask {
    let mut rng = ChaCha12Rng::seed_from_u64(3);
    let full = BenchmarkDataset::Adult.generate(&mut rng);
    let policy = sample_policy(PolicyKind::Close, &full, rho, &mut rng).expect("valid parameters");
    osdp_engine::histogram_session(full, policy.non_sensitive)
        .build()
        .expect("sampled sub-histogram")
        .derive_task(&osdp_engine::SessionQuery::bound())
        .expect("bound task")
}

fn average_mre(mechanism: &dyn HistogramMechanism, task: &HistogramTask, trials: usize) -> f64 {
    let mut rng = ChaCha12Rng::seed_from_u64(9);
    let mut total = 0.0;
    for _ in 0..trials {
        total += mean_relative_error(task.full(), &mechanism.release(task, &mut rng)).unwrap();
    }
    total / trials as f64
}

fn ablation_one_sided_vs_two_sided(c: &mut Criterion) {
    let task = task(0.99);
    let eps = 1.0;
    let one_sided = OsdpLaplaceL1::new(eps).unwrap();
    let two_sided = DpLaplaceHistogram::new(eps).unwrap();
    eprintln!(
        "[ablation] one-sided vs two-sided noise on Adult (rho=0.99, eps=1): \
         OsdpLaplaceL1 MRE = {:.4}, DP Laplace MRE = {:.4}",
        average_mre(&one_sided, &task, 5),
        average_mre(&two_sided, &task, 5)
    );
    let mut group = c.benchmark_group("ablation_noise_sidedness");
    group.bench_function("one_sided_laplace_l1", |b| {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        b.iter(|| black_box(one_sided.release(&task, &mut rng)));
    });
    group.bench_function("two_sided_dp_laplace", |b| {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        b.iter(|| black_box(two_sided.release(&task, &mut rng)));
    });
    group.finish();
}

fn ablation_dawaz_rho(c: &mut Criterion) {
    let task = task(0.75);
    let mut group = c.benchmark_group("ablation_dawaz_rho");
    for rho in [0.02, 0.05, 0.1, 0.2, 0.5] {
        let mechanism = Dawaz::with_rho(1.0, rho).unwrap();
        eprintln!(
            "[ablation] DAWAz zero-detection share rho = {rho}: MRE = {:.4}",
            average_mre(&mechanism, &task, 5)
        );
        group.bench_with_input(BenchmarkId::from_parameter(rho), &mechanism, |b, mechanism| {
            let mut rng = ChaCha12Rng::seed_from_u64(2);
            b.iter(|| black_box(mechanism.release(&task, &mut rng)));
        });
    }
    group.finish();
}

fn ablation_zero_detector(c: &mut Criterion) {
    let task = task(0.75);
    let rr_detector = Dawaz::with_rho(1.0, 0.1).unwrap();
    let laplace_detector = Dawaz::with_laplace_detector(1.0, 0.1).unwrap();
    eprintln!(
        "[ablation] zero-bin detector: OsdpRR thinning MRE = {:.4}, OsdpLaplaceL1 MRE = {:.4}",
        average_mre(&rr_detector, &task, 5),
        average_mre(&laplace_detector, &task, 5)
    );
    let mut group = c.benchmark_group("ablation_zero_detector");
    group.bench_function("osdp_rr_thinning", |b| {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        b.iter(|| black_box(rr_detector.release(&task, &mut rng)));
    });
    group.bench_function("osdp_laplace_l1", |b| {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        b.iter(|| black_box(laplace_detector.release(&task, &mut rng)));
    });
    group.finish();
}

fn ablation_lm_truncation(c: &mut Criterion) {
    let mut rng = ChaCha12Rng::seed_from_u64(4);
    let dataset = generate_dataset(
        &TippersConfig { users: 100, days: 4, ..TippersConfig::small() },
        &mut rng,
    );
    let ap_count = dataset.building().ap_count();
    let truth =
        NgramCounts::from_trajectories(dataset.trajectories(), 4, ap_count, None).into_counts();
    let mut group = c.benchmark_group("ablation_lm_truncation");
    for k in [1usize, 2, 4, 8] {
        let truncated =
            NgramCounts::from_trajectories(dataset.trajectories(), 4, ap_count, Some(k))
                .into_counts();
        let mechanism = TruncatedNgramLaplace::new(1.0, k).unwrap();
        let mut err_rng = ChaCha12Rng::seed_from_u64(5);
        let estimate = mechanism.release(&truncated, &mut err_rng);
        eprintln!(
            "[ablation] LM T{k}: full-domain MRE = {:.4}",
            sparse_mre_with_background(
                &truth,
                &estimate,
                mechanism.expected_background_abs_error()
            )
        );
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            let mut rng = ChaCha12Rng::seed_from_u64(6);
            b.iter(|| black_box(mechanism.release(&truncated, &mut rng)));
        });
    }
    group.finish();
}

criterion_group! {
    name = ablations;
    config = criterion_for_figures();
    targets =
        ablation_one_sided_vs_two_sided,
        ablation_dawaz_rho,
        ablation_zero_detector,
        ablation_lm_truncation,
}
criterion_main!(ablations);
