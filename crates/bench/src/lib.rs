//! Shared helpers for the Criterion benchmark harness.
//!
//! The benches cover the paper's evaluation and the release path; serving
//! performance (grant path, WAL sync policies, backend scans, epoch bumps)
//! is measured by the `servebench` package instead.
//!
//! * `figures` regenerates every table and figure of the paper on a reduced
//!   configuration, so `cargo bench` completes in minutes. The figure
//!   *values* come from the `osdp-experiments` binaries; the bench tracks
//!   the cost of the same code paths.
//! * `ablations` times and reports the design-choice ablations.
//! * `mechanisms_micro` times each mechanism on a 4096-bin task.
//! * `session_trials` compares rayon `release_trials` with a serial loop of
//!   `release` over the same per-trial streams.
//! * `stream_throughput` measures the streaming plane in windows/second.

use osdp_data::tippers::TippersConfig;
use osdp_experiments::ExperimentConfig;

/// An experiment configuration small enough that each figure regenerates in
/// well under a second per iteration, while preserving every structural
/// property the paper's conclusions rely on.
pub fn bench_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.trials = 1;
    config.epsilons = vec![1.0];
    config.ns_ratios = vec![0.9, 0.25];
    config.cv_folds = 3;
    config.scale_divisor = 50;
    config.tippers = TippersConfig { users: 100, days: 4, ..TippersConfig::small() };
    config
}

/// A Criterion instance tuned for coarse-grained, end-to-end benchmarks.
pub fn criterion_for_figures() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_small_but_valid() {
        let c = bench_config();
        assert_eq!(c.trials, 1);
        assert!(c.tippers.users <= 150);
        assert!(!c.epsilons.is_empty());
    }
}
