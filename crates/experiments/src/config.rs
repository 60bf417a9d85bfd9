//! Experiment configuration.

use osdp_data::tippers::TippersConfig;
use osdp_noise::SeedSequence;

/// Shared configuration of the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Root seed; every runner derives its own deterministic stream from it.
    pub seed: u64,
    /// Number of independent repetitions averaged per measurement (the paper
    /// uses 10).
    pub trials: usize,
    /// The privacy budgets evaluated by the histogram experiments.
    pub epsilons: Vec<f64>,
    /// Cross-validation folds for the classification experiment (paper: 10).
    pub cv_folds: usize,
    /// Size of the simulated TIPPERS deployment.
    pub tippers: TippersConfig,
    /// Non-sensitive ratios ρx evaluated on the benchmark datasets.
    pub ns_ratios: Vec<f64>,
    /// Scale divisor applied to the benchmark dataset record counts; 1 keeps
    /// the published scales, larger values shrink the datasets for quick runs
    /// (the domain size is never changed).
    pub scale_divisor: u64,
    /// The algorithm pool evaluated by the regret experiments, as mechanism
    /// names resolved through `osdp_engine::MechanismSpec` (4 OSDP + 2 DP
    /// algorithms in the paper's Section 6.3.3 pool).
    pub pool: Vec<String>,
}

/// The paper's Section 6.3.3 algorithm pool (4 OSDP + 2 DP algorithms).
pub fn default_pool() -> Vec<String> {
    ["OsdpRR", "OsdpLaplace", "OsdpLaplaceL1", "DAWAz", "Laplace", "DAWA"]
        .map(String::from)
        .to_vec()
}

impl ExperimentConfig {
    /// A configuration small enough for CI and the Criterion benches
    /// (seconds, not minutes), preserving every structural property.
    pub fn quick() -> Self {
        Self {
            seed: 0x05D9_2020,
            trials: 3,
            epsilons: vec![1.0, 0.01],
            cv_folds: 5,
            tippers: TippersConfig::small(),
            ns_ratios: vec![0.99, 0.75, 0.5, 0.25, 0.1],
            scale_divisor: 20,
            pool: default_pool(),
        }
    }

    /// The full configuration used to produce EXPERIMENTS.md.
    pub fn full() -> Self {
        Self {
            seed: 0x05D9_2020,
            trials: 10,
            epsilons: vec![1.0, 0.01],
            cv_folds: 10,
            tippers: TippersConfig::experiment(),
            ns_ratios: vec![0.99, 0.90, 0.75, 0.50, 0.25, 0.10, 0.01],
            scale_divisor: 1,
            pool: default_pool(),
        }
    }

    /// Parses `--full` from command-line arguments (quick otherwise).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        if args.into_iter().any(|a| a == "--full") {
            Self::full()
        } else {
            Self::quick()
        }
    }

    /// The seed sequence rooted at this configuration's seed.
    pub fn seeds(&self) -> SeedSequence {
        SeedSequence::new(self.seed)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let q = ExperimentConfig::quick();
        let f = ExperimentConfig::full();
        assert!(q.trials < f.trials);
        assert!(q.cv_folds < f.cv_folds);
        assert!(q.ns_ratios.len() <= f.ns_ratios.len());
        assert_eq!(q.seed, f.seed, "the two presets share the same seed space");
        assert_eq!(ExperimentConfig::default(), q);
        assert!(f.scale_divisor == 1);
    }

    #[test]
    fn from_args_selects_the_preset() {
        assert_eq!(ExperimentConfig::from_args(vec![]), ExperimentConfig::quick());
        assert_eq!(
            ExperimentConfig::from_args(vec!["--full".to_string()]),
            ExperimentConfig::full()
        );
        assert_eq!(
            ExperimentConfig::from_args(vec!["--other".to_string()]),
            ExperimentConfig::quick()
        );
    }

    #[test]
    fn pool_resolves_through_the_registry() {
        use osdp_mechanisms::HistogramMechanism;
        let c = ExperimentConfig::quick();
        assert_eq!(c.pool.len(), 6, "4 OSDP + 2 DP algorithms");
        let pool = osdp_engine::pool_from_names(&c.pool, 1.0).unwrap();
        let osdp = pool.iter().filter(|m| !m.guarantee().is_differentially_private()).count();
        assert_eq!(osdp, 4);
    }

    #[test]
    fn seeds_are_deterministic() {
        let c = ExperimentConfig::quick();
        assert_eq!(c.seeds().root(), c.seeds().root());
    }
}
