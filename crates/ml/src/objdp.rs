//! `ObjDP`: ε-differentially private logistic regression via objective
//! perturbation (Chaudhuri, Monteleoni and Sarwate, JMLR 2011).
//!
//! This is the DP baseline of Figure 1: it treats every record as sensitive
//! and therefore pays the full DP price regardless of the policy. The
//! mechanism minimises
//!
//! ```text
//! J(w) = (1/n) Σ ℓ(w; xᵢ, yᵢ) + (λ/2)‖w‖² + bᵀw / n
//! ```
//!
//! where the perturbation vector `b` has direction uniform on the sphere and
//! norm drawn from `Gamma(d, 2/ε')`, with `ε' = ε − 2·ln(1 + c/(nλ))`
//! (c = 1/4 for the logistic loss). If `ε'` would be non-positive the
//! regulariser is raised to the smallest admissible value, exactly as
//! prescribed by the authors. Feature vectors must have L2 norm at most 1
//! (see [`crate::scale::clip_to_unit_norm`]).

use crate::logistic::{LogisticRegression, TrainConfig};
use crate::scale::clip_to_unit_norm;
use osdp_core::error::{validate_epsilon, OsdpError, Result};
use rand::Rng;

/// The objective-perturbation trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectivePerturbation {
    epsilon: f64,
    lambda: f64,
    train: TrainConfig,
}

/// Smoothness constant of the logistic loss used by the privacy analysis.
const LOGISTIC_SMOOTHNESS: f64 = 0.25;

impl ObjectivePerturbation {
    /// Creates the trainer with the paper-typical regularisation of 1e-2.
    pub fn new(epsilon: f64) -> Result<Self> {
        Self::with_lambda(epsilon, 1e-2)
    }

    /// Creates the trainer with an explicit L2 regulariser λ.
    pub fn with_lambda(epsilon: f64, lambda: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(OsdpError::InvalidInput(format!(
                "lambda must be finite and positive, got {lambda}"
            )));
        }
        Ok(Self { epsilon, lambda, train: TrainConfig { l2: lambda, ..TrainConfig::default() } })
    }

    /// The privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The regularisation strength in use.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Trains an ε-DP logistic-regression model.
    pub fn train<G: Rng + ?Sized>(
        &self,
        features: &[Vec<f64>],
        labels: &[bool],
        rng: &mut G,
    ) -> Result<LogisticRegression> {
        if features.is_empty() {
            return Err(OsdpError::InvalidInput("cannot train on an empty dataset".into()));
        }
        if features.len() != labels.len() {
            return Err(OsdpError::DimensionMismatch {
                expected: features.len(),
                actual: labels.len(),
            });
        }
        let n = features.len() as f64;
        let dim = features[0].len();
        // The analysis requires ‖x‖ ≤ 1.
        let features = clip_to_unit_norm(features);

        // Budget adjustment of the original algorithm.
        let mut lambda = self.lambda;
        let mut eps_prime = self.epsilon - 2.0 * (1.0 + LOGISTIC_SMOOTHNESS / (n * lambda)).ln();
        if eps_prime <= 1e-6 {
            // Raise the regulariser so that the adjustment consumes at most
            // half of the budget.
            lambda = LOGISTIC_SMOOTHNESS / (n * ((self.epsilon / 4.0).exp() - 1.0));
            eps_prime = self.epsilon / 2.0;
        }

        // Perturbation vector: direction uniform, norm ~ Gamma(d, 2/ε').
        let norm = sample_gamma(dim as f64, 2.0 / eps_prime, rng);
        let direction = sample_unit_vector(dim, rng);
        let offset: Vec<f64> = direction.iter().map(|d| d * norm / n).collect();

        let config = TrainConfig { l2: lambda, ..self.train };
        let mut model = LogisticRegression::from_parameters(vec![0.0; dim], 0.0);
        model.fit_with_gradient_offset(&features, labels, &config, Some(&offset));
        Ok(model)
    }
}

/// Samples a Gamma(shape, scale) variate via the Marsaglia–Tsang method
/// (with the standard boost for shape < 1).
fn sample_gamma<G: Rng + ?Sized>(shape: f64, scale: f64, rng: &mut G) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(shape + 1.0, scale, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v * scale;
        }
    }
}

fn sample_standard_normal<G: Rng + ?Sized>(rng: &mut G) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn sample_unit_vector<G: Rng + ?Sized>(dim: usize, rng: &mut G) -> Vec<f64> {
    loop {
        let v: Vec<f64> = (0..dim).map(|_| sample_standard_normal(rng)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            return v.into_iter().map(|x| x / norm).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roc::auc;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn toy(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            xs.push(vec![a, b]);
            ys.push(a + b > 0.0);
        }
        (xs, ys)
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(ObjectivePerturbation::new(0.0).is_err());
        assert!(ObjectivePerturbation::with_lambda(1.0, 0.0).is_err());
        let m = ObjectivePerturbation::with_lambda(0.5, 0.01).unwrap();
        assert_eq!(m.epsilon(), 0.5);
        assert_eq!(m.lambda(), 0.01);
    }

    #[test]
    fn training_validates_inputs() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let m = ObjectivePerturbation::new(1.0).unwrap();
        assert!(m.train(&[], &[], &mut rng).is_err());
        assert!(m.train(&[vec![1.0]], &[true, false], &mut rng).is_err());
    }

    #[test]
    fn high_budget_training_is_nearly_non_private() {
        let (xs, ys) = toy(2000, 7);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let dp = ObjectivePerturbation::new(50.0).unwrap().train(&xs, &ys, &mut rng).unwrap();
        let scores = dp.predict_proba_all(&xs);
        let a = auc(&scores, &ys).unwrap();
        assert!(a > 0.9, "AUC at eps=50 should be near the non-private model, got {a}");
    }

    #[test]
    fn tiny_budget_training_is_near_random() {
        // A single run's AUC is dominated by one random perturbation
        // direction, so average a handful of runs: the *expected* AUC at a
        // tiny budget must be visibly degraded vs the separable optimum
        // (which sits at ~1.0).
        let (xs, ys) = toy(1500, 8);
        let (tx, ty) = toy(600, 9);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut total = 0.0;
        let runs = 9;
        for _ in 0..runs {
            let dp = ObjectivePerturbation::new(0.001).unwrap().train(&xs, &ys, &mut rng).unwrap();
            total += auc(&dp.predict_proba_all(&tx), &ty).unwrap();
        }
        let a = total / runs as f64;
        assert!(
            a < 0.85,
            "mean AUC at eps=0.001 should be visibly degraded vs the clean separable optimum, got {a}"
        );
    }

    #[test]
    fn accuracy_degrades_monotonically_in_expectation() {
        // Averaged over several runs, a much smaller budget should not beat a
        // much larger one on held-out data.
        let (xs, ys) = toy(1200, 10);
        let (tx, ty) = toy(500, 11);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let avg_auc = |eps: f64, rng: &mut ChaCha12Rng| {
            let mut total = 0.0;
            for _ in 0..5 {
                let model = ObjectivePerturbation::new(eps).unwrap().train(&xs, &ys, rng).unwrap();
                total += auc(&model.predict_proba_all(&tx), &ty).unwrap();
            }
            total / 5.0
        };
        let high = avg_auc(10.0, &mut rng);
        let low = avg_auc(0.01, &mut rng);
        assert!(high > low, "AUC at eps=10 ({high}) should exceed eps=0.01 ({low})");
    }

    #[test]
    fn gamma_sampler_has_correct_mean() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let shape = 3.0;
        let scale = 2.0;
        let n = 50_000;
        let mean: f64 =
            (0..n).map(|_| sample_gamma(shape, scale, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - shape * scale).abs() < 0.1, "gamma mean {mean}");
        // shape < 1 branch
        let mean_small: f64 =
            (0..n).map(|_| sample_gamma(0.5, 1.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean_small - 0.5).abs() < 0.05, "gamma(0.5) mean {mean_small}");
    }

    #[test]
    fn unit_vectors_have_unit_norm() {
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        for dim in [1usize, 3, 10, 100] {
            let v = sample_unit_vector(dim, &mut rng);
            assert_eq!(v.len(), dim);
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }
}
