//! L2-regularised logistic regression trained by batch gradient descent.

use osdp_core::error::{OsdpError, Result};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// L2 regularisation strength λ (applied to the average loss).
    pub l2: f64,
    /// Number of full-batch gradient steps.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { l2: 1e-3, epochs: 200, learning_rate: 0.5 }
    }
}

/// A trained binary logistic-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Trains on a feature matrix and boolean labels.
    pub fn train(features: &[Vec<f64>], labels: &[bool], config: &TrainConfig) -> Result<Self> {
        if features.is_empty() {
            return Err(OsdpError::InvalidInput("cannot train on an empty dataset".into()));
        }
        if features.len() != labels.len() {
            return Err(OsdpError::DimensionMismatch {
                expected: features.len(),
                actual: labels.len(),
            });
        }
        let dim = features[0].len();
        if features.iter().any(|r| r.len() != dim) {
            return Err(OsdpError::InvalidInput("ragged feature matrix".into()));
        }
        let mut model = Self { weights: vec![0.0; dim], bias: 0.0 };
        model.fit_with_gradient_offset(features, labels, config, None);
        Ok(model)
    }

    /// Trains with an extra constant vector added to the gradient of the
    /// objective — the hook objective perturbation needs (the noise term
    /// `bᵀw / n` contributes `b/n` to the gradient).
    pub(crate) fn fit_with_gradient_offset(
        &mut self,
        features: &[Vec<f64>],
        labels: &[bool],
        config: &TrainConfig,
        gradient_offset: Option<&[f64]>,
    ) {
        let n = features.len() as f64;
        let dim = self.weights.len();
        for _ in 0..config.epochs {
            let mut grad_w = vec![0.0; dim];
            let mut grad_b = 0.0;
            for (row, &label) in features.iter().zip(labels) {
                let y = if label { 1.0 } else { 0.0 };
                let p = sigmoid(self.margin(row));
                let err = p - y;
                for (g, v) in grad_w.iter_mut().zip(row) {
                    *g += err * v;
                }
                grad_b += err;
            }
            for (g, w) in grad_w.iter_mut().zip(&self.weights) {
                *g = *g / n + config.l2 * w;
            }
            grad_b /= n;
            if let Some(offset) = gradient_offset {
                for (g, o) in grad_w.iter_mut().zip(offset) {
                    *g += o;
                }
            }
            for (w, g) in self.weights.iter_mut().zip(&grad_w) {
                *w -= config.learning_rate * g;
            }
            self.bias -= config.learning_rate * grad_b;
        }
    }

    /// Builds a model from explicit parameters (used by `ObjDP`).
    pub fn from_parameters(weights: Vec<f64>, bias: f64) -> Self {
        Self { weights, bias }
    }

    /// The linear score `wᵀx + b`.
    pub fn margin(&self, features: &[f64]) -> f64 {
        self.weights.iter().zip(features).map(|(w, x)| w * x).sum::<f64>() + self.bias
    }

    /// The predicted probability of the positive class.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        sigmoid(self.margin(features))
    }

    /// Probabilities for a whole matrix.
    pub fn predict_proba_all(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_proba(r)).collect()
    }

    /// The learned weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned bias.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Classification accuracy at a 0.5 threshold (convenience for tests).
    pub fn accuracy(&self, features: &[Vec<f64>], labels: &[bool]) -> f64 {
        if features.is_empty() {
            return 0.0;
        }
        let correct = features
            .iter()
            .zip(labels)
            .filter(|(row, &label)| (self.predict_proba(row) >= 0.5) == label)
            .count();
        correct as f64 / features.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    /// A linearly separable toy problem: label = (x0 + x1 > 0).
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
    fn validation_errors() {
        let cfg = TrainConfig::default();
        assert!(LogisticRegression::train(&[], &[], &cfg).is_err());
        assert!(LogisticRegression::train(&[vec![1.0]], &[true, false], &cfg).is_err());
        assert!(
            LogisticRegression::train(&[vec![1.0], vec![1.0, 2.0]], &[true, false], &cfg).is_err()
        );
    }

    #[test]
    fn learns_a_separable_problem() {
        let (xs, ys) = toy(400, 1);
        let model = LogisticRegression::train(&xs, &ys, &TrainConfig::default()).unwrap();
        let acc = model.accuracy(&xs, &ys);
        assert!(acc > 0.95, "training accuracy {acc}");
        // Weights point in the (1, 1) direction.
        assert!(model.weights()[0] > 0.0);
        assert!(model.weights()[1] > 0.0);
        assert!(model.bias().abs() < 1.0);
    }

    #[test]
    fn generalises_to_held_out_data() {
        let (xs, ys) = toy(400, 2);
        let (tx, ty) = toy(200, 3);
        let model = LogisticRegression::train(&xs, &ys, &TrainConfig::default()).unwrap();
        assert!(model.accuracy(&tx, &ty) > 0.9);
    }

    #[test]
    fn probabilities_are_calibrated_monotonically() {
        let (xs, ys) = toy(300, 4);
        let model = LogisticRegression::train(&xs, &ys, &TrainConfig::default()).unwrap();
        let p_low = model.predict_proba(&[-1.0, -1.0]);
        let p_mid = model.predict_proba(&[0.0, 0.0]);
        let p_high = model.predict_proba(&[1.0, 1.0]);
        assert!(p_low < p_mid && p_mid < p_high);
        assert!(p_low < 0.2 && p_high > 0.8);
        let all = model.predict_proba_all(&xs);
        assert_eq!(all.len(), xs.len());
        assert!(all.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn from_parameters_roundtrip() {
        let m = LogisticRegression::from_parameters(vec![2.0, -1.0], 0.5);
        assert_eq!(m.weights(), &[2.0, -1.0]);
        assert_eq!(m.bias(), 0.5);
        assert!((m.margin(&[1.0, 1.0]) - 1.5).abs() < 1e-12);
        assert_eq!(LogisticRegression::from_parameters(vec![], 0.0).accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn stronger_regularisation_shrinks_weights() {
        let (xs, ys) = toy(300, 5);
        let weak = LogisticRegression::train(
            &xs,
            &ys,
            &TrainConfig { l2: 1e-4, ..TrainConfig::default() },
        )
        .unwrap();
        let strong =
            LogisticRegression::train(&xs, &ys, &TrainConfig { l2: 1.0, ..TrainConfig::default() })
                .unwrap();
        let norm = |m: &LogisticRegression| m.weights().iter().map(|w| w * w).sum::<f64>().sqrt();
        assert!(norm(&strong) < norm(&weak));
    }
}
