//! The `Random` baseline of Figure 1: predicts from the label prior alone.

use rand::Rng;

/// A classifier that ignores the features entirely and scores every example
/// with an independent random draw (its expected AUC is 0.5, i.e. an error of
/// 0.5 — the horizontal line of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomClassifier {
    /// The positive-class prior observed on the training labels; recorded for
    /// reporting, not used for ranking (a constant prior would produce fully
    /// tied scores, which also yields AUC 0.5).
    positive_rate: f64,
}

impl RandomClassifier {
    /// Fits the baseline (records the label prior).
    pub fn fit(labels: &[bool]) -> Self {
        let positive_rate = if labels.is_empty() {
            0.0
        } else {
            labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64
        };
        Self { positive_rate }
    }

    /// The observed positive rate.
    pub fn positive_rate(&self) -> f64 {
        self.positive_rate
    }

    /// Scores a batch of examples with uniform random draws.
    pub fn predict_proba_all<G: Rng + ?Sized>(&self, count: usize, rng: &mut G) -> Vec<f64> {
        (0..count).map(|_| rng.gen()).collect()
    }

    /// The theoretical error (`1 − AUC`) of random guessing.
    pub const EXPECTED_ERROR: f64 = 0.5;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roc::auc;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn records_the_prior() {
        let labels = [true, false, false, false];
        let b = RandomClassifier::fit(&labels);
        assert!((b.positive_rate() - 0.25).abs() < 1e-12);
        assert_eq!(RandomClassifier::fit(&[]).positive_rate(), 0.0);
    }

    #[test]
    fn auc_is_about_half() {
        let labels: Vec<bool> = (0..2000).map(|i| i % 5 == 0).collect();
        let b = RandomClassifier::fit(&labels);
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let scores = b.predict_proba_all(labels.len(), &mut rng);
        let a = auc(&scores, &labels).unwrap();
        assert!((a - 0.5).abs() < 0.05, "AUC {a}");
        assert_eq!(RandomClassifier::EXPECTED_ERROR, 0.5);
    }
}
