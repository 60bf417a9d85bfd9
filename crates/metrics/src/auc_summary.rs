//! Classification error summaries for the Figure 1 experiment.
//!
//! The paper reports `1 − AUC` (area under the ROC curve) averaged over
//! 10-fold cross-validation. The ROC/AUC computation itself lives in
//! `osdp-ml`; this module only aggregates fold-level AUCs into the error
//! statistic plotted in Figure 1.

use osdp_core::error::{OsdpError, Result};

/// Aggregate of per-fold AUC values for one (algorithm, policy, ε) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AucSummary {
    fold_aucs: Vec<f64>,
}

impl AucSummary {
    /// Creates a summary from per-fold AUCs; every AUC must lie in `[0, 1]`.
    pub fn new(fold_aucs: Vec<f64>) -> Result<Self> {
        if fold_aucs.is_empty() {
            return Err(OsdpError::InvalidInput("AUC summary needs at least one fold".into()));
        }
        if fold_aucs.iter().any(|a| !(0.0..=1.0).contains(a)) {
            return Err(OsdpError::InvalidInput("AUC values must lie in [0, 1]".into()));
        }
        Ok(Self { fold_aucs })
    }

    /// Number of folds.
    pub fn folds(&self) -> usize {
        self.fold_aucs.len()
    }

    /// Mean AUC over folds.
    pub fn mean_auc(&self) -> f64 {
        self.fold_aucs.iter().sum::<f64>() / self.fold_aucs.len() as f64
    }

    /// The paper's plotted quantity: `1 − mean AUC`.
    pub fn error(&self) -> f64 {
        1.0 - self.mean_auc()
    }

    /// Standard deviation of the per-fold AUCs (population).
    pub fn std_dev(&self) -> f64 {
        let m = self.mean_auc();
        (self.fold_aucs.iter().map(|a| (a - m) * (a - m)).sum::<f64>()
            / self.fold_aucs.len() as f64)
            .sqrt()
    }

    /// The raw per-fold AUC values.
    pub fn fold_aucs(&self) -> &[f64] {
        &self.fold_aucs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(AucSummary::new(vec![]).is_err());
        assert!(AucSummary::new(vec![1.2]).is_err());
        assert!(AucSummary::new(vec![-0.1]).is_err());
        assert!(AucSummary::new(vec![0.5, 0.9]).is_ok());
    }

    #[test]
    fn mean_error_and_std() {
        let s = AucSummary::new(vec![0.9, 0.8, 1.0, 0.9]).unwrap();
        assert_eq!(s.folds(), 4);
        assert!((s.mean_auc() - 0.9).abs() < 1e-12);
        assert!((s.error() - 0.1).abs() < 1e-12);
        assert!(s.std_dev() > 0.0);
        assert_eq!(s.fold_aucs().len(), 4);

        let perfect = AucSummary::new(vec![1.0; 10]).unwrap();
        assert_eq!(perfect.error(), 0.0);
        assert_eq!(perfect.std_dev(), 0.0);
    }

    #[test]
    fn random_classifier_has_error_half() {
        let s = AucSummary::new(vec![0.5; 10]).unwrap();
        assert!((s.error() - 0.5).abs() < 1e-12);
    }
}
