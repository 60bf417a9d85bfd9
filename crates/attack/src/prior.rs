//! Adversary priors over the target record's value.
//!
//! Theorem 3.1 proves freedom from exclusion attacks for adversaries whose
//! prior over the database factors into a product of per-record priors. For
//! the per-record release models of this crate only the prior over the target
//! record matters, so a [`ProductPrior`] is simply a distribution over a
//! small value domain.

use osdp_core::error::{OsdpError, Result};

/// A prior distribution over the target record's value (domain `0..n`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProductPrior {
    probabilities: Vec<f64>,
}

impl ProductPrior {
    /// A uniform prior over a domain of the given size.
    pub fn uniform(domain: usize) -> Result<Self> {
        if domain == 0 {
            return Err(OsdpError::InvalidInput("empty domain".into()));
        }
        Ok(Self { probabilities: vec![1.0 / domain as f64; domain] })
    }

    /// An arbitrary prior; weights are normalised and must be non-negative
    /// with a positive sum.
    pub fn from_weights(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(OsdpError::InvalidInput("empty prior".into()));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(OsdpError::InvalidInput("prior weights must be non-negative".into()));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(OsdpError::InvalidInput("prior weights must not all be zero".into()));
        }
        Ok(Self { probabilities: weights.iter().map(|w| w / total).collect() })
    }

    /// Domain size.
    pub fn domain(&self) -> usize {
        self.probabilities.len()
    }

    /// The prior probability of value `v` (0 outside the domain).
    pub fn probability(&self, v: u32) -> f64 {
        self.probabilities.get(v as usize).copied().unwrap_or(0.0)
    }

    /// The prior odds of value `x` against value `y`; `None` if either has
    /// zero prior mass (Definition 3.4 only quantifies over values with
    /// positive prior probability).
    pub fn odds(&self, x: u32, y: u32) -> Option<f64> {
        let px = self.probability(x);
        let py = self.probability(y);
        if px > 0.0 && py > 0.0 {
            Some(px / py)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_prior() {
        let p = ProductPrior::uniform(4).unwrap();
        assert_eq!(p.domain(), 4);
        assert!((p.probability(0) - 0.25).abs() < 1e-12);
        assert_eq!(p.probability(9), 0.0);
        assert_eq!(p.odds(0, 1), Some(1.0));
        assert_eq!(p.odds(0, 9), None);
        assert!(ProductPrior::uniform(0).is_err());
    }

    #[test]
    fn weighted_prior_normalises() {
        let p = ProductPrior::from_weights(&[1.0, 3.0]).unwrap();
        assert!((p.probability(0) - 0.25).abs() < 1e-12);
        assert!((p.probability(1) - 0.75).abs() < 1e-12);
        assert_eq!(p.odds(1, 0), Some(3.0));
        assert!(ProductPrior::from_weights(&[]).is_err());
        assert!(ProductPrior::from_weights(&[-1.0, 2.0]).is_err());
        assert!(ProductPrior::from_weights(&[0.0, 0.0]).is_err());
        assert!(ProductPrior::from_weights(&[f64::NAN]).is_err());
    }
}
