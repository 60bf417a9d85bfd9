//! Regret: how much worse an algorithm is than the per-input optimum.
//!
//! Section 6.3.3.2 of the paper aggregates results across datasets and
//! policies with very different error scales, so instead of absolute error it
//! reports, for each input, the **regret** of algorithm `A` in a pool `𝒜`:
//!
//! ```text
//! regret(A, x, ε) = Err(A(x, ε), x) / min_{A' ∈ 𝒜} Err(A'(x, ε), x)
//! ```
//!
//! A regret of 1 means the algorithm was the best of the pool on that input.

use osdp_core::error::{OsdpError, Result};
use std::collections::BTreeMap;

/// Regret of a single error value against the pool optimum.
///
/// If the optimum is 0 (some algorithm achieved zero error), the regret is 1
/// when the algorithm also achieved 0 and `f64::INFINITY` otherwise.
pub fn regret(error: f64, optimum: f64) -> f64 {
    if optimum <= 0.0 {
        if error <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        error / optimum
    }
}

/// Accumulates per-input errors for a pool of algorithms and computes average
/// regrets, mirroring the aggregation of Figures 6–10.
#[derive(Debug, Default, Clone)]
pub struct RegretTable {
    /// `errors[input][algorithm] = error`
    errors: BTreeMap<String, BTreeMap<String, f64>>,
}

impl RegretTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the error of `algorithm` on `input`.
    pub fn record(&mut self, input: impl Into<String>, algorithm: impl Into<String>, error: f64) {
        self.errors.entry(input.into()).or_default().insert(algorithm.into(), error);
    }

    /// Number of inputs recorded.
    pub fn num_inputs(&self) -> usize {
        self.errors.len()
    }

    /// The names of all algorithms that appear on at least one input.
    pub fn algorithms(&self) -> Vec<String> {
        let mut names: Vec<String> = self.errors.values().flat_map(|m| m.keys().cloned()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// The optimum (minimum error over the pool) on a given input.
    pub fn optimum(&self, input: &str) -> Option<f64> {
        self.errors.get(input).and_then(|m| m.values().copied().min_by(|a, b| a.total_cmp(b)))
    }

    /// The regret of `algorithm` on `input`, if both are recorded.
    pub fn regret_on(&self, input: &str, algorithm: &str) -> Option<f64> {
        let per_input = self.errors.get(input)?;
        let err = *per_input.get(algorithm)?;
        let opt = per_input.values().copied().min_by(|a, b| a.total_cmp(b))?;
        Some(regret(err, opt))
    }

    /// The average regret of `algorithm` across all inputs on which it was
    /// evaluated (the y-axis of Figures 6–8 and 10).
    pub fn average_regret(&self, algorithm: &str) -> Result<f64> {
        let mut total = 0.0;
        let mut count = 0usize;
        for per_input in self.errors.values() {
            if let Some(&err) = per_input.get(algorithm) {
                let opt = per_input
                    .values()
                    .copied()
                    .min_by(|a, b| a.total_cmp(b))
                    .expect("non-empty by construction");
                total += regret(err, opt);
                count += 1;
            }
        }
        if count == 0 {
            Err(OsdpError::InvalidInput(format!("algorithm {algorithm} has no recorded errors")))
        } else {
            Ok(total / count as f64)
        }
    }

    /// Average regret of every algorithm, sorted by name.
    pub fn average_regrets(&self) -> Vec<(String, f64)> {
        self.algorithms()
            .into_iter()
            .filter_map(|a| self.average_regret(&a).ok().map(|r| (a, r)))
            .collect()
    }

    /// Retains only the inputs whose name satisfies `keep`, returning a new
    /// table. Used to slice by policy (`Close` / `Far`), by non-sensitive
    /// ratio, or by dataset when reproducing individual figures.
    pub fn filter_inputs<F: Fn(&str) -> bool>(&self, keep: F) -> RegretTable {
        RegretTable {
            errors: self
                .errors
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Merges another table into this one (inputs with the same name are
    /// merged algorithm-wise).
    pub fn merge(&mut self, other: &RegretTable) {
        for (input, per_input) in &other.errors {
            let entry = self.errors.entry(input.clone()).or_default();
            for (alg, err) in per_input {
                entry.insert(alg.clone(), *err);
            }
        }
    }

    /// Raw access to the recorded error of an algorithm on an input.
    pub fn error_on(&self, input: &str, algorithm: &str) -> Option<f64> {
        self.errors.get(input).and_then(|m| m.get(algorithm)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> RegretTable {
        let mut t = RegretTable::new();
        // input A: DAWA best
        t.record("close/0.99/adult", "DAWA", 1.0);
        t.record("close/0.99/adult", "OsdpLaplaceL1", 2.0);
        t.record("close/0.99/adult", "DAWAz", 1.5);
        // input B: OsdpLaplaceL1 best
        t.record("close/0.50/patent", "DAWA", 6.0);
        t.record("close/0.50/patent", "OsdpLaplaceL1", 2.0);
        t.record("close/0.50/patent", "DAWAz", 3.0);
        t
    }

    #[test]
    fn regret_of_single_values() {
        assert_eq!(regret(2.0, 1.0), 2.0);
        assert_eq!(regret(1.0, 1.0), 1.0);
        assert_eq!(regret(0.0, 0.0), 1.0);
        assert_eq!(regret(0.5, 0.0), f64::INFINITY);
    }

    #[test]
    fn per_input_regret_and_optimum() {
        let t = sample_table();
        assert_eq!(t.num_inputs(), 2);
        assert_eq!(t.optimum("close/0.99/adult"), Some(1.0));
        assert_eq!(t.regret_on("close/0.99/adult", "DAWA"), Some(1.0));
        assert_eq!(t.regret_on("close/0.99/adult", "OsdpLaplaceL1"), Some(2.0));
        assert_eq!(t.regret_on("close/0.50/patent", "DAWA"), Some(3.0));
        assert_eq!(t.regret_on("missing", "DAWA"), None);
        assert_eq!(t.regret_on("close/0.99/adult", "missing"), None);
        assert_eq!(t.error_on("close/0.99/adult", "DAWAz"), Some(1.5));
    }

    #[test]
    fn average_regret_across_inputs() {
        let t = sample_table();
        // DAWA: (1.0 + 3.0) / 2 = 2.0 ; OsdpLaplaceL1: (2.0 + 1.0) / 2 = 1.5
        assert!((t.average_regret("DAWA").unwrap() - 2.0).abs() < 1e-12);
        assert!((t.average_regret("OsdpLaplaceL1").unwrap() - 1.5).abs() < 1e-12);
        assert!(t.average_regret("nope").is_err());
        let all = t.average_regrets();
        assert_eq!(all.len(), 3);
        assert_eq!(t.algorithms(), vec!["DAWA", "DAWAz", "OsdpLaplaceL1"]);
    }

    #[test]
    fn filtering_and_merging() {
        let t = sample_table();
        let only_99 = t.filter_inputs(|name| name.contains("0.99"));
        assert_eq!(only_99.num_inputs(), 1);
        assert!((only_99.average_regret("OsdpLaplaceL1").unwrap() - 2.0).abs() < 1e-12);

        let mut merged = RegretTable::new();
        merged.merge(&t);
        merged.record("close/0.99/adult", "Laplace", 10.0);
        assert_eq!(merged.num_inputs(), 2);
        assert_eq!(merged.algorithms().len(), 4);
        assert_eq!(merged.regret_on("close/0.99/adult", "Laplace"), Some(10.0));
    }

    #[test]
    fn best_algorithm_has_regret_one_on_its_inputs() {
        let t = sample_table();
        for input in ["close/0.99/adult", "close/0.50/patent"] {
            let best = t
                .algorithms()
                .into_iter()
                .min_by(|a, b| {
                    t.error_on(input, a).unwrap().total_cmp(&t.error_on(input, b).unwrap())
                })
                .unwrap();
            assert_eq!(t.regret_on(input, &best), Some(1.0));
        }
    }
}
