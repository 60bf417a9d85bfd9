//! Feature scaling: standardisation and unit-norm clipping.

/// Per-feature standardisation (zero mean, unit variance) fitted on training
/// data and applied to both training and test folds.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits the scaler on a feature matrix (rows = examples).
    ///
    /// Constant features get a standard deviation of 1 so they pass through
    /// unchanged (centred at zero) instead of dividing by zero.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self { means: Vec::new(), stds: Vec::new() };
        }
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; dim];
        for row in rows {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; dim];
        for row in rows {
            for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Self { means, stds }
    }

    /// Transforms a single feature vector.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter().zip(self.means.iter().zip(&self.stds)).map(|(v, (m, s))| (v - m) / s).collect()
    }

    /// Transforms a whole matrix.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }

    /// Number of features the scaler was fitted on.
    pub fn dimension(&self) -> usize {
        self.means.len()
    }
}

/// Scales each row to have L2 norm at most 1, the preprocessing required by
/// the privacy analysis of objective perturbation ("we normalized feature
/// vectors to ensure the norm is bounded by 1", Section 6.3.1).
pub fn clip_to_unit_norm(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    rows.iter()
        .map(|row| {
            let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 1.0 {
                row.iter().map(|v| v / norm).collect()
            } else {
                row.clone()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizer_centres_and_scales() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let s = Standardizer::fit(&rows);
        assert_eq!(s.dimension(), 2);
        let t = s.transform_all(&rows);
        // First feature: mean 3, std sqrt(8/3)
        let mean0: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        let var0: f64 = t.iter().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        assert!((var0 - 1.0).abs() < 1e-9);
        // Constant feature passes through centred at zero.
        assert!(t.iter().all(|r| r[1].abs() < 1e-12));
    }

    #[test]
    fn standardizer_handles_empty_input() {
        let s = Standardizer::fit(&[]);
        assert_eq!(s.dimension(), 0);
        assert!(s.transform(&[]).is_empty());
    }

    #[test]
    fn unit_norm_clipping_only_shrinks_long_rows() {
        let rows = vec![vec![3.0, 4.0], vec![0.3, 0.4]];
        let clipped = clip_to_unit_norm(&rows);
        let norm0 = clipped[0].iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm0 - 1.0).abs() < 1e-12, "long rows are scaled to norm 1");
        assert_eq!(clipped[1], vec![0.3, 0.4], "short rows are untouched");
    }
}
