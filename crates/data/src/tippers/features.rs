//! Classification features for the resident-vs-visitor task (Section 6.2).
//!
//! The paper derives the following features from each daily trajectory:
//! duration of stay, number of distinct access points visited, the number of
//! visits to each individual access point, and occurrence counts of frequent
//! consecutive 3-access-point patterns (patterns appearing in at least 50
//! trajectories).

use super::ngram::NgramCounts;
use super::trajectory::{Trajectory, TrajectoryDataset};
use std::collections::BTreeMap;

/// Extracts fixed-length numeric feature vectors from trajectories.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureExtractor {
    ap_count: usize,
    /// Frequent consecutive 3-AP patterns discovered on the fitting data.
    patterns: Vec<Vec<u8>>,
}

impl FeatureExtractor {
    /// Default support threshold: a pattern must appear in at least this many
    /// trajectories (the paper uses 50).
    pub const DEFAULT_MIN_SUPPORT: usize = 50;
    /// Cap on the number of frequent patterns kept as features, to keep the
    /// feature dimension bounded on large simulations.
    pub const MAX_PATTERNS: usize = 128;

    /// Discovers frequent 3-AP consecutive patterns on `trajectories` and
    /// fixes the feature layout.
    pub fn fit<'a, I>(trajectories: I, ap_count: usize, min_support: usize) -> Self
    where
        I: IntoIterator<Item = &'a Trajectory>,
    {
        // Count the number of *trajectories* containing each trigram
        // (distinct per trajectory).
        let mut support: BTreeMap<u64, (Vec<u8>, usize)> = BTreeMap::new();
        for t in trajectories {
            let mut seen = std::collections::BTreeSet::new();
            for g in t.ngrams(3) {
                let key = NgramCounts::encode(&g, ap_count);
                if seen.insert(key) {
                    support.entry(key).or_insert_with(|| (g.clone(), 0)).1 += 1;
                }
            }
        }
        let mut frequent: Vec<(Vec<u8>, usize)> =
            support.into_values().filter(|(_, count)| *count >= min_support).collect();
        // Most frequent first; deterministic tie-break on the pattern itself.
        frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        frequent.truncate(Self::MAX_PATTERNS);
        Self { ap_count, patterns: frequent.into_iter().map(|(p, _)| p).collect() }
    }

    /// The frequent patterns used as features.
    pub fn patterns(&self) -> &[Vec<u8>] {
        &self.patterns
    }

    /// Dimensionality of the produced feature vectors.
    pub fn dimension(&self) -> usize {
        2 + self.ap_count + self.patterns.len()
    }

    /// Human-readable feature names, aligned with [`FeatureExtractor::features`].
    pub fn feature_names(&self) -> Vec<String> {
        let mut names = vec!["duration_slots".to_string(), "distinct_aps".to_string()];
        names.extend((0..self.ap_count).map(|ap| format!("visits_ap_{ap}")));
        names.extend(self.patterns.iter().map(|p| {
            format!("pattern_{}", p.iter().map(|a| a.to_string()).collect::<Vec<_>>().join("_"))
        }));
        names
    }

    /// Extracts the feature vector of a single trajectory.
    pub fn features(&self, trajectory: &Trajectory) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dimension());
        out.push(trajectory.present_slots() as f64);
        out.push(trajectory.distinct_aps().len() as f64);
        for ap in 0..self.ap_count {
            out.push(trajectory.visits_to(ap as u8) as f64);
        }
        for pattern in &self.patterns {
            out.push(trajectory.pattern_count(pattern) as f64);
        }
        out
    }
}

/// A labelled feature matrix ready for the `osdp-ml` classifiers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LabeledDataset {
    /// One feature vector per trajectory.
    pub features: Vec<Vec<f64>>,
    /// `true` when the trajectory belongs to a resident.
    pub labels: Vec<bool>,
}

impl LabeledDataset {
    /// Builds the labelled dataset for a set of trajectories using a fitted
    /// extractor, labelling each trajectory by whether its owner is a
    /// resident.
    pub fn build<'a, I>(
        dataset: &TrajectoryDataset,
        trajectories: I,
        extractor: &FeatureExtractor,
    ) -> Self
    where
        I: IntoIterator<Item = &'a Trajectory>,
    {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for t in trajectories {
            features.push(extractor.features(t));
            labels.push(dataset.is_resident(t.user));
        }
        Self { features, labels }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimension (0 when empty).
    pub fn dimension(&self) -> usize {
        self.features.first().map(Vec::len).unwrap_or(0)
    }

    /// Fraction of positive (resident) labels.
    pub fn positive_rate(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.labels.iter().filter(|&&l| l).count() as f64 / self.labels.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tippers::{generate_dataset, TippersConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn dataset() -> TrajectoryDataset {
        let mut rng = ChaCha12Rng::seed_from_u64(33);
        generate_dataset(&TippersConfig::small(), &mut rng)
    }

    #[test]
    fn extractor_dimension_and_names_are_consistent() {
        let ds = dataset();
        let extractor = FeatureExtractor::fit(ds.trajectories(), ds.building().ap_count(), 10);
        assert_eq!(extractor.dimension(), extractor.feature_names().len());
        assert_eq!(extractor.dimension(), 2 + 64 + extractor.patterns().len());
        // Feature vectors have the advertised dimension.
        let f = extractor.features(&ds.trajectories()[0]);
        assert_eq!(f.len(), extractor.dimension());
    }

    #[test]
    fn frequent_patterns_respect_support_threshold() {
        let ds = dataset();
        let strict = FeatureExtractor::fit(ds.trajectories(), 64, 1_000_000);
        assert!(strict.patterns().is_empty(), "absurd support threshold leaves no patterns");
        let lenient = FeatureExtractor::fit(ds.trajectories(), 64, 5);
        assert!(!lenient.patterns().is_empty());
        assert!(lenient.patterns().len() <= FeatureExtractor::MAX_PATTERNS);
        for p in lenient.patterns() {
            assert_eq!(p.len(), 3);
        }
    }

    #[test]
    fn duration_and_distinct_ap_features_reflect_the_trajectory() {
        let ds = dataset();
        let extractor = FeatureExtractor::fit(ds.trajectories(), 64, 50);
        let t = &ds.trajectories()[0];
        let f = extractor.features(t);
        assert_eq!(f[0], t.present_slots() as f64);
        assert_eq!(f[1], t.distinct_aps().len() as f64);
        // per-AP visit features sum to the duration
        let visit_sum: f64 = f[2..2 + 64].iter().sum();
        assert_eq!(visit_sum, t.present_slots() as f64);
    }

    #[test]
    fn labeled_dataset_labels_residents() {
        let ds = dataset();
        let extractor = FeatureExtractor::fit(ds.trajectories(), 64, 20);
        let labeled = LabeledDataset::build(&ds, ds.trajectories(), &extractor);
        assert_eq!(labeled.len(), ds.len());
        assert!(!labeled.is_empty());
        assert_eq!(labeled.dimension(), extractor.dimension());
        let rate = labeled.positive_rate();
        assert!(rate > 0.2 && rate < 0.95, "resident trajectory share {rate}");
        assert_eq!(LabeledDataset::default().positive_rate(), 0.0);
        assert_eq!(LabeledDataset::default().dimension(), 0);
    }

    #[test]
    fn residents_have_larger_duration_features_on_average() {
        let ds = dataset();
        let extractor = FeatureExtractor::fit(ds.trajectories(), 64, 20);
        let labeled = LabeledDataset::build(&ds, ds.trajectories(), &extractor);
        let mut resident_duration = 0.0;
        let mut resident_count = 0.0;
        let mut visitor_duration = 0.0;
        let mut visitor_count = 0.0;
        for (f, &label) in labeled.features.iter().zip(labeled.labels.iter()) {
            if label {
                resident_duration += f[0];
                resident_count += 1.0;
            } else {
                visitor_duration += f[0];
                visitor_count += 1.0;
            }
        }
        assert!(resident_duration / resident_count > visitor_duration / visitor_count);
    }
}
