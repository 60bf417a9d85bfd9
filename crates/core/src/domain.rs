//! Categorical and grid domains for histogram queries.
//!
//! Section 5 of the paper studies histogram queries: counts over a
//! non-overlapping partitioning of the data. A [`CategoricalDomain`] names the
//! bins of a one-dimensional histogram; a [`GridDomain`] is the Cartesian
//! product of two categorical domains, used for the 2-D access-point × hour
//! histogram of Section 6.3.3.1.

/// A finite, ordered categorical domain with `size` bins.
///
/// Bins are addressed by index `0..size`. An optional label per bin is kept
/// for reporting; algorithms only ever use indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalDomain {
    name: String,
    size: usize,
    labels: Option<Vec<String>>,
}

impl CategoricalDomain {
    /// Creates an unlabeled domain of the given size.
    pub fn new(name: impl Into<String>, size: usize) -> Self {
        Self { name: name.into(), size, labels: None }
    }

    /// Creates a labeled domain; the size is the number of labels.
    pub fn with_labels(name: impl Into<String>, labels: Vec<String>) -> Self {
        Self { name: name.into(), size: labels.len(), labels: Some(labels) }
    }

    /// The domain's name (e.g. `"access_point"`, `"age"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of bins.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether `index` addresses a valid bin.
    pub fn contains(&self, index: usize) -> bool {
        index < self.size
    }

    /// The label of a bin, or a synthesized `"<name>[i]"` if unlabeled.
    pub fn label(&self, index: usize) -> String {
        match &self.labels {
            Some(labels) if index < labels.len() => labels[index].clone(),
            _ => format!("{}[{}]", self.name, index),
        }
    }

    /// Iterates over all bin indices.
    pub fn indices(&self) -> std::ops::Range<usize> {
        0..self.size
    }
}

/// The Cartesian product of two categorical domains, in row-major layout.
///
/// Used for 2-D histograms such as the TIPPERS access-point × hour histogram:
/// bin `(r, c)` is stored at flat index `r * cols + c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridDomain {
    rows: CategoricalDomain,
    cols: CategoricalDomain,
}

impl GridDomain {
    /// Creates a grid from its row and column domains.
    pub fn new(rows: CategoricalDomain, cols: CategoricalDomain) -> Self {
        Self { rows, cols }
    }

    /// The row domain.
    pub fn rows(&self) -> &CategoricalDomain {
        &self.rows
    }

    /// The column domain.
    pub fn cols(&self) -> &CategoricalDomain {
        &self.cols
    }

    /// Total number of cells.
    pub fn size(&self) -> usize {
        self.rows.size() * self.cols.size()
    }

    /// Flattens a `(row, col)` coordinate to a bin index.
    ///
    /// Returns `None` when either coordinate is out of range.
    pub fn flatten(&self, row: usize, col: usize) -> Option<usize> {
        if self.rows.contains(row) && self.cols.contains(col) {
            Some(row * self.cols.size() + col)
        } else {
            None
        }
    }

    /// Inverse of [`GridDomain::flatten`].
    pub fn unflatten(&self, index: usize) -> Option<(usize, usize)> {
        if index < self.size() {
            Some((index / self.cols.size(), index % self.cols.size()))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_domain_basic_properties() {
        let d = CategoricalDomain::new("ap", 64);
        assert_eq!(d.name(), "ap");
        assert_eq!(d.size(), 64);
        assert!(d.contains(0));
        assert!(d.contains(63));
        assert!(!d.contains(64));
        assert_eq!(d.indices().count(), 64);
        assert_eq!(d.label(3), "ap[3]");
    }

    #[test]
    fn labeled_domain_reports_labels() {
        let d = CategoricalDomain::with_labels(
            "zone",
            vec!["office".into(), "lounge".into(), "restroom".into()],
        );
        assert_eq!(d.size(), 3);
        assert_eq!(d.label(1), "lounge");
        assert_eq!(d.label(2), "restroom");
    }

    #[test]
    fn grid_flatten_roundtrips() {
        let g =
            GridDomain::new(CategoricalDomain::new("ap", 64), CategoricalDomain::new("hour", 24));
        assert_eq!(g.size(), 64 * 24);
        for row in [0usize, 1, 13, 63] {
            for col in [0usize, 5, 23] {
                let idx = g.flatten(row, col).unwrap();
                assert_eq!(g.unflatten(idx), Some((row, col)));
            }
        }
        assert_eq!(g.flatten(64, 0), None);
        assert_eq!(g.flatten(0, 24), None);
        assert_eq!(g.unflatten(64 * 24), None);
        assert_eq!(g.rows().size(), 64);
        assert_eq!(g.cols().size(), 24);
    }

    #[test]
    fn grid_layout_is_row_major() {
        let g = GridDomain::new(CategoricalDomain::new("r", 3), CategoricalDomain::new("c", 4));
        assert_eq!(g.flatten(0, 0), Some(0));
        assert_eq!(g.flatten(0, 3), Some(3));
        assert_eq!(g.flatten(1, 0), Some(4));
        assert_eq!(g.flatten(2, 3), Some(11));
    }
}
