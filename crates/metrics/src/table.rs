//! A small labelled result table used by the experiment harness.
//!
//! Each experiment produces a [`ResultTable`]: a list of rows keyed by string
//! dimensions (policy, ε, algorithm, dataset, ...) with one or more named
//! numeric measures. The table can be rendered as aligned text (what the
//! binaries print), as Markdown (what EXPERIMENTS.md embeds), or serialised
//! to JSON by the experiments crate.

use osdp_core::{json_number, json_string};
use std::collections::BTreeMap;

/// A single row of an experiment result table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultRow {
    /// Dimension values, e.g. `{"policy": "P99", "algorithm": "OsdpRR"}`.
    pub dims: BTreeMap<String, String>,
    /// Measures, e.g. `{"mre": 0.31}`.
    pub measures: BTreeMap<String, f64>,
}

impl ResultRow {
    /// Creates an empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a dimension value.
    pub fn dim(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.dims.insert(key.into(), value.to_string());
        self
    }

    /// Adds a measure value.
    pub fn measure(mut self, key: impl Into<String>, value: f64) -> Self {
        self.measures.insert(key.into(), value);
        self
    }
}

/// A labelled collection of [`ResultRow`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Table title (e.g. `"Figure 4a: MRE on the TIPPERS histogram, eps = 1"`).
    pub title: String,
    /// Rows in insertion order.
    pub rows: Vec<ResultRow>,
}

impl ResultTable {
    /// An empty table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), rows: Vec::new() }
    }

    /// Appends a row.
    pub fn push(&mut self, row: ResultRow) {
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All dimension keys appearing in the table, sorted.
    pub fn dimension_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.rows.iter().flat_map(|r| r.dims.keys().cloned()).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// All measure keys appearing in the table, sorted.
    pub fn measure_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> =
            self.rows.iter().flat_map(|r| r.measures.keys().cloned()).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Finds the measure value of the first row matching all given dimension
    /// constraints.
    pub fn lookup(&self, constraints: &[(&str, &str)], measure: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| {
                constraints.iter().all(|(k, v)| r.dims.get(*k).map(String::as_str) == Some(*v))
            })
            .and_then(|r| r.measures.get(measure).copied())
    }

    /// Renders the table as fixed-width text with one column per dimension and
    /// measure, suitable for terminal output.
    pub fn to_text(&self) -> String {
        let dims = self.dimension_keys();
        let measures = self.measure_keys();
        let mut header: Vec<String> = dims.clone();
        header.extend(measures.clone());

        let mut body: Vec<Vec<String>> = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut cells = Vec::with_capacity(header.len());
            for d in &dims {
                cells.push(row.dims.get(d).cloned().unwrap_or_default());
            }
            for m in &measures {
                cells.push(row.measures.get(m).map(|v| format!("{v:.6}")).unwrap_or_default());
            }
            body.push(cells);
        }

        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &body {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }

        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };

        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&render_row(&header));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &body {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Serialises the table to a JSON object (hand-rolled).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\"dims\": {");
            let dims: Vec<String> = row
                .dims
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
                .collect();
            out.push_str(&dims.join(", "));
            out.push_str("}, \"measures\": {");
            let measures: Vec<String> = row
                .measures
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
                .collect();
            out.push_str(&measures.join(", "));
            out.push_str("}}");
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}");
        out
    }

    /// Renders the table as a GitHub-flavoured Markdown table.
    pub fn to_markdown(&self) -> String {
        let dims = self.dimension_keys();
        let measures = self.measure_keys();
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        let mut header: Vec<String> = dims.clone();
        header.extend(measures.clone());
        out.push_str(&format!("| {} |\n", header.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
        for row in &self.rows {
            let mut cells: Vec<String> = Vec::with_capacity(header.len());
            for d in &dims {
                cells.push(row.dims.get(d).cloned().unwrap_or_default());
            }
            for m in &measures {
                cells.push(row.measures.get(m).map(|v| format!("{v:.4}")).unwrap_or_default());
            }
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultTable {
        let mut t = ResultTable::new("Table 1: released non-sensitive records vs epsilon");
        t.push(ResultRow::new().dim("epsilon", 1.0).measure("released_pct", 63.2));
        t.push(ResultRow::new().dim("epsilon", 0.5).measure("released_pct", 39.3));
        t.push(ResultRow::new().dim("epsilon", 0.1).measure("released_pct", 9.5));
        t
    }

    #[test]
    fn rows_and_keys() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.dimension_keys(), vec!["epsilon"]);
        assert_eq!(t.measure_keys(), vec!["released_pct"]);
        assert!(ResultTable::new("empty").is_empty());
    }

    #[test]
    fn lookup_finds_matching_rows() {
        let t = sample();
        assert_eq!(t.lookup(&[("epsilon", "0.5")], "released_pct"), Some(39.3));
        assert_eq!(t.lookup(&[("epsilon", "2")], "released_pct"), None);
        assert_eq!(t.lookup(&[("epsilon", "0.5")], "missing"), None);
    }

    #[test]
    fn text_rendering_contains_all_cells() {
        let t = sample();
        let text = t.to_text();
        assert!(text.contains("Table 1"));
        assert!(text.contains("epsilon"));
        assert!(text.contains("released_pct"));
        assert!(text.contains("63.2"));
        assert!(text.contains("9.5"));
    }

    #[test]
    fn markdown_rendering_is_a_table() {
        let t = sample();
        let md = t.to_markdown();
        assert!(md.starts_with("### Table 1"));
        assert!(md.contains("| epsilon |"));
        assert!(md.contains("| 1 | 63.2000 |"));
        assert_eq!(md.matches('\n').count(), 2 + 1 + 3 + 1);
    }

    #[test]
    fn multi_dimension_rows_render_in_order() {
        let mut t = ResultTable::new("fig");
        t.push(
            ResultRow::new()
                .dim("policy", "P99")
                .dim("algorithm", "OsdpRR")
                .measure("mre", 0.25)
                .measure("rel95", 1.5),
        );
        assert_eq!(t.dimension_keys(), vec!["algorithm", "policy"]);
        assert_eq!(t.measure_keys(), vec!["mre", "rel95"]);
        let text = t.to_text();
        assert!(text.contains("OsdpRR"));
        assert!(text.contains("P99"));
    }
}
