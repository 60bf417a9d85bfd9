//! Collecting experiment results into a report.

use osdp_metrics::ResultTable;
use std::io::Write;
use std::path::Path;

/// A named collection of result tables produced by one or more runners.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Report title.
    pub title: String,
    /// The tables, in presentation order.
    pub tables: Vec<ResultTable>,
}

impl Report {
    /// An empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), tables: Vec::new() }
    }

    /// Adds a table.
    pub fn push(&mut self, table: ResultTable) {
        self.tables.push(table);
    }

    /// Adds many tables.
    pub fn extend(&mut self, tables: Vec<ResultTable>) {
        self.tables.extend(tables);
    }

    /// Renders every table as fixed-width text.
    pub fn to_text(&self) -> String {
        let mut out = format!("==== {} ====\n\n", self.title);
        for t in &self.tables {
            out.push_str(&t.to_text());
            out.push('\n');
        }
        out
    }

    /// Renders the report as Markdown (the format EXPERIMENTS.md embeds).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {}\n\n", self.title);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        out
    }

    /// Serialises the report to pretty JSON (hand-rolled).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": {},\n", osdp_metrics::json_string(&self.title)));
        out.push_str("  \"tables\": [\n");
        for (i, table) in self.tables.iter().enumerate() {
            for line in table.to_json().lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
            if i + 1 < self.tables.len() {
                out.truncate(out.trim_end().len());
                out.push_str(",\n");
            }
        }
        out.push_str("  ]\n}");
        out
    }

    /// Writes the JSON and Markdown renderings next to each other under
    /// `dir/<stem>.json` and `dir/<stem>.md`.
    pub fn save(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut json = std::fs::File::create(dir.join(format!("{stem}.json")))?;
        json.write_all(self.to_json().as_bytes())?;
        let mut md = std::fs::File::create(dir.join(format!("{stem}.md")))?;
        md.write_all(self.to_markdown().as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdp_metrics::ResultRow;

    fn sample() -> Report {
        let mut report = Report::new("Smoke");
        let mut t = ResultTable::new("Table A");
        t.push(ResultRow::new().dim("x", 1).measure("y", 2.0));
        report.push(t);
        report.extend(vec![ResultTable::new("Table B")]);
        report
    }

    #[test]
    fn rendering_contains_all_tables() {
        let r = sample();
        assert_eq!(r.tables.len(), 2);
        let text = r.to_text();
        assert!(text.contains("Smoke") && text.contains("Table A") && text.contains("Table B"));
        let md = r.to_markdown();
        assert!(md.starts_with("## Smoke"));
        assert!(md.contains("### Table A"));
        let json = r.to_json();
        assert!(json.contains("\"Table B\""));
    }

    #[test]
    fn save_writes_both_files() {
        let dir = std::env::temp_dir().join(format!("osdp-report-test-{}", std::process::id()));
        let r = sample();
        r.save(&dir, "smoke").unwrap();
        assert!(dir.join("smoke.json").exists());
        assert!(dir.join("smoke.md").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
