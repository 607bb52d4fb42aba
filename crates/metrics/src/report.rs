//! Plain-text reporting for the experiment harness.
//!
//! Every experiment binary prints (a) a human-readable table that mirrors the rows/series of
//! the corresponding paper figure and (b) machine-readable CSV lines prefixed with `csv,` so
//! results can be grepped out and plotted. Keeping the formatting in one place makes the
//! binaries short and the output uniform.

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; the number of cells must match the number of headers.
    ///
    /// # Panics
    /// Panics if the row width does not match the header width.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as an aligned text block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format one machine-readable CSV line with a `csv,` prefix (greppable from mixed output).
pub fn csv_line(experiment: &str, fields: &[String]) -> String {
    let mut parts = vec!["csv".to_string(), experiment.to_string()];
    parts.extend_from_slice(fields);
    parts.join(",")
}

/// Format a float in compact scientific notation for table cells.
pub fn sci(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 0.01 && value.abs() < 10_000.0 {
        format!("{value:.4}")
    } else {
        format!("{value:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("Fig. X", &["dataset", "AE"]);
        assert!(t.is_empty());
        t.add_row(vec!["Zipf".into(), "12.5".into()]);
        t.add_row(vec!["MovieLens".into(), "3".into()]);
        assert_eq!(t.len(), 2);
        let rendered = t.render();
        assert!(rendered.contains("== Fig. X =="));
        assert!(rendered.contains("dataset"));
        assert!(rendered.contains("MovieLens"));
        // Every data line has the same length because columns are padded.
        let lines: Vec<&str> = rendered.lines().skip(1).collect();
        assert_eq!(lines[1].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_output_is_parseable() {
        assert_eq!(
            csv_line("fig5", &["Zipf".into(), "0.1".into()]),
            "csv,fig5,Zipf,0.1"
        );
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(1.5), "1.5000");
        assert!(sci(1.0e9).contains('e'));
        assert!(sci(1.0e-6).contains('e'));
    }
}
