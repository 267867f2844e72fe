//! Plain-text table rendering used by the figure and table generators.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different number of columns than the header.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width must match the header"
        );
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i] + 2));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a time in seconds with three decimal places.
pub fn secs(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["app", "time"]);
        t.add_row(vec!["HPCCG", "1.0"]);
        t.add_row(vec!["miniVite", "12.5"]);
        let text = t.render();
        assert!(text.contains("app"));
        assert!(text.contains("miniVite"));
        // Header and separator plus two rows.
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.add_row(vec!["only one"]);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(secs(0.0), "0.000");
    }
}
