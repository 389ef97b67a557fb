//! Minimal text-table rendering for experiment output.

/// A right-aligned text table.
///
/// # Example
///
/// ```
/// use ntv_bench::table::TextTable;
/// let mut t = TextTable::new(&["Vdd", "drop %"]);
/// t.row(&["0.50", "5.1"]);
/// t.row(&["0.55", "2.6"]);
/// let s = t.render();
/// assert!(s.contains("0.50"));
/// assert_eq!(s.lines().count(), 4); // header + rule + 2 rows
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|&h| h.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header"
        );
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_owned()).collect());
        self
    }

    /// Render with right-aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["a", "long-header"]);
        t.row(&["12345", "x"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].ends_with("x"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one"]);
    }
}
