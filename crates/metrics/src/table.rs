//! Minimal ASCII table renderer for the paper's tables (III–VI).

/// A simple text table with a header row and aligned columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience for string-literal rows.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Renders with `|`-separated aligned columns and a rule under the header.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(&widths) {
                line.push_str(&format!(" {cell:>w$} |", w = w));
            }
            line
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let rule_len = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimal places — the paper's table precision.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a message count the way the paper does (e.g. `4.6k`, `1.1M`).
pub fn human_count(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.1}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new("Demo", &["Algorithm", "F1"]);
        t.row_str(&["WhatsUp", "0.60"]);
        t.row_str(&["Gossip", "0.51"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("WhatsUp"));
        let lines: Vec<&str> = s.lines().collect();
        // header + rule + 2 rows + title
        assert_eq!(lines.len(), 5);
        // all data lines same width
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row_str(&["only-one"]);
    }

    #[test]
    fn human_counts() {
        assert_eq!(human_count(512.0), "512");
        assert_eq!(human_count(4_600.0), "4.6k");
        assert_eq!(human_count(1_100_000.0), "1.1M");
    }

    #[test]
    fn f2_rounds() {
        assert_eq!(f2(0.567), "0.57");
    }
}
