//! Named x/y series — the data behind every figure the harnesses regenerate.

use std::fmt::Write as _;

/// One plottable curve: a label plus `(x, y)` points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A figure: a set of curves sharing axes, renderable as aligned text columns
/// (the format the paper's gnuplot data files used).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesSet {
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub series: Vec<Series>,
}

impl SeriesSet {
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    pub fn add(&mut self, series: Series) {
        self.series.push(series);
    }

    pub fn get(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders the set as a column-aligned table: one x column (union of all
    /// series' x values in order) and one column per series.
    pub fn render(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN x in series"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let mut header = format!("{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(header, " {:>16}", s.label);
        }
        let _ = writeln!(out, "{header}");
        for &x in &xs {
            let mut row = format!("{x:>12.3}");
            for s in &self.series {
                let cell = s
                    .points
                    .iter()
                    .find(|&&(px, _)| (px - x).abs() < 1e-12)
                    .map(|&(_, y)| format!("{y:.4}"))
                    .unwrap_or_else(|| "-".to_string());
                let _ = write!(row, " {cell:>16}");
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("f1");
        s.push(1.0, 0.2);
        s.push(2.0, 0.6);
        s.push(3.0, 0.4);
        s
    }

    #[test]
    fn render_aligns_multiple_series() {
        let mut set = SeriesSet::new("Fig", "fanout", "F1");
        set.add(sample());
        let mut s2 = Series::new("recall");
        s2.push(1.0, 0.9);
        s2.push(4.0, 1.0);
        set.add(s2);
        let text = set.render();
        assert!(text.contains("# Fig"));
        assert!(text.contains("f1"));
        assert!(text.contains("recall"));
        // x=4.0 exists only in series 2; series 1 renders "-".
        let line4 = text
            .lines()
            .find(|l| l.trim_start().starts_with("4.000"))
            .unwrap();
        assert!(line4.contains('-'));
    }

    #[test]
    fn get_by_label() {
        let mut set = SeriesSet::new("t", "x", "y");
        set.add(sample());
        assert!(set.get("f1").is_some());
        assert!(set.get("nope").is_none());
    }
}
