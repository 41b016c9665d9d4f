//! Statistics and reporting helpers.
//!
//! Every experiment driver reports either a *figure* (an x/y curve per scheme,
//! e.g. "% failed stores vs. files inserted") or a *table* (rows of labelled
//! values, e.g. the erasure-code overhead table).  This module provides:
//!
//! * [`OnlineStats`] — single-pass mean / standard deviation (Welford), used for
//!   the chunk-count/size statistics of Table 1 and the regeneration statistics
//!   of Table 3;
//! * [`Series`] and [`Figure`] — named x/y curves, with CSV/gnuplot-friendly dumps;
//! * [`TableBuilder`] — aligned plain-text tables matching the paper's layout.

use std::fmt::Write as _;

/// Single-pass mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
}

/// The empty accumulator: the same as [`OnlineStats::new`], whose min
/// sentinel is +∞ so the first observation sets it.
impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (n−1) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }
}

/// A single named x/y curve, one per scheme per figure.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Curve label (e.g. "PAST", "CFS", "Our System").
    pub name: String,
    /// `(x, y)` points in plotting order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series with a label.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Final y value, `None` when empty.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|p| p.1)
    }

    /// Linear interpolation of y at `x`; clamps outside the observed x range.
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        let (&(x_lo, y_lo), &(x_hi, y_hi)) = (self.points.first()?, self.points.last()?);
        if x <= x_lo {
            return Some(y_lo);
        }
        if x >= x_hi {
            return Some(y_hi);
        }
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if (x0..=x1).contains(&x) {
                if (x1 - x0).abs() < f64::EPSILON {
                    return Some(y0);
                }
                return Some(y0 + (y1 - y0) * (x - x0) / (x1 - x0));
            }
        }
        None
    }
}

/// A figure: a titled collection of series with axis labels.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    /// Figure title, e.g. "Figure 7: failed file stores".
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Create an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Look up a series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Render the figure as a CSV block: header `x,<name>,...` then one row per
    /// x value of the first series (other series are linearly interpolated).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "# {}\n# x = {}, y = {}\n",
            self.title, self.x_label, self.y_label
        );
        let _ = write!(out, "x");
        for s in &self.series {
            let _ = write!(out, ",{}", s.name);
        }
        out.push('\n');
        if let Some(first) = self.series.first() {
            for &(x, _) in &first.points {
                let _ = write!(out, "{x}");
                for s in &self.series {
                    let y = s.interpolate(x).unwrap_or(f64::NAN);
                    let _ = write!(out, ",{y:.4}");
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Builder for aligned plain-text tables (the `repro` binary's output format).
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TableBuilder {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; missing cells are rendered empty, extra cells are kept.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Render the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{cell:<w$}  ");
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
            let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_known_values() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
    }

    #[test]
    fn online_stats_empty_and_single() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        let (default, new) = (OnlineStats::default(), OnlineStats::new());
        assert_eq!(default.count(), new.count());
        assert_eq!(default.mean(), new.mean());
        assert_eq!(default.min(), new.min());
        let mut s = OnlineStats::default();
        s.push(5.0);
        s.push(7.0);
        assert_eq!(s.min(), Some(5.0));
    }

    #[test]
    fn series_interpolation() {
        let mut s = Series::new("test");
        s.push(0.0, 0.0);
        s.push(10.0, 100.0);
        assert_eq!(s.interpolate(5.0), Some(50.0));
        assert_eq!(s.interpolate(-1.0), Some(0.0));
        assert_eq!(s.interpolate(20.0), Some(100.0));
        assert_eq!(s.last_y(), Some(100.0));
        assert_eq!(Series::new("empty").interpolate(1.0), None);
    }

    #[test]
    fn figure_csv_contains_all_series() {
        let mut fig = Figure::new("Figure X", "files", "% failed");
        let mut a = Series::new("PAST");
        a.push(0.0, 0.0);
        a.push(1.0, 36.0);
        let mut b = Series::new("Ours");
        b.push(0.0, 0.0);
        b.push(1.0, 5.2);
        fig.push_series(a);
        fig.push_series(b);
        let csv = fig.to_csv();
        assert!(csv.contains("PAST"));
        assert!(csv.contains("Ours"));
        assert!(csv.contains("36.0000"));
        assert!(fig.series_named("PAST").is_some());
        assert!(fig.series_named("CFS").is_none());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TableBuilder::new("Table 1", &["Scheme", "Chunks", "Size"]);
        t.row(&["CFS".into(), "61.25".into(), "4 MB".into()]);
        t.row(&["Our System".into(), "3.72".into(), "81.28 MB".into()]);
        let out = t.render();
        assert!(out.contains("Table 1"));
        assert!(out.contains("Our System"));
        assert!(out.lines().count() >= 4);
    }
}
