//! Plain-text report formatting.

/// A finished experiment: a title, explanatory header, a text body (tables
/// and series), and named scalar metrics for programmatic assertions.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `fig9a`).
    pub id: &'static str,
    /// Human title matching the paper artifact.
    pub title: String,
    /// Rendered text body.
    pub body: String,
    /// Named metrics (for tests and EXPERIMENTS.md extraction).
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        Self {
            id,
            title: title.into(),
            body: String::new(),
            metrics: Vec::new(),
        }
    }

    /// Appends a line to the body.
    pub fn line(&mut self, s: impl AsRef<str>) {
        self.body.push_str(s.as_ref());
        self.body.push('\n');
    }

    /// Records a named metric (also appended to the body).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.line(format!("  {name} = {value:.6e}"));
        self.metrics.push((name, value));
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the full report.
    pub fn render(&self) -> String {
        let bar = "=".repeat(72);
        format!("{bar}\n[{}] {}\n{bar}\n{}", self.id, self.title, self.body)
    }
}

/// Renders a fixed-width table: the header row, a separator, then rows.
/// Column widths adapt to content.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats seconds with an adaptive unit (ns/µs/ms/s).
pub fn fmt_time(s: f64) -> String {
    let a = s.abs();
    if a < 1e-6 {
        format!("{:.1}ns", s * 1e9)
    } else if a < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if a < 1.0 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Formats a dimensionless fraction in PPM.
    fn fmt_ppm(f: f64) -> String {
        format!("{:.4} PPM", f * 1e6)
    }

    #[test]
    fn report_metrics_roundtrip() {
        let mut r = Report::new("test", "Title");
        r.metric("median_us", 30.0);
        assert_eq!(r.get("median_us"), Some(30.0));
        assert!(r.get("missing").is_none());
        assert!(r.render().contains("median_us"));
        assert!(r.render().contains("[test] Title"));
    }

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // all rows same width
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn time_units() {
        assert_eq!(fmt_time(5e-9), "5.0ns");
        assert_eq!(fmt_time(30e-6), "30.0us");
        assert_eq!(fmt_time(1.5e-3), "1.500ms");
        assert_eq!(fmt_time(2.0), "2.000s");
        assert_eq!(fmt_time(-30e-6), "-30.0us");
    }

    #[test]
    fn ppm_format() {
        assert_eq!(fmt_ppm(1e-7), "0.1000 PPM");
    }
}
