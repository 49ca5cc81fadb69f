//! Plain-text table rendering for the bench harness.
//!
//! The reproduction binaries print tables shaped like the paper's; this
//! module is the tiny formatting layer they share.

/// A fixed-width text table.
///
/// # Example
///
/// ```
/// use psa_core::report::Table;
/// let mut t = Table::new(vec!["metric".into(), "value".into()]);
/// t.row(vec!["SNR".into(), "41.0 dB".into()]);
/// let s = t.render();
/// assert!(s.contains("SNR"));
/// assert!(s.contains("41.0 dB"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with column alignment and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a dB value with one decimal.
pub fn db(v: f64) -> String {
    format!("{v:.1} dB")
}

/// Formats a boolean as Yes/No (Table I style).
pub fn yes_no(v: bool) -> String {
    if v { "Yes" } else { "No" }.to_string()
}

/// Formats a probability as a percentage.
pub fn pct(p: f64) -> String {
    format!("{:.0}%", p * 100.0)
}

/// Renders an ASCII sparkline of a series (for figure-shaped output in
/// the terminal), `width` characters wide.
pub fn sparkline(series: &[f64], width: usize) -> String {
    if series.is_empty() || width == 0 {
        return String::new();
    }
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let mut out = String::with_capacity(width);
    for i in 0..width {
        let lo_idx = i * series.len() / width;
        let hi_idx = (((i + 1) * series.len()) / width).max(lo_idx + 1);
        let v = series[lo_idx..hi_idx.min(series.len())]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let t = ((v - lo) / span * (GLYPHS.len() - 1) as f64).round() as usize;
        out.push(GLYPHS[t.min(GLYPHS.len() - 1)]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new(vec!["a".into(), "long header".into()]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["yyyy".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("x"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["only".into()]);
        assert!(t.render().contains("only"));
    }

    #[test]
    fn formatters() {
        assert_eq!(db(41.03), "41.0 dB");
        assert_eq!(yes_no(true), "Yes");
        assert_eq!(yes_no(false), "No");
        assert_eq!(pct(0.995), "100%");
        assert_eq!(pct(0.5), "50%");
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 1.0, 0.0, 1.0], 4);
        assert_eq!(s.chars().count(), 4);
        assert!(sparkline(&[], 10).is_empty());
        assert!(sparkline(&[1.0], 0).is_empty());
        // Monotone ramp renders non-decreasing glyphs.
        let ramp: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let r = sparkline(&ramp, 8);
        let glyphs: Vec<char> = r.chars().collect();
        for w in glyphs.windows(2) {
            assert!(w[1] as u32 >= w[0] as u32);
        }
    }
}
