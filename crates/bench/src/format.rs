//! Terminal rendering: aligned tables and ASCII log-log plots.

/// A simple aligned text table.
#[derive(Debug, Default)]
pub(crate) struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub(crate) fn new<I: IntoIterator<Item = T>, T: Into<String>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (short rows are padded with empty cells).
    pub(crate) fn row<I: IntoIterator<Item = T>, T: Into<String>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Render with two spaces between columns.
    pub(crate) fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; cols];
        let all = std::iter::once(&self.header).chain(&self.rows);
        for row in all {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], out: &mut String| {
            for (c, w) in width.iter().enumerate() {
                let cell = row.get(c).map(String::as_str).unwrap_or("");
                out.push_str(cell);
                if c + 1 < cols {
                    for _ in 0..w.saturating_sub(cell.chars().count()) + 2 {
                        out.push(' ');
                    }
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// An ASCII log-log scatter/line plot (used for the Figure 3 rooflines).
#[derive(Debug)]
pub(crate) struct AsciiPlot {
    width: usize,
    height: usize,
    x_range: (f64, f64),
    y_range: (f64, f64),
    grid: Vec<Vec<char>>,
}

impl AsciiPlot {
    /// Create a plot with log-scaled axes over the given ranges.
    pub(crate) fn new(
        width: usize,
        height: usize,
        x_range: (f64, f64),
        y_range: (f64, f64),
    ) -> Self {
        assert!(
            x_range.0 > 0.0 && y_range.0 > 0.0,
            "log axes need positive ranges"
        );
        AsciiPlot {
            width,
            height,
            x_range,
            y_range,
            grid: vec![vec![' '; width]; height],
        }
    }

    fn pos(&self, x: f64, y: f64) -> Option<(usize, usize)> {
        let fx = (x.ln() - self.x_range.0.ln()) / (self.x_range.1.ln() - self.x_range.0.ln());
        let fy = (y.ln() - self.y_range.0.ln()) / (self.y_range.1.ln() - self.y_range.0.ln());
        if !(0.0..=1.0).contains(&fx) || !(0.0..=1.0).contains(&fy) {
            return None;
        }
        let col = (fx * (self.width - 1) as f64).round() as usize;
        let row = self.height - 1 - (fy * (self.height - 1) as f64).round() as usize;
        Some((row, col))
    }

    /// Plot a point series with the given glyph.
    pub(crate) fn series(&mut self, pts: &[(f64, f64)], glyph: char) {
        for &(x, y) in pts {
            if let Some((r, c)) = self.pos(x, y) {
                self.grid[r][c] = glyph;
            }
        }
    }

    /// Drop a labeled vertical marker at `x` (for kernel OI marks).
    pub(crate) fn vmark(&mut self, x: f64, glyph: char) {
        if let Some((_, c)) = self.pos(x, self.y_range.0 * 1.0001) {
            for r in 0..self.height {
                if self.grid[r][c] == ' ' {
                    self.grid[r][c] = glyph;
                }
            }
        }
    }

    /// Render with axis annotations.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        for (i, row) in self.grid.iter().enumerate() {
            let y = if i == 0 {
                format!("{:>9.1} |", self.y_range.1)
            } else if i == self.height - 1 {
                format!("{:>9.2} |", self.y_range.0)
            } else {
                format!("{:>9} |", "")
            };
            out.push_str(&y);
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>10}+{}\n{:>11}{:<10.3}{:>width$.1}\n",
            "",
            "-".repeat(self.width),
            "",
            self.x_range.0,
            self.x_range.1,
            width = self.width.saturating_sub(10)
        ));
        out
    }
}

/// Format a float compactly for tables (3 significant-ish digits).
pub(crate) fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// Format a u64 with thousands separators.
pub(crate) fn fint(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(["a", "bbbb"]);
        t.row(["xx", "y"]);
        t.row(["1", "22222"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn fint_groups_thousands() {
        assert_eq!(fint(1_234_567), "1,234,567");
        assert_eq!(fint(12), "12");
        assert_eq!(fint(0), "0");
    }

    #[test]
    fn fnum_scales() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(12345.0), "12345");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(0.5), "0.500");
        assert!(fnum(1e-5).contains('e'));
    }

    #[test]
    fn plot_renders_in_bounds() {
        let mut p = AsciiPlot::new(40, 10, (0.01, 100.0), (1.0, 10_000.0));
        p.series(&[(0.1, 10.0), (1.0, 100.0), (10.0, 1000.0)], '*');
        p.vmark(1.0, '|');
        let r = p.render();
        assert!(r.contains('*'));
        assert!(r.lines().count() >= 12);
        // Out-of-range points are silently dropped.
        p.series(&[(1e6, 1e6)], '@');
    }
}
