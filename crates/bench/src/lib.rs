//! Shared harness for the figure-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (the experiment index is the list in
//! `src/bin/repro_all.rs`): it prints an aligned table of the same
//! series the paper plots and writes a CSV into `results/`. This module holds the table/CSV/plot plumbing and
//! the experiment defaults so the binaries stay declarative.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Standard base seed for all figure reproductions (override with the
/// `GOSSIP_SEED` environment variable).
pub fn base_seed() -> u64 {
    std::env::var("GOSSIP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x1CC_2008) // "ICPP 2008"
}

/// Scale factor for replication counts (override with `GOSSIP_REPS_SCALE`,
/// e.g. `GOSSIP_REPS_SCALE=0.1` for a quick smoke run).
pub fn reps_scale() -> f64 {
    std::env::var("GOSSIP_REPS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Applies [`reps_scale`] to a nominal replication count (min 1).
pub fn scaled(reps: usize) -> usize {
    ((reps as f64 * reps_scale()).round() as usize).max(1)
}

/// The output directory for CSVs (`results/` at the workspace root, or
/// `GOSSIP_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("GOSSIP_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// A printable, CSV-writable table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Convenience: appends a row of floats with the given precision.
    pub fn push_floats(&mut self, values: &[f64], precision: usize) {
        self.push(values.iter().map(|v| format!("{v:.precision$}")).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    out.push_str("  ");
                }
                first = false;
                let _ = write!(out, "{cell:>w$}");
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("--");
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV.
    pub fn write_csv(&self, path: &Path) {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        fs::write(path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }

    /// Convenience: write into [`results_dir`] under the given file name.
    pub fn save(&self, file_name: &str) {
        self.write_csv(&results_dir().join(file_name));
    }
}

/// Renders labelled `(x, y)` series as a crude ASCII scatter plot —
/// enough to eyeball curve shapes (the actual comparison is numeric).
pub fn ascii_plot(series: &[(&str, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for (_, pts) in series {
        for &(x, y) in pts {
            xs.push(x);
            ys.push(y);
        }
    }
    if xs.is_empty() {
        return String::from("(no data)\n");
    }
    let (xmin, xmax) = bounds(&xs);
    let (ymin, ymax) = bounds(&ys);
    let mut grid = vec![vec![' '; width]; height];
    let marks = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in pts {
            let cx = scale_to(x, xmin, xmax, width - 1);
            let cy = scale_to(y, ymin, ymax, height - 1);
            grid[height - 1 - cy][cx] = mark;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "y ∈ [{ymin:.3}, {ymax:.3}]");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    let _ = writeln!(out, " x ∈ [{xmin:.3}, {xmax:.3}]");
    for (si, (label, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} {}", marks[si % marks.len()], label);
    }
    out
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if (hi - lo).abs() < 1e-12 {
        (lo - 0.5, hi + 0.5)
    } else {
        (lo, hi)
    }
}

fn scale_to(v: f64, lo: f64, hi: f64, max_idx: usize) -> usize {
    (((v - lo) / (hi - lo)) * max_idx as f64)
        .round()
        .clamp(0.0, max_idx as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push(vec!["1".into(), "0.5".into()]);
        t.push_floats(&[2.0, 0.25], 2);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("0.25"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_arity_mismatch() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("gossip-bench-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        t.write_csv(&path);
        let content = fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn ascii_plot_contains_marks() {
        let s = ascii_plot(
            &[
                ("up", vec![(0.0, 0.0), (1.0, 1.0)]),
                ("down", vec![(0.0, 1.0)]),
            ],
            20,
            8,
        );
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("up"));
    }

    #[test]
    fn empty_plot() {
        assert_eq!(ascii_plot(&[], 10, 5), "(no data)\n");
    }

    #[test]
    fn scaled_respects_min() {
        assert!(scaled(20) >= 1);
    }
}
pub mod figures;
