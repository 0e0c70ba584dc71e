//! Plot-ready data export.
//!
//! Every figure can dump its series as whitespace-separated `.dat` files
//! (one x column, one column per series, `#`-prefixed header), the format
//! gnuplot and every plotting library ingest directly — so the paper's
//! plots can be regenerated from a harness run:
//!
//! ```text
//! cargo run -p ifi-bench --release --bin experiments -- all --out results/
//! gnuplot> plot "results/fig7b.dat" using 1:2 with lines, "" using 1:3 with lines
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};

/// A numeric data file: named columns, rows of `f64`.
#[derive(Debug, Clone)]
pub struct DataFile {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl DataFile {
    /// Creates a data file with the given base name (no extension) and
    /// column headers.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        DataFile {
            name: name.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, values: Vec<f64>) -> &mut Self {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push(values);
        self
    }

    /// The base name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the gnuplot-style contents.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push('#');
        out.push_str(&self.columns.join("\t"));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Writes `<dir>/<name>.dat`, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.dat", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.render().as_bytes())?;
        Ok(path)
    }
}

/// Writes `data` into `dir` and prints the path, or warns on failure.
pub fn dump(dir: &Path, data: &DataFile) {
    match data.write_to(dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", data.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut d = DataFile::new("fig_test", &["x", "y"]);
        d.row(vec![1.0, 10.5]).row(vec![2.0, 0.125]);
        let s = d.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "#x\ty");
        assert_eq!(lines[1], "1\t10.5");
        assert_eq!(lines[2], "2\t0.125");
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join(format!("ifi_dat_test_{}", std::process::id()));
        let mut d = DataFile::new("probe", &["x"]);
        d.row(vec![42.0]);
        let path = d.write_to(&dir).expect("writable temp dir");
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains("42"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        DataFile::new("bad", &["x", "y"]).row(vec![1.0]);
    }
}
