//! One output shape for every experiment: the [`Panel`].
//!
//! Each row of [`FIGURES`](crate::FIGURES) (and each robustness sweep)
//! returns panels. A panel's one column list says, per column, what the
//! printed table calls it, what its `.dat` file calls it (or that it has
//! no `.dat` column), and how a cell prints — so the table on stdout and
//! the plot-ready file on disk cannot drift apart. The `.dat` format is
//! whitespace-separated with a `#`-prefixed header, which gnuplot and
//! every plotting library ingest directly:
//!
//! ```text
//! cargo run -p ifi-bench --release --bin experiments -- all --out results/
//! gnuplot> plot "results/fig7b.dat" using 1:2 with lines, "" using 1:3 with lines
//! ```

use std::path::Path;

use crate::ShapeCheck;

/// One column of a [`Panel`]: its printed header, its `.dat` header
/// (`None`: printed only), and how one of its cells prints.
pub type Column = (&'static str, Option<&'static str>, fn(f64) -> String);

/// One experiment's table, its `.dat` file and its shape checks.
#[derive(Debug, Clone)]
pub struct Panel {
    /// The heading printed above the table.
    pub title: String,
    /// The heading the shape checks print under.
    pub label: String,
    /// Stem of the `.dat` file; `None` writes none.
    pub dat: Option<String>,
    /// The one column list the table and the `.dat` file both come from.
    pub columns: Vec<Column>,
    /// One value per column, per row.
    pub rows: Vec<Vec<f64>>,
    /// Prose cells printed under the column headers in place of `rows`,
    /// for a table whose cells are not numbers.
    pub text: Vec<Vec<String>>,
    /// A line printed under the table.
    pub note: Option<String>,
    /// The claims the rows must exhibit.
    pub checks: Vec<ShapeCheck>,
}

impl Panel {
    /// A panel with no `.dat` file, prose, note or checks.
    ///
    /// # Panics
    ///
    /// Panics if a row's width differs from the column list's.
    pub fn new(
        title: impl Into<String>,
        label: impl Into<String>,
        columns: &[Column],
        rows: Vec<Vec<f64>>,
    ) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == columns.len()),
            "row width mismatch"
        );
        Panel {
            title: title.into(),
            label: label.into(),
            dat: None,
            columns: columns.to_vec(),
            rows,
            text: Vec::new(),
            note: None,
            checks: Vec::new(),
        }
    }

    /// Every row's value in the column printed as `header`.
    ///
    /// # Panics
    ///
    /// Panics if no column is printed as `header`.
    pub fn column(&self, header: &str) -> Vec<f64> {
        let i = self.columns.iter().position(|c| c.0 == header);
        let i = i.unwrap_or_else(|| panic!("no column {header:?}"));
        self.rows.iter().map(|r| r[i]).collect()
    }

    /// The table: right-aligned columns under a rule.
    pub fn table(&self) -> String {
        let header: Vec<String> = self.columns.iter().map(|c| c.0.to_string()).collect();
        let cells: Vec<Vec<String>> = if self.text.is_empty() {
            let cells = |r: &Vec<f64>| self.columns.iter().zip(r).map(|(c, &v)| c.2(v)).collect();
            self.rows.iter().map(cells).collect()
        } else {
            self.text.clone()
        };
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            padded.join("  ") + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        let mut out = line(&header) + &rule + "\n";
        for row in &cells {
            out += &line(row);
        }
        out
    }

    /// The `.dat` contents: the `.dat`-headed columns only.
    pub fn dat_text(&self) -> String {
        let kept: Vec<(usize, &str)> = (self.columns.iter().enumerate())
            .filter_map(|(i, c)| Some((i, c.1?)))
            .collect();
        let header: Vec<&str> = kept.iter().map(|&(_, h)| h).collect();
        let mut out = format!("#{}\n", header.join("\t"));
        for row in &self.rows {
            let cells: Vec<String> = kept.iter().map(|&(i, _)| format!("{}", row[i])).collect();
            out += &(cells.join("\t") + "\n");
        }
        out
    }

    /// Prints the title, the table and the note, then writes
    /// `<out>/<dat>.dat` when there is both a directory and a stem.
    pub fn print(&self, out: Option<&Path>) {
        println!("\n{}", self.title);
        print!("{}", self.table());
        if let Some(note) = &self.note {
            println!("{note}");
        }
        if let (Some(dir), Some(stem)) = (out, &self.dat) {
            let path = dir.join(format!("{stem}.dat"));
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, self.dat_text()))
            {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {stem}: {e}"),
            }
        }
    }
}

/// A cell with 1 decimal place.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// A cell with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// A cell as its shortest exact form: integers print without a point.
pub fn int(x: f64) -> String {
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> Panel {
        let columns: [Column; 3] = [
            ("g", Some("g"), int),
            ("cost", Some("total"), f1),
            ("x", None, f3),
        ];
        Panel::new(
            "t",
            "l",
            &columns,
            vec![vec![25.0, 1234.56, 1.0], vec![500.0, 7.0, 0.5]],
        )
    }

    #[test]
    fn one_column_list_renders_the_table_and_the_dat_file() {
        let p = probe();
        let table = p.table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(
            lines,
            [
                "  g    cost      x",
                "------------------",
                " 25  1234.6  1.000",
                "500     7.0  0.500"
            ]
        );
        assert_eq!(p.dat_text(), "#g\ttotal\n25\t1234.56\n500\t7\n");
        assert_eq!(p.column("cost"), [1234.56, 7.0]);
    }

    #[test]
    fn prose_cells_print_under_the_headers() {
        let p = Panel {
            text: vec![vec!["a".into(), "bb".into(), "c".into()]],
            ..probe()
        };
        assert_eq!(p.table().lines().nth(2), Some("a    bb  c"));
    }

    #[test]
    fn writes_the_dat_file_to_disk() {
        let dir = std::env::temp_dir().join(format!("ifi_dat_test_{}", std::process::id()));
        let p = Panel {
            dat: Some("probe".into()),
            ..probe()
        };
        p.print(Some(&dir));
        let back = std::fs::read_to_string(dir.join("probe.dat")).unwrap();
        assert_eq!(back, p.dat_text());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        Panel::new("t", "l", &[("a", None, int)], vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f1(4.25519), "4.3");
        assert_eq!(f3(4.25519), "4.255");
        assert_eq!(int(75.0), "75");
    }
}
