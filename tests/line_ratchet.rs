//! Line ratchet: the non-test line count of every crate is committed here,
//! so a change that grows (or shrinks) a crate has to say so in its diff.
//!
//! A file's non-test lines are its non-blank lines before its first
//! `#[cfg(test)]`; a crate's count sums them over every `.rs` file under
//! its `src/`. Growth is allowed: update the row this test prints.

use std::fs;
use std::path::Path;

/// `(crate, non-test lines)`, one row per crate under `crates/` plus the
/// umbrella package, whose sources are the root `src/`.
const NON_TEST_LINES: &[(&str, usize)] = &[
    ("src", 308),
    // 1 226 with the instant walk in place of the one-pass convergecast core;
    // 1 266 with a `build_world` pair beside `peers`.
    ("crates/agg", 1249),
    // 4 881 while each of nine smoke lanes kept its own run struct,
    // subcommand and `write_metrics`; 4 550 while metric and perf
    // snapshots had two gates, each with its own tolerance; 4 344 while
    // the fabric smoke hand-built its `NetFilterProtocol` population; 4 305
    // while every figure wrote each column twice, in `print` and `to_data`.
    ("crates/bench", 3948),
    // 6 313 while `NetFilter::run` walked the tree beside the protocol;
    // 6 264 while the sketch engine kept its own copy of the one-pass core;
    // 6 142 with thirteen `build_world*` wrappers and `WindowedMonitor`;
    // 5 872 before census reports were bounded by the roster.
    ("crates/core", 5878),
    ("crates/hierarchy", 1164),
    ("crates/overlay", 1184),
    // 518 with a wall-clock role, `BenchReport::parse` and its comparator.
    ("crates/perf", 166),
    // 3 854 while the kernel also drove the `Protocol`/`Ctx` interface.
    ("crates/sim", 3731),
    // 2 357 with a `find_*` lookup per case registry; 2 354 while the
    // approx and continuous registries each kept their own fault helpers.
    ("crates/simcheck", 2304),
    ("crates/transport", 1588),
    ("crates/workload", 836),
];

/// Non-blank lines before the first `#[cfg(test)]` of one file.
fn file_lines(path: &Path) -> usize {
    let text = fs::read_to_string(path).expect("readable source file");
    text.lines()
        .map(str::trim)
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| !l.is_empty())
        .count()
}

/// Sum of [`file_lines`] over every `.rs` file below `dir`.
fn tree_lines(dir: &Path) -> usize {
    fs::read_dir(dir)
        .expect("readable source directory")
        .map(|entry| entry.expect("directory entry").path())
        .map(|path| {
            if path.is_dir() {
                tree_lines(&path)
            } else if path.extension().is_some_and(|e| e == "rs") {
                file_lines(&path)
            } else {
                0
            }
        })
        .sum()
}

#[test]
fn non_test_lines_match_the_committed_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| format!("crates/{}", name.to_string_lossy()))
        .collect();
    crates.sort();
    crates.insert(0, "src".to_string());

    let mut stale = Vec::new();
    for name in &crates {
        let src = if name == "src" {
            root.join("src")
        } else {
            root.join(name).join("src")
        };
        let counted = tree_lines(&src);
        let committed = NON_TEST_LINES.iter().find(|(n, _)| n == name);
        if committed.map(|&(_, lines)| lines) != Some(counted) {
            stale.push(format!("    (\"{name}\", {counted}),"));
        }
    }
    for (name, _) in NON_TEST_LINES {
        if !crates.iter().any(|c| c == name) {
            stale.push(format!("    remove the row for \"{name}\": no such crate"));
        }
    }
    assert!(
        stale.is_empty(),
        "non-test line counts changed; update NON_TEST_LINES:\n{}",
        stale.join("\n")
    );
}
