//! Committed perf baselines: counters exact, wall-clock tolerance-gated.
//!
//! A baseline is simply a [`BenchReport`] snapshot committed under
//! `baselines/perf/<name>.json`. Checking re-runs the benchmark and
//! compares:
//!
//! * `ops`, `bytes`, and every named counter must match **exactly** —
//!   they are machine-independent, so any drift is a behavioral
//!   regression (more events, more messages, different answer);
//! * the wall-clock **median** may rise by a relative `tolerance` (CI
//!   uses a generous 0.5 = +50 %) before failing — it only alarms on
//!   gross slowdowns, never on machine noise. The gate is one-sided: a
//!   median *below* `committed / (1 + tolerance)` is a speed-up, reported
//!   on stderr as a note to refresh the baseline, never as a failure;
//! * `min_ns`/`max_ns`/rep counts are informational and never gated.

use std::path::{Path, PathBuf};

use crate::report::BenchReport;

/// Where `report`'s baseline lives under `dir`.
pub fn baseline_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.json"))
}

/// Writes (or refreshes) `report`'s baseline snapshot under `dir`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_baseline(dir: &Path, report: &BenchReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = baseline_path(dir, &report.name);
    std::fs::write(&path, report.to_json())?;
    Ok(path)
}

/// Compares a fresh report against a committed one. Returns discrepancy
/// lines (empty = pass).
pub fn compare_reports(
    committed: &BenchReport,
    fresh: &BenchReport,
    tolerance: f64,
) -> Vec<String> {
    let name = &fresh.name;
    let mut problems = Vec::new();
    if committed.name != fresh.name {
        problems.push(format!(
            "{name}: baseline is for {:?}, not {:?}",
            committed.name, fresh.name
        ));
        return problems;
    }
    let mut exact = |field: &str, want: u64, got: u64| {
        if want != got {
            problems.push(format!(
                "{name}: exact field {field} changed (committed {want}, fresh {got})"
            ));
        }
    };
    exact("ops", committed.ops, fresh.ops);
    exact("bytes", committed.bytes, fresh.bytes);
    if committed.counters.len() != fresh.counters.len()
        || committed
            .counters
            .iter()
            .zip(&fresh.counters)
            .any(|((wk, _), (gk, _))| wk != gk)
    {
        problems.push(format!(
            "{name}: counter set changed (committed {:?}, fresh {:?})",
            keys(committed),
            keys(fresh)
        ));
    } else {
        for ((k, want), (_, got)) in committed.counters.iter().zip(&fresh.counters) {
            exact(k, *want, *got);
        }
    }

    // Wall-clock: gate the median only, and only against slowdowns.
    match wall_verdict(
        committed.wall.median_ns as f64,
        fresh.wall.median_ns as f64,
        tolerance,
    ) {
        Ok(None) => {}
        Ok(Some(note)) => eprintln!("note: {name}: {note}"),
        Err(problem) => problems.push(format!("{name}: {problem}")),
    }
    problems
}

/// One-sided wall gate: `Err` when `got` is slower than `want` by more
/// than `tolerance`, `Ok(Some(note))` when it is faster by as much (the
/// committed snapshot is stale, which is worth saying and not worth
/// failing), `Ok(None)` in between.
fn wall_verdict(want: f64, got: f64, tolerance: f64) -> Result<Option<String>, String> {
    let want = want.max(1.0);
    let medians = format!(
        "committed {:.3} ms, fresh {:.3} ms, tolerance {:.0}%",
        want / 1e6,
        got / 1e6,
        tolerance * 100.0
    );
    if got > want * (1.0 + tolerance) {
        Err(format!(
            "wall median slowed by {:.0}% ({medians})",
            (got / want - 1.0) * 100.0
        ))
    } else if got * (1.0 + tolerance) < want {
        Ok(Some(format!(
            "wall median is {:.1}x faster ({medians}) — refresh with `experiments bench --write-baselines`",
            want / got.max(1.0)
        )))
    } else {
        Ok(None)
    }
}

fn keys(r: &BenchReport) -> Vec<&str> {
    r.counters.iter().map(|(k, _)| k.as_str()).collect()
}

/// Checks `fresh` against its committed baseline under `dir`. A missing
/// or unparsable snapshot is itself a problem (run `--write-baselines`
/// first and commit the result).
pub fn check_baseline(dir: &Path, fresh: &BenchReport, tolerance: f64) -> Vec<String> {
    let path = baseline_path(dir, &fresh.name);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            return vec![format!(
                "{}: cannot read {} ({e}) — run `experiments bench --write-baselines` and commit",
                fresh.name,
                path.display()
            )]
        }
    };
    match BenchReport::parse(&text) {
        Ok(committed) => compare_reports(&committed, fresh, tolerance),
        Err(e) => vec![format!(
            "{}: committed baseline {} is malformed ({e})",
            fresh.name,
            path.display()
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WallStats;

    fn report() -> BenchReport {
        BenchReport {
            name: "codec".into(),
            ops: 10_000,
            bytes: 420_000,
            counters: vec![("frames".into(), 10_000), ("digest".into(), 77)],
            wall: WallStats {
                reps: 5,
                warmup: 1,
                median_ns: 2_000_000,
                min_ns: 1_900_000,
                max_ns: 2_400_000,
            },
        }
    }

    #[test]
    fn identical_reports_pass_at_zero_tolerance() {
        let r = report();
        assert!(compare_reports(&r, &r, 0.0).is_empty());
    }

    #[test]
    fn op_count_drift_fails_regardless_of_tolerance() {
        let committed = report();
        let mut fresh = report();
        fresh.ops += 1;
        let problems = compare_reports(&committed, &fresh, 1_000.0);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("exact field ops"), "{problems:?}");
    }

    #[test]
    fn counter_value_and_set_drift_fail() {
        let committed = report();
        let mut fresh = report();
        fresh.counters[1].1 = 78;
        assert!(compare_reports(&committed, &fresh, 1.0)[0].contains("digest"));
        let mut renamed = report();
        renamed.counters[1].0 = "checksum".into();
        assert!(compare_reports(&committed, &renamed, 1.0)[0].contains("counter set"));
    }

    #[test]
    fn wall_slowdown_within_tolerance_passes_beyond_fails() {
        let committed = report();
        let mut fresh = report();
        fresh.wall.median_ns = 2_800_000; // +40 %
        assert!(compare_reports(&committed, &fresh, 0.5).is_empty());
        let problems = compare_reports(&committed, &fresh, 0.25);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("slowed by 40%"), "{problems:?}");
    }

    #[test]
    fn wall_speedup_never_fails_and_asks_for_a_refresh() {
        let committed = report();
        let mut fresh = report();
        fresh.wall.median_ns = 700_000; // 2.9x faster
        assert!(compare_reports(&committed, &fresh, 0.5).is_empty());
        assert!(compare_reports(&committed, &fresh, 0.0).is_empty());
        let note = wall_verdict(2e6, 7e5, 0.5).expect("not a failure");
        assert!(note.expect("noted").contains("2.9x faster"));
        // Inside the band in either direction there is nothing to say.
        assert_eq!(wall_verdict(2e6, 1.5e6, 0.5), Ok(None));
        assert_eq!(wall_verdict(2e6, 2.9e6, 0.5), Ok(None));
        // An exact counter still gates in both directions.
        fresh.ops -= 1;
        assert_eq!(compare_reports(&committed, &fresh, 0.5).len(), 1);
    }

    #[test]
    fn check_against_committed_file_catches_op_drift() {
        let dir = std::env::temp_dir().join(format!("ifi_perf_baseline_{}", std::process::id()));
        let committed = report();
        write_baseline(&dir, &committed).expect("writable temp dir");
        // Same report passes (wall identical since it's the same snapshot).
        assert!(check_baseline(&dir, &committed, 0.0).is_empty());
        // A fresh run whose op-count drifted must fail the check.
        let mut drifted = report();
        drifted.ops -= 123;
        let problems = check_baseline(&dir, &drifted, 10.0);
        assert!(
            problems.iter().any(|p| p.contains("exact field ops")),
            "{problems:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_baseline_is_reported() {
        let dir = std::env::temp_dir().join(format!("ifi_perf_missing_{}", std::process::id()));
        let problems = check_baseline(&dir, &report(), 0.5);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("write-baselines"), "{problems:?}");
    }
}
