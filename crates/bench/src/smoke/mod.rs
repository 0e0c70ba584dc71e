//! The robustness smokes CI gates on, as one registry.
//!
//! The paper claims netFilter returns *exactly* the IFI set. Each row of
//! `REGISTRY` defends that claim (or an approximate engine's weaker
//! one) under one kind of fire — loss, churn, schedule exploration, real
//! fabrics, chaos — and its function's doc comment is the lane's gate.
//!
//! ```text
//! experiments smoke [--only <rows>] [--out dir] [--metrics-out dir] [--seed n]
//! ```
//!
//! runs the rows in order, prints every check as `[PASS]`/`[FAIL]`, and
//! exits non-zero on any failure. Artifacts: each scenario with a
//! [`MetricsReport`] writes `<metrics-out>/<name>.metrics.json`, the
//! simcheck rows write `<out>/simcheck/*.repro`, and the sweeps write
//! their `.dat` tables into `<out>` (default `results`).

use std::io;
use std::path::{Path, PathBuf};

use ifi_sim::MetricsReport;
use ifi_simcheck::{all_cases, approx_cases, continuous_cases};

use crate::{approx_sweep, continuous_sweep, report_checks, select, Panel, ShapeCheck};

mod churn;
mod continuous;
mod explore;
mod fabric;
mod loss;

/// One scenario of a smoke row: its checks, plus the full metrics report
/// uploaded as `<name>.metrics.json` when the scenario has one.
#[derive(Debug)]
struct SmokeRun {
    /// Scenario name; also the metrics artifact's stem.
    name: &'static str,
    /// Full per-phase / per-peer metrics of the run, if it has one.
    report: Option<MetricsReport>,
    /// The checks the scenario must pass.
    checks: Vec<ShapeCheck>,
}

/// A smoke row: `(seed, out dir) → scenarios`.
type SmokeFn = fn(u64, &Path) -> Vec<SmokeRun>;

/// Every smoke row by name, in the order `experiments smoke` runs them.
const REGISTRY: [(&str, SmokeFn); 9] = [
    ("loss", loss_row),
    ("churn", churn_row),
    ("simcheck", simcheck_row),
    ("approx", approx_row),
    ("continuous", continuous_row),
    ("transport", transport_row),
    ("chaos", chaos_row),
    ("approx-sweep", approx_sweep_row),
    ("continuous-sweep", continuous_sweep_row),
];

/// Reliable delivery under loss: both DES engines — one-shot netFilter
/// and the epoch-based resilient engine — on a network with
/// [`loss::DEFAULT_DROP`] drop, 5 % duplication and delay spikes. Gate:
/// the answer stays the exact IFI set, the three paper phases cost
/// exactly what the instant engine's cost model says (loss-independent),
/// every overhead byte is metered in the `retransmit` class, and
/// resilient epochs keep completing, each certified `Complete`.
fn loss_row(seed: u64, _: &Path) -> Vec<SmokeRun> {
    loss::run_smoke(loss::DEFAULT_DROP, seed)
}

/// Root failover and epoch certificates on the multi-root resilient
/// engine. `churn-control` (zero churn): a 2-deep succession line costs
/// exactly what a single root costs in the paper and maintenance classes,
/// failover bytes (fence stamps, censuses) are confined to the `failover`
/// class and phase, and every epoch certifies `Complete` with the exact
/// answer. `churn-weibull-failover`: seeded heavy-tailed Weibull sessions
/// plus an explicit mid-run kill of the primary root; the rank-1
/// successor takes over, certifies at least one post-failover epoch
/// `Complete`, and every such certificate is the exact IFI over the
/// peers alive when it was issued.
fn churn_row(seed: u64, _: &Path) -> Vec<SmokeRun> {
    churn::run_smoke(seed)
}

/// Schedule exploration over [`all_cases`]: the clean netFilter,
/// resilient and maintenance cases hold every invariant oracle across
/// ≥ [`explore::MIN_DISTINCT_SCHEDULES`] distinct schedules each, and the
/// three pinned historical bugs (churn-race panic, count-to-infinity
/// freeze, double-merge under duplication) are rediscovered, shrunk,
/// replayed and written as `<out>/simcheck/*.repro` artifacts that parse
/// back to the same perturbation.
fn simcheck_row(seed: u64, out: &Path) -> Vec<SmokeRun> {
    explore::explore_all(all_cases(seed), out)
}

/// The approximate engines' claims under schedule exploration
/// ([`approx_cases`]) with loss, duplication and leaf kill/revive: the
/// sketch's ε-bound, top-k recall and local-threshold soundness hold
/// across the same distinct-schedule floor, and three mis-tuned
/// negatives are caught, shrunk, replayed and written as repros.
fn approx_row(seed: u64, out: &Path) -> Vec<SmokeRun> {
    explore::explore_all(approx_cases(seed), out)
}

/// The continuous standing-query engine, in three legs: its
/// [`continuous_cases`] explored (the window-consistency oracle holds on
/// the clean case, the planted retirement-dropping negative round-trips
/// as a repro); a 24-fence long haul under 10 % drop where every fence
/// certifies and equals a from-scratch window re-aggregation; and K = 8
/// standing queries spending < 0.5 × (8 × single-query bytes) in the
/// shared delta class.
fn continuous_row(seed: u64, out: &Path) -> Vec<SmokeRun> {
    let mut runs = explore::explore_all(continuous_cases(seed), out);
    runs.push(SmokeRun {
        name: "continuous-long-haul",
        report: None,
        checks: continuous::long_haul_checks(seed),
    });
    runs.push(SmokeRun {
        name: "continuous-sharing",
        report: None,
        checks: continuous::sharing_checks(seed),
    });
    runs
}

/// The sans-io netFilter cores behind one thread per peer, over
/// in-process channels and over a TCP loopback hub through the
/// paper-width codec. Gate per fabric: the root delivers exactly the DES
/// answer, per-phase bytes reconcile with the DES run to the byte, and
/// the run meters no warning.
fn transport_row(seed: u64, _: &Path) -> Vec<SmokeRun> {
    fabric::transport(seed)
}

/// The same fabrics under a seeded chaos plan — 10 % frame drop, one
/// mid-epoch peer crash with a delayed restart, one transient partition —
/// against a DES run of the equivalent fault plan. Gate per fabric: the
/// root delivers exactly the faulted-DES answer with a `Complete` census
/// certificate, paper-phase and census bytes reconcile to the byte, and
/// the chaos actually bit (drops > 0, exactly one restart).
fn chaos_row(seed: u64, _: &Path) -> Vec<SmokeRun> {
    fabric::chaos(seed)
}

/// Accuracy vs bytes across the engine family ([`approx_sweep`]); shape
/// checks gate the qualitative claims and the three tables go to `<out>`
/// as `.dat` files. `check-baselines` pins the reference tunings' bytes.
fn approx_sweep_row(seed: u64, out: &Path) -> Vec<SmokeRun> {
    sweep("approx-sweep", approx_sweep::run(seed), out)
}

/// Bytes per epoch vs the number of multiplexed standing queries
/// ([`continuous_sweep`]); shape checks gate the monotone sharing-ratio
/// claim and the table goes to `<out>/continuous_sweep.dat`.
fn continuous_sweep_row(seed: u64, out: &Path) -> Vec<SmokeRun> {
    sweep("continuous-sweep", continuous_sweep::run(seed), out)
}

/// Prints and dumps a sweep's panels; their checks become one scenario.
fn sweep(name: &'static str, panels: Vec<Panel>, out: &Path) -> Vec<SmokeRun> {
    let mut checks = Vec::new();
    for panel in panels {
        panel.print(Some(out));
        checks.extend(panel.checks);
    }
    vec![SmokeRun {
        name,
        report: None,
        checks,
    }]
}

/// Runs the rows named in `only` (every row when `None`) and returns
/// whether every check passed; metrics reports go to `metrics_out`.
///
/// # Errors
///
/// Names an unknown row before anything runs.
pub fn run(
    only: Option<&[&str]>,
    seed: u64,
    out: &Path,
    metrics_out: Option<&Path>,
) -> Result<bool, String> {
    let mut ok = true;
    for (name, row) in select(&REGISTRY, only, "smoke row")? {
        println!("smoke {name} — seed {seed}");
        let runs = row(seed, out);
        for run in &runs {
            ok &= report_checks(run.name, &run.checks);
        }
        if let Some(dir) = metrics_out {
            match write_metrics(dir, &runs) {
                Ok(paths) => paths.iter().for_each(|p| println!("wrote {}", p.display())),
                Err(e) => {
                    eprintln!("error: cannot write {name} metrics: {e}");
                    ok = false;
                }
            }
        }
    }
    Ok(ok)
}

/// Writes each run's report as `<dir>/<name>.metrics.json` and returns
/// the written paths.
///
/// # Errors
///
/// Propagates filesystem errors.
fn write_metrics(dir: &Path, runs: &[SmokeRun]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for run in runs {
        if let Some(report) = &run.report {
            let path = dir.join(format!("{}.metrics.json", run.name));
            std::fs::write(&path, report.to_json())?;
            paths.push(path);
        }
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use netfilter::phases;

    use super::*;

    const SEED: u64 = 20080617;

    fn runs_of(rows: &[&str], out: &Path) -> Vec<(&'static str, Vec<SmokeRun>)> {
        select(&REGISTRY, Some(rows), "smoke row")
            .expect("registered rows")
            .into_iter()
            .map(|&(name, row)| (name, row(SEED, out)))
            .collect()
    }

    #[test]
    fn row_names_are_unique() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), REGISTRY.len());
        let err = run(Some(&["loss", "nope"]), SEED, Path::new("."), None).unwrap_err();
        assert!(
            err.contains("unknown smoke row") && err.contains("chaos"),
            "{err}"
        );
    }

    /// Every row shares one `--metrics-out` directory, so two scenarios
    /// with the same name would overwrite each other's artifact.
    #[test]
    fn metrics_stems_are_unique() {
        let out = std::env::temp_dir().join(format!("ifi-smoke-stems-{}", std::process::id()));
        let names: Vec<&str> = REGISTRY.iter().map(|&(n, _)| n).collect();
        let stems: Vec<&str> = runs_of(&names, &out)
            .iter()
            .flat_map(|(_, runs)| runs.iter().filter(|r| r.report.is_some()))
            .map(|r| r.name)
            .collect();
        assert_eq!(stems.len(), 8, "{stems:?}");
        assert_eq!(stems.iter().collect::<BTreeSet<_>>().len(), stems.len());
        let _ = std::fs::remove_dir_all(&out);
    }

    /// The DES rows at the CI seed: every check holds, each lane's
    /// overhead phase shows up in its artifacts, and the simcheck rows
    /// cover their whole registries.
    #[test]
    fn des_rows_pass_at_the_default_seed() {
        let out = std::env::temp_dir().join(format!("ifi-smoke-des-{}", std::process::id()));
        let rows = ["loss", "churn", "simcheck", "approx", "continuous"];
        for (row, runs) in runs_of(&rows, &out) {
            for run in &runs {
                for c in &run.checks {
                    assert!(c.holds, "{row}/{}: {} ({})", run.name, c.claim, c.detail);
                }
            }
            let (count, phase) = match row {
                "loss" => (2, Some(phases::RETRANSMIT)),
                "churn" => (2, Some(phases::FAILOVER)),
                "continuous" => (4, None),
                _ => (6, None),
            };
            assert_eq!(runs.len(), count, "{row}");
            for run in runs.iter().filter(|_| phase.is_some()) {
                let phase = phase.expect("filtered");
                let bytes = run.report.as_ref().map_or(0, |r| r.phase_bytes(phase));
                assert!(bytes > 0, "{}: {phase} phase must appear", run.name);
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
