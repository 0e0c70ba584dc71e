//! Regenerates the paper's figures and manages metrics baselines.
//!
//! ```text
//! cargo run -p ifi-bench --release --bin experiments -- all
//! cargo run -p ifi-bench --release --bin experiments -- fig5 fig7 --quick
//! cargo run -p ifi-bench --release --bin experiments -- all --seed 7
//! cargo run -p ifi-bench --release --bin experiments -- write-baselines
//! cargo run -p ifi-bench --release --bin experiments -- check-baselines
//! cargo run -p ifi-bench --release --bin experiments -- check-baselines --only epoch_n100000,fig7_n10000
//! cargo run -p ifi-bench --release --bin experiments -- smoke --metrics-out metrics-artifacts
//! cargo run -p ifi-bench --release --bin experiments -- smoke --only loss,chaos
//! cargo run -p ifi-bench --release --bin experiments -- simcheck-replay results/simcheck/bug-churn-race-20080617.repro
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ifi_bench::{baseline, report_checks, smoke, Scale, ShapeCheck, FIGURES};
use ifi_simcheck::{find_case, parse_artifact};

/// Makes the epoch benches' memory counters live (see
/// [`ifi_perf::alloc`]); everything else this binary runs just passes
/// through it.
#[global_allocator]
static ALLOC: ifi_perf::alloc::Counting = ifi_perf::alloc::Counting;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [fig5] [fig6] [fig7] [fig8] [ablation] [depth] [all]\n\
         \x20                  [check-baselines] [write-baselines] [smoke]\n\
         \x20                  [simcheck-replay <artifact>] [--only <names>] [--quick]\n\
         \x20                  [--seed <u64>] [--out <dir>] [--baselines <dir>] [--metrics-out <dir>]"
    );
    std::process::exit(2);
}

/// Writes each selected metric scenario's *full* report (wall-clock
/// included) as `<dir>/<name>.metrics.json` — the CI artifact.
fn dump_metrics(dir: &PathBuf, rows: &[baseline::Row]) -> bool {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return false;
    }
    for &(name, snap) in rows {
        let baseline::Snapshot::Metric(scenario) = snap else {
            continue;
        };
        let run = scenario(name);
        let path = dir.join(format!("{name}.metrics.json"));
        if let Err(e) = std::fs::write(&path, run.report.to_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return false;
        }
        println!("wrote {}", path.display());
        println!("{}", run.report.render_table());
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut seed = 20080617u64; // ICDCS 2008
    let mut out: Option<PathBuf> = None;
    let mut baselines_dir = PathBuf::from("baselines");
    let mut metrics_out: Option<PathBuf> = None;
    let mut replay_artifact: Option<PathBuf> = None;
    let mut only: Option<Vec<&str>> = None;
    let mut which: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                let Some(s) = it.next() else { usage() };
                let Ok(v) = s.parse() else { usage() };
                seed = v;
            }
            "--out" => {
                let Some(dir) = it.next() else { usage() };
                out = Some(PathBuf::from(dir));
            }
            "--baselines" => {
                let Some(dir) = it.next() else { usage() };
                baselines_dir = PathBuf::from(dir);
            }
            "--only" => {
                let Some(s) = it.next() else { usage() };
                let names: Vec<&str> = s
                    .split(',')
                    .map(str::trim)
                    .filter(|n| !n.is_empty())
                    .collect();
                if names.is_empty() {
                    usage()
                }
                only = Some(names);
            }
            "--metrics-out" => {
                let Some(dir) = it.next() else { usage() };
                metrics_out = Some(PathBuf::from(dir));
            }
            "simcheck-replay" => {
                let Some(p) = it.next() else { usage() };
                replay_artifact = Some(PathBuf::from(p));
                which.push("simcheck-replay");
            }
            "all" | "check-baselines" | "write-baselines" | "smoke" => which.push(arg),
            name if FIGURES.iter().any(|&(n, _)| n == name) => which.push(name),
            _ => usage(),
        }
    }
    if which.is_empty() {
        which.push("all");
    }
    let all = which.contains(&"all");
    // Baseline modes are explicit-only: `all` regenerates figures, it does
    // not silently rewrite committed snapshots.
    let want = |name: &str| all || which.contains(&name);
    let mut all_ok = true;

    if which.contains(&"write-baselines") || which.contains(&"check-baselines") {
        let rows = baseline::rows(only.as_deref()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            usage()
        });
        if which.contains(&"write-baselines") {
            match baseline::write(&baselines_dir, &rows) {
                Ok(paths) => paths.iter().for_each(|p| println!("wrote {}", p.display())),
                Err(e) => {
                    eprintln!("error: writing baselines failed: {e}");
                    all_ok = false;
                }
            }
        }
        if which.contains(&"check-baselines") {
            let mut checks = baseline::check(&baselines_dir, &rows);
            // Orphans are a property of the whole directory, so only the
            // full check can tell them.
            if only.is_none() {
                checks.push(baseline::orphans(&baselines_dir));
            }
            all_ok &= report_checks("baselines, byte for byte", &checks);
        }
        // The scenarios' full reports ride along; the smoke rows write
        // their own below.
        if let Some(dir) = &metrics_out {
            all_ok &= dump_metrics(dir, &rows);
        }
    }
    if which.contains(&"smoke") {
        let out = out.clone().unwrap_or_else(|| PathBuf::from("results"));
        match smoke::run(only.as_deref(), seed, &out, metrics_out.as_deref()) {
            Ok(ok) => all_ok &= ok,
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        }
    }
    if which.contains(&"simcheck-replay") {
        let path = replay_artifact.clone().expect("parser sets the path");
        println!("simcheck replay — {}", path.display());
        let check = match parse_artifact(&path) {
            Err(e) => ShapeCheck::new("artifact parses", false, e),
            Ok(artifact) => match find_case(&artifact.case, artifact.seed) {
                None => ShapeCheck::new(
                    "artifact names a registered case",
                    false,
                    format!("unknown case {:?}", artifact.case),
                ),
                Some(case) => match case.replay(&artifact.perturbation) {
                    Some(v) if v.oracle == artifact.oracle => ShapeCheck::new(
                        format!("replay re-fires oracle {:?}", artifact.oracle),
                        true,
                        v.detail,
                    ),
                    Some(v) => ShapeCheck::new(
                        format!("replay re-fires oracle {:?}", artifact.oracle),
                        false,
                        format!("different oracle {} fired: {}", v.oracle, v.detail),
                    ),
                    None => ShapeCheck::new(
                        format!("replay re-fires oracle {:?}", artifact.oracle),
                        false,
                        "all oracles passed on replay",
                    ),
                },
            },
        };
        all_ok &= report_checks("simcheck replay", std::slice::from_ref(&check));
    }
    if which.iter().all(|m| {
        matches!(
            *m,
            "check-baselines" | "write-baselines" | "smoke" | "simcheck-replay"
        )
    }) {
        return if all_ok {
            println!("\nbaseline/smoke checks OK");
            ExitCode::SUCCESS
        } else {
            println!("\nbaseline/smoke checks FAILED");
            ExitCode::FAILURE
        };
    }

    println!(
        "netFilter experiment harness — scale: {:?}, seed: {seed}",
        scale
    );
    println!(
        "(N = {}, n = {} / {}, b = 3, phi default 0.01, sa = sg = si = 4 B)",
        scale.peers(),
        scale.items_small(),
        scale.items_large()
    );

    for &(name, run) in FIGURES {
        if !want(name) {
            continue;
        }
        for panel in run(scale, seed) {
            panel.print(out.as_deref());
            all_ok &= report_checks(&panel.label, &panel.checks);
        }
    }

    if all_ok {
        println!("\nall shape checks passed");
        ExitCode::SUCCESS
    } else {
        println!("\nsome shape checks FAILED");
        ExitCode::FAILURE
    }
}
