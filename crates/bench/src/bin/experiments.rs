//! Regenerates the paper's figures and manages metrics baselines.
//!
//! ```text
//! cargo run -p ifi-bench --release --bin experiments -- all
//! cargo run -p ifi-bench --release --bin experiments -- fig5 fig7 --quick
//! cargo run -p ifi-bench --release --bin experiments -- all --seed 7
//! cargo run -p ifi-bench --release --bin experiments -- write-baselines
//! cargo run -p ifi-bench --release --bin experiments -- check-baselines --tolerance 0.01
//! cargo run -p ifi-bench --release --bin experiments -- smoke --metrics-out metrics-artifacts
//! cargo run -p ifi-bench --release --bin experiments -- smoke --only loss,chaos
//! cargo run -p ifi-bench --release --bin experiments -- simcheck-replay results/simcheck/bug-churn-race-20080617.repro
//! cargo run -p ifi-bench --release --bin experiments -- bench --write-baselines
//! cargo run -p ifi-bench --release --bin experiments -- bench --check --tolerance 0.5
//! cargo run -p ifi-bench --release --bin experiments -- bench --check --only epoch_n100000,fig7_n10000
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ifi_bench::output::{self, DataFile};
use ifi_bench::{
    ablation, baseline, depth, fig5, fig6, fig7, fig8, perfbench, report_checks, smoke, Scale,
    ShapeCheck,
};
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
         \x20                  [simcheck-replay <artifact>] [bench [--write-baselines] [--check]]\n\
         \x20                  [--only <names>] [--quick] [--seed <u64>] [--out <dir>]\n\
         \x20                  [--baselines <dir>] [--tolerance <f64>] [--metrics-out <dir>]"
    );
    std::process::exit(2);
}

fn dump(out: &Option<PathBuf>, data: &DataFile) {
    if let Some(dir) = out {
        output::dump(dir, data);
    }
}

/// Writes each baseline scenario's *full* report (wall-clock included) as
/// `<dir>/<name>.metrics.json` — the CI artifact.
fn dump_metrics(dir: &PathBuf) -> bool {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return false;
    }
    for run in baseline::run_all() {
        let path = dir.join(format!("{}.metrics.json", run.name));
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
    let mut tolerance: Option<f64> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut replay_artifact: Option<PathBuf> = None;
    let mut bench_write = false;
    let mut bench_check = false;
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
            "--tolerance" => {
                let Some(s) = it.next() else { usage() };
                let Ok(v) = s.parse() else { usage() };
                tolerance = Some(v);
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
            "--write-baselines" => bench_write = true,
            "--check" => bench_check = true,
            "fig5" | "fig6" | "fig7" | "fig8" | "ablation" | "depth" | "all"
            | "check-baselines" | "write-baselines" | "smoke" | "bench" => which.push(arg),
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

    if which.contains(&"write-baselines") {
        match baseline::write_baselines(&baselines_dir) {
            Ok(paths) => {
                for p in &paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("error: writing baselines failed: {e}");
                all_ok = false;
            }
        }
    }
    if which.contains(&"check-baselines") {
        let byte_tol = tolerance.unwrap_or(0.01);
        println!(
            "checking metrics baselines in {} (byte tolerance {:.2}%)",
            baselines_dir.display(),
            byte_tol * 100.0
        );
        let problems = baseline::check_baselines(&baselines_dir, byte_tol);
        if problems.is_empty() {
            println!(
                "  [PASS] all {} baseline scenarios match",
                baseline::run_all().len()
            );
        } else {
            for p in &problems {
                println!("  [FAIL] {p}");
            }
            all_ok = false;
        }
    }
    // The baseline metric artifacts only accompany the baseline modes;
    // the smoke rows write their own below.
    if let Some(dir) = &metrics_out {
        if which.contains(&"check-baselines") || which.contains(&"write-baselines") {
            all_ok &= dump_metrics(dir);
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
    if which.contains(&"bench") {
        println!("perf benchmarks — fixed seeds, warmup + median-of-k, counters exact");
        let reports = match &only {
            None => perfbench::run_all(),
            Some(names) => match perfbench::run_named(names) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    usage()
                }
            },
        };
        perfbench::print_table(&reports);
        let bench_out = out.clone().unwrap_or_else(|| PathBuf::from("."));
        match perfbench::write_reports(&bench_out, &reports) {
            Ok(paths) => {
                for p in &paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("error: cannot write bench reports: {e}");
                all_ok = false;
            }
        }
        if bench_write {
            match perfbench::write_baselines(&baselines_dir, &reports) {
                Ok(paths) => {
                    for p in &paths {
                        println!("wrote {}", p.display());
                    }
                }
                Err(e) => {
                    eprintln!("error: writing perf baselines failed: {e}");
                    all_ok = false;
                }
            }
        }
        if bench_check {
            let wall_tol = perfbench::wall_tolerance(tolerance);
            println!(
                "checking perf baselines in {}/{} (wall tolerance {:.0}%)",
                baselines_dir.display(),
                perfbench::BASELINE_SUBDIR,
                wall_tol * 100.0
            );
            let verdicts = perfbench::check_baselines_per_bench(&baselines_dir, &reports, wall_tol);
            let width = verdicts.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, problems) in &verdicts {
                if problems.is_empty() {
                    println!("  {name:width$}  [PASS]");
                } else {
                    println!("  {name:width$}  [FAIL] ({} problem(s))", problems.len());
                    for p in problems {
                        println!("    - {p}");
                    }
                    all_ok = false;
                }
            }
            let failed = verdicts.iter().filter(|(_, p)| !p.is_empty()).count();
            if failed == 0 {
                println!("  [PASS] all {} perf baselines match", verdicts.len());
            } else {
                println!(
                    "  [FAIL] {failed} of {} perf baselines drifted",
                    verdicts.len()
                );
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
            "check-baselines" | "write-baselines" | "smoke" | "simcheck-replay" | "bench"
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

    if want("fig5") {
        let fig = fig5::run(scale, seed);
        fig.print();
        dump(&out, &fig.to_data());
        all_ok &= report_checks("Figure 5", &fig.checks());
    }
    if want("fig6") {
        let fig = fig6::run(scale, seed);
        fig.print();
        dump(&out, &fig.to_data());
        all_ok &= report_checks("Figure 6", &fig.checks());
    }
    if want("fig7") {
        let (a, b) = fig7::run(scale, seed);
        a.print();
        dump(&out, &a.to_data());
        all_ok &= report_checks("Figure 7(a)", &a.checks());
        b.print();
        dump(&out, &b.to_data());
        all_ok &= report_checks("Figure 7(b)", &b.checks());
    }
    if want("fig8") {
        let fig = fig8::run(scale, seed);
        fig.print();
        dump(&out, &fig.to_data());
        all_ok &= report_checks("Figure 8", &fig.checks());
    }
    if want("ablation") {
        let ab = ablation::run(scale, seed);
        ab.print();
        all_ok &= report_checks("ablations", &ab.checks());
    }
    if want("depth") {
        let prof = depth::run(scale, seed);
        prof.print();
        dump(&out, &prof.to_data());
        all_ok &= report_checks("depth profile", &prof.checks());
    }

    if all_ok {
        println!("\nall shape checks passed");
        ExitCode::SUCCESS
    } else {
        println!("\nsome shape checks FAILED");
        ExitCode::FAILURE
    }
}
