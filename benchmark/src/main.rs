//! `ifi-benchmark run | compare` — see `README.md` beside this crate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ifi_benchmark::compare::compare;
use ifi_benchmark::json::Json;
use ifi_benchmark::run::{run_workload, Budget, RunResult};
use ifi_benchmark::workloads::NAMES;

const USAGE: &str = "\
usage (from the repository root):
  ifi-benchmark run [--seed N] [--seconds S] [--quick] [--out DIR]
      every workload, untraced then traced; writes DIR/result.json,
      DIR/ledger_<workload>.json and DIR/spans_<workload>.csv
  ifi-benchmark run --workload NAME [--trace 0|1] [--seed N] [--seconds S] [--quick] [--out DIR]
      one workload, one pass; the last stdout line is its JSON result
  ifi-benchmark compare A.json B.json [--spec BENCHMARK.json]
      B against A under the bounds of BENCHMARK.json; exit 1 if outside
defaults: --seed 20080617 --seconds 10 --trace 0 --out benchmark/out";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 20080617,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            a.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let budget = if a.quick {
        Budget::Quick
    } else {
        Budget::Seconds(a.seconds)
    };
    let one = |name: &str, trace: bool| -> Result<RunResult, String> {
        let r = run_workload(name, a.seed, budget, trace, &a.out)?;
        r.print();
        Ok(r)
    };
    if let Some(name) = &a.workload {
        let r = one(name, a.trace)?;
        // Failed ops travel in the JSON (`correct`, `failed`); the exit
        // code only says whether the run itself completed.
        println!("{}", r.to_json().to_line());
        return Ok(ExitCode::SUCCESS);
    }

    let mut failed = 0;
    let mut workloads = Vec::new();
    for name in NAMES {
        let (untraced, traced) = (one(name, false)?, one(name, true)?);
        failed += untraced.failed + traced.failed;
        let both = [
            ("end_to_end", untraced.to_json()),
            ("per_layer", traced.to_json()),
        ];
        workloads.push((name, Json::obj(both)));
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let result = Json::obj([
        ("seed", Json::Num(a.seed as f64)),
        (
            "seconds",
            if a.quick {
                Json::Null
            } else {
                Json::Num(a.seconds)
            },
        ),
        ("cores", Json::Num(cores as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = a.out.join("result.json");
    std::fs::create_dir_all(&a.out)
        .and_then(|()| std::fs::write(&path, result.to_pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    Ok(ExitCode::from(u8::from(failed > 0)))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (files, spec) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, spec] if flag == "--spec" => ([a, b], spec.as_str()),
        _ => return Err("compare takes two result files".into()),
    };
    let [a, b] = files.map(|f| read_json(Path::new(f)));
    let (table, ok) = compare(&a?, &b?, &read_json(Path::new(spec))?)?;
    print!("{table}");
    println!("{}", if ok { "PASS" } else { "FAIL" });
    Ok(ExitCode::from(u8::from(!ok)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_cmd(rest),
        _ => Err("expected `run` or `compare`".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
