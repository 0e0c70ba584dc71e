//! `compare <a.json> <b.json>`: is result file `b` within the bounds of
//! `BENCHMARK.json` against result file `a`?

use std::fmt::Write as _;

use crate::json::Json;

/// End-to-end metrics that are functions of the seed alone: between two
/// result files of the same seed they must be identical, whatever the
/// bound says.
const EXACT_AT_SAME_SEED: [&str; 2] = ["bytes_per_peer", "sim_answer_ms_p50"];

fn metric(file: &Json, workload: &str, name: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn failed(file: &Json, workload: &str) -> f64 {
    ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|pass| {
            file.get("workloads")?
                .get(workload)?
                .get(pass)?
                .get("failed")?
                .as_f64()
        })
        .sum()
}

/// Renders the comparison table of two result files against `spec`
/// (`BENCHMARK.json`) and whether `b` passes: no workload × end-to-end
/// metric worse than `a` by more than its bound, no exact metric
/// different at the same seed, no failed op in either file.
///
/// # Errors
///
/// A `spec` without the `workloads` / `end_to_end` lists.
pub fn compare(a: &Json, b: &Json, spec: &Json) -> Result<(String, bool), String> {
    let list = |key: &str| {
        spec.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key:?} list"))
    };
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let mut out = String::new();
    let mut ok = true;
    writeln!(
        out,
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    )
    .expect("write to String");
    for w in list("workloads")? {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or("?");
        for m in list("end_to_end")? {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            let (Some(va), Some(vb)) = (metric(a, workload, name), metric(b, workload, name))
            else {
                ok = false;
                writeln!(
                    out,
                    "{workload:<20} {name:<18} missing in a result file  FAIL"
                )
                .expect("write to String");
                continue;
            };
            let rel = if va == 0.0 { 0.0 } else { (vb - va) / va };
            let worse = if lower { rel } else { -rel };
            let exact = same_seed && EXACT_AT_SAME_SEED.contains(&name);
            let verdict = if exact && va != vb {
                "FAIL (exact metric differs)"
            } else if worse > bound {
                "FAIL (outside bound)"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            writeln!(
                out,
                "{workload:<20} {name:<18} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.1}%  {verdict}",
                worse * 100.0,
                bound * 100.0
            )
            .expect("write to String");
        }
        let fails = failed(a, workload) + failed(b, workload);
        if fails > 0.0 {
            ok = false;
            writeln!(
                out,
                "{workload:<20} {fails} failed ops across both files  FAIL"
            )
            .expect("write to String");
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: f64, op_ms: f64, bytes: f64, failed: f64) -> Json {
        let m = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        let pass = Json::obj([
            ("failed", Json::Num(failed)),
            (
                "metrics",
                Json::obj([("op_ms_p50", m(op_ms)), ("bytes_per_peer", m(bytes))]),
            ),
        ]);
        Json::obj([
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::obj([("w", Json::obj([("end_to_end", pass)]))]),
            ),
        ])
    }

    fn spec() -> Json {
        let m = |name: &str, bound: f64| {
            Json::obj([
                ("name", Json::str(name)),
                ("better", Json::str("lower")),
                ("bound", Json::Num(bound)),
            ])
        };
        Json::obj([
            (
                "workloads",
                Json::Arr(vec![Json::obj([("name", Json::str("w"))])]),
            ),
            (
                "end_to_end",
                Json::Arr(vec![m("op_ms_p50", 0.1), m("bytes_per_peer", 0.05)]),
            ),
        ])
    }

    #[test]
    fn within_bound_passes_and_outside_fails() {
        let a = file(1.0, 100.0, 50.0, 0.0);
        assert!(
            compare(&a, &file(1.0, 109.0, 50.0, 0.0), &spec())
                .unwrap()
                .1
        );
        assert!(compare(&a, &file(1.0, 80.0, 50.0, 0.0), &spec()).unwrap().1);
        assert!(
            !compare(&a, &file(1.0, 111.0, 50.0, 0.0), &spec())
                .unwrap()
                .1
        );
    }

    #[test]
    fn exact_metric_must_match_at_the_same_seed_only() {
        let a = file(1.0, 100.0, 50.0, 0.0);
        assert!(
            !compare(&a, &file(1.0, 100.0, 50.5, 0.0), &spec())
                .unwrap()
                .1
        );
        assert!(
            compare(&a, &file(2.0, 100.0, 50.5, 0.0), &spec())
                .unwrap()
                .1
        );
    }

    #[test]
    fn failed_ops_and_missing_metrics_fail() {
        let a = file(1.0, 100.0, 50.0, 0.0);
        assert!(
            !compare(&a, &file(1.0, 100.0, 50.0, 1.0), &spec())
                .unwrap()
                .1
        );
        let empty = Json::obj([("seed", Json::Num(1.0))]);
        assert!(!compare(&a, &empty, &spec()).unwrap().1);
    }
}
