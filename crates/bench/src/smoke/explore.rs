//! The simcheck rows' one exploration loop: every case of an
//! `ifi-simcheck` registry runs its shipped budget, and the outcome
//! becomes [`ShapeCheck`]s. Clean cases must survive with a healthy
//! distinct-schedule count; pinned bugs must be rediscovered, shrunk,
//! replayed, and serialized to an artifact that parses back to the same
//! perturbation.

use std::path::Path;

use ifi_simcheck::{parse_artifact, write_artifact, Case, ExploreReport};

use super::SmokeRun;
use crate::ShapeCheck;

/// The distinct-schedule floor each clean case must clear.
pub(crate) const MIN_DISTINCT_SCHEDULES: usize = 50;

/// Explores every case and writes bug artifacts to `<out>/simcheck`.
pub(crate) fn explore_all(cases: Vec<Case>, out: &Path) -> Vec<SmokeRun> {
    let dir = out.join("simcheck");
    cases
        .iter()
        .map(|case| {
            let report = case.explore();
            let checks = if case.expect_violation.is_none() {
                clean_checks(case, &report)
            } else {
                bug_checks(case, &report, &dir)
            };
            SmokeRun {
                name: case.name,
                report: None,
                checks,
            }
        })
        .collect()
}

fn clean_checks(case: &Case, report: &ExploreReport) -> Vec<ShapeCheck> {
    let mut checks = Vec::new();
    let detail = match &report.violation {
        None => format!(
            "{} trials, {} distinct schedules, no violation",
            report.trials_run, report.distinct_schedules
        ),
        Some(f) => format!(
            "trial {} violated {}: {}",
            f.trial, f.violation.oracle, f.violation.detail
        ),
    };
    checks.push(ShapeCheck::new(
        format!(
            "{}: every oracle holds on every explored schedule",
            case.name
        ),
        report.violation.is_none(),
        detail,
    ));
    checks.push(ShapeCheck::new(
        format!(
            "{}: >= {MIN_DISTINCT_SCHEDULES} distinct schedules explored",
            case.name
        ),
        report.distinct_schedules >= MIN_DISTINCT_SCHEDULES,
        format!("{} distinct", report.distinct_schedules),
    ));
    checks
}

fn bug_checks(case: &Case, report: &ExploreReport, out_dir: &Path) -> Vec<ShapeCheck> {
    let expected = case.expect_violation.expect("bug case");
    let mut checks = Vec::new();
    let Some(found) = &report.violation else {
        checks.push(ShapeCheck::new(
            format!("{}: pinned bug rediscovered within budget", case.name),
            false,
            format!(
                "no violation in {} trials / {} distinct schedules",
                report.trials_run, report.distinct_schedules
            ),
        ));
        return checks;
    };
    checks.push(ShapeCheck::new(
        format!("{}: pinned bug rediscovered within budget", case.name),
        true,
        format!("trial {} of {}", found.trial, report.trials_run),
    ));
    checks.push(ShapeCheck::new(
        format!("{}: the matching oracle fired", case.name),
        found.shrunk_violation.oracle == expected,
        format!(
            "expected {expected}, got {}: {}",
            found.shrunk_violation.oracle, found.shrunk_violation.detail
        ),
    ));
    checks.push(ShapeCheck::new(
        format!("{}: shrinking never grows the repro", case.name),
        found.shrunk.len() <= found.perturbation.len(),
        format!(
            "{} perturbation elements -> {}",
            found.perturbation.len(),
            found.shrunk.len()
        ),
    ));
    let replayed = case.replay(&found.shrunk);
    checks.push(ShapeCheck::new(
        format!("{}: shrunk repro replays to the same oracle", case.name),
        replayed.as_ref().is_some_and(|v| v.oracle == expected),
        match &replayed {
            Some(v) => format!("replay violated {}", v.oracle),
            None => "replay passed all oracles".into(),
        },
    ));
    let artifact = write_artifact(out_dir, case.name, case.config.seed, found)
        .map_err(|e| e.to_string())
        .and_then(|path| parse_artifact(&path).map(|a| (path, a)));
    checks.push(ShapeCheck::new(
        format!("{}: artifact round-trips through the parser", case.name),
        artifact.as_ref().is_ok_and(|(_, a)| {
            a.case == case.name && a.seed == case.config.seed && a.perturbation == found.shrunk
        }),
        match &artifact {
            Ok((path, _)) => format!("wrote {}", path.display()),
            Err(e) => e.clone(),
        },
    ));
    checks
}
