//! Replayable repro artifacts.
//!
//! A violation is only useful if it can be re-run after the exploring
//! process is gone, so every rediscovered bug is serialized to a small
//! line-based `key = value` file under `results/simcheck/`:
//!
//! ```text
//! case = bug-double-merge
//! seed = 20080617
//! trial = 3
//! oracle = no-inflation
//! detail = peer 0 epoch 1: item ItemId(7) reported 40 > true value 20
//! decision = 112 take 2
//! decision = 340 delay 0 45211
//! drop = 87
//! trace = TraceEntry { .. }
//! ```
//!
//! `decision` and `drop` lines reconstruct the exact [`Perturbation`];
//! `trace` lines are a human-readable window of the events leading up to
//! the violation and are ignored by the parser. The
//! `experiments simcheck-replay <file>` subcommand loads an artifact and
//! re-runs its case.

use std::fs;
use std::path::{Path, PathBuf};

use ifi_sim::ScheduleDecision;

use crate::explore::{FoundViolation, Perturbation};

/// A parsed repro artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// The case name (see [`crate::cases::find_case`]).
    pub case: String,
    /// The base seed the case was built with.
    pub seed: u64,
    /// The oracle the shrunk perturbation violates.
    pub oracle: String,
    /// Human-readable violation description.
    pub detail: String,
    /// The shrunk, replay-verified perturbation.
    pub perturbation: Perturbation,
}

fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " | ")
}

/// Writes the shrunk repro of `found` as `<dir>/<case>-<seed>.repro`,
/// creating `dir` if needed. Returns the path written.
pub fn write_artifact(
    dir: &Path,
    case: &str,
    seed: u64,
    found: &FoundViolation,
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{case}-{seed}.repro"));
    let mut s = String::new();
    s.push_str("# ifi-simcheck repro — replay with: experiments simcheck-replay <this file>\n");
    s.push_str(&format!("case = {case}\n"));
    s.push_str(&format!("seed = {seed}\n"));
    s.push_str(&format!("trial = {}\n", found.trial));
    s.push_str(&format!(
        "oracle = {}\n",
        one_line(&found.shrunk_violation.oracle)
    ));
    s.push_str(&format!(
        "detail = {}\n",
        one_line(&found.shrunk_violation.detail)
    ));
    for &(idx, d) in &found.shrunk.decisions {
        match d {
            ScheduleDecision::Take(i) => s.push_str(&format!("decision = {idx} take {i}\n")),
            ScheduleDecision::Delay { index, micros } => {
                s.push_str(&format!("decision = {idx} delay {index} {micros}\n"))
            }
        }
    }
    for &seq in &found.shrunk.extra_drops {
        s.push_str(&format!("drop = {seq}\n"));
    }
    for line in &found.shrunk_violation.trace {
        s.push_str(&format!("trace = {}\n", one_line(line)));
    }
    fs::write(&path, s)?;
    Ok(path)
}

fn parse_decision(rest: &str) -> Result<(u64, ScheduleDecision), String> {
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let num =
        |s: &str| -> Result<u64, String> { s.parse().map_err(|_| format!("bad number {s:?}")) };
    match fields.as_slice() {
        [idx, "take", i] => Ok((num(idx)?, ScheduleDecision::Take(num(i)? as usize))),
        [idx, "delay", index, micros] => Ok((
            num(idx)?,
            ScheduleDecision::Delay {
                index: num(index)? as usize,
                micros: num(micros)?,
            },
        )),
        _ => Err(format!("unparseable decision {rest:?}")),
    }
}

/// Parses an artifact written by [`write_artifact`].
pub fn parse_artifact(path: &Path) -> Result<Artifact, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut case = None;
    let mut seed = None;
    let mut oracle = None;
    let mut detail = None;
    let mut perturbation = Perturbation::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: missing '='", lineno + 1));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "case" => case = Some(value.to_string()),
            "seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("line {}: bad seed", lineno + 1))?,
                )
            }
            "oracle" => oracle = Some(value.to_string()),
            "detail" => detail = Some(value.to_string()),
            "trial" | "trace" => {}
            "decision" => perturbation
                .decisions
                .push(parse_decision(value).map_err(|e| format!("line {}: {e}", lineno + 1))?),
            "drop" => perturbation.extra_drops.push(
                value
                    .parse()
                    .map_err(|_| format!("line {}: bad drop seq", lineno + 1))?,
            ),
            other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
        }
    }
    Ok(Artifact {
        case: case.ok_or("missing 'case'")?,
        seed: seed.ok_or("missing 'seed'")?,
        oracle: oracle.ok_or("missing 'oracle'")?,
        detail: detail.unwrap_or_default(),
        perturbation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Violation;

    #[test]
    fn artifacts_round_trip() {
        let found = FoundViolation {
            trial: 5,
            violation: Violation {
                oracle: "panic".into(),
                detail: "original\nmultiline".into(),
                trace: Vec::new(),
            },
            perturbation: Perturbation {
                decisions: vec![(3, ScheduleDecision::Take(1))],
                extra_drops: vec![10, 42],
            },
            shrunk: Perturbation {
                decisions: vec![
                    (3, ScheduleDecision::Take(1)),
                    (
                        90,
                        ScheduleDecision::Delay {
                            index: 2,
                            micros: 777,
                        },
                    ),
                ],
                extra_drops: vec![42],
            },
            shrunk_violation: Violation {
                oracle: "panic".into(),
                detail: "peer 4 is not tracked".into(),
                trace: vec!["Send { .. }".into(), "Deliver { .. }".into()],
            },
        };
        let dir = std::env::temp_dir().join("ifi-simcheck-artifact-test");
        let path = write_artifact(&dir, "bug-churn-race", 99, &found).expect("write");
        let parsed = parse_artifact(&path).expect("parse");
        assert_eq!(parsed.case, "bug-churn-race");
        assert_eq!(parsed.seed, 99);
        assert_eq!(parsed.oracle, "panic");
        assert_eq!(parsed.detail, "peer 4 is not tracked");
        assert_eq!(parsed.perturbation, found.shrunk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let dir = std::env::temp_dir().join("ifi-simcheck-artifact-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bad.repro");
        std::fs::write(&p, "case = x\nseed = 1\noracle = o\ndecision = 1 warp 2\n").unwrap();
        assert!(parse_artifact(&p).unwrap_err().contains("unparseable"));
        std::fs::write(&p, "seed = 1\noracle = o\n").unwrap();
        assert!(parse_artifact(&p).unwrap_err().contains("case"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
