//! Workspace-level drive of the `ifi-simcheck` harness: the case registry
//! covers every protocol family, a pinned historical bug is rediscovered
//! end to end (explore → shrink → replay) at a seed the CI smoke never
//! uses, and a clean case survives a reduced exploration budget. The full
//! six-case pass at the default seed is the `simcheck` smoke row
//! (`experiments smoke --only simcheck`); these tests keep the harness
//! honest from outside the crate at different seeds.

use ifi_simcheck::{all_cases, find_case, ExploreConfig};

#[test]
fn registry_covers_three_clean_and_three_pinned_bug_cases() {
    let cases = all_cases(1);
    let clean: Vec<&str> = cases
        .iter()
        .filter(|c| c.expect_violation.is_none())
        .map(|c| c.name)
        .collect();
    let bugs: Vec<(&str, &str)> = cases
        .iter()
        .filter_map(|c| c.expect_violation.map(|o| (c.name, o)))
        .collect();
    assert_eq!(
        clean,
        ["netfilter-clean", "resilient-clean", "maintain-clean"]
    );
    assert_eq!(
        bugs,
        [
            ("bug-churn-race", "panic"),
            ("bug-count-to-infinity", "tree"),
            ("bug-double-merge", "no-inflation"),
        ]
    );
}

/// The heartbeat churn-race panic is found, shrunk, and the shrunk
/// perturbation replays to the same oracle — at a seed unrelated to the
/// one the smoke pins, so rediscovery is not a fluke of one rng stream.
#[test]
fn churn_race_bug_is_rediscovered_shrunk_and_replayable() {
    let case = find_case("bug-churn-race", 7).expect("registered case");
    let report = case.explore();
    let found = report
        .violation
        .expect("the pinned bug must fire within the case budget");
    assert_eq!(found.shrunk_violation.oracle, "panic");
    assert!(found.shrunk.len() <= found.perturbation.len());
    let replayed = case
        .replay(&found.shrunk)
        .expect("the shrunk repro must still violate");
    assert_eq!(replayed.oracle, "panic");
    assert!(
        replayed.detail.contains("is not tracked"),
        "unexpected panic text: {}",
        replayed.detail
    );
}

/// A clean case stays clean under a reduced budget at a fresh seed, and
/// the strategy genuinely diversifies schedules rather than replaying the
/// default order with a different label.
#[test]
fn clean_maintain_exploration_holds_and_diversifies_schedules() {
    let case = find_case("maintain-clean", 11).expect("registered case");
    let cfg = ExploreConfig {
        trials: 12,
        ..case.config.clone()
    };
    let report = case.explore_with(&cfg);
    if let Some(f) = &report.violation {
        panic!(
            "trial {} violated {}: {}",
            f.trial, f.violation.oracle, f.violation.detail
        );
    }
    assert_eq!(report.trials_run, 12);
    assert!(
        report.distinct_schedules >= 10,
        "only {} distinct schedules in 12 trials",
        report.distinct_schedules
    );
}
