//! The continuous-engine case registry: standing queries under
//! exploration.
//!
//! The continuous engine promises that its delta-maintained standing
//! answer is *indistinguishable* from re-running a windowed aggregation
//! from scratch at every epoch fence — across message loss, duplication,
//! schedule perturbation, and a mid-run kill/revive of a leaf whose
//! buffered deltas the tree must absorb late. This registry holds that
//! promise to the [`WindowConsistencyOracle`]:
//!
//! * `continuous-clean`: nine peers, a three-bucket window over six epoch
//!   fences, **two** standing queries multiplexed over the shared delta
//!   stream, the reliability envelope on every hop, probabilistic loss
//!   and duplication plus scheduled drops, and the usual leaf churn.
//!   Every certified epoch must match the from-scratch window for both
//!   queries on every schedule, and all six epochs must certify.
//! * `bug-continuous-dropped-retirements`: the `#[doc(hidden)]` toggle
//!   that makes the root ignore retirement (negative) diffs — the
//!   standing state stops aging out and overcounts the moment the window
//!   fills, so the oracle must fire on the unperturbed schedule already.
//!
//! Like [`crate::approx`], this registry is deliberately separate from
//! [`crate::cases::all_cases`] (whose shape the exact-suite accounting
//! pins); the `continuous` row of `experiments smoke` drives it.
//!
//! [`WindowConsistencyOracle`]: crate::oracle::WindowConsistencyOracle

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, FaultPlan, PeerId, RelConfig, SimConfig};
use netfilter::continuous::{
    schedule_from_data, ContinuousConfig, ContinuousProtocol, QueryRegistry, StandingQuery,
};

use crate::cases::{
    clean_budget, faulty_sim, kill_at, make_case, negative_budget, revive_at, workload, Case,
    CHURNED_LEAF,
};
use crate::oracle::{Oracle, WindowConsistencyOracle};

/// Window size in buckets: after a fence the live window holds the last
/// two full epoch batches.
const WINDOW: usize = 3;

/// Epoch fences per run — enough for the window to fill and age twice.
const EPOCHS: usize = 6;

/// Two standing queries sharing the delta stream, both streamed to the
/// churned leaf (the deepest subscriber).
fn registry() -> QueryRegistry {
    let mut r = QueryRegistry::new();
    r.register(StandingQuery {
        id: 0,
        threshold: 30,
        subscriber: PeerId::new(CHURNED_LEAF),
    });
    r.register(StandingQuery {
        id: 1,
        threshold: 60,
        subscriber: PeerId::new(CHURNED_LEAF),
    });
    r
}

fn oracle(
    root: PeerId,
    schedules: &[Vec<Vec<(ifi_workload::ItemId, u64)>>],
    reg: &QueryRegistry,
) -> WindowConsistencyOracle {
    WindowConsistencyOracle {
        root,
        schedules: schedules.to_vec(),
        window: WINDOW,
        epochs: EPOCHS,
        thresholds: reg.queries().iter().map(|q| q.threshold).collect(),
    }
}

/// The honest continuous engine under loss, duplication, scheduled drops,
/// and leaf churn: window consistency must hold on every schedule.
fn continuous_clean(seed: u64) -> Case {
    let data = workload(seed);
    let schedules = schedule_from_data(&data, EPOCHS);
    let h = Hierarchy::balanced(9, 3);
    let cfg = ContinuousConfig::new(WINDOW, EPOCHS);
    let reg = registry();
    let root = h.root();
    let ora = oracle(root, &schedules, &reg);
    let build = move |drops: &[u64]| {
        let mut w = sansio_world(
            faulty_sim(seed, drops),
            ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, Some(RelConfig::default())),
        );
        w.schedule_kill(kill_at(), PeerId::new(CHURNED_LEAF));
        w.schedule_revive(revive_at(), PeerId::new(CHURNED_LEAF));
        w.enable_trace(64);
        w
    };
    let oracles =
        move || -> Vec<Box<dyn Oracle<ContinuousProtocol>>> { vec![Box::new(ora.clone())] };
    make_case(
        "continuous-clean",
        "continuous",
        None,
        clean_budget(seed),
        build,
        oracles,
    )
}

/// The planted retirement-dropping bug: the root ignores negative diffs,
/// so from the first fence where a batch retires (epoch `W − 1 = 2`) the
/// standing state overcounts and the oracle must fire — on the
/// unperturbed schedule, at trial 0.
fn continuous_dropped_retirements(seed: u64) -> Case {
    let data = workload(seed);
    let schedules = schedule_from_data(&data, EPOCHS);
    let h = Hierarchy::balanced(9, 3);
    let cfg = ContinuousConfig::new(WINDOW, EPOCHS);
    let reg = registry();
    let root = h.root();
    let ora = oracle(root, &schedules, &reg);
    let build = move |drops: &[u64]| {
        let sim = SimConfig::default()
            .with_seed(seed)
            .with_faults(FaultPlan::none().with_scheduled_drops(drops.iter().copied()));
        let cores: Vec<ContinuousProtocol> =
            ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, Some(RelConfig::default()))
                .into_iter()
                .map(ContinuousProtocol::with_dropped_retirements)
                .collect();
        let mut w = sansio_world(sim, cores);
        w.enable_trace(64);
        w
    };
    let oracles =
        move || -> Vec<Box<dyn Oracle<ContinuousProtocol>>> { vec![Box::new(ora.clone())] };
    make_case(
        "bug-continuous-dropped-retirements",
        "continuous",
        Some("window-consistency"),
        negative_budget(seed),
        build,
        oracles,
    )
}

/// The continuous-engine registry for one seed: one clean case, one
/// planted negative.
pub fn continuous_cases(seed: u64) -> Vec<Case> {
    vec![continuous_clean(seed), continuous_dropped_retirements(seed)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::tests::quick;

    #[test]
    fn registry_names_are_unique_and_expectations_partition() {
        let cases = continuous_cases(1);
        assert_eq!(cases.len(), 2);
        let names: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 2);
        assert_eq!(
            cases
                .iter()
                .filter(|c| c.expect_violation.is_none())
                .count(),
            1,
            "one clean case"
        );
        assert!(cases.iter().all(|c| c.protocol == "continuous"));
        assert!(crate::find_case("continuous-clean", 1).is_some());
        assert!(crate::find_case("no-such-case", 1).is_none());
    }

    #[test]
    fn clean_case_holds_on_a_handful_of_schedules() {
        let case = crate::find_case("continuous-clean", 11).unwrap();
        let report = case.explore_with(&quick(11, 6));
        assert!(
            report.violation.is_none(),
            "continuous-clean violated: {:?}",
            report.violation
        );
        assert!(report.distinct_schedules >= 2, "never diverged");
    }

    /// The planted negative fires on its very first (unperturbed)
    /// schedule, names the window-consistency oracle, shrinks, and
    /// replays.
    #[test]
    fn dropped_retirements_fire_shrink_and_replay() {
        let case = crate::find_case("bug-continuous-dropped-retirements", 7).unwrap();
        let report = case.explore_with(&quick(7, 3));
        let found = report.violation.expect("planted bug did not fire");
        assert_eq!(found.violation.oracle, "window-consistency");
        assert_eq!(found.trial, 0, "needed perturbation to fire");
        let again = case.replay(&found.shrunk).expect("shrunk repro went quiet");
        assert_eq!(again.oracle, "window-consistency");
    }
}
