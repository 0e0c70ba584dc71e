//! The approximate-engine case registry: error claims under exploration.
//!
//! The exact registry ([`crate::cases`]) asks "is the answer right?"; the
//! approximate engines ship a weaker but *certified* claim instead — an
//! ε-bound, a recall floor, a one-sided soundness guarantee — and this
//! registry explores whether those claims actually survive adversarial
//! schedules, message loss, duplication, and a mid-run kill/revive of a
//! leaf.
//!
//! Three **clean** cases, one per engine:
//!
//! * `approx-sketch-clean`: the Space-Saving gossip sketch-merge engine
//!   at an honest capacity; every estimate stays within `⌈ε·V⌉` of the
//!   truth and no frequent item goes missing ([`EpsilonBoundOracle`]).
//! * `approx-topk-clean`: the threshold-algorithm top-k engine in
//!   lossless mode; returned values are exact, recall is 1, and the
//!   answer certifies ([`TopKRecallOracle`]).
//! * `approx-threshold-clean`: the zero-traffic local-thresholding
//!   comparator; at no checkpoint may the root overclaim
//!   ([`ThresholdSoundnessOracle`]).
//!
//! Three **mis-tuned negatives** the harness must catch and shrink to
//! replayable artifacts:
//!
//! * `bug-sketch-overclaim`: a capacity-2 sketch claiming ε = 1/64 — the
//!   answer can neither cover the frequent set nor honor the bound.
//! * `bug-topk-starved`: `k = 8` behind a prune capacity of 1 while
//!   claiming perfect recall — seven of the true top-8 are pruned away.
//! * `bug-threshold-optimist`: the `#[doc(hidden)]` optimistic toggle on
//!   a crafted nine-peer split where every holder clears the report
//!   budget yet the global value sits below `t` — the root answers *yes*
//!   to a false comparison.
//!
//! The registry is deliberately separate from [`crate::cases::all_cases`]
//! (whose shape the exact-suite accounting pins); the `approx` row of
//! `experiments smoke` drives this one.
//!
//! [`EpsilonBoundOracle`]: crate::oracle::EpsilonBoundOracle
//! [`TopKRecallOracle`]: crate::oracle::TopKRecallOracle
//! [`ThresholdSoundnessOracle`]: crate::oracle::ThresholdSoundnessOracle

use ifi_hierarchy::Hierarchy;
use ifi_sim::{Duration, FaultPlan, PeerId, RelConfig, SimConfig, SimTime};
use ifi_workload::{GroundTruth, ItemId, SystemData};
use netfilter::local_threshold::{LocalThresholdConfig, LocalThresholdProtocol};
use netfilter::sketch::{SketchConfig, SketchProtocol};
use netfilter::topk::{TopKConfig, TopKProtocol};
use netfilter::Threshold;

use crate::cases::{make_case, workload, Case};
use crate::explore::ExploreConfig;
use crate::oracle::{EpsilonBoundOracle, Oracle, ThresholdSoundnessOracle, TopKRecallOracle};

/// The leaf every clean case kills mid-run and revives half a query
/// later: under `Hierarchy::balanced(9, 3)` peer 8 reports to peer 2.
const CHURNED_LEAF: usize = 8;

fn kill_at() -> SimTime {
    SimTime::from_micros(250_000)
}

fn revive_at() -> SimTime {
    SimTime::from_micros(1_500_000)
}

fn clean_budget(seed: u64) -> ExploreConfig {
    ExploreConfig {
        seed,
        trials: 60,
        check_every: Duration::from_secs(1),
        horizon: None,
        drops_per_trial: 2,
        drop_seq_horizon: 200,
        shrink_budget: 300,
        ..ExploreConfig::default()
    }
}

fn negative_budget(seed: u64) -> ExploreConfig {
    ExploreConfig {
        seed,
        trials: 60,
        check_every: Duration::from_secs(1),
        horizon: None,
        drops_per_trial: 0,
        drop_seq_horizon: 200,
        shrink_budget: 200,
        ..ExploreConfig::default()
    }
}

fn faulty_sim(seed: u64, drops: &[u64]) -> SimConfig {
    SimConfig::default().with_seed(seed).with_faults(
        FaultPlan::none()
            .with_drop(0.05)
            .with_duplication(0.05)
            .with_scheduled_drops(drops.iter().copied()),
    )
}

/// The honest sketch engine under loss, duplication, and leaf churn: the
/// claimed ε must hold and the frequent set must be covered on every
/// schedule.
fn sketch_clean(seed: u64) -> Case {
    let data = workload(seed);
    let h = Hierarchy::balanced(9, 3);
    let cfg = SketchConfig::new(32);
    let truth = GroundTruth::compute(&data);
    let threshold = cfg.threshold.resolve(data.total_value());
    let claimed_epsilon = cfg.claimed_epsilon;
    let root = h.root();
    let build = move |drops: &[u64]| {
        let mut w = SketchProtocol::build_world_reliable(
            &cfg,
            &h,
            &data,
            faulty_sim(seed, drops),
            RelConfig::default(),
        );
        w.schedule_kill(kill_at(), PeerId::new(CHURNED_LEAF));
        w.schedule_revive(revive_at(), PeerId::new(CHURNED_LEAF));
        w.enable_trace(64);
        w
    };
    let oracles = move || -> Vec<Box<dyn Oracle<SketchProtocol>>> {
        vec![Box::new(EpsilonBoundOracle {
            root,
            truth: truth.clone(),
            threshold,
            claimed_epsilon,
        })]
    };
    make_case(
        "approx-sketch-clean",
        "sketch",
        None,
        clean_budget(seed),
        build,
        oracles,
    )
}

/// A deliberately starved sketch (capacity 2) claiming ε = 1/64: the
/// ε-bound oracle must fire on the unperturbed schedule already.
fn sketch_overclaim(seed: u64) -> Case {
    let data = workload(seed);
    let h = Hierarchy::balanced(9, 3);
    let cfg = SketchConfig::new(2).with_claimed_epsilon(1.0 / 64.0);
    let truth = GroundTruth::compute(&data);
    let threshold = cfg.threshold.resolve(data.total_value());
    let claimed_epsilon = cfg.claimed_epsilon;
    let root = h.root();
    let build = move |drops: &[u64]| {
        let sim = SimConfig::default()
            .with_seed(seed)
            .with_faults(FaultPlan::none().with_scheduled_drops(drops.iter().copied()));
        let mut w =
            SketchProtocol::build_world_reliable(&cfg, &h, &data, sim, RelConfig::default());
        w.enable_trace(64);
        w
    };
    let oracles = move || -> Vec<Box<dyn Oracle<SketchProtocol>>> {
        vec![Box::new(EpsilonBoundOracle {
            root,
            truth: truth.clone(),
            threshold,
            claimed_epsilon,
        })]
    };
    make_case(
        "bug-sketch-overclaim",
        "sketch",
        Some("epsilon-bound"),
        negative_budget(seed),
        build,
        oracles,
    )
}

/// The lossless top-k engine under loss, duplication, and leaf churn:
/// exact values, perfect recall, certified — on every schedule.
fn topk_clean(seed: u64) -> Case {
    let data = workload(seed);
    let h = Hierarchy::balanced(9, 3);
    let k = 5;
    let cfg = TopKConfig::lossless(k);
    let truth = GroundTruth::compute(&data);
    let expected: Vec<(ItemId, u64)> = truth.globals().iter().copied().take(k).collect();
    let root = h.root();
    let build = move |drops: &[u64]| {
        let mut w = TopKProtocol::build_world_reliable(
            &cfg,
            &h,
            &data,
            faulty_sim(seed, drops),
            RelConfig::default(),
        );
        w.schedule_kill(kill_at(), PeerId::new(CHURNED_LEAF));
        w.schedule_revive(revive_at(), PeerId::new(CHURNED_LEAF));
        w.enable_trace(64);
        w
    };
    let oracles = move || -> Vec<Box<dyn Oracle<TopKProtocol>>> {
        vec![Box::new(TopKRecallOracle {
            root,
            truth: truth.clone(),
            expected: expected.clone(),
            claimed_recall: 1.0,
        })]
    };
    make_case(
        "approx-topk-clean",
        "topk",
        None,
        clean_budget(seed),
        build,
        oracles,
    )
}

/// A top-8 query forced through a prune capacity of 1 while still
/// claiming perfect recall: the recall oracle must fire immediately.
fn topk_starved(seed: u64) -> Case {
    let data = workload(seed);
    let h = Hierarchy::balanced(9, 3);
    let k = 8;
    let cfg = TopKConfig::new(k).with_prune_cap(1);
    let truth = GroundTruth::compute(&data);
    let expected: Vec<(ItemId, u64)> = truth.globals().iter().copied().take(k).collect();
    let root = h.root();
    let build = move |drops: &[u64]| {
        let sim = SimConfig::default()
            .with_seed(seed)
            .with_faults(FaultPlan::none().with_scheduled_drops(drops.iter().copied()));
        let mut w = TopKProtocol::build_world_reliable(&cfg, &h, &data, sim, RelConfig::default());
        w.enable_trace(64);
        w
    };
    let oracles = move || -> Vec<Box<dyn Oracle<TopKProtocol>>> {
        vec![Box::new(TopKRecallOracle {
            root,
            truth: truth.clone(),
            expected: expected.clone(),
            claimed_recall: 1.0,
        })]
    };
    make_case(
        "bug-topk-starved",
        "topk",
        Some("topk-recall"),
        negative_budget(seed),
        build,
        oracles,
    )
}

/// The sound comparator asking about the heaviest item at half its true
/// value: loss and churn may delay the *yes* but can never produce an
/// unsound one, and the running lower bound never exceeds the truth.
fn threshold_clean(seed: u64) -> Case {
    let data = workload(seed);
    let h = Hierarchy::balanced(9, 3);
    let truth = GroundTruth::compute(&data);
    let (item, truth_value) = truth.globals()[0];
    let cfg = LocalThresholdConfig::new(Threshold::Absolute((truth_value / 2).max(1)));
    let root = h.root();
    let build = move |drops: &[u64]| {
        let mut w = LocalThresholdProtocol::build_world_reliable(
            &cfg,
            &h,
            &data,
            item,
            faulty_sim(seed, drops),
            RelConfig::default(),
        );
        w.schedule_kill(kill_at(), PeerId::new(CHURNED_LEAF));
        w.schedule_revive(revive_at(), PeerId::new(CHURNED_LEAF));
        w.enable_trace(64);
        w
    };
    let oracles = move || -> Vec<Box<dyn Oracle<LocalThresholdProtocol>>> {
        vec![Box::new(ThresholdSoundnessOracle { root, truth_value })]
    };
    make_case(
        "approx-threshold-clean",
        "threshold",
        None,
        clean_budget(seed),
        build,
        oracles,
    )
}

/// The optimistic toggle on the crafted split that defeats it: seven
/// peers hold 9 units each (budget `⌈70/9⌉ = 8` — everyone reports), two
/// hold nothing, and `t = 70` exceeds the true value 63. The optimist
/// extrapolates the silent peers to `budget − 1` and answers *yes*.
fn threshold_optimist(seed: u64) -> Case {
    let item = ItemId(0);
    let local: Vec<Vec<(ItemId, u64)>> = (0..9)
        .map(|i| if i < 7 { vec![(item, 9)] } else { Vec::new() })
        .collect();
    let data = SystemData::from_local_sets(local, 1);
    let h = Hierarchy::balanced(9, 3);
    let cfg = LocalThresholdConfig::new(Threshold::Absolute(70)).with_optimism();
    let truth_value = 63;
    let root = h.root();
    let build = move |drops: &[u64]| {
        let sim = SimConfig::default()
            .with_seed(seed)
            .with_faults(FaultPlan::none().with_scheduled_drops(drops.iter().copied()));
        let mut w = LocalThresholdProtocol::build_world_reliable(
            &cfg,
            &h,
            &data,
            item,
            sim,
            RelConfig::default(),
        );
        w.enable_trace(64);
        w
    };
    let oracles = move || -> Vec<Box<dyn Oracle<LocalThresholdProtocol>>> {
        vec![Box::new(ThresholdSoundnessOracle { root, truth_value })]
    };
    make_case(
        "bug-threshold-optimist",
        "threshold",
        Some("threshold-soundness"),
        negative_budget(seed),
        build,
        oracles,
    )
}

/// The approximate-engine registry for one seed: three clean cases,
/// three mis-tuned negatives.
pub fn approx_cases(seed: u64) -> Vec<Case> {
    vec![
        sketch_clean(seed),
        topk_clean(seed),
        threshold_clean(seed),
        sketch_overclaim(seed),
        topk_starved(seed),
        threshold_optimist(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64, trials: usize) -> ExploreConfig {
        ExploreConfig {
            trials,
            ..clean_budget(seed)
        }
    }

    #[test]
    fn registry_names_are_unique_and_expectations_partition() {
        let cases = approx_cases(1);
        assert_eq!(cases.len(), 6);
        let names: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 6);
        assert_eq!(
            cases
                .iter()
                .filter(|c| c.expect_violation.is_none())
                .count(),
            3,
            "three clean engines"
        );
        // One clean case per engine family.
        let clean: std::collections::BTreeSet<&str> = cases
            .iter()
            .filter(|c| c.expect_violation.is_none())
            .map(|c| c.protocol)
            .collect();
        assert_eq!(clean.len(), 3);
        assert!(crate::find_case("bug-topk-starved", 1).is_some());
        assert!(crate::find_case("no-such-engine", 1).is_none());
    }

    #[test]
    fn clean_cases_hold_on_a_handful_of_schedules() {
        for case in approx_cases(11) {
            if case.expect_violation.is_some() {
                continue;
            }
            let report = case.explore_with(&quick(11, 6));
            assert!(
                report.violation.is_none(),
                "{} violated: {:?}",
                case.name,
                report.violation
            );
            assert!(
                report.distinct_schedules >= 2,
                "{} never diverged",
                case.name
            );
        }
    }

    /// Every mis-tuned negative fires on its very first (unperturbed)
    /// schedule, names the right oracle, shrinks, and replays.
    #[test]
    fn negatives_fire_shrink_and_replay() {
        for case in approx_cases(7) {
            let Some(expect) = case.expect_violation else {
                continue;
            };
            let report = case.explore_with(&quick(7, 3));
            let found = report
                .violation
                .unwrap_or_else(|| panic!("{} did not fire", case.name));
            assert_eq!(found.violation.oracle, expect, "{}", case.name);
            assert_eq!(found.trial, 0, "{} needed perturbation to fire", case.name);
            // The shrunk perturbation still reproduces it bit for bit.
            let again = case
                .replay(&found.shrunk)
                .unwrap_or_else(|| panic!("{} shrunk repro went quiet", case.name));
            assert_eq!(again.oracle, expect, "{}", case.name);
        }
    }
}
