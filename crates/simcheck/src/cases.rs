//! The case registry: what the harness explores and what it must find.
//!
//! Three **clean** cases — one per protocol family — whose oracles must
//! hold under every explored schedule:
//!
//! * `netfilter-clean`: the one-shot query with the reliability envelope
//!   under probabilistic loss, duplication, and scheduled drops; the root
//!   must stay exact and the byte accounting must reconcile.
//! * `resilient-clean`: periodic epochs in plain mode under duplication
//!   and scheduled drops; epochs never regress, answers never inflate,
//!   `Complete` certificates are sound.
//! * `maintain-clean`: hierarchy repair through a mid-run crash; the
//!   surviving tree must be well-formed at the horizon.
//!
//! Three **pinned historical bugs**, re-introduced through the
//! `#[doc(hidden)]` legacy toggles on the production state machines; the
//! matching oracle must fire within the exploration budget and shrink to
//! a replayable artifact:
//!
//! * `bug-churn-race`: the pre-fix tick sweep forgot suspected neighbors
//!   before the parent status check, panicking when the parent died.
//! * `bug-count-to-infinity`: without depth-following and the
//!   universe-size attach bound, a root death leaves a live attachment
//!   cycle with frozen finite depths.
//! * `bug-double-merge`: without the insert-guard protecting the merge, a
//!   duplicated aggregation frame is folded in twice, inflating the
//!   epoch answer above ground truth.
//!
//! Each case monomorphizes its protocol internally and exposes
//! type-erased `explore`/`replay` entry points, so the bench smoke, the
//! workspace tests, and the `simcheck-replay` subcommand (through
//! [`find_case`], which also searches the approx and continuous
//! registries) all drive the same registry.

use std::rc::Rc;

use ifi_hierarchy::{Hierarchy, MaintainProtocol, MultiHierarchy};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{
    sansio_world, Des, Duration, FaultPlan, PeerId, RelConfig, SansIo, SimConfig, SimTime, World,
};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::resilient::{ResilientConfig, ResilientProtocol};
use netfilter::{NetFilterConfig, Threshold};

use crate::explore::{explore, replay, ExploreConfig, ExploreReport, Perturbation};
use crate::oracle::{
    CensusSoundnessOracle, CostOracle, EpochFenceOracle, ExactnessOracle, NoInflationOracle,
    Oracle, TreeOracle, Violation,
};

type ExploreFn = Box<dyn Fn(&ExploreConfig) -> ExploreReport>;
type ReplayFn = Box<dyn Fn(&ExploreConfig, &Perturbation) -> Option<Violation>>;

/// One registered configuration the harness explores.
pub struct Case {
    /// Stable case name (doubles as the artifact file stem).
    pub name: &'static str,
    /// Protocol family, for per-(protocol, seed) schedule accounting.
    pub(crate) protocol: &'static str,
    /// `Some(oracle)` for pinned bugs: the oracle expected to fire.
    pub expect_violation: Option<&'static str>,
    /// The exploration budget this case ships with.
    pub config: ExploreConfig,
    explore_fn: ExploreFn,
    replay_fn: ReplayFn,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Case")
            .field("name", &self.name)
            .field("protocol", &self.protocol)
            .field("expect_violation", &self.expect_violation)
            .finish_non_exhaustive()
    }
}

impl Case {
    /// Explores with the case's own budget.
    pub fn explore(&self) -> ExploreReport {
        (self.explore_fn)(&self.config)
    }

    /// Explores with an overridden budget (e.g. fewer trials in tests).
    pub fn explore_with(&self, cfg: &ExploreConfig) -> ExploreReport {
        (self.explore_fn)(cfg)
    }

    /// Replays a recorded perturbation; returns the violation it
    /// reproduces, if any.
    pub fn replay(&self, pert: &Perturbation) -> Option<Violation> {
        (self.replay_fn)(&self.config, pert)
    }
}

pub(crate) fn make_case<P, B, O>(
    name: &'static str,
    protocol: &'static str,
    expect_violation: Option<&'static str>,
    config: ExploreConfig,
    build: B,
    oracles: O,
) -> Case
where
    P: SansIo + 'static,
    B: Fn(&[u64]) -> World<Des<P>> + 'static,
    O: Fn() -> Vec<Box<dyn Oracle<P>>> + 'static,
{
    let build = Rc::new(build);
    let oracles = Rc::new(oracles);
    let (build2, oracles2) = (Rc::clone(&build), Rc::clone(&oracles));
    Case {
        name,
        protocol,
        expect_violation,
        config,
        explore_fn: Box::new(move |cfg| explore(cfg, build.as_ref(), oracles.as_ref())),
        replay_fn: Box::new(move |cfg, pert| replay(cfg, build2.as_ref(), oracles2.as_ref(), pert)),
    }
}

pub(crate) fn secs(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

pub(crate) fn workload(seed: u64) -> SystemData {
    SystemData::generate(
        &WorkloadParams {
            peers: 9,
            items: 300,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    )
}

/// The leaf the approx and continuous clean cases kill mid-run and
/// revive later: under `Hierarchy::balanced(9, 3)` peer 8 reports to
/// peer 2.
pub(crate) const CHURNED_LEAF: usize = 8;

pub(crate) fn kill_at() -> SimTime {
    SimTime::from_micros(250_000)
}

pub(crate) fn revive_at() -> SimTime {
    SimTime::from_micros(1_500_000)
}

/// The exploration budget of the approx and continuous clean cases.
pub(crate) fn clean_budget(seed: u64) -> ExploreConfig {
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

/// The exploration budget of the approx and continuous planted negatives.
pub(crate) fn negative_budget(seed: u64) -> ExploreConfig {
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

/// 5 % loss and 5 % duplication on top of the explorer's scheduled drops.
pub(crate) fn faulty_sim(seed: u64, drops: &[u64]) -> SimConfig {
    SimConfig::default().with_seed(seed).with_faults(
        FaultPlan::none()
            .with_drop(0.05)
            .with_duplication(0.05)
            .with_scheduled_drops(drops.iter().copied()),
    )
}

fn nf_config() -> NetFilterConfig {
    NetFilterConfig::builder()
        .filter_size(24)
        .filters(2)
        .threshold(Threshold::Ratio(0.01))
        .build()
}

fn hb() -> HeartbeatConfig {
    HeartbeatConfig {
        interval: Duration::from_millis(500),
        timeout: Duration::from_millis(1600),
        bytes: 8,
    }
}

fn rc() -> ResilientConfig {
    ResilientConfig {
        heartbeat: hb(),
        query_period: Duration::from_secs(4),
        epoch_timeout: Duration::from_secs(12),
        takeover_grace: Duration::from_secs(4),
        takeover_stagger: Duration::from_secs(3),
    }
}

/// One-shot netFilter with the reliability envelope under probabilistic
/// loss + duplication + scheduled drops: exact and fully accounted on
/// every schedule.
fn netfilter_clean(seed: u64) -> Case {
    let data = workload(seed);
    let topo = Topology::grid(3, 3);
    let h = Hierarchy::bfs(&topo, PeerId::new(0));
    let cfg = nf_config();
    let t = cfg.threshold.resolve(data.total_value());
    let expected = GroundTruth::compute(&data).frequent_items(t);
    let (root, tree) = (h.root(), h.clone());
    let build = move |drops: &[u64]| {
        let sim = faulty_sim(seed, drops);
        let mut w = sansio_world(
            sim,
            NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default())),
        );
        w.enable_metrics_sink();
        w.enable_trace(64);
        w
    };
    let oracles = move || -> Vec<Box<dyn Oracle<NetFilterProtocol>>> {
        vec![
            Box::new(ExactnessOracle {
                root,
                expected: expected.clone(),
            }),
            Box::new(CostOracle(tree.clone())),
        ]
    };
    make_case(
        "netfilter-clean",
        "netfilter",
        None,
        ExploreConfig {
            seed,
            trials: 60,
            check_every: Duration::from_secs(2),
            horizon: None,
            drops_per_trial: 2,
            drop_seq_horizon: 200,
            shrink_budget: 300,
            ..ExploreConfig::default()
        },
        build,
        oracles,
    )
}

/// Shared body of `resilient-clean` and `bug-double-merge`: same world,
/// same faults, same oracles — the only difference is the legacy toggle.
fn resilient_case(
    name: &'static str,
    expect_violation: Option<&'static str>,
    legacy_double_merge: bool,
    seed: u64,
) -> Case {
    let data = workload(seed);
    let topo = Topology::grid(3, 3);
    let mh = MultiHierarchy::with_roots(&topo, &[PeerId::new(0)]);
    let cfg = nf_config();
    let truth = GroundTruth::compute(&data);
    let expected = truth.frequent_items(cfg.threshold.resolve(data.total_value()));
    let data2 = data.clone();
    let build = move |drops: &[u64]| {
        let sim = SimConfig::default().with_seed(seed).with_faults(
            FaultPlan::none()
                .with_duplication(0.25)
                .with_scheduled_drops(drops.iter().copied()),
        );
        let mut w = sansio_world(
            sim,
            ResilientProtocol::peers(&cfg, rc(), &topo, &mh, &data, None),
        );
        if legacy_double_merge {
            for i in 0..w.peer_count() {
                w.peer_mut(PeerId::new(i)).enable_legacy_double_merge();
            }
        }
        w.enable_trace(64);
        w
    };
    let oracles = move || -> Vec<Box<dyn Oracle<ResilientProtocol>>> {
        vec![
            Box::new(EpochFenceOracle::new()),
            Box::new(NoInflationOracle {
                truth: GroundTruth::compute(&data2),
            }),
            Box::new(CensusSoundnessOracle {
                expected: expected.clone(),
            }),
        ]
    };
    make_case(
        name,
        "resilient",
        expect_violation,
        ExploreConfig {
            seed,
            trials: 60,
            check_every: Duration::from_secs(1),
            horizon: Some(secs(20)),
            drops_per_trial: if legacy_double_merge { 0 } else { 2 },
            drop_seq_horizon: 400,
            shrink_budget: 200,
            ..ExploreConfig::default()
        },
        build,
        oracles,
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MaintainLegacy {
    None,
    ChurnRace,
    UnboundedDepth,
}

/// The world shape of one maintenance case: the overlay, a scripted
/// kill, and how long and how adversarially to explore.
struct MaintainScenario {
    topo: Topology,
    kill_at: SimTime,
    kill: PeerId,
    horizon: SimTime,
    drops_per_trial: usize,
}

/// Shared body of the maintenance cases: the scenario's overlay + BFS
/// hierarchy from peer 0, its scripted kill, and the tree oracle at the
/// horizon.
fn maintain_case(
    name: &'static str,
    expect_violation: Option<&'static str>,
    legacy: MaintainLegacy,
    scenario: MaintainScenario,
    seed: u64,
) -> Case {
    let MaintainScenario {
        topo,
        kill_at,
        kill,
        horizon,
        drops_per_trial,
    } = scenario;
    let root = PeerId::new(0);
    let h = Hierarchy::bfs(&topo, root);
    let topo2 = topo.clone();
    let build = move |drops: &[u64]| {
        let peers: Vec<MaintainProtocol> = (0..topo.peer_count())
            .map(|i| {
                let p = PeerId::new(i);
                let mut mp = MaintainProtocol::new(&h, p, topo.neighbors(p).to_vec(), hb());
                match legacy {
                    MaintainLegacy::None => {}
                    MaintainLegacy::ChurnRace => mp.enable_legacy_churn_race(),
                    MaintainLegacy::UnboundedDepth => mp.enable_legacy_unbounded_depth(),
                }
                mp
            })
            .collect();
        let sim = SimConfig::default()
            .with_seed(seed)
            .with_faults(FaultPlan::none().with_scheduled_drops(drops.iter().copied()));
        let mut w = sansio_world(sim, peers);
        w.schedule_kill(kill_at, kill);
        w.enable_trace(64);
        w
    };
    let oracles = move || -> Vec<Box<dyn Oracle<MaintainProtocol>>> {
        vec![Box::new(TreeOracle {
            topology: topo2.clone(),
            root,
        })]
    };
    make_case(
        name,
        "maintain",
        expect_violation,
        ExploreConfig {
            seed,
            trials: 60,
            check_every: Duration::from_secs(2),
            horizon: Some(horizon),
            drops_per_trial,
            drop_seq_horizon: 400,
            shrink_budget: 800,
            ..ExploreConfig::default()
        },
        build,
        oracles,
    )
}

/// The full registry for one seed: three clean cases, three pinned bugs.
pub fn all_cases(seed: u64) -> Vec<Case> {
    vec![
        netfilter_clean(seed),
        resilient_case("resilient-clean", None, false, seed),
        // An interior peer dies mid-run; the survivors must repair back
        // to a well-formed tree under every schedule.
        maintain_case(
            "maintain-clean",
            None,
            MaintainLegacy::None,
            MaintainScenario {
                topo: Topology::grid(3, 3),
                kill_at: secs(5),
                kill: PeerId::new(4),
                horizon: secs(30),
                drops_per_trial: 2,
            },
            seed,
        ),
        // The root always has children, so its death drives the pre-fix
        // sweep into the strict status lookup: the historical panic.
        maintain_case(
            "bug-churn-race",
            Some("panic"),
            MaintainLegacy::ChurnRace,
            MaintainScenario {
                topo: Topology::grid(3, 3),
                kill_at: secs(5),
                kill: PeerId::new(0),
                horizon: secs(30),
                drops_per_trial: 0,
            },
            seed,
        ),
        // On a line, the root's death lets its orphan re-attach downhill,
        // closing a live cycle whose finite depths never climb without
        // depth-following: the count-to-infinity freeze.
        maintain_case(
            "bug-count-to-infinity",
            Some("tree"),
            MaintainLegacy::UnboundedDepth,
            MaintainScenario {
                topo: Topology::line(5),
                kill_at: secs(5),
                kill: PeerId::new(0),
                horizon: secs(40),
                drops_per_trial: 0,
            },
            seed,
        ),
        resilient_case("bug-double-merge", Some("no-inflation"), true, seed),
    ]
}

/// Looks a case up by name in [`all_cases`], then the approx and the
/// continuous registry (used by the replay subcommand).
pub fn find_case(name: &str, seed: u64) -> Option<Case> {
    all_cases(seed)
        .into_iter()
        .chain(crate::approx::approx_cases(seed))
        .chain(crate::continuous::continuous_cases(seed))
        .find(|c| c.name == name)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// [`clean_budget`] cut to `trials` trials.
    pub(crate) fn quick(seed: u64, trials: usize) -> ExploreConfig {
        ExploreConfig {
            trials,
            ..clean_budget(seed)
        }
    }

    #[test]
    fn registry_names_are_unique_and_expectations_partition() {
        let cases = all_cases(1);
        assert_eq!(cases.len(), 6);
        let names: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 6);
        assert_eq!(
            cases
                .iter()
                .filter(|c| c.expect_violation.is_none())
                .count(),
            3,
            "three clean cases"
        );
        assert_eq!(
            cases
                .iter()
                .filter(|c| c.expect_violation.is_some())
                .count(),
            3,
            "three pinned bugs"
        );
        // Every protocol family has a clean case, so the distinct-schedule
        // floor is asserted per (protocol, seed).
        let clean: std::collections::BTreeSet<&str> = cases
            .iter()
            .filter(|c| c.expect_violation.is_none())
            .map(|c| c.protocol)
            .collect();
        assert_eq!(clean.len(), 3);
        assert!(find_case("bug-churn-race", 1).is_some());
        assert!(find_case("no-such-case", 1).is_none());
    }

    /// [`find_case`] returns the first match, so a name shared by two
    /// registries would silently replay the wrong case.
    #[test]
    fn case_names_are_unique_across_the_three_registries() {
        let cases: Vec<Case> = all_cases(1)
            .into_iter()
            .chain(crate::approx::approx_cases(1))
            .chain(crate::continuous::continuous_cases(1))
            .collect();
        let names: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), cases.len());
        for name in names {
            assert_eq!(find_case(name, 1).map(|c| c.name), Some(name));
        }
    }
}
