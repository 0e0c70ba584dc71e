//! DES ≡ real transport for the continuous standing-query engine: the
//! same sans-io `ContinuousProtocol` cores, driven by the simulator and
//! by the threaded channel runtime, must certify the same epoch fences
//! with the same answers *and* the same per-class byte totals.
//!
//! Wall-clock scheduling legitimately permutes when each peer's fence
//! timer fires relative to its neighbours', so a child's epoch-`e` delta
//! may reach a parent that has not closed fence `e` itself (buffered) or
//! arrive after later fences were locally closed (merged out of order).
//! The telescoping-delta invariant makes the certified answers immune to
//! all of that, and byte totals match because every delta and answer row
//! is priced at send from the same deterministic window state.

use std::time::Duration as StdDuration;

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, PeerId, SimConfig};
use ifi_transport::run_channel;
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::continuous::{
    schedule_from_data, ContinuousConfig, ContinuousProtocol, EpochAnswer, QueryRegistry,
    StandingQuery,
};
use netfilter::phases;

/// Peers in the equivalence scenario (the ISSUE's N = 500 bar).
const PEERS: usize = 500;
/// Epoch fences per run.
const EPOCHS: usize = 5;
/// Window size in buckets.
const WINDOW: usize = 3;
/// Thresholds of the two standing queries.
const THRESHOLDS: [u64; 2] = [60, 120];

const MAX_WAIT: StdDuration = StdDuration::from_secs(120);

/// Epoch length under the threaded transport: long enough that a fence
/// is never starved by thread scheduling jitter, short enough that five
/// fences finish well inside the wait budget. (Sim microseconds equal
/// wall microseconds under the threaded driver.)
const WALL_EPOCH: ifi_sim::Duration = ifi_sim::Duration::from_millis(40);

struct Scenario {
    cfg: ContinuousConfig,
    hierarchy: Hierarchy,
    registry: QueryRegistry,
    schedules: Vec<Vec<Vec<(ifi_workload::ItemId, u64)>>>,
}

fn scenario(seed: u64) -> Scenario {
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 600,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    let schedules = schedule_from_data(&data, EPOCHS);
    let hierarchy = Hierarchy::balanced(PEERS, 4);
    let mut registry = QueryRegistry::new();
    for (i, &t) in THRESHOLDS.iter().enumerate() {
        registry.register(StandingQuery {
            id: i as u32,
            threshold: t,
            subscriber: PeerId::new(PEERS - 1),
        });
    }
    Scenario {
        cfg: ContinuousConfig::new(WINDOW, EPOCHS).with_epoch(WALL_EPOCH),
        hierarchy,
        registry,
        schedules,
    }
}

/// Runs the scenario under the DES and returns the root's certified
/// history plus the per-class byte totals.
fn des_run(s: &Scenario) -> (Vec<EpochAnswer>, u64, u64) {
    let mut w = sansio_world(
        SimConfig::default().with_seed(0xC0DE),
        ContinuousProtocol::peers(&s.cfg, &s.hierarchy, &s.registry, &s.schedules, None),
    );
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let history = w.peer(s.hierarchy.root()).delivered().to_vec();
    let report = w.metrics_report();
    (
        history,
        report.phase_bytes(phases::DELTA),
        report.phase_bytes(phases::STANDING),
    )
}

#[test]
fn channel_transport_matches_des_at_n500() {
    let s = scenario(20080617);
    let (des_history, des_delta, des_standing) = des_run(&s);
    assert_eq!(des_history.len(), EPOCHS, "DES must certify every fence");
    assert!(
        des_history.iter().any(|a| !a.answers[0].items.is_empty()),
        "scenario must surface frequent items"
    );

    let cores = ContinuousProtocol::peers(&s.cfg, &s.hierarchy, &s.registry, &s.schedules, None);
    let outcome = run_channel(cores, EPOCHS, MAX_WAIT);

    // Every delivery is the root's, one per certified fence, in epoch
    // order (a single root thread emits them monotonically).
    assert_eq!(
        outcome.outputs.len(),
        EPOCHS,
        "root must certify every fence within the wait budget"
    );
    let root = s.hierarchy.root();
    for (peer, _) in &outcome.outputs {
        assert_eq!(*peer, root, "only the root delivers epoch answers");
    }
    let transport_history: Vec<EpochAnswer> =
        outcome.outputs.iter().map(|(_, a)| a.clone()).collect();
    assert_eq!(
        transport_history, des_history,
        "certified epoch answers diverge across drivers"
    );

    // The final cores are inspectable like `World::peer`.
    assert_eq!(outcome.nodes[root.index()].fences_done(), EPOCHS);

    // Same metering methodology: the shared delta stream and the
    // per-query answer rows must price identically under both drivers.
    assert_eq!(
        outcome.report.phase_bytes(phases::DELTA),
        des_delta,
        "delta-class bytes diverge across drivers"
    );
    assert_eq!(
        outcome.report.phase_bytes(phases::STANDING),
        des_standing,
        "standing-class bytes diverge across drivers"
    );
    assert!(
        outcome.report.warnings.is_empty(),
        "transport run warned: {:?}",
        outcome.report.warnings
    );
}
