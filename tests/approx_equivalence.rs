//! DES ≡ real transport for the sketch-merge engine at `N = 500`.
//!
//! The approximate family rides the same sans-io contract as the exact
//! protocol, so the equivalence that `transport_equivalence` proves for
//! netFilter must hold here too: the same `SketchProtocol` cores, driven
//! by the simulator and by the threaded channel runtime, produce the
//! same answer *and* the same per-class byte totals. The answer is
//! deterministic despite thread scheduling because every node merges its
//! children's summaries in canonical ascending-`PeerId` order — the
//! Space-Saving merge is exactly commutative but only ε-associative, so
//! the canonical order is what makes driver equivalence an identity
//! rather than an approximation.

use std::time::Duration as StdDuration;

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, MetricsReport, SimConfig};
use ifi_transport::run_channel;
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::phases;
use netfilter::sketch::{SketchAnswer, SketchConfig, SketchProtocol};

const PEERS: usize = 500;
const MAX_WAIT: StdDuration = StdDuration::from_secs(60);

struct Scenario {
    cfg: SketchConfig,
    hierarchy: Hierarchy,
    data: SystemData,
}

fn scenario(seed: u64) -> Scenario {
    let data = SystemData::generate(
        &WorkloadParams {
            peers: PEERS,
            items: 2_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    Scenario {
        cfg: SketchConfig::new(32),
        hierarchy: Hierarchy::balanced(PEERS, 3),
        data,
    }
}

/// Runs the scenario under the DES and returns (answer, metrics report).
fn des_run(s: &Scenario) -> (SketchAnswer, MetricsReport) {
    let sim = SimConfig::default().with_seed(0xDE5);
    let mut w = sansio_world(
        sim,
        SketchProtocol::peers(&s.cfg, &s.hierarchy, &s.data, None),
    );
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let answer = w
        .peer(s.hierarchy.root())
        .result()
        .expect("DES root must answer")
        .clone();
    (answer, w.metrics_report())
}

#[test]
fn channel_transport_matches_des_at_n500() {
    let s = scenario(42);
    let (des_answer, des_report) = des_run(&s);
    assert!(
        !des_answer.items.is_empty(),
        "scenario must report frequent items"
    );

    let cores = SketchProtocol::peers(&s.cfg, &s.hierarchy, &s.data, None);
    let outcome = run_channel(cores, 1, MAX_WAIT);

    assert_eq!(
        outcome.outputs.len(),
        1,
        "exactly the root must deliver an answer"
    );
    assert_eq!(outcome.outputs[0].0, s.hierarchy.root());
    assert_eq!(
        outcome.outputs[0].1, des_answer,
        "answers diverge across drivers"
    );
    assert_eq!(
        outcome.report.phase_bytes(phases::SKETCH),
        des_report.phase_bytes(phases::SKETCH),
        "sketch-class bytes diverge across drivers"
    );
    assert!(
        outcome.report.warnings.is_empty(),
        "transport run warned: {:?}",
        outcome.report.warnings
    );

    // The final cores are inspectable like `World::peer`.
    let root_core = &outcome.nodes[s.hierarchy.root().index()];
    assert_eq!(
        root_core.result().expect("root core holds the answer"),
        &des_answer
    );
}

#[test]
fn channel_transport_is_deterministic_across_runs() {
    // Thread scheduling permutes delivery order; canonical merge order
    // must keep the answer and the byte totals pinned anyway.
    let s = scenario(7);
    let first = run_channel(
        SketchProtocol::peers(&s.cfg, &s.hierarchy, &s.data, None),
        1,
        MAX_WAIT,
    );
    let second = run_channel(
        SketchProtocol::peers(&s.cfg, &s.hierarchy, &s.data, None),
        1,
        MAX_WAIT,
    );
    assert_eq!(first.outputs, second.outputs);
    assert_eq!(
        first.report.phase_bytes(phases::SKETCH),
        second.report.phase_bytes(phases::SKETCH)
    );
}
