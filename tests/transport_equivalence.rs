//! DES ≡ real transport: the same sans-io cores, driven by the simulator
//! and by the threaded runtime, must produce the same answer *and* the
//! same per-phase byte totals.
//!
//! This is the payoff of the sans-io split: `NetFilterProtocol` contains
//! no I/O, so a DES run and a channel/TCP run differ only in who applies
//! the effects. The answer is deterministic because convergecast merges
//! are commutative and associative (see `protocol_equivalence`), and the
//! byte totals are deterministic because every peer charges the same
//! paper-priced payload bytes regardless of delivery order or wall-clock
//! interleaving. Phase totals are compared, not event traces — thread
//! scheduling legitimately permutes event order.

use std::time::Duration as StdDuration;

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{sansio_world, DetRng, MetricsReport, PeerId, SimConfig};
use ifi_transport::{run_channel, run_tcp};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::protocol::{NetFilterProtocol, NfDelivery};
use netfilter::wire::NfWire;
use netfilter::{NetFilterConfig, Threshold};

/// The paper's three metered phases.
const PAPER_PHASES: [&str; 3] = ["filtering", "dissemination", "aggregation"];

const MAX_WAIT: StdDuration = StdDuration::from_secs(60);

struct Scenario {
    cfg: NetFilterConfig,
    hierarchy: Hierarchy,
    data: SystemData,
}

fn scenario(peers: usize, items: u64, seed: u64) -> Scenario {
    let params = WorkloadParams {
        peers,
        items,
        instances_per_item: 10,
        theta: 1.0,
    };
    let data = SystemData::generate(&params, seed);
    let degree = 3.min(peers - 1).max(1);
    let topo = Topology::random_regular(peers, degree, &mut DetRng::new(seed));
    let hierarchy = Hierarchy::bfs(&topo, PeerId::new(seed as usize % peers));
    let cfg = NetFilterConfig::builder()
        .filter_size(24)
        .filters(2)
        .threshold(Threshold::Ratio(0.01))
        .build();
    Scenario {
        cfg,
        hierarchy,
        data,
    }
}

/// Runs the scenario under the DES and returns (answer, metrics report).
fn des_run(s: &Scenario) -> (Vec<(ItemId, u64)>, MetricsReport) {
    let sim = SimConfig::default().with_seed(0xDE5);
    let mut w = sansio_world(sim, peers(s));
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let answer = w
        .peer(s.hierarchy.root())
        .result()
        .expect("DES root must finish")
        .to_vec();
    (answer, w.metrics_report())
}

/// The scenario's peer population, for the DES and both transports.
fn peers(s: &Scenario) -> Vec<NetFilterProtocol> {
    NetFilterProtocol::peers(&s.cfg, &s.hierarchy, &s.data, None)
}

/// Asserts a transport run reconciles with the DES: same root, same
/// answer, same per-phase byte totals.
fn assert_reconciles(
    s: &Scenario,
    des_answer: &[(ItemId, u64)],
    des_report: &MetricsReport,
    outputs: &[(PeerId, NfDelivery)],
    report: &MetricsReport,
) {
    assert_eq!(outputs.len(), 1, "exactly the root must deliver a result");
    assert_eq!(outputs[0].0, s.hierarchy.root());
    assert_eq!(
        outputs[0].1.answer, des_answer,
        "answers diverge across drivers"
    );
    for phase in PAPER_PHASES {
        assert_eq!(
            report.phase_bytes(phase),
            des_report.phase_bytes(phase),
            "phase `{phase}` bytes diverge across drivers"
        );
    }
    assert!(
        report.warnings.is_empty(),
        "transport run warned: {:?}",
        report.warnings
    );
}

#[test]
fn channel_transport_matches_des() {
    let s = scenario(23, 150, 42);
    let (des_answer, des_report) = des_run(&s);
    assert!(!des_answer.is_empty(), "scenario must have frequent items");

    let outcome = run_channel(peers(&s), 1, MAX_WAIT);
    assert_reconciles(
        &s,
        &des_answer,
        &des_report,
        &outcome.outputs,
        &outcome.report,
    );

    // The final cores are inspectable like `World::peer`.
    let root_core = &outcome.nodes[s.hierarchy.root().index()];
    assert_eq!(
        root_core.result().expect("root core holds result"),
        des_answer
    );
}

#[test]
fn tcp_transport_matches_des() {
    let s = scenario(12, 80, 7);
    let (des_answer, des_report) = des_run(&s);
    assert!(!des_answer.is_empty(), "scenario must have frequent items");

    let outcome =
        run_tcp(peers(&s), NfWire::new(s.cfg.sizes), 1, MAX_WAIT).expect("tcp fabric setup failed");
    assert_reconciles(
        &s,
        &des_answer,
        &des_report,
        &outcome.outputs,
        &outcome.report,
    );
}

#[test]
fn channel_transport_is_deterministic_across_runs() {
    // Thread scheduling may permute event order, but answers and phase
    // totals must not move run to run.
    let s = scenario(17, 120, 3);
    let first = run_channel(peers(&s), 1, MAX_WAIT);
    let second = run_channel(peers(&s), 1, MAX_WAIT);
    assert_eq!(first.outputs, second.outputs);
    for phase in PAPER_PHASES {
        assert_eq!(
            first.report.phase_bytes(phase),
            second.report.phase_bytes(phase)
        );
    }
}
