//! Chaos ≡ faults: the same failure scenario, expressed as a transport
//! [`ChaosPlan`] and as the corresponding DES `FaultPlan`, must leave the
//! protocol with the same exact answer, the same `Complete` census
//! certificate, and the same loss-independent byte classes.
//!
//! This is the robustness capstone. The DES already proves the protocol
//! exact under declarative faults (`loss_exactness`, `churn_exactness`);
//! the threaded transport already proves DES ≡ transport on clean runs
//! (`transport_equivalence`). This suite closes the square: a seeded
//! chaos plan — ≥10% frame drop, a mid-epoch peer-thread crash with a
//! delayed restart, and a transient partition — is translated onto the
//! DES via [`ChaosPlan::fault_plan`] / [`ChaosPlan::crash_schedule`] and
//! run under both drivers. Because every phase send is charged at
//! submission (charge-at-send) and recovery traffic is metered apart
//! (`RETRANSMIT` for the reliability envelope, `FAILOVER` for the census
//! certificates), the paper-phase and census byte totals are identical
//! across all three runs even though wall-clock interleavings, retransmit
//! counts, and fault draws differ freely.

use std::time::Duration as StdDuration;

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{sansio_world, DetRng, MetricsReport, MsgClass, PeerId, RelConfig, SimConfig};
use ifi_transport::{run_channel_chaos, run_tcp_chaos, ChaosPlan, RunOutcome};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::resilient::Certificate;
use netfilter::wire::NfWire;
use netfilter::{NetFilterConfig, Threshold};

/// The paper's three metered phases.
const PAPER_PHASES: [&str; 3] = ["filtering", "dissemination", "aggregation"];

const MAX_WAIT: StdDuration = StdDuration::from_secs(120);

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

/// The ISSUE's reference chaos scenario: ≥10% frame drop, one mid-epoch
/// peer-thread crash with a delayed restart, one transient partition.
/// `crash` and the partition group avoid the root so the result delivery
/// itself is exercised under recovery rather than torn down with it.
fn chaos_plan(s: &Scenario) -> ChaosPlan {
    let root = s.hierarchy.root();
    let crash = (0..s.data.peer_count())
        .map(PeerId::new)
        .find(|&p| p != root)
        .expect("scenario has a non-root peer");
    let islander = (0..s.data.peer_count())
        .map(PeerId::new)
        .find(|&p| p != root && p != crash)
        .expect("scenario has a third peer");
    ChaosPlan::new(0xC4A05)
        .with_drop(0.10)
        .with_crash(
            crash,
            StdDuration::from_millis(150),
            StdDuration::from_millis(400),
        )
        .with_partition(
            StdDuration::from_millis(50),
            StdDuration::from_millis(650),
            [islander],
        )
}

/// Runs the scenario under the DES with the chaos plan translated onto
/// the simulator's fault vocabulary; returns the exact answer and report.
fn des_run_under_faults(s: &Scenario, plan: &ChaosPlan) -> (Vec<(ItemId, u64)>, MetricsReport) {
    let sim = SimConfig::default()
        .with_seed(0xDE5)
        .with_faults(plan.fault_plan());
    let mut w = sansio_world(sim, certified_peers(s));
    for (kill, revive, peer) in plan.crash_schedule() {
        w.schedule_kill(kill, peer);
        w.schedule_revive(revive, peer);
    }
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let root = s.hierarchy.root();
    assert_eq!(
        w.peer(root).certificate(),
        Some(Certificate::Complete),
        "DES run under faults must certify complete coverage"
    );
    let answer = w
        .peer(root)
        .result()
        .expect("DES root must finish under faults")
        .to_vec();
    (answer, w.metrics_report())
}

/// The scenario's certified peer population — reliable, with census mode
/// on against the full member roster — for the DES and both transports.
fn certified_peers(s: &Scenario) -> Vec<NetFilterProtocol> {
    let roster = NetFilterProtocol::roster(&s.hierarchy);
    NetFilterProtocol::peers(&s.cfg, &s.hierarchy, &s.data, Some(RelConfig::default()))
        .into_iter()
        .map(|core| core.with_census(roster))
        .collect()
}

/// Asserts a chaos-transport run reconciles with the faulted DES run:
/// exact answer, `Complete` certificate, identical paper-phase and census
/// (`FAILOVER`) bytes, recovery traffic metered under `RETRANSMIT`.
fn assert_chaos_reconciles(
    s: &Scenario,
    des_answer: &[(ItemId, u64)],
    des_report: &MetricsReport,
    outcome: &RunOutcome<NetFilterProtocol>,
) {
    assert_eq!(
        outcome.outputs.len(),
        1,
        "exactly the root must deliver a result"
    );
    let (peer, delivery) = &outcome.outputs[0];
    assert_eq!(*peer, s.hierarchy.root());
    assert_eq!(
        delivery.answer, des_answer,
        "answers diverge between chaos transport and faulted DES"
    );
    assert_eq!(
        delivery.certificate,
        Some(Certificate::Complete),
        "chaos run must certify complete coverage"
    );
    for phase in PAPER_PHASES {
        assert_eq!(
            outcome.report.phase_bytes(phase),
            des_report.phase_bytes(phase),
            "phase `{phase}` bytes diverge under chaos"
        );
    }
    // Census certificates are charged once per report, loss-independent:
    // the FAILOVER class reconciles exactly. Recovery traffic lands in
    // RETRANSMIT in both drivers; its volume is timing-dependent, so only
    // its presence and classification are asserted.
    assert_eq!(
        outcome.report.class_bytes(MsgClass::FAILOVER),
        des_report.class_bytes(MsgClass::FAILOVER),
        "census bytes diverge under chaos"
    );
    // (Acks are metered under RETRANSMIT too, so >0 holds on any reliable
    // run; together with `chaos_drops > 0` and the exact answer it pins
    // that recovery both happened and was classified out of the phases.)
    assert!(
        outcome.report.class_bytes(MsgClass::RETRANSMIT) > 0,
        "recovery traffic must land in the RETRANSMIT class"
    );
    assert!(
        des_report.class_bytes(MsgClass::RETRANSMIT) > 0,
        "the faulted DES must meter recovery traffic too"
    );
    assert!(
        outcome.chaos_drops > 0,
        "the chaos layer must actually have dropped frames"
    );
    assert_eq!(outcome.restarts, 1, "the scheduled crash must restart once");
}

#[test]
fn channel_chaos_matches_faulted_des() {
    let s = scenario(16, 120, 11);
    let plan = chaos_plan(&s);
    let (des_answer, des_report) = des_run_under_faults(&s, &plan);
    assert!(!des_answer.is_empty(), "scenario must have frequent items");

    let outcome = run_channel_chaos(certified_peers(&s), 1, MAX_WAIT, plan);
    assert_chaos_reconciles(&s, &des_answer, &des_report, &outcome);
}

#[test]
fn tcp_chaos_matches_faulted_des() {
    let s = scenario(16, 120, 11);
    let plan = chaos_plan(&s);
    let (des_answer, des_report) = des_run_under_faults(&s, &plan);
    assert!(!des_answer.is_empty(), "scenario must have frequent items");

    let outcome = run_tcp_chaos(
        certified_peers(&s),
        NfWire::new(s.cfg.sizes),
        1,
        MAX_WAIT,
        plan,
    )
    .expect("tcp fabric setup failed");
    assert_chaos_reconciles(&s, &des_answer, &des_report, &outcome);
}

#[test]
fn inert_chaos_is_byte_identical_to_the_plain_transport() {
    // `run_channel` is `run_channel_chaos` with an inert plan; this pins
    // the claim that an inert plan perturbs nothing (no stray warnings,
    // no chaos drops, no restarts).
    let s = scenario(12, 80, 7);
    let outcome = run_channel_chaos(certified_peers(&s), 1, MAX_WAIT, ChaosPlan::none());
    assert_eq!(outcome.outputs.len(), 1);
    assert_eq!(
        outcome.outputs[0].1.certificate,
        Some(Certificate::Complete)
    );
    assert_eq!(outcome.chaos_drops, 0);
    assert_eq!(outcome.restarts, 0);
    assert_eq!(outcome.shed_frames, 0);
    assert!(
        outcome.report.warnings.is_empty(),
        "inert chaos run warned: {:?}",
        outcome.report.warnings
    );
}
