//! Exactness under message loss: with the ack/retransmit envelope enabled,
//! every netFilter engine (and the naive comparator) must produce the exact
//! IFI answer across a grid of drop rates with duplication and reordering
//! (delay spikes) switched on, the phase costs must stay loss-independent
//! (identical to the loss-free epoch's `CostBreakdown`), and every byte of
//! reliability overhead must be metered in its own `retransmit` class.

use ifi_hierarchy::{Hierarchy, MultiHierarchy};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{
    sansio_world, DetRng, Duration, FaultPlan, MsgClass, PeerId, RelConfig, SimConfig, SimTime,
};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::engines::{Engine, NaiveEngine};
use netfilter::naive::{NaiveConfig, NaiveProtocol};
use netfilter::phases;
use netfilter::protocol::NetFilterProtocol;
use netfilter::resilient::{ResilientConfig, ResilientProtocol};
use netfilter::{NetFilter, NetFilterConfig, Threshold, WireSizes};

/// Drop rates the exactness contract is asserted over.
const DROP_GRID: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

fn workload(peers: usize, items: u64, seed: u64) -> SystemData {
    SystemData::generate(
        &WorkloadParams {
            peers,
            items,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    )
}

fn config(g: u32, f: u32) -> NetFilterConfig {
    NetFilterConfig::builder()
        .filter_size(g)
        .filters(f)
        .threshold(Threshold::Ratio(0.01))
        .build()
}

/// Loss, duplication and reordering all at once.
fn chaos(drop: f64) -> FaultPlan {
    FaultPlan::none()
        .with_drop(drop)
        .with_duplication(0.05)
        .with_delay_spikes(0.1, Duration::from_millis(400))
}

#[test]
fn one_shot_protocol_is_exact_across_the_loss_grid() {
    let data = workload(40, 1_200, 17);
    let h = Hierarchy::balanced(40, 3);
    let cfg = config(30, 2);
    let loss_free = NetFilter::new(cfg.clone()).run(&h, &data);
    let naive_cfg = NaiveConfig {
        threshold: Threshold::Ratio(0.01),
        sizes: WireSizes::default(),
    };
    let naive_clean = NaiveEngine { config: naive_cfg }.run_des(&h, &data, SimConfig::default());
    let truth = GroundTruth::compute(&data).frequent_items(loss_free.threshold());

    for (i, &drop) in DROP_GRID.iter().enumerate() {
        let sim = SimConfig::default()
            .with_seed(100 + i as u64)
            .with_faults(chaos(drop));

        // The naive comparator on the same convergecast core: the
        // ground-truth answer, its aggregation bytes those of the clean
        // run, and every other byte reliability overhead.
        let rel = RelConfig::default();
        let mut w = sansio_world(
            sim.clone(),
            NaiveProtocol::peers(&naive_cfg, &h, &data, Some(rel)),
        );
        w.start();
        w.run_to_quiescence();
        let answer = w.peer(PeerId::new(0)).result();
        let answer = answer.unwrap_or_else(|| panic!("drop={drop}: naive root never finished"));
        assert_eq!(answer.items, truth, "drop={drop}: wrong naive answer");
        let m = w.metrics();
        let aggregation = m.class_bytes(MsgClass::AGGREGATION);
        assert_eq!(aggregation, naive_clean.total_bytes, "drop={drop}");
        let overhead = m.class_bytes(MsgClass::RETRANSMIT);
        assert_eq!(m.total_bytes(), aggregation + overhead, "drop={drop}");
        assert!(overhead > 0, "drop={drop}: acks alone guarantee overhead");

        let mut w = sansio_world(
            sim,
            NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default())),
        );
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();

        // The answer is exact: same IFI set, same values.
        assert_eq!(
            w.peer(PeerId::new(0))
                .result()
                .unwrap_or_else(|| panic!("drop={drop}: root never finished")),
            loss_free.frequent_items(),
            "drop={drop}: wrong answer"
        );

        // Phase costs are loss-independent (originals are charged once in
        // their phase class no matter how often they are retransmitted),
        // and the *only* other traffic is the declared retransmit
        // overhead: the report reconciles byte-for-byte against the
        // loss-free epoch's CostBreakdown.
        let report = w.sink().report();
        loss_free
            .cost()
            .reconcile_with_overhead(&report, &[phases::RETRANSMIT])
            .unwrap_or_else(|e| panic!("drop={drop}: {e}"));

        // The overhead is visible as its own phase and class, and they
        // agree with each other.
        assert_eq!(
            report.phase_bytes(phases::RETRANSMIT),
            w.metrics().class_bytes(MsgClass::RETRANSMIT),
            "drop={drop}: phase/class accounting disagree"
        );
        assert!(
            report.phase_bytes(phases::RETRANSMIT) > 0,
            "drop={drop}: acks alone guarantee retransmit traffic"
        );
        if drop > 0.0 {
            assert!(
                w.metrics().dropped_messages() > 0,
                "drop={drop}: the fault plan never fired"
            );
        }
    }
}

#[test]
fn scheduled_drops_are_deterministic_and_recovered() {
    // Surgically drop three specific frames (kernel send sequence numbers,
    // not a probability): the run must still be exact, the kernel must
    // count exactly those drops, and replaying the same seed must
    // reproduce the execution byte-for-byte.
    let data = workload(25, 600, 23);
    let h = Hierarchy::balanced(25, 3);
    let cfg = config(20, 2);
    let loss_free = NetFilter::new(cfg.clone()).run(&h, &data);

    let run = || {
        let faults = FaultPlan::none().with_scheduled_drops([0, 2, 5]);
        let sim = SimConfig::default().with_seed(33).with_faults(faults);
        let mut w = sansio_world(
            sim,
            NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default())),
        );
        w.start();
        w.run_to_quiescence();
        let result = w
            .peer(PeerId::new(0))
            .result()
            .expect("root finishes")
            .to_vec();
        let m = w.metrics();
        (
            result,
            m.total_bytes(),
            m.class_bytes(MsgClass::RETRANSMIT),
            m.dropped_messages(),
        )
    };
    let (result_a, bytes_a, retrans_a, dropped_a) = run();
    let (result_b, bytes_b, retrans_b, dropped_b) = run();

    assert_eq!(result_a, loss_free.frequent_items());
    assert_eq!(dropped_a, 3, "exactly the scheduled frames are dropped");
    assert!(retrans_a > 0, "the dropped frames were retransmitted");
    assert_eq!(
        (result_a, bytes_a, retrans_a, dropped_a),
        (result_b, bytes_b, retrans_b, dropped_b),
        "same seed must replay identically"
    );
}

#[test]
fn zero_fault_reliable_run_is_byte_identical_to_plain() {
    // When no fault fires, the envelope must add nothing beyond its acks:
    // phase classes match a plain (non-reliable) run of the same seed
    // exactly, and the grand total differs only by the metered acks.
    let data = workload(30, 800, 29);
    let h = Hierarchy::balanced(30, 3);
    let cfg = config(20, 2);

    let mut plain = sansio_world(
        SimConfig::default().with_seed(7),
        NetFilterProtocol::peers(&cfg, &h, &data, None),
    );
    plain.start();
    plain.run_to_quiescence();

    let mut reliable = sansio_world(
        SimConfig::default().with_seed(7),
        NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default())),
    );
    reliable.start();
    reliable.run_to_quiescence();

    assert_eq!(
        plain.peer(PeerId::new(0)).result(),
        reliable.peer(PeerId::new(0)).result()
    );
    for class in [
        MsgClass::FILTERING,
        MsgClass::DISSEMINATION,
        MsgClass::AGGREGATION,
    ] {
        assert_eq!(
            plain.metrics().class_bytes(class),
            reliable.metrics().class_bytes(class),
            "phase class {class:?} must be untouched by the envelope"
        );
    }
    let acks = reliable.metrics().class_bytes(MsgClass::RETRANSMIT);
    assert_eq!(
        reliable.metrics().total_bytes(),
        plain.metrics().total_bytes() + acks,
        "with no faults the only overhead is the acks"
    );
    assert_eq!(reliable.metrics().dropped_messages(), 0);
}

#[test]
fn resilient_epochs_stay_exact_across_the_loss_grid() {
    // The epoch-based engine under the same chaos grid: every *completed*
    // epoch must be exact, and at least two epochs must complete at every
    // drop rate (without the envelope, percent-level loss stalls nearly
    // every epoch — see `lossy_network_completion_certifies_exactness`).
    // The failure-detector timeout is widened so random heartbeat/Attach
    // loss cannot masquerade as churn (12 consecutive losses at p=0.2
    // ~ 4e-9 per window): with no real churn, repair never runs, so any
    // inexact epoch would be a reliability bug.
    let n = 50;
    let mut rng = DetRng::new(19);
    let topo = Topology::random_regular(n, 5, &mut rng);
    let mh = MultiHierarchy::with_roots(&topo, &[PeerId::new(0)]);
    let data = workload(n, 1_500, 19);
    let cfg = config(40, 3);
    let truth = GroundTruth::compute(&data);
    let t = truth.threshold_for_ratio(0.01);

    let rc = ResilientConfig {
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_secs(6),
            bytes: 8,
        },
        query_period: Duration::from_secs(8),
        epoch_timeout: Duration::from_secs(24),
        ..ResilientConfig::default()
    };

    for (i, &drop) in DROP_GRID.iter().enumerate() {
        let sim = SimConfig::default()
            .with_seed(200 + i as u64)
            .with_faults(chaos(drop));
        let mut w = sansio_world(
            sim,
            ResilientProtocol::peers(&cfg, rc, &topo, &mh, &data, Some(RelConfig::default())),
        );
        w.start();
        w.run_until(SimTime::from_micros(40_000_000));

        let root = w.peer(PeerId::new(0));
        let done = root.completed_epochs();
        assert!(
            done.len() >= 2,
            "drop={drop}: only {} epochs completed",
            done.len()
        );
        for er in done {
            assert_eq!(
                er.answer,
                truth.frequent_items(t),
                "drop={drop}: epoch {} inexact",
                er.epoch
            );
            assert!(
                er.is_complete(),
                "drop={drop}: epoch {} must be certified complete on a churn-free network",
                er.epoch
            );
        }
        if drop > 0.0 {
            assert!(
                w.metrics().dropped_messages() > 0,
                "drop={drop}: no faults fired"
            );
            assert!(
                w.metrics().class_bytes(MsgClass::RETRANSMIT) > 0,
                "drop={drop}: lost frames must be retransmitted"
            );
        }
    }
}
