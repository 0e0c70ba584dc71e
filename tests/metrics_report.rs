//! Property tests for the `ifi-metrics` observability layer: a
//! [`MetricsReport`] is a *view* of the same bytes the engine already
//! accounts in its `CostBreakdown`, so the two must agree byte-for-byte —
//! per phase, per peer, on any workload — and observing a run must never
//! change its answer.

use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    sansio_world, Effects, EventSink, Membership, MsgClass, NodeEvent, PeerId, SansIo, SimConfig,
    SimTime,
};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::{NetFilter, NetFilterConfig, Threshold};
use proptest::prelude::*;

fn build(g: u32, f: u32, phi: f64, seed: u64) -> NetFilter {
    NetFilter::new(
        NetFilterConfig::builder()
            .filter_size(g)
            .filters(f)
            .threshold(Threshold::Ratio(phi))
            .hash_seed(seed ^ 0xBEEF)
            .build(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The report's per-phase per-peer byte totals are identical to the
    /// engine's `CostBreakdown` on arbitrary workloads and configurations,
    /// and instrumentation does not perturb the answer.
    #[test]
    fn report_phases_match_cost_breakdown_exactly(
        peers in 2usize..60,
        items in 10u64..500,
        instances in 1u64..12,
        theta in 0.0f64..2.0,
        g in 1u32..120,
        f in 1u32..5,
        phi in prop::sample::select(vec![0.005, 0.01, 0.05, 0.2]),
        seed in 0u64..1_000,
    ) {
        let data = SystemData::generate_paper(
            &WorkloadParams { peers, items, instances_per_item: instances, theta },
            seed,
        );
        let h = Hierarchy::balanced(peers, 3);
        let engine = build(g, f, phi, seed);
        let plain = engine.run(&h, &data);
        let (run, report) = engine.run_instrumented(&h, &data);

        // Observation is free: identical answer and identical costs.
        prop_assert_eq!(run.frequent_items(), plain.frequent_items());
        prop_assert_eq!(run.cost(), plain.cost());

        // Byte-identity per phase, per peer (reconcile re-checks what
        // run_instrumented already asserted; here we also check it in the
        // public-API direction).
        let cost = run.cost();
        prop_assert!(cost.reconcile(&report).is_ok());
        for (label, expect) in [
            ("filtering", &cost.filtering),
            ("dissemination", &cost.dissemination),
            ("aggregation", &cost.aggregation),
        ] {
            let got = report.phase_peer_bytes(label).unwrap_or_default();
            prop_assert_eq!(&got, expect, "phase {} per-peer bytes", label);
            prop_assert_eq!(
                report.phase_bytes(label),
                expect.iter().sum::<u64>(),
                "phase {} total",
                label
            );
        }
        prop_assert_eq!(report.total_bytes(), cost.total_bytes());
        prop_assert_eq!(report.peer_count, peers);
    }

    /// A disabled sink records nothing, whatever is thrown at it.
    #[test]
    fn disabled_sink_records_zero_events(
        sends in prop::collection::vec((0usize..32, 0u64..10_000), 0..64),
    ) {
        let mut sink = EventSink::disabled();
        sink.enter("phase-a");
        for &(peer, bytes) in &sends {
            sink.record(PeerId::new(peer), MsgClass::DATA, bytes);
        }
        sink.exit();
        prop_assert!(!sink.is_enabled());
        prop_assert_eq!(sink.events_recorded(), 0);
        let report = sink.report();
        prop_assert_eq!(report.total_bytes(), 0);
        prop_assert_eq!(report.total_messages(), 0);
        prop_assert!(report.phase("phase-a").is_none());
    }
}

/// Algorithm 2 sends the heavy-group lists once per child, so a 100-peer
/// tree carries 99 of them; and every event of the report is a send: 99
/// group vectors, 99 heavy lists and 99 candidate reports.
#[test]
fn dissemination_sends_one_message_per_child() {
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: 100,
            items: 2_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        7,
    );
    let h = Hierarchy::balanced(100, 3);
    let (run, report) = build(20, 2, 0.01, 7).run_instrumented(&h, &data);
    assert!(run.counts().heavy_groups_total > 0, "some group is heavy");
    let dissemination = report.phase("dissemination").expect("lists were sent");
    assert_eq!(dissemination.messages(), 99);
    assert_eq!(report.events, 3 * 99);
    assert_eq!(report.total_messages(), 3 * 99);
}

/// Two-peer probe whose handlers tag their traffic with distinct phase
/// marks, so a stale mark from before a reset is visible in the report.
#[derive(Debug)]
struct MarkedProbe {
    id: PeerId,
}

impl SansIo for MarkedProbe {
    type Msg = u8;
    type Timer = ();
    type Output = ();

    fn on_event(
        &mut self,
        ev: NodeEvent<u8, ()>,
        _: SimTime,
        _: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start if self.id.index() == 0 => {
                fx.mark_phase("warmup");
                fx.send(PeerId::new(1), 1, 11, MsgClass::CONTROL);
            }
            NodeEvent::Message { msg: 2, .. } => {
                fx.mark_phase("measured");
                fx.send(PeerId::new(0), 3, 7, MsgClass::DATA);
            }
            _ => {}
        }
    }
}

/// Regression: `World::reset_metrics` used to reset byte counters but not
/// the sink's span stack and handler phase marks, so back-to-back
/// instrumented runs leaked the warm-up run's phase boundaries into the
/// next `MetricsReport`. After a reset the report must reflect only
/// post-reset activity under post-reset marks.
#[test]
fn reset_metrics_clears_phase_marks_between_instrumented_runs() {
    let probes = (0..2).map(|i| MarkedProbe { id: PeerId::new(i) });
    let mut w = sansio_world(SimConfig::default().with_seed(5), probes.collect());
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    assert_eq!(w.metrics_report().phase_bytes("warmup"), 11);

    w.reset_metrics();
    assert!(w.sink().is_enabled(), "reset must not disable the sink");
    assert!(w.metrics_report().phases.is_empty());
    assert_eq!(w.metrics().total_bytes(), 0);

    // Second instrumented run over the same world: its traffic lands
    // under its own mark, and nothing resurfaces under the stale one.
    w.inject(PeerId::new(0), PeerId::new(1), 2, 5, MsgClass::CONTROL);
    w.run_to_quiescence();
    let report = w.metrics_report();
    assert_eq!(report.phase_bytes("warmup"), 0, "stale phase mark leaked");
    assert_eq!(report.phase_bytes("measured"), 7);
}
