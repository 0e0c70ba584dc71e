//! The measurement legs of the `continuous` smoke row (its gate:
//! [`super`]): a long haul under loss and the K-query sharing ratio.

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, Des, FaultPlan, MsgClass, PeerId, RelConfig, SimConfig, World};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::continuous::{
    schedule_from_data, window_totals_from_scratch, ContinuousConfig, ContinuousProtocol,
    QueryRegistry, StandingQuery,
};

use crate::ShapeCheck;

/// Peers in the long-haul and sharing workloads.
const PEERS: usize = 30;
/// Epoch fences the long-haul run certifies.
const EPOCHS: usize = 24;
/// Window size in buckets.
const WINDOW: usize = 4;
/// Thresholds of the two long-haul queries.
const THRESHOLDS: [u64; 2] = [40, 80];
/// Queries in the many-tenant sharing run.
const K: usize = 8;

fn smoke_workload(seed: u64) -> Vec<Vec<Vec<(ItemId, u64)>>> {
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 400,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    schedule_from_data(&data, EPOCHS)
}

fn subscriber() -> PeerId {
    PeerId::new(PEERS - 1)
}

fn run_world(
    schedules: &[Vec<Vec<(ItemId, u64)>>],
    registry: &QueryRegistry,
    sim: SimConfig,
    rel: Option<RelConfig>,
) -> World<Des<ContinuousProtocol>> {
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = ContinuousConfig::new(WINDOW, EPOCHS);
    let mut w = sansio_world(
        sim,
        ContinuousProtocol::peers(&cfg, &h, registry, schedules, rel),
    );
    w.start();
    w.run_to_quiescence();
    w
}

/// The long-haul leg: every fence certifies under loss and every
/// certified answer equals the from-scratch window.
pub fn long_haul_checks(seed: u64) -> Vec<ShapeCheck> {
    let schedules = smoke_workload(seed);
    let mut registry = QueryRegistry::new();
    for (i, &t) in THRESHOLDS.iter().enumerate() {
        registry.register(StandingQuery {
            id: i as u32,
            threshold: t,
            subscriber: subscriber(),
        });
    }
    let sim = SimConfig::default()
        .with_seed(seed)
        .with_faults(FaultPlan::none().with_drop(0.10).with_duplication(0.05));
    let root = Hierarchy::balanced(PEERS, 3).root();
    let w = run_world(&schedules, &registry, sim, Some(RelConfig::default()));
    let history = w.peer(root).delivered().to_vec();

    let mut checks = Vec::new();
    checks.push(ShapeCheck::new(
        format!("all {EPOCHS} epoch fences certify under 10% drop + 5% duplication"),
        history.len() == EPOCHS,
        format!("{} of {EPOCHS} certified", history.len()),
    ));
    let mut mismatches = 0usize;
    for ans in &history {
        let scratch = window_totals_from_scratch(&schedules, ans.epoch, WINDOW);
        for (qi, &t) in THRESHOLDS.iter().enumerate() {
            let mut want: Vec<(ItemId, u64)> = scratch
                .iter()
                .filter(|&(_, v)| *v >= t)
                .map(|(&k, &v)| (k, v))
                .collect();
            want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            if ans.answers[qi].items != want {
                mismatches += 1;
            }
        }
    }
    checks.push(ShapeCheck::new(
        "every certified answer equals the from-scratch windowed aggregation",
        !history.is_empty() && mismatches == 0,
        format!(
            "{} epoch × query answers compared, {mismatches} diverged",
            history.len() * THRESHOLDS.len()
        ),
    ));
    checks
}

/// The sharing leg: K standing queries over one delta stream.
pub fn sharing_checks(seed: u64) -> Vec<ShapeCheck> {
    let schedules = smoke_workload(seed);
    let bytes = |registry: &QueryRegistry| {
        let w = run_world(
            &schedules,
            registry,
            SimConfig::default().with_seed(seed),
            None,
        );
        (
            w.metrics().class_bytes(MsgClass::DELTA),
            w.metrics().class_bytes(MsgClass::STANDING),
        )
    };
    let single = QueryRegistry::single(THRESHOLDS[0], subscriber());
    let mut many = QueryRegistry::new();
    for i in 0..K {
        many.register(StandingQuery {
            id: i as u32,
            threshold: THRESHOLDS[0] + 10 * i as u64,
            subscriber: subscriber(),
        });
    }
    let (delta_1, _standing_1) = bytes(&single);
    let (delta_k, standing_k) = bytes(&many);

    let mut checks = Vec::new();
    checks.push(ShapeCheck::new(
        "the shared delta stream is K-independent (K=8 bytes == K=1 bytes)",
        delta_1 > 0 && delta_k == delta_1,
        format!("K=1: {delta_1} B, K={K}: {delta_k} B"),
    ));
    let budget = K as u64 * delta_1 / 2;
    checks.push(ShapeCheck::new(
        format!("K={K} queries spend < 0.5 x ({K} x single-query bytes) in the shared class"),
        delta_k < budget,
        format!(
            "shared {delta_k} B vs budget {budget} B (ratio {:.3} of {K}x)",
            delta_k as f64 / (K as u64 * delta_1) as f64
        ),
    ));
    checks.push(ShapeCheck::new(
        "per-query answer-split traffic is metered separately",
        standing_k > 0,
        format!("K={K} standing-class bytes: {standing_k}"),
    ));
    checks
}
