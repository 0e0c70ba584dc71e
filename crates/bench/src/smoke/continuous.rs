//! The measurement legs of the `continuous` smoke row (its gate:
//! [`super`]): a long haul under loss and the K-query sharing ratio.

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, FaultPlan, PeerId, RelConfig, SimConfig};
use ifi_workload::ItemId;
use netfilter::continuous::{
    window_totals_from_scratch, ContinuousConfig, ContinuousProtocol, QueryRegistry, StandingQuery,
};

use crate::continuous_sweep::{self, EPOCHS, PEERS, WINDOW};
use crate::ShapeCheck;

/// Thresholds of the two long-haul queries.
const THRESHOLDS: [u64; 2] = [40, 80];
/// Queries in the many-tenant sharing run.
const K: usize = 8;

/// The long-haul leg, on the continuous sweep's workload: every fence
/// certifies under loss and every certified answer equals the
/// from-scratch window.
pub(crate) fn long_haul_checks(seed: u64) -> Vec<ShapeCheck> {
    let schedules = continuous_sweep::schedules(seed);
    let mut registry = QueryRegistry::new();
    for (i, &t) in THRESHOLDS.iter().enumerate() {
        registry.register(StandingQuery {
            id: i as u32,
            threshold: t,
            subscriber: PeerId::new(PEERS - 1),
        });
    }
    let sim = SimConfig::default()
        .with_seed(seed)
        .with_faults(FaultPlan::none().with_drop(0.10).with_duplication(0.05));
    let (h, cfg) = (
        Hierarchy::balanced(PEERS, 3),
        ContinuousConfig::new(WINDOW, EPOCHS),
    );
    let rel = Some(RelConfig::default());
    let mut w = sansio_world(
        sim,
        ContinuousProtocol::peers(&cfg, &h, &registry, &schedules, rel),
    );
    w.start();
    w.run_to_quiescence();
    let history = w.peer(h.root()).delivered();

    let mut checks = Vec::new();
    checks.push(ShapeCheck::new(
        format!("all {EPOCHS} epoch fences certify under 10% drop + 5% duplication"),
        history.len() == EPOCHS,
        format!("{} of {EPOCHS} certified", history.len()),
    ));
    let mut mismatches = 0usize;
    for ans in history {
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

/// The sharing leg: K standing queries over one delta stream — the
/// continuous sweep's workload at K = 1 and K = 8.
pub(crate) fn sharing_checks(seed: u64) -> Vec<ShapeCheck> {
    let (delta_1, _) = continuous_sweep::class_bytes(seed, 1);
    let (delta_k, standing_k) = continuous_sweep::class_bytes(seed, K);
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
