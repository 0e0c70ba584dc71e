//! Scenarios of the `loss` smoke row (its gate: [`super`]): the one-shot
//! and resilient engines on a faulty network.

use ifi_hierarchy::{Hierarchy, MultiHierarchy};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{
    sansio_world, DetRng, Duration, FaultPlan, MsgClass, PeerId, RelConfig, SimConfig, SimTime,
};
use ifi_simcheck::oracle::CostOracle;
use ifi_simcheck::{Checkpoint, Oracle};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::phases;
use netfilter::protocol::NetFilterProtocol;
use netfilter::resilient::{ResilientConfig, ResilientProtocol};
use netfilter::{NetFilterConfig, Threshold};

use super::SmokeRun;
use crate::ShapeCheck;

/// Drop probability the CI smoke runs at.
pub(crate) const DEFAULT_DROP: f64 = 0.10;

/// Peers in each smoke scenario (small enough for a CI smoke lane).
const PEERS: usize = 40;

/// Loss, duplication and reordering at once — the same chaos mix the
/// `loss_exactness` integration tests sweep over a drop-rate grid.
fn chaos(drop: f64) -> FaultPlan {
    FaultPlan::none()
        .with_drop(drop)
        .with_duplication(0.05)
        .with_delay_spikes(0.1, Duration::from_millis(400))
}

fn workload(seed: u64) -> SystemData {
    SystemData::generate(
        &WorkloadParams {
            peers: PEERS,
            items: 1_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    )
}

fn config() -> NetFilterConfig {
    NetFilterConfig::builder()
        .filter_size(30)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build()
}

/// The one-shot protocol on a faulty network, checked against ground
/// truth and the paper-phase messages its tree owes.
fn one_shot(drop: f64, seed: u64) -> SmokeRun {
    let data = workload(seed);
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = config();
    let t = cfg.threshold.resolve(data.total_value());

    let sim = SimConfig::default()
        .with_seed(seed)
        .with_faults(chaos(drop));
    let mut w = sansio_world(
        sim,
        NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default())),
    );
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let report = w.sink().report();

    let mut checks = Vec::new();
    let truth = GroundTruth::compute(&data).frequent_items(t);
    let exact = w.peer(PeerId::new(0)).result() == Some(&truth[..]);
    checks.push(ShapeCheck::new(
        "lossy one-shot run returns the exact IFI answer",
        exact,
        format!("drop {drop}, {PEERS} peers"),
    ));
    let recon = CostOracle(h).check(&w, Checkpoint::End);
    checks.push(ShapeCheck::new(
        "phase costs are loss-independent; overhead confined to `retransmit`",
        recon.is_ok(),
        recon
            .err()
            .unwrap_or_else(|| format!("{} retransmit B", report.phase_bytes(phases::RETRANSMIT))),
    ));
    checks.push(ShapeCheck::new(
        "the fault plan fired and was survived",
        drop == 0.0 || w.metrics().dropped_messages() > 0,
        format!(
            "{} frames dropped, {} retransmit B",
            w.metrics().dropped_messages(),
            w.metrics().class_bytes(MsgClass::RETRANSMIT)
        ),
    ));

    SmokeRun {
        name: "loss-oneshot",
        report: Some(report),
        checks,
    }
}

/// The epoch-based resilient engine under the same chaos: completed
/// epochs must stay exact and keep completing despite the loss.
fn resilient(drop: f64, seed: u64) -> SmokeRun {
    let mut rng = DetRng::new(seed);
    let topo = Topology::random_regular(PEERS, 5, &mut rng);
    let mh = MultiHierarchy::with_roots(&topo, &[PeerId::new(0)]);
    let data = workload(seed);
    let cfg = config();
    let truth = GroundTruth::compute(&data);
    let expected = truth.frequent_items(truth.threshold_for_ratio(0.01));

    // Wide failure-detector timeout so random heartbeat loss cannot
    // masquerade as churn (12 consecutive losses at p = 0.2 ≈ 4e-9).
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
    let sim = SimConfig::default()
        .with_seed(seed)
        .with_faults(chaos(drop));
    let mut w = sansio_world(
        sim,
        ResilientProtocol::peers(&cfg, rc, &topo, &mh, &data, Some(RelConfig::default())),
    );
    w.enable_metrics_sink();
    w.start();
    w.run_until(SimTime::from_micros(40_000_000));
    let report = w.sink().report();

    let done = w.peer(PeerId::new(0)).completed_epochs().to_vec();
    let mut checks = Vec::new();
    checks.push(ShapeCheck::new(
        "epochs keep completing under loss",
        done.len() >= 2,
        format!("{} epochs in 40 s at drop {drop}", done.len()),
    ));
    checks.push(ShapeCheck::new(
        "every completed epoch is exact and certified complete",
        done.iter()
            .all(|er| er.answer == expected && er.is_complete()),
        format!("{} epochs checked", done.len()),
    ));
    checks.push(ShapeCheck::new(
        "reliability overhead is metered in its own class",
        w.metrics().class_bytes(MsgClass::RETRANSMIT) > 0
            && report.phase_bytes(phases::RETRANSMIT)
                == w.metrics().class_bytes(MsgClass::RETRANSMIT),
        format!(
            "{} retransmit B, {} frames dropped",
            w.metrics().class_bytes(MsgClass::RETRANSMIT),
            w.metrics().dropped_messages()
        ),
    ));

    SmokeRun {
        name: "loss-resilient",
        report: Some(report),
        checks,
    }
}

/// Runs both lossy scenarios at the given drop probability.
pub(crate) fn run_smoke(drop: f64, seed: u64) -> Vec<SmokeRun> {
    vec![one_shot(drop, seed), resilient(drop, seed)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_on_a_lossless_network_too() {
        // drop = 0 still runs with duplication + delay spikes: the checks
        // must hold without requiring drops to have fired.
        let runs = run_smoke(0.0, 20080617);
        for run in &runs {
            for c in &run.checks {
                assert!(c.holds, "{}: {} ({})", run.name, c.claim, c.detail);
            }
        }
    }
}
