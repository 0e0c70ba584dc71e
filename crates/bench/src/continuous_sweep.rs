//! Bytes-per-epoch vs the number of multiplexed standing queries.
//!
//! One deterministic continuous workload (`N = 30`, 24 epoch fences, a
//! four-bucket window), swept across K ∈ {1, 2, 4, 8} standing queries
//! registered at the root. For each K the sweep reports what one epoch
//! fence costs, split by traffic class:
//!
//! * **delta** — the shared phase-1 delta convergecast
//!   ([`MsgClass::DELTA`]): exactly `N − 1` messages per epoch, byte-for-
//!   byte independent of K;
//! * **standing** — the per-query answer-split rows
//!   ([`MsgClass::STANDING`]): grows with K, but only by the *changed*
//!   rows of each query's answer;
//! * **sharing ratio** — total bytes against K × the single-query total:
//!   the measured form of the "K queries ≪ K× one query" claim.
//!
//! Run via `experiments smoke --only continuous-sweep`, which prints the
//! [`Panel`] and dumps it into `--out` as `continuous_sweep.dat`.
//!
//! [`MsgClass::DELTA`]: ifi_sim::MsgClass::DELTA
//! [`MsgClass::STANDING`]: ifi_sim::MsgClass::STANDING

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, MsgClass, PeerId, SimConfig};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::continuous::{
    schedule_from_data, ContinuousConfig, ContinuousProtocol, QueryRegistry, StandingQuery,
};

use crate::output::{f1, f3, int, Column, Panel};
use crate::ShapeCheck;

/// Peers in the sweep workload.
const PEERS: usize = 30;
/// Epoch fences per run.
const EPOCHS: usize = 24;
/// Window size in buckets.
const WINDOW: usize = 4;
/// Query counts swept.
const KS: [usize; 4] = [1, 2, 4, 8];
/// Threshold of query `i` is `BASE_THRESHOLD + 10·i`.
const BASE_THRESHOLD: u64 = 40;

/// One row per swept K: the shared delta-stream and the per-query
/// answer-split bytes per epoch fence, and the sharing ratio — (delta +
/// standing) ÷ (K × the single-query total), 1.0 meaning "no better than
/// K independent queries".
const COLUMNS: [Column; 4] = [
    ("K", Some("k"), int),
    ("delta-B/epoch", Some("delta_bytes_per_epoch"), f1),
    ("standing-B/epoch", Some("standing_bytes_per_epoch"), f1),
    ("sharing-ratio", Some("sharing_ratio"), f3),
];

fn registry(k: usize) -> QueryRegistry {
    let mut r = QueryRegistry::new();
    for i in 0..k {
        r.register(StandingQuery {
            id: i as u32,
            threshold: BASE_THRESHOLD + 10 * i as u64,
            subscriber: PeerId::new(PEERS - 1),
        });
    }
    r
}

/// Runs the sweep at `seed`.
pub fn run(seed: u64) -> Vec<Panel> {
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 400,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    let schedules = schedule_from_data(&data, EPOCHS);
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = ContinuousConfig::new(WINDOW, EPOCHS);
    let classes = |k: usize| -> (u64, u64) {
        let mut w = sansio_world(
            SimConfig::default().with_seed(seed),
            ContinuousProtocol::peers(&cfg, &h, &registry(k), &schedules, None),
        );
        w.start();
        w.run_to_quiescence();
        (
            w.metrics().class_bytes(MsgClass::DELTA),
            w.metrics().class_bytes(MsgClass::STANDING),
        )
    };
    let (delta_1, standing_1) = classes(1);
    let single_total = delta_1 + standing_1;
    let rows = KS.iter().map(|&k| {
        let (delta, standing) = classes(k);
        vec![
            k as f64,
            delta as f64 / EPOCHS as f64,
            standing as f64 / EPOCHS as f64,
            (delta + standing) as f64 / (k as u64 * single_total) as f64,
        ]
    });
    let title = format!(
        "continuous sweep — bytes per epoch fence vs K ({PEERS} peers, {EPOCHS} epochs, \
         window {WINDOW}):"
    );
    let panel = Panel::new(title, "continuous-sweep", &COLUMNS, rows.collect());
    vec![Panel {
        dat: Some("continuous_sweep".into()),
        checks: checks(&panel),
        ..panel
    }]
}

/// The qualitative claims the sweep must exhibit.
fn checks(panel: &Panel) -> Vec<ShapeCheck> {
    let (delta, standing) = (
        panel.column("delta-B/epoch"),
        panel.column("standing-B/epoch"),
    );
    let ratio = panel.column("sharing-ratio");
    // `(K, value)` pairs, as the details print them.
    let by_k = |values: &[f64]| -> Vec<(usize, f64)> {
        let ks = panel.column("K").into_iter().map(|k| k as usize);
        ks.zip(values.iter().copied()).collect()
    };
    let rounded: Vec<f64> = ratio
        .iter()
        .map(|r| (r * 1000.0).round() / 1000.0)
        .collect();
    let k8 = by_k(&ratio)
        .into_iter()
        .find(|&(k, _)| k == 8)
        .map(|(_, r)| r);
    vec![
        ShapeCheck::new(
            "the shared delta stream is byte-identical across K",
            delta.windows(2).all(|w| w[0] == w[1]),
            format!("{:?}", by_k(&delta)),
        ),
        ShapeCheck::new(
            "answer-split traffic never shrinks as K grows",
            standing.windows(2).all(|w| w[0] <= w[1]),
            format!("{:?}", by_k(&standing)),
        ),
        ShapeCheck::new(
            "every multi-query row clearly undercuts K independent queries",
            by_k(&ratio).iter().filter(|r| r.0 > 1).all(|r| r.1 < 0.75),
            format!("{:?}", by_k(&rounded)),
        ),
        ShapeCheck::new(
            "the eight-query row costs well under half of 8 independent queries",
            k8.is_some_and(|r| r < 0.5),
            format!("K=8 ratio {:.3}", k8.unwrap_or(f64::NAN)),
        ),
        ShapeCheck::new(
            "the sharing ratio improves monotonically with K",
            ratio.windows(2).all(|w| w[1] <= w[0]),
            format!("{:?}", by_k(&rounded)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_checks_hold_at_the_default_seed() {
        let sweep = run(20080617);
        assert_eq!(sweep[0].rows.len(), KS.len());
        for c in &sweep[0].checks {
            assert!(c.holds, "{} ({})", c.claim, c.detail);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(run(7)[0].rows, run(7)[0].rows);
    }
}
