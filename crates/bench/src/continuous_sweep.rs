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
//! Run via `experiments smoke --only continuous-sweep`, which dumps the
//! table into `--out` as `continuous_sweep.dat`.
//!
//! [`MsgClass::DELTA`]: ifi_sim::MsgClass::DELTA
//! [`MsgClass::STANDING`]: ifi_sim::MsgClass::STANDING

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, MsgClass, PeerId, SimConfig};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::continuous::{
    schedule_from_data, ContinuousConfig, ContinuousProtocol, QueryRegistry, StandingQuery,
};

use crate::output::DataFile;
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

/// One K row of the sweep.
#[derive(Debug, Clone)]
pub struct KRow {
    /// Number of standing queries multiplexed at the root.
    pub k: usize,
    /// Shared delta-stream bytes per epoch fence.
    pub delta_per_epoch: f64,
    /// Per-query answer-split bytes per epoch fence.
    pub standing_per_epoch: f64,
    /// (delta + standing) ÷ (K × the single-query total): the sharing
    /// ratio, 1.0 meaning "no better than K independent queries".
    pub sharing_ratio: f64,
}

/// The full sweep outcome.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One row per swept K.
    pub rows: Vec<KRow>,
}

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
pub fn run(seed: u64) -> SweepOutcome {
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
    let rows = KS
        .iter()
        .map(|&k| {
            let (delta, standing) = classes(k);
            KRow {
                k,
                delta_per_epoch: delta as f64 / EPOCHS as f64,
                standing_per_epoch: standing as f64 / EPOCHS as f64,
                sharing_ratio: (delta + standing) as f64 / (k as u64 * single_total) as f64,
            }
        })
        .collect();
    SweepOutcome { rows }
}

impl SweepOutcome {
    /// Prints the bytes-per-epoch-vs-K table.
    pub fn print(&self) {
        println!(
            "\ncontinuous sweep — bytes per epoch fence vs K ({PEERS} peers, {EPOCHS} epochs, \
             window {WINDOW}):"
        );
        println!("  K  delta-B/epoch  standing-B/epoch  sharing-ratio");
        for r in &self.rows {
            println!(
                "  {:<2} {:>12.1}  {:>15.1}  {:>12.3}",
                r.k, r.delta_per_epoch, r.standing_per_epoch, r.sharing_ratio
            );
        }
    }

    /// The sweep as a plot-ready data file.
    pub fn to_data(&self) -> DataFile {
        let mut f = DataFile::new(
            "continuous_sweep",
            &[
                "k",
                "delta_bytes_per_epoch",
                "standing_bytes_per_epoch",
                "sharing_ratio",
            ],
        );
        for r in &self.rows {
            f.row(vec![
                r.k as f64,
                r.delta_per_epoch,
                r.standing_per_epoch,
                r.sharing_ratio,
            ]);
        }
        f
    }

    /// The qualitative claims the sweep must exhibit.
    pub fn checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        checks.push(ShapeCheck::new(
            "the shared delta stream is byte-identical across K",
            self.rows
                .windows(2)
                .all(|w| w[0].delta_per_epoch == w[1].delta_per_epoch),
            format!(
                "{:?}",
                self.rows
                    .iter()
                    .map(|r| (r.k, r.delta_per_epoch))
                    .collect::<Vec<_>>()
            ),
        ));
        checks.push(ShapeCheck::new(
            "answer-split traffic never shrinks as K grows",
            self.rows
                .windows(2)
                .all(|w| w[0].standing_per_epoch <= w[1].standing_per_epoch),
            format!(
                "{:?}",
                self.rows
                    .iter()
                    .map(|r| (r.k, r.standing_per_epoch))
                    .collect::<Vec<_>>()
            ),
        ));
        checks.push(ShapeCheck::new(
            "every multi-query row clearly undercuts K independent queries",
            self.rows
                .iter()
                .filter(|r| r.k > 1)
                .all(|r| r.sharing_ratio < 0.75),
            format!(
                "{:?}",
                self.rows
                    .iter()
                    .map(|r| (r.k, (r.sharing_ratio * 1000.0).round() / 1000.0))
                    .collect::<Vec<_>>()
            ),
        ));
        checks.push(ShapeCheck::new(
            "the eight-query row costs well under half of 8 independent queries",
            self.rows
                .iter()
                .find(|r| r.k == 8)
                .is_some_and(|r| r.sharing_ratio < 0.5),
            format!(
                "K=8 ratio {:.3}",
                self.rows
                    .iter()
                    .find(|r| r.k == 8)
                    .map_or(f64::NAN, |r| r.sharing_ratio)
            ),
        ));
        checks.push(ShapeCheck::new(
            "the sharing ratio improves monotonically with K",
            self.rows
                .windows(2)
                .all(|w| w[1].sharing_ratio <= w[0].sharing_ratio),
            format!(
                "{:?}",
                self.rows
                    .iter()
                    .map(|r| (r.k, (r.sharing_ratio * 1000.0).round() / 1000.0))
                    .collect::<Vec<_>>()
            ),
        ));
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_checks_hold_at_the_default_seed() {
        let sweep = run(20080617);
        assert_eq!(sweep.rows.len(), KS.len());
        for c in sweep.checks() {
            assert!(c.holds, "{} ({})", c.claim, c.detail);
        }
        assert!(!sweep.to_data().is_empty());
    }

    #[test]
    fn sweep_is_deterministic() {
        let (a, b) = (run(7), run(7));
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.delta_per_epoch, y.delta_per_epoch);
            assert_eq!(x.standing_per_epoch, y.standing_per_epoch);
            assert_eq!(x.sharing_ratio, y.sharing_ratio);
        }
    }
}
