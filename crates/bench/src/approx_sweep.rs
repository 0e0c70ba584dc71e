//! Accuracy-vs-bytes sweep across the approximate engine family.
//!
//! One deterministic workload (`N = 100`, `n = 1000`, Zipf `θ = 1.0`),
//! four engines — exact netFilter as the anchor, the Space-Saving
//! sketch-merge engine across capacities, the threshold-algorithm top-k
//! engine across prune capacities, and the zero-traffic local-threshold
//! comparator — each run to quiescence under the DES, reporting the
//! bytes it moved against the accuracy it bought:
//!
//! * **sketch**: recall/precision against the exact frequent set, the
//!   worst observed deficit against the claimed `⌈ε·V⌉` bound;
//! * **top-k**: recall against the true top-k and whether the run
//!   *certified* (bounds proved the slate complete);
//! * **threshold**: the verdict and cost for a heavy and a tail item —
//!   the tail comparison must cost **zero** bytes.
//!
//! Run via `experiments smoke --only approx-sweep`, which dumps the three
//! tables into `--out` as `.dat` files. The committed `approx-*` baselines
//! in `check-baselines` pin the reference tunings' traffic byte-for-byte.

use ifi_hierarchy::Hierarchy;
use ifi_sim::SimConfig;
use ifi_workload::{GroundTruth, ItemId, SystemData, WorkloadParams};
use netfilter::engines::{Engine, ExactEngine, SketchEngine};
use netfilter::local_threshold::{self, LocalThresholdConfig};
use netfilter::sketch::SketchConfig;
use netfilter::{topk, NetFilterConfig, Threshold};

use crate::output::DataFile;
use crate::ShapeCheck;

/// Peers in the sweep workload.
const PEERS: usize = 100;
/// Distinct items in the sweep workload.
const ITEMS: u64 = 1_000;
/// Threshold ratio every frequency query in the sweep uses.
const PHI: f64 = 0.01;
/// Sketch capacities swept.
const CAPACITIES: [usize; 4] = [8, 16, 32, 64];
/// The sweep's `k` for the top-k engine.
const K: usize = 10;
/// Threshold ratio for the local-threshold comparator rows: high enough
/// that the report budget `b = ⌈t/N⌉` exceeds a tail item's local values,
/// making the tail comparison genuinely zero-traffic.
const THRESHOLD_PHI: f64 = 0.05;

/// One sketch-capacity row.
#[derive(Debug, Clone)]
pub struct SketchRow {
    /// Sketch capacity `c`.
    pub capacity: usize,
    /// Average bytes per peer the run moved.
    pub bytes_per_peer: f64,
    /// The engine's claimed `⌈ε·V⌉` bound at this capacity.
    pub claimed_bound: u64,
    /// Worst observed deficit across reported items.
    pub max_deficit: u64,
    /// Fraction of the exact frequent set recovered.
    pub recall: f64,
    /// Fraction of reported items that are truly frequent.
    pub precision: f64,
}

/// One top-k prune-capacity row.
#[derive(Debug, Clone)]
pub struct TopKRow {
    /// Prune capacity (`usize::MAX` = lossless).
    pub prune_cap: usize,
    /// Average bytes per peer the run moved.
    pub bytes_per_peer: f64,
    /// Fraction of the true top-k recovered.
    pub recall: f64,
    /// Whether the run certified its answer.
    pub certified: bool,
}

/// One threshold-comparator row.
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// Which item was compared ("heavy" or "tail").
    pub label: &'static str,
    /// Total bytes the comparison moved.
    pub total_bytes: u64,
    /// The root's verdict.
    pub yes: bool,
    /// The item's true global value.
    pub truth_value: u64,
    /// The resolved threshold.
    pub threshold: u64,
}

/// The full sweep outcome.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Bytes per peer of the exact anchor run.
    pub exact_bytes_per_peer: f64,
    /// Size of the exact frequent set.
    pub exact_items: usize,
    /// Sketch rows, one per capacity.
    pub sketch: Vec<SketchRow>,
    /// Top-k rows, one per prune capacity.
    pub topk: Vec<TopKRow>,
    /// Threshold rows (heavy item, tail item).
    pub threshold: Vec<ThresholdRow>,
}

impl SweepOutcome {
    /// Prints the three accuracy-vs-bytes tables.
    pub fn print(&self) {
        println!(
            "\nexact anchor (netFilter): {} frequent items, {:.1} B/peer",
            self.exact_items, self.exact_bytes_per_peer
        );
        println!("\nsketch-merge engine vs exact:");
        println!("  capacity  B/peer    claimed-bound  max-deficit  recall  precision");
        for r in &self.sketch {
            println!(
                "  {:>8}  {:>8.1}  {:>13}  {:>11}  {:>6.3}  {:>9.3}",
                r.capacity, r.bytes_per_peer, r.claimed_bound, r.max_deficit, r.recall, r.precision
            );
        }
        println!("\ntop-k engine (k = {K}) vs true top-{K}:");
        println!("  prune-cap  B/peer    recall  certified");
        for r in &self.topk {
            let cap = if r.prune_cap == usize::MAX {
                "lossless".to_string()
            } else {
                r.prune_cap.to_string()
            };
            println!(
                "  {:>9}  {:>8.1}  {:>6.3}  {}",
                cap, r.bytes_per_peer, r.recall, r.certified
            );
        }
        println!("\nlocal-threshold comparator:");
        println!("  item   total-bytes  verdict  truth    t");
        for r in &self.threshold {
            println!(
                "  {:<5}  {:>11}  {:>7}  {:>6}  {:>6}",
                r.label,
                r.total_bytes,
                if r.yes { "yes" } else { "no" },
                r.truth_value,
                r.threshold
            );
        }
    }

    /// The sweep as plot-ready data files.
    pub fn to_data(&self) -> Vec<DataFile> {
        let mut sketch = DataFile::new(
            "approx_sketch",
            &[
                "capacity",
                "bytes_per_peer",
                "claimed_bound",
                "max_deficit",
                "recall",
                "precision",
            ],
        );
        for r in &self.sketch {
            sketch.row(vec![
                r.capacity as f64,
                r.bytes_per_peer,
                r.claimed_bound as f64,
                r.max_deficit as f64,
                r.recall,
                r.precision,
            ]);
        }
        let mut topk = DataFile::new(
            "approx_topk",
            &["prune_cap", "bytes_per_peer", "recall", "certified"],
        );
        for r in &self.topk {
            // Lossless plots as prune_cap 0 (a capacity of "no limit").
            let cap = if r.prune_cap == usize::MAX {
                0.0
            } else {
                r.prune_cap as f64
            };
            topk.row(vec![
                cap,
                r.bytes_per_peer,
                r.recall,
                f64::from(u8::from(r.certified)),
            ]);
        }
        let mut thr = DataFile::new(
            "approx_threshold",
            &["total_bytes", "yes", "truth_value", "threshold"],
        );
        for r in &self.threshold {
            thr.row(vec![
                r.total_bytes as f64,
                f64::from(u8::from(r.yes)),
                r.truth_value as f64,
                r.threshold as f64,
            ]);
        }
        vec![sketch, topk, thr]
    }

    /// The qualitative claims the sweep must exhibit.
    pub fn checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        checks.push(ShapeCheck::new(
            "every sketch capacity undercuts the exact engine's traffic",
            self.sketch
                .iter()
                .all(|r| r.bytes_per_peer < self.exact_bytes_per_peer),
            format!(
                "exact {:.1} B/peer vs sketches {:?}",
                self.exact_bytes_per_peer,
                self.sketch
                    .iter()
                    .map(|r| r.bytes_per_peer.round())
                    .collect::<Vec<_>>()
            ),
        ));
        checks.push(ShapeCheck::new(
            "sketch traffic grows with capacity",
            self.sketch
                .windows(2)
                .all(|w| w[0].bytes_per_peer <= w[1].bytes_per_peer),
            format!(
                "{:?}",
                self.sketch
                    .iter()
                    .map(|r| (r.capacity, r.bytes_per_peer.round()))
                    .collect::<Vec<_>>()
            ),
        ));
        checks.push(ShapeCheck::new(
            "every sketch honors its claimed ε bound",
            self.sketch.iter().all(|r| r.max_deficit <= r.claimed_bound),
            format!(
                "{:?}",
                self.sketch
                    .iter()
                    .map(|r| (r.capacity, r.max_deficit, r.claimed_bound))
                    .collect::<Vec<_>>()
            ),
        ));
        checks.push(ShapeCheck::new(
            "the largest sketch recovers the full frequent set",
            self.sketch.last().is_some_and(|r| r.recall == 1.0),
            format!(
                "recall at c = {}: {:.3}",
                self.sketch.last().map_or(0, |r| r.capacity),
                self.sketch.last().map_or(0.0, |r| r.recall)
            ),
        ));
        checks.push(ShapeCheck::new(
            "certified top-k runs achieve full recall",
            self.topk
                .iter()
                .filter(|r| r.certified)
                .all(|r| r.recall == 1.0),
            format!(
                "{:?}",
                self.topk
                    .iter()
                    .map(|r| (r.prune_cap, r.certified, r.recall))
                    .collect::<Vec<_>>()
            ),
        ));
        checks.push(ShapeCheck::new(
            "the lossless top-k run certifies",
            self.topk
                .iter()
                .any(|r| r.prune_cap == usize::MAX && r.certified),
            String::from("lossless row present and certified"),
        ));
        let heavy = self.threshold.iter().find(|r| r.label == "heavy");
        let tail = self.threshold.iter().find(|r| r.label == "tail");
        checks.push(ShapeCheck::new(
            "the heavy-item comparison answers yes, soundly",
            heavy.is_some_and(|r| r.yes && r.truth_value >= r.threshold),
            format!("{heavy:?}"),
        ));
        checks.push(ShapeCheck::new(
            "the tail-item comparison costs zero bytes",
            tail.is_some_and(|r| !r.yes && r.total_bytes == 0),
            format!("{tail:?}"),
        ));
        checks
    }
}

/// Runs the sweep at `seed`.
pub fn run(seed: u64) -> SweepOutcome {
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: ITEMS,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    let h = Hierarchy::balanced(PEERS, 3);
    let truth = GroundTruth::compute(&data);
    let t = truth.threshold_for_ratio(PHI);
    let frequent: Vec<ItemId> = truth.frequent_items(t).iter().map(|&(i, _)| i).collect();

    let exact = ExactEngine {
        config: NetFilterConfig::builder()
            .filter_size(50)
            .filters(3)
            .threshold(Threshold::Ratio(PHI))
            .hash_seed(seed)
            .build(),
    }
    .run_des(&h, &data, SimConfig::default().with_seed(seed));

    let sketch = CAPACITIES
        .iter()
        .map(|&capacity| {
            let out = SketchEngine {
                config: SketchConfig::new(capacity).with_threshold(Threshold::Ratio(PHI)),
            }
            .run_des(&h, &data, SimConfig::default().with_seed(seed));
            let hit = out
                .items
                .iter()
                .filter(|(i, _)| frequent.contains(i))
                .count();
            SketchRow {
                capacity,
                bytes_per_peer: out.avg_bytes_per_peer(),
                claimed_bound: SketchConfig::new(capacity).claimed_bound(data.total_value()),
                max_deficit: out
                    .items
                    .iter()
                    .map(|&(i, est)| truth.value_of(i).saturating_sub(est))
                    .max()
                    .unwrap_or(0),
                recall: hit as f64 / frequent.len().max(1) as f64,
                precision: hit as f64 / out.items.len().max(1) as f64,
            }
        })
        .collect();

    let true_topk: Vec<ItemId> = truth.globals().iter().take(K).map(|&(i, _)| i).collect();
    let topk = [K, 2 * K, 4 * K, usize::MAX]
        .iter()
        .map(|&prune_cap| {
            let cfg = if prune_cap == usize::MAX {
                topk::TopKConfig::lossless(K)
            } else {
                topk::TopKConfig::new(K).with_prune_cap(prune_cap)
            };
            let run = topk::top_k(&h, &data, K, &cfg);
            let hit = run
                .items
                .iter()
                .filter(|(i, _)| true_topk.contains(i))
                .count();
            TopKRow {
                prune_cap,
                bytes_per_peer: run.avg_bytes_per_peer(PEERS),
                recall: hit as f64 / true_topk.len().max(1) as f64,
                certified: run.certified,
            }
        })
        .collect();

    let cfg = LocalThresholdConfig::new(Threshold::Ratio(THRESHOLD_PHI));
    let threshold = [
        ("heavy", truth.globals()[0]),
        ("tail", *truth.globals().last().expect("nonempty workload")),
    ]
    .iter()
    .map(|&(label, (item, truth_value))| {
        let run = local_threshold::compare(&h, &data, item, &cfg);
        ThresholdRow {
            label,
            total_bytes: run.total_bytes,
            yes: run.verdict.answer,
            truth_value,
            threshold: run.verdict.threshold,
        }
    })
    .collect();

    SweepOutcome {
        exact_bytes_per_peer: exact.avg_bytes_per_peer(),
        exact_items: exact.items.len(),
        sketch,
        topk,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_checks_hold_at_the_default_seed() {
        let sweep = run(20080617);
        for c in sweep.checks() {
            assert!(c.holds, "{} ({})", c.claim, c.detail);
        }
        assert_eq!(sweep.sketch.len(), CAPACITIES.len());
        assert_eq!(sweep.topk.len(), 4);
        let data = sweep.to_data();
        assert_eq!(data.len(), 3);
        assert!(data.iter().all(|d| !d.is_empty()));
    }

    #[test]
    fn sweep_is_deterministic() {
        let (a, b) = (run(7), run(7));
        assert_eq!(a.exact_bytes_per_peer, b.exact_bytes_per_peer);
        for (x, y) in a.sketch.iter().zip(&b.sketch) {
            assert_eq!(x.bytes_per_peer, y.bytes_per_peer);
            assert_eq!(x.recall, y.recall);
        }
    }
}
