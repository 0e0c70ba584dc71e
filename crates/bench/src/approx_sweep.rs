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
//! Run via `experiments smoke --only approx-sweep`, which prints the three
//! tables as [`Panel`]s and dumps them into `--out` as `.dat` files. The committed `approx-*` baselines
//! in `check-baselines` pin the reference tunings' traffic byte-for-byte.

use ifi_hierarchy::Hierarchy;
use ifi_sim::SimConfig;
use ifi_workload::{GroundTruth, ItemId, SystemData, WorkloadParams};
use netfilter::engines::{Engine, ExactEngine, SketchEngine, ThresholdEngine, TopKEngine};
use netfilter::local_threshold::LocalThresholdConfig;
use netfilter::sketch::SketchConfig;
use netfilter::topk::TopKConfig;
use netfilter::{NetFilterConfig, Threshold};

use crate::output::{f1, f3, int, Column, Panel};
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
struct SketchRow {
    /// Sketch capacity `c`.
    pub(crate) capacity: usize,
    /// Average bytes per peer the run moved.
    pub(crate) bytes_per_peer: f64,
    /// The engine's claimed `⌈ε·V⌉` bound at this capacity.
    pub(crate) claimed_bound: u64,
    /// Worst observed deficit across reported items.
    pub(crate) max_deficit: u64,
    /// Fraction of the exact frequent set recovered.
    pub(crate) recall: f64,
    /// Fraction of reported items that are truly frequent.
    pub(crate) precision: f64,
}

/// One top-k prune-capacity row.
#[derive(Debug, Clone)]
struct TopKRow {
    /// Prune capacity (`usize::MAX` = lossless).
    pub(crate) prune_cap: usize,
    /// Average bytes per peer the run moved.
    pub(crate) bytes_per_peer: f64,
    /// Fraction of the true top-k recovered.
    pub(crate) recall: f64,
    /// Whether the run certified its answer.
    pub(crate) certified: bool,
}

/// One threshold-comparator row.
#[derive(Debug, Clone)]
struct ThresholdRow {
    /// Which item was compared ("heavy" or "tail").
    pub(crate) label: &'static str,
    /// Total bytes the comparison moved.
    pub(crate) total_bytes: u64,
    /// The root's verdict.
    pub(crate) yes: bool,
    /// The item's true global value.
    pub(crate) truth_value: u64,
    /// The resolved threshold.
    pub(crate) threshold: u64,
}

/// The full sweep outcome.
#[derive(Debug, Clone)]
struct SweepOutcome {
    /// Bytes per peer of the exact anchor run.
    pub(crate) exact_bytes_per_peer: f64,
    /// Size of the exact frequent set.
    pub(crate) exact_items: usize,
    /// Sketch rows, one per capacity.
    pub(crate) sketch: Vec<SketchRow>,
    /// Top-k rows, one per prune capacity.
    pub(crate) topk: Vec<TopKRow>,
    /// Threshold rows (heavy item, tail item).
    pub(crate) threshold: Vec<ThresholdRow>,
}

/// One row per sketch capacity.
const SKETCH_COLUMNS: [Column; 6] = [
    ("capacity", Some("capacity"), int),
    ("B/peer", Some("bytes_per_peer"), f1),
    ("claimed-bound", Some("claimed_bound"), int),
    ("max-deficit", Some("max_deficit"), int),
    ("recall", Some("recall"), f3),
    ("precision", Some("precision"), f3),
];

/// One row per prune capacity; lossless is prune capacity 0 (no limit).
const TOPK_COLUMNS: [Column; 4] = [
    ("prune-cap", Some("prune_cap"), |c| {
        if c == 0.0 {
            "lossless".into()
        } else {
            int(c)
        }
    }),
    ("B/peer", Some("bytes_per_peer"), f1),
    ("recall", Some("recall"), f3),
    ("certified", Some("certified"), |c| (c == 1.0).to_string()),
];

/// The heavy item's row, then the tail item's.
const THRESHOLD_COLUMNS: [Column; 5] = [
    ("item", None, |i| ["heavy", "tail"][i as usize].into()),
    ("total-bytes", Some("total_bytes"), int),
    ("verdict", Some("yes"), |y| {
        if y == 1.0 { "yes" } else { "no" }.into()
    }),
    ("truth", Some("truth_value"), int),
    ("t", Some("threshold"), int),
];

impl SweepOutcome {
    /// The three accuracy-vs-bytes tables, the last carrying every check.
    fn panels(&self) -> Vec<Panel> {
        let sketch = self.sketch.iter().map(|r| {
            vec![
                r.capacity as f64,
                r.bytes_per_peer,
                r.claimed_bound as f64,
                r.max_deficit as f64,
                r.recall,
                r.precision,
            ]
        });
        let topk = self.topk.iter().map(|r| {
            let cap = if r.prune_cap == usize::MAX {
                0
            } else {
                r.prune_cap
            };
            let certified = f64::from(u8::from(r.certified));
            vec![cap as f64, r.bytes_per_peer, r.recall, certified]
        });
        let threshold = self.threshold.iter().enumerate().map(|(i, r)| {
            let yes = f64::from(u8::from(r.yes));
            let (truth, t) = (r.truth_value as f64, r.threshold as f64);
            vec![i as f64, r.total_bytes as f64, yes, truth, t]
        });
        let anchor = format!(
            "exact anchor (netFilter): {} frequent items, {:.1} B/peer",
            self.exact_items, self.exact_bytes_per_peer
        );
        let label = "approx-sweep";
        let title = format!("top-k engine (k = {K}) vs true top-{K}:");
        vec![
            Panel {
                dat: Some("approx_sketch".into()),
                note: Some(anchor),
                ..Panel::new(
                    "sketch-merge engine vs exact:",
                    label,
                    &SKETCH_COLUMNS,
                    sketch.collect(),
                )
            },
            Panel {
                dat: Some("approx_topk".into()),
                ..Panel::new(title, label, &TOPK_COLUMNS, topk.collect())
            },
            Panel {
                dat: Some("approx_threshold".into()),
                checks: self.checks(),
                ..Panel::new(
                    "local-threshold comparator:",
                    label,
                    &THRESHOLD_COLUMNS,
                    threshold.collect(),
                )
            },
        ]
    }

    /// The qualitative claims the sweep must exhibit.
    fn checks(&self) -> Vec<ShapeCheck> {
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
pub(crate) fn run(seed: u64) -> Vec<Panel> {
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
                TopKConfig::lossless(K)
            } else {
                TopKConfig::new(K).with_prune_cap(prune_cap)
            };
            let run = TopKEngine::new(cfg).run_des(&h, &data, SimConfig::default());
            let hit = run
                .items
                .iter()
                .filter(|(i, _)| true_topk.contains(i))
                .count();
            TopKRow {
                prune_cap,
                bytes_per_peer: run.avg_bytes_per_peer(),
                recall: hit as f64 / true_topk.len().max(1) as f64,
                certified: run.certified,
            }
        })
        .collect();

    let config = LocalThresholdConfig::new(Threshold::Ratio(THRESHOLD_PHI));
    let t = config.threshold.resolve(data.total_value());
    let threshold = [
        ("heavy", truth.globals()[0]),
        ("tail", *truth.globals().last().expect("nonempty workload")),
    ]
    .iter()
    .map(|&(label, (item, truth_value))| {
        let config = config.clone();
        let run = ThresholdEngine { config, item }.run_des(&h, &data, SimConfig::default());
        ThresholdRow {
            label,
            total_bytes: run.total_bytes,
            yes: !run.items.is_empty(),
            truth_value,
            threshold: t,
        }
    })
    .collect();

    let outcome = SweepOutcome {
        exact_bytes_per_peer: exact.avg_bytes_per_peer(),
        exact_items: exact.items.len(),
        sketch,
        topk,
        threshold,
    };
    outcome.panels()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_checks_hold_at_the_default_seed() {
        let sweep = run(20080617);
        let rows: Vec<usize> = sweep.iter().map(|p| p.rows.len()).collect();
        assert_eq!(rows, [CAPACITIES.len(), 4, 2]);
        for c in sweep.iter().flat_map(|p| &p.checks) {
            assert!(c.holds, "{} ({})", c.claim, c.detail);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let rows = |panels: Vec<Panel>| panels.into_iter().map(|p| p.rows).collect::<Vec<_>>();
        assert_eq!(rows(run(7)), rows(run(7)));
    }
}
