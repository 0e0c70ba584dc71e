//! The one trait every engine answers through.
//!
//! The exact netFilter protocol, the paper's [`naive`](crate::naive)
//! comparator, the Space-Saving [`sketch`](crate::sketch) merge engine, the
//! threshold-algorithm [`topk`](crate::topk) engine, the
//! [`local_threshold`](crate::local_threshold) comparator and the
//! [`continuous`](crate::continuous) engine, each runnable through one
//! object-safe interface. Every engine states its
//! [`ErrorClaim`] up front; the simcheck oracles (`epsilon-bound`,
//! `topk-recall`, `threshold-soundness`) and the `approx-sweep` smoke row
//! hold the engines to exactly those claims — an engine whose tuning
//! cannot honor its claim is a bug the test spine must catch, not a
//! configuration choice.
//!
//! All engines answer in the same shape — `(item, value)` pairs sorted by
//! value descending then id ascending — so accuracy-vs-bytes comparisons
//! against the exact engine need no per-engine glue.

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, Des, MetricsReport, PeerId, SansIo, SimConfig};
use ifi_workload::{ItemId, SystemData};

use crate::continuous::{schedule_from_data, ContinuousConfig, ContinuousProtocol, QueryRegistry};
use crate::local_threshold::{LocalThresholdConfig, LocalThresholdProtocol};
use crate::naive::{NaiveConfig, NaiveProtocol};
use crate::sketch::{SketchConfig, SketchProtocol};
use crate::topk::{TopKConfig, TopKProtocol};
use crate::{NetFilter, NetFilterConfig, Threshold, WireSizes};

/// What an engine promises about its answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorClaim {
    /// No false positives, no false negatives, exact values.
    Exact,
    /// Every reported estimate is within `ε·V` of the exact global value
    /// (`V` = total system value).
    Epsilon(f64),
    /// The reported set contains at least this fraction of the true top-k.
    Recall(f64),
    /// One-sided: never answers *yes* ("`v_x ≥ t`") when the truth is
    /// below `t`.
    Soundness,
}

/// One engine run: the answer, the claim it was produced under, and the
/// traffic it cost.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The engine's [`Engine::name`].
    pub engine: &'static str,
    /// Reported items with their (possibly estimated) global values,
    /// descending by value then ascending by id.
    pub items: Vec<(ItemId, u64)>,
    /// The claim the answer is held to.
    pub claim: ErrorClaim,
    /// Whether the root proved the answer equal to the exact answer:
    /// always for netFilter and naive, when its final fence certified for
    /// continuous, per run for top-k (its certification calculus), never
    /// for engines whose claims are bounds.
    pub certified: bool,
    /// Full per-phase traffic report of the run.
    pub report: MetricsReport,
    /// Total bytes across all phases.
    pub total_bytes: u64,
}

impl EngineOutcome {
    /// The paper's cost metric.
    pub fn avg_bytes_per_peer(&self) -> f64 {
        self.total_bytes as f64 / self.report.peer_count.max(1) as f64
    }
}

/// An engine of the family: anything that can answer a frequency query
/// over a hierarchy + workload in one DES run, under a stated error claim.
/// [`Engine::run_des`] is the one way to run a one-shot engine to an
/// answer.
pub trait Engine {
    /// Stable engine name (used in sweep tables and baselines).
    fn name(&self) -> &'static str;
    /// The claim this engine's tuning promises.
    fn claim(&self) -> ErrorClaim;
    /// Runs the engine to quiescence under the deterministic simulator.
    fn run_des(&self, hierarchy: &Hierarchy, data: &SystemData, sim: SimConfig) -> EngineOutcome;
}

/// Runs `cores` to quiescence under `sim` with the sink on, and reports
/// what `answer` reads off the core at `root`: the items and whether
/// they are certified.
fn drive<P: SansIo>(
    engine: &dyn Engine,
    sim: SimConfig,
    cores: Vec<P>,
    root: PeerId,
    answer: impl FnOnce(&Des<P>) -> (Vec<(ItemId, u64)>, bool),
) -> EngineOutcome {
    let mut w = sansio_world(sim, cores);
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let (items, certified) = answer(w.peer(root));
    EngineOutcome {
        engine: engine.name(),
        items,
        claim: engine.claim(),
        certified,
        report: w.metrics_report(),
        total_bytes: w.metrics().total_bytes(),
    }
}

/// The exact netFilter protocol as a family member (the accuracy anchor
/// of every sweep).
#[derive(Debug, Clone)]
pub struct ExactEngine {
    /// Full netFilter tuning.
    pub config: NetFilterConfig,
}

impl Engine for ExactEngine {
    fn name(&self) -> &'static str {
        "netfilter-exact"
    }

    fn claim(&self) -> ErrorClaim {
        ErrorClaim::Exact
    }

    fn run_des(&self, hierarchy: &Hierarchy, data: &SystemData, sim: SimConfig) -> EngineOutcome {
        let (run, report) = NetFilter::new(self.config.clone()).run_des(hierarchy, data, sim);
        EngineOutcome {
            engine: self.name(),
            items: run.frequent_items().to_vec(),
            claim: self.claim(),
            certified: true,
            total_bytes: report.total_bytes(),
            report,
        }
    }
}

/// The paper's naive comparator (§IV-B): every peer's full item map
/// merged rootward and thresholded at the root.
#[derive(Debug, Clone)]
pub struct NaiveEngine {
    /// Threshold and wire widths.
    pub config: NaiveConfig,
}

impl Engine for NaiveEngine {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn claim(&self) -> ErrorClaim {
        ErrorClaim::Exact
    }

    fn run_des(&self, hierarchy: &Hierarchy, data: &SystemData, sim: SimConfig) -> EngineOutcome {
        let cores = NaiveProtocol::peers(&self.config, hierarchy, data, None);
        drive(self, sim, cores, hierarchy.root(), |root| {
            let answer = root.result().expect("quiescent naive run must answer");
            (answer.items.clone(), true)
        })
    }
}

/// The Space-Saving sketch-merge engine.
#[derive(Debug, Clone)]
pub struct SketchEngine {
    /// Sketch capacity, claimed ε, and threshold.
    pub config: SketchConfig,
}

impl Engine for SketchEngine {
    fn name(&self) -> &'static str {
        "sketch-merge"
    }

    fn claim(&self) -> ErrorClaim {
        ErrorClaim::Epsilon(self.config.claimed_epsilon)
    }

    fn run_des(&self, hierarchy: &Hierarchy, data: &SystemData, sim: SimConfig) -> EngineOutcome {
        let cores = SketchProtocol::peers(&self.config, hierarchy, data, None);
        drive(self, sim, cores, hierarchy.root(), |root| {
            let answer = root.result().expect("quiescent sketch run must answer");
            (answer.items.clone(), false)
        })
    }
}

/// The threshold-algorithm top-k engine.
#[derive(Debug, Clone)]
pub struct TopKEngine {
    /// `k`, prune capacity, wire widths.
    pub(crate) config: TopKConfig,
    /// The recall this tuning is held to. [`TopKEngine::new`] claims 1.0 —
    /// honest whenever the tuning certifies; a mis-tuned engine claiming
    /// more recall than its prune capacity can deliver is exactly what the
    /// `topk-recall` oracle exists to catch.
    pub(crate) claimed_recall: f64,
}

impl TopKEngine {
    /// An engine claiming full recall (pair with a certifying tuning).
    pub fn new(config: TopKConfig) -> Self {
        TopKEngine {
            config,
            claimed_recall: 1.0,
        }
    }
}

impl Engine for TopKEngine {
    fn name(&self) -> &'static str {
        "topk-prune"
    }

    fn claim(&self) -> ErrorClaim {
        ErrorClaim::Recall(self.claimed_recall)
    }

    fn run_des(&self, hierarchy: &Hierarchy, data: &SystemData, sim: SimConfig) -> EngineOutcome {
        let cores = TopKProtocol::peers(&self.config, hierarchy, data, None);
        drive(self, sim, cores, hierarchy.root(), |root| {
            let answer = root.result().expect("quiescent top-k run must answer");
            (answer.items.clone(), answer.certified)
        })
    }
}

/// The zero-traffic local-thresholding comparator, bound to one item.
#[derive(Debug, Clone)]
pub struct ThresholdEngine {
    /// Threshold and (hidden) soundness toggle.
    pub config: LocalThresholdConfig,
    /// The item whose global value is compared.
    pub item: ItemId,
}

impl Engine for ThresholdEngine {
    fn name(&self) -> &'static str {
        "threshold-local"
    }

    fn claim(&self) -> ErrorClaim {
        ErrorClaim::Soundness
    }

    fn run_des(&self, hierarchy: &Hierarchy, data: &SystemData, sim: SimConfig) -> EngineOutcome {
        let (config, item) = (&self.config, self.item);
        let cores = LocalThresholdProtocol::peers(config, hierarchy, data, item, None);
        drive(self, sim, cores, hierarchy.root(), |root| {
            let verdict = root.verdict();
            let yes = verdict.answer.then_some((item, verdict.lower_bound));
            (yes.into_iter().collect(), false)
        })
    }
}

/// The continuous standing-query engine as a family member: the workload
/// is split round-robin into per-epoch batches, run through the delta
/// convergecast, and the answer is the **final fence's** certified
/// standing result — exact for its window by the telescoping-delta
/// invariant. A run whose final fence does not certify answers nothing,
/// uncertified. Each epoch's delta carries a signed `i64` per item, so a
/// peer's value for one item within one epoch is bounded by `i64::MAX`:
/// past it the delta is refused, that epoch's census falls short, and no
/// fence from then on certifies.
///
/// Deliberately *not* part of [`reference_family`]: its windowed answer
/// is not comparable row-for-row with the one-shot engines' all-time
/// answers, and the committed approx baselines pin that family's shape.
#[derive(Debug, Clone)]
pub struct ContinuousEngine {
    /// Window, epoch count, fade, and wire tuning.
    pub config: ContinuousConfig,
    /// The standing query's resolved absolute threshold.
    pub threshold: u64,
}

impl Engine for ContinuousEngine {
    fn name(&self) -> &'static str {
        "continuous-delta"
    }

    fn claim(&self) -> ErrorClaim {
        ErrorClaim::Exact
    }

    fn run_des(&self, hierarchy: &Hierarchy, data: &SystemData, sim: SimConfig) -> EngineOutcome {
        let epochs = self.config.epochs.max(1);
        let schedules = schedule_from_data(data, epochs);
        let subscriber = PeerId::new(data.peer_count().saturating_sub(1));
        let registry = QueryRegistry::single(self.threshold, subscriber);
        let cores = ContinuousProtocol::peers(&self.config, hierarchy, &registry, &schedules, None);
        let last = epochs as u64 - 1;
        drive(self, sim, cores, hierarchy.root(), |root| {
            match root.delivered().last() {
                Some(fence) if fence.epoch == last => (fence.answers[0].items.clone(), true),
                _ => (Vec::new(), false),
            }
        })
    }
}

/// The whole family at a reference tuning, as trait objects — the
/// iteration order the sweep and smoke tables use.
pub fn reference_family(item: ItemId) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ExactEngine {
            config: NetFilterConfig::builder()
                .filter_size(50)
                .filters(3)
                .build(),
        }),
        Box::new(NaiveEngine {
            config: NaiveConfig {
                threshold: Threshold::Ratio(0.01),
                sizes: WireSizes::default(),
            },
        }),
        Box::new(SketchEngine {
            config: SketchConfig::new(32),
        }),
        Box::new(TopKEngine::new(TopKConfig::lossless(10))),
        Box::new(ThresholdEngine {
            config: LocalThresholdConfig::new(Threshold::Ratio(0.01)),
            item,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases;
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn setup() -> (Hierarchy, SystemData, GroundTruth) {
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: 40,
                items: 800,
                instances_per_item: 10,
                theta: 1.0,
            },
            71,
        );
        let truth = GroundTruth::compute(&data);
        (Hierarchy::balanced(40, 3), data, truth)
    }

    #[test]
    fn every_engine_meters_bytes_in_its_own_class() {
        let (h, data, truth) = setup();
        let heavy = truth.globals()[0].0;
        let labels = [
            ("netfilter-exact", phases::AGGREGATION),
            ("naive", phases::AGGREGATION),
            ("sketch-merge", phases::SKETCH),
            ("topk-prune", phases::TOPK),
            ("threshold-local", phases::THRESHOLD),
        ];
        for engine in reference_family(heavy) {
            let out = engine.run_des(&h, &data, SimConfig::default());
            assert_eq!(out.engine, engine.name());
            let label = labels.iter().find(|(n, _)| *n == out.engine).unwrap().1;
            assert!(
                out.report.phase_bytes(label) > 0,
                "{}: no bytes metered under {label:?}",
                engine.name(),
            );
            assert!(out.total_bytes > 0);
        }
    }

    #[test]
    fn claims_hold_at_the_reference_tuning() {
        let (h, data, truth) = setup();
        let t = truth.threshold_for_ratio(0.01);
        let heavy = truth.globals()[0].0;
        for engine in reference_family(heavy) {
            let out = engine.run_des(&h, &data, SimConfig::default());
            match out.claim {
                ErrorClaim::Exact => {
                    assert_eq!(out.items, truth.frequent_items(t), "exact engine");
                }
                ErrorClaim::Epsilon(eps) => {
                    let bound = (eps * truth.total_value() as f64).ceil() as u64;
                    for &(item, est) in &out.items {
                        let exact = truth.value_of(item);
                        assert!(
                            est.abs_diff(exact) <= bound,
                            "sketch estimate off by more than ε·V"
                        );
                    }
                }
                ErrorClaim::Recall(r) => {
                    let k = out.items.len().max(1);
                    let want: Vec<ItemId> =
                        truth.globals().iter().take(k).map(|&(i, _)| i).collect();
                    let hit = out.items.iter().filter(|(i, _)| want.contains(i)).count();
                    assert!(
                        hit as f64 / want.len() as f64 >= r,
                        "top-k recall below claim"
                    );
                }
                ErrorClaim::Soundness => {
                    if let Some(&(item, _)) = out.items.first() {
                        assert!(truth.value_of(item) >= t, "unsound yes");
                    }
                }
            }
        }
    }

    #[test]
    fn continuous_engine_answers_its_final_window_exactly() {
        let (h, data, _) = setup();
        let engine = ContinuousEngine {
            config: ContinuousConfig::new(4, 5),
            threshold: 50,
        };
        let out = engine.run_des(&h, &data, SimConfig::default());
        assert_eq!(out.engine, "continuous-delta");
        assert!(out.certified, "the final fence certifies");
        assert!(
            out.report.phase_bytes(phases::DELTA) > 0,
            "delta stream must be metered in its own class"
        );
        let schedules = schedule_from_data(&data, 5);
        let scratch = crate::continuous::window_totals_from_scratch(&schedules, 4, 4);
        let want: Vec<(ItemId, u64)> = {
            let mut v: Vec<(ItemId, u64)> = scratch
                .iter()
                .filter(|&(_, t)| *t >= 50)
                .map(|(&k, &t)| (k, t))
                .collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        };
        assert_eq!(out.items, want, "final fence ≡ from-scratch window");
    }

    #[test]
    fn exact_engine_is_the_most_expensive_family_member() {
        let (h, data, truth) = setup();
        let heavy = truth.globals()[0].0;
        let outs: Vec<EngineOutcome> = reference_family(heavy)
            .iter()
            .map(|e| e.run_des(&h, &data, SimConfig::default()))
            .collect();
        let exact = outs.iter().find(|o| o.engine == "netfilter-exact").unwrap();
        let sketch = outs.iter().find(|o| o.engine == "sketch-merge").unwrap();
        let thresh = outs.iter().find(|o| o.engine == "threshold-local").unwrap();
        assert!(sketch.total_bytes < exact.total_bytes);
        assert!(thresh.total_bytes < sketch.total_bytes);
    }
}
