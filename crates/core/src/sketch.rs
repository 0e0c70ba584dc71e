//! Approximate IFI by mergeable Space-Saving summaries — the first member
//! of the approximate engine family (ROADMAP item 4).
//!
//! *Mining frequent items in unstructured P2P networks* (Cafaro et al.,
//! PAPERS.md) gossips Space-Saving sketches until every peer holds a
//! summary of the global stream. This module keeps the summary algebra —
//! capacity-bounded counter sets with the `ε = 1/(c+1)` deficit guarantee —
//! but moves the merges onto the same stable-peer hierarchy the exact
//! engine uses: one rootward convergecast, each node merging its children's
//! summaries into its own in ascending-`PeerId` order. The deterministic
//! merge order is deliberate: Space-Saving merge is associative only *up to
//! the ε bound*, so a schedule-dependent order would make the answer a
//! function of message timing, and the simcheck `epsilon-bound` oracle (and
//! the DES ≡ transport equivalence suite) could not pin it.
//!
//! # The summary and its guarantee
//!
//! [`SpaceSaving`] stores at most `c` counters in Misra-Gries (deficit)
//! form — the count-based view of Space-Saving; the two are isomorphic
//! (Agarwal et al., *Mergeable Summaries*). Every counter **underestimates**
//! its item, and the total deficit is bounded:
//!
//! ```text
//! v_x − V/(c+1)  ≤  est(x)  ≤  v_x        (est(x) = 0 when x is absent)
//! ```
//!
//! where `V` is the total summarized weight. The bound survives merging:
//! pruning subtracts the `(c+1)`-th largest counter `d` from every entry,
//! and since at least `c+1` entries were ≥ `d`, every prune removes ≥
//! `(c+1)·d` of counter mass — total mass never exceeds `V`, so the
//! cumulative per-item deficit `D` obeys `D ≤ V/(c+1)`.
//!
//! The root therefore reports every item whose estimate is within the
//! claimed error of the threshold (`est(x) + ⌈ε·V⌉ ≥ t`): when the claimed
//! `ε` is honest (≥ `1/(c+1)`), a truly frequent item can never be missed —
//! the **no-false-negative** half of the exact engine's contract, at a
//! fraction of its phase-1 bytes. What is lost is exactness of values and
//! the no-false-positive half; the `approx-sweep` smoke row quantifies that
//! accuracy-vs-bytes trade against the exact engine, and the simcheck
//! `epsilon-bound` oracle cross-checks the claim against ground truth on
//! every explored schedule.

use ifi_agg::{Aggregate, Ascending, ConvergecastProtocol, Finish, OnePass};
use ifi_sim::MsgClass;
use ifi_workload::{ItemId, SystemData};
use std::collections::BTreeMap;

use crate::config::Threshold;
use crate::WireSizes;

/// A capacity-bounded mergeable summary of a weighted item stream
/// (Misra-Gries / Space-Saving, deficit form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSaving {
    capacity: usize,
    /// Total weight ever offered to (or merged into) this summary — the
    /// `V` of the error bound, exact by construction.
    weight: u64,
    /// At most `capacity` underestimating counters.
    entries: BTreeMap<ItemId, u64>,
}

impl SpaceSaving {
    /// An empty summary with room for `capacity` counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity summary holds nothing");
        SpaceSaving {
            capacity,
            weight: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Summarizes a local item set in one shot: exact sums first, then a
    /// single prune — never worse than offering item by item.
    pub fn from_items(capacity: usize, items: &[(ItemId, u64)]) -> Self {
        let mut s = SpaceSaving::new(capacity);
        for &(item, v) in items {
            *s.entries.entry(item).or_insert(0) += v;
            s.weight += v;
        }
        s.prune();
        s
    }

    /// Restores the capacity invariant: subtracts the `(c+1)`-th largest
    /// counter from every entry and drops the non-positive ones.
    fn prune(&mut self) {
        if self.entries.len() <= self.capacity {
            return;
        }
        let mut counts: Vec<u64> = self.entries.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let d = counts[self.capacity];
        self.entries.retain(|_, v| {
            *v = v.saturating_sub(d);
            *v > 0
        });
    }

    /// The (under)estimate for `item`; `0` when absent.
    pub fn estimate(&self, item: ItemId) -> u64 {
        self.entries.get(&item).copied().unwrap_or(0)
    }

    /// The guaranteed deficit bound of this summary: `⌊V/(c+1)⌋`.
    pub fn error_bound(&self) -> u64 {
        self.weight / (self.capacity as u64 + 1)
    }

    /// Total summarized weight `V` (exact).
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Counter capacity `c`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live counters (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no counter is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The live counters, ascending by item id.
    pub fn entries(&self) -> impl Iterator<Item = (ItemId, u64)> + '_ {
        self.entries.iter().map(|(&k, &v)| (k, v))
    }
}

impl Aggregate for SpaceSaving {
    /// Associative only up to the ε bound (the prune points differ), so
    /// the engine merges in a canonical order.
    type Fold = Ascending<Self>;

    /// Pointwise counter sum, then one prune. Exactly commutative.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ — summaries of different precision
    /// have incomparable guarantees.
    fn merge(&mut self, other: &SpaceSaving) {
        assert_eq!(
            self.capacity, other.capacity,
            "merging summaries of different capacities"
        );
        for (&item, &v) in &other.entries {
            *self.entries.entry(item).or_insert(0) += v;
        }
        self.weight += other.weight;
        self.prune();
    }

    /// Paper-priced: one `(s_i, s_a)` pair per counter plus `s_a` for the
    /// total weight.
    fn encoded_bytes(&self, sizes: &WireSizes) -> u64 {
        self.entries.len() as u64 * sizes.pair() + sizes.sa
    }
}

/// Tuning of the sketch-merge engine.
#[derive(Debug, Clone)]
pub struct SketchConfig {
    /// Counters per summary (`c`). Larger is more accurate and costs more
    /// bytes per hop — the approx-sweep axis.
    pub capacity: usize,
    /// The error the engine *claims*: the root admits items with
    /// `est + ⌈ε·V⌉ ≥ t`. Honest when ≥ `1/(capacity+1)`; the simcheck
    /// `epsilon-bound` oracle exists to catch dishonest claims.
    pub claimed_epsilon: f64,
    /// The IFI threshold.
    pub threshold: Threshold,
    /// Wire widths for byte pricing.
    pub sizes: WireSizes,
}

impl SketchConfig {
    /// An honestly-claimed config at the given capacity.
    pub fn new(capacity: usize) -> Self {
        SketchConfig {
            capacity,
            claimed_epsilon: 1.0 / (capacity as f64 + 1.0),
            threshold: Threshold::Ratio(0.01),
            sizes: WireSizes::default(),
        }
    }

    /// Overrides the claimed ε (for negative-path tests: claiming tighter
    /// than `1/(c+1)` is a bug the oracle must catch).
    pub fn with_claimed_epsilon(mut self, epsilon: f64) -> Self {
        self.claimed_epsilon = epsilon;
        self
    }

    /// Overrides the threshold.
    pub fn with_threshold(mut self, threshold: Threshold) -> Self {
        self.threshold = threshold;
        self
    }

    /// The absolute error the claim allows at total weight `v`: `⌈ε·V⌉`.
    pub fn claimed_bound(&self, total_weight: u64) -> u64 {
        (self.claimed_epsilon * total_weight as f64).ceil() as u64
    }
}

/// The root's answer: the claimed superset of the frequent items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchAnswer {
    /// Items with `est + bound ≥ t`, with their (under)estimates,
    /// descending by estimate then ascending by id.
    pub items: Vec<(ItemId, u64)>,
    /// Total weight `V` the root's summary covers (exact).
    pub weight: u64,
    /// The absolute error bound the claim translates to: `⌈ε·V⌉`.
    pub error_bound: u64,
    /// The resolved absolute threshold.
    pub threshold: u64,
}

impl OnePass for SketchConfig {
    type Value = SpaceSaving;
    type Finish = SketchFinish;

    fn sizes(&self) -> WireSizes {
        self.sizes
    }

    fn local(&self, items: &[(ItemId, u64)]) -> SpaceSaving {
        SpaceSaving::from_items(self.capacity, items)
    }

    fn finisher(&self, data: &SystemData) -> SketchFinish {
        SketchFinish {
            claimed_epsilon: self.claimed_epsilon,
            threshold: self.threshold.resolve(data.total_value()),
        }
    }
}

/// The root's side of the sketch-merge engine: every item whose estimate
/// is within the claimed error of the resolved threshold.
#[derive(Debug, Clone)]
pub struct SketchFinish {
    claimed_epsilon: f64,
    threshold: u64,
}

impl Finish<SpaceSaving> for SketchFinish {
    type Output = SketchAnswer;
    const CLASS: MsgClass = MsgClass::SKETCH;

    /// Summaries of different precision have incomparable guarantees.
    fn fits(mine: &SpaceSaving, report: &SpaceSaving) -> bool {
        mine.capacity == report.capacity
    }

    fn finish(&self, acc: SpaceSaving) -> SketchAnswer {
        let bound = (self.claimed_epsilon * acc.weight() as f64).ceil() as u64;
        let mut items: Vec<(ItemId, u64)> = acc
            .entries()
            .filter(|&(_, est)| est + bound >= self.threshold)
            .collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        SketchAnswer {
            items,
            weight: acc.weight(),
            error_bound: bound,
            threshold: self.threshold,
        }
    }
}

/// The sans-io sketch-merge engine core for one peer: summarize locally,
/// merge children (ascending id), forward or answer.
pub type SketchProtocol = ConvergecastProtocol<SpaceSaving, SketchFinish>;

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_hierarchy::Hierarchy;
    use ifi_sim::{sansio_world, FaultPlan, PeerId, RelConfig, ReliableMsg, SimConfig};
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn workload(seed: u64) -> (Hierarchy, SystemData, GroundTruth) {
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: 40,
                items: 800,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        );
        let truth = GroundTruth::compute(&data);
        (Hierarchy::balanced(40, 3), data, truth)
    }

    #[test]
    fn summary_respects_the_deficit_bound() {
        let items: Vec<(ItemId, u64)> = (0..200).map(|i| (ItemId(i), 1 + i % 17)).collect();
        let s = SpaceSaving::from_items(8, &items);
        let total: u64 = items.iter().map(|&(_, v)| v).sum();
        assert_eq!(s.weight(), total);
        assert!(s.len() <= 8);
        for &(item, v) in &items {
            let est = s.estimate(item);
            assert!(est <= v, "overestimate for {item:?}");
            assert!(
                est + s.error_bound() >= v,
                "deficit beyond bound for {item:?}: est {est}, v {v}"
            );
        }
    }

    #[test]
    fn merge_is_exactly_commutative() {
        let a = SpaceSaving::from_items(6, &[(ItemId(1), 50), (ItemId(2), 9), (ItemId(3), 4)]);
        let b =
            SpaceSaving::from_items(6, &(0..30).map(|i| (ItemId(i), i + 1)).collect::<Vec<_>>());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merged_summary_keeps_the_combined_bound() {
        let left: Vec<(ItemId, u64)> = (0..100).map(|i| (ItemId(i), 3)).collect();
        let right: Vec<(ItemId, u64)> = (50..150).map(|i| (ItemId(i), 5)).collect();
        let mut merged = SpaceSaving::from_items(10, &left);
        merged.merge(&SpaceSaving::from_items(10, &right));
        let mut exact: BTreeMap<ItemId, u64> = BTreeMap::new();
        for &(i, v) in left.iter().chain(&right) {
            *exact.entry(i).or_insert(0) += v;
        }
        for (&item, &v) in &exact {
            assert!(merged.estimate(item) <= v);
            assert!(merged.estimate(item) + merged.error_bound() >= v);
        }
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn mixed_capacity_merge_panics() {
        let mut a = SpaceSaving::new(4);
        a.merge(&SpaceSaving::new(5));
    }

    #[test]
    fn engine_never_misses_a_frequent_item() {
        let (h, data, truth) = workload(11);
        let cfg = SketchConfig::new(32);
        let mut w = sansio_world(
            SimConfig::default().with_seed(2),
            SketchProtocol::peers(&cfg, &h, &data, None),
        );
        w.start();
        w.run_to_quiescence();
        let answer = w.peer(h.root()).result().expect("root must answer").clone();
        let t = answer.threshold;
        assert_eq!(answer.weight, data.total_value(), "weight stays exact");
        let reported: Vec<ItemId> = answer.items.iter().map(|&(i, _)| i).collect();
        for (item, v) in truth.frequent_items(t) {
            assert!(
                reported.contains(&item),
                "frequent {item:?} (v = {v}) missing from the sketch answer"
            );
        }
        // Every estimate honors the two-sided claim.
        for &(item, est) in &answer.items {
            let v = truth.value_of(item);
            assert!(est <= v);
            assert!(est + answer.error_bound >= v);
        }
    }

    #[test]
    fn lossy_reliable_run_matches_the_clean_answer() {
        let (h, data, _) = workload(13);
        let cfg = SketchConfig::new(16);
        let mut clean = sansio_world(
            SimConfig::default(),
            SketchProtocol::peers(&cfg, &h, &data, None),
        );
        clean.start();
        clean.run_to_quiescence();
        let want = clean.peer(h.root()).result().expect("clean answer").clone();

        let sim = SimConfig::default()
            .with_seed(9)
            .with_faults(FaultPlan::none().with_drop(0.15).with_duplication(0.1));
        let mut lossy = sansio_world(
            sim,
            SketchProtocol::peers(&cfg, &h, &data, Some(RelConfig::default())),
        );
        lossy.start();
        lossy.run_to_quiescence();
        let got = lossy.peer(h.root()).result().expect("lossy answer").clone();
        assert_eq!(got, want, "loss must not change the canonical answer");
    }

    #[test]
    fn summary_of_another_capacity_warns_and_drops_instead_of_panicking() {
        let (h, data, _) = workload(19);
        let cfg = SketchConfig::new(8);
        let mut w = sansio_world(
            SimConfig::default(),
            SketchProtocol::peers(&cfg, &h, &data, None),
        );
        w.enable_metrics_sink();
        // Decodes cleanly and comes from a real child; merging it used to
        // take the root down. Injected before `start`, it arrives one hop
        // in: after the root's `Start`, ahead of the child's genuine one.
        let forged = ReliableMsg::Plain(SpaceSaving::new(9));
        w.inject(PeerId::new(1), h.root(), forged, 0, MsgClass::DATA);
        w.start();
        w.run_to_quiescence();
        assert_eq!(
            w.metrics_report().warnings,
            [("malformed-report".to_string(), 1)]
        );
        let answer = w.peer(h.root()).result().expect("root still answers");
        assert_eq!(answer.weight, data.total_value(), "genuine reports merged");
    }

    #[test]
    fn non_root_forwards_exactly_one_summary() {
        let (h, data, _) = workload(17);
        let cfg = SketchConfig::new(8);
        let mut w = sansio_world(
            SimConfig::default(),
            SketchProtocol::peers(&cfg, &h, &data, None),
        );
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();
        let m = w.metrics();
        // Every member except the root sends exactly one SKETCH frame.
        let mut senders = 0;
        for i in 0..data.peer_count() {
            let sent = m.peer_class(PeerId::new(i), MsgClass::SKETCH).messages;
            assert!(sent <= 1, "peer {i} sent {sent} summaries");
            senders += sent;
        }
        assert_eq!(senders, data.peer_count() as u64 - 1);
        assert_eq!(m.class_bytes(MsgClass::RETRANSMIT), 0, "plain mode is free");
    }
}
