//! Top-k IFI by threshold-algorithm pruning — the second member of the
//! approximate engine family (ROADMAP item 4).
//!
//! *Reducing Network Traffic in Unstructured P2P Systems Using Top-k
//! Queries* (Akbarinia et al., PAPERS.md) bounds top-k traffic by shipping
//! **pruned candidate lists with partial-sum bounds** instead of whole item
//! sets — the TPUT/threshold-algorithm family. This module is that idea on
//! the paper's stable-peer hierarchy, replacing the seed's exponential
//! threshold-probe search (O(log v) full netFilter runs per query) with a
//! single two-phase protocol:
//!
//! 1. **Candidate convergecast**: every node ships its [`CandidateList`] —
//!    at most `prune_cap` entries carrying `(lower, upper)` partial-sum
//!    bounds plus `tau`, an upper bound on every *absent* item. Lists merge
//!    bound-soundly (lower bounds add; upper bounds add, substituting `tau`
//!    for missing entries) and re-prune to `prune_cap` by descending lower
//!    bound, folding dropped uppers into `tau`. Merges happen in canonical
//!    ascending-`PeerId` order so the candidate choice is
//!    schedule-independent.
//! 2. **Exact verification**: the root picks the `k` best lower bounds as
//!    candidates, disseminates their ids down the tree, and an exact
//!    restricted convergecast returns their true global values.
//!
//! The answer is **certified** — provably equal to the true top-k — when
//! either nothing was ever pruned (`tau = 0` everywhere) or every
//! candidate's exact value strictly exceeds the best possible
//! non-candidate (`max(tau, pruned uppers)` at the root). The simcheck
//! `topk-recall` oracle cross-checks the returned set against ground truth
//! on every explored schedule; the property suite in `tests/extensions.rs`
//! checks that certified answers equal the oracle prefix exactly — pruning
//! never silently drops a true top-k item.

use std::collections::BTreeMap;

use ifi_agg::{Aggregate, Ascending, Boot, Convergecast, MapSum, TreeSlot};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    sansio_world, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId, RelConfig,
    ReliableMsg, RetransmitTimer, SansIo, SimConfig, SimTime,
};
use ifi_workload::{ItemId, SystemData};

use crate::WireSizes;

/// One candidate entry: partial-sum bounds for an item over the subtree a
/// list covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Sum of the lower bounds seen — never exceeds the true subtree value.
    pub lower: u64,
    /// Upper bound on the true subtree value.
    pub upper: u64,
}

/// A pruned candidate list: bounded entries plus `tau`, an upper bound on
/// the subtree value of every item *not* listed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateList {
    cap: usize,
    entries: BTreeMap<ItemId, Bounds>,
    tau: u64,
    /// Whether this list is lossless: no entry was ever pruned anywhere in
    /// the covered subtree, so `entries` is the complete exact value map.
    exact: bool,
}

impl CandidateList {
    /// Summarizes a local item set: the `cap` largest values exactly, the
    /// rest folded into `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn from_items(cap: usize, items: &[(ItemId, u64)]) -> Self {
        assert!(cap > 0, "a zero-capacity candidate list holds nothing");
        let mut exact_map: BTreeMap<ItemId, u64> = BTreeMap::new();
        for &(item, v) in items {
            *exact_map.entry(item).or_insert(0) += v;
        }
        let mut list = CandidateList {
            cap,
            entries: exact_map
                .into_iter()
                .map(|(item, v)| (item, Bounds { lower: v, upper: v }))
                .collect(),
            tau: 0,
            exact: true,
        };
        list.prune();
        list
    }

    /// Restores the capacity invariant: keeps the `cap` best entries by
    /// descending lower bound (ties to the smaller id) and folds the
    /// dropped entries' uppers into `tau`.
    fn prune(&mut self) {
        if self.entries.len() <= self.cap {
            return;
        }
        let mut order: Vec<(ItemId, Bounds)> = self.entries.iter().map(|(&i, &b)| (i, b)).collect();
        order.sort_by(|a, b| b.1.lower.cmp(&a.1.lower).then(a.0.cmp(&b.0)));
        for &(item, bounds) in &order[self.cap..] {
            self.entries.remove(&item);
            self.tau = self.tau.max(bounds.upper);
        }
        self.exact = false;
    }

    /// The bounds for `item`, if listed.
    pub fn bounds(&self, item: ItemId) -> Option<Bounds> {
        self.entries.get(&item).copied()
    }

    /// Upper bound on every unlisted item.
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// Whether the list is provably complete and exact.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Number of listed candidates (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no candidate is listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Listed candidates, ascending by item id.
    pub fn entries(&self) -> impl Iterator<Item = (ItemId, Bounds)> + '_ {
        self.entries.iter().map(|(&i, &b)| (i, b))
    }

    /// The `n` best listed candidates by descending lower bound (ties to
    /// the smaller id) — the same comparator ground truth uses on exact
    /// values, so lossless lists reproduce the oracle prefix.
    pub fn best(&self, n: usize) -> Vec<ItemId> {
        let mut order: Vec<(ItemId, Bounds)> = self.entries.iter().map(|(&i, &b)| (i, b)).collect();
        order.sort_by(|a, b| b.1.lower.cmp(&a.1.lower).then(a.0.cmp(&b.0)));
        order.truncate(n);
        order.into_iter().map(|(i, _)| i).collect()
    }
}

impl Aggregate for CandidateList {
    /// Re-pruning after each merge makes the result order-dependent; the
    /// engine fixes the order so the candidate choice is not a function of
    /// message timing.
    type Fold = Ascending<Self>;

    /// Merges `other` into `self`, bound-soundly: lowers add (absent = 0),
    /// uppers add with `tau` substituted for absent entries, and the
    /// result re-prunes to capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    fn merge(&mut self, other: &CandidateList) {
        assert_eq!(
            self.cap, other.cap,
            "merging candidate lists of different capacities"
        );
        let mut merged: BTreeMap<ItemId, Bounds> = BTreeMap::new();
        for (&item, &a) in &self.entries {
            let b = other.entries.get(&item);
            merged.insert(
                item,
                Bounds {
                    lower: a.lower + b.map_or(0, |b| b.lower),
                    upper: a.upper + b.map_or(other.tau, |b| b.upper),
                },
            );
        }
        for (&item, &b) in &other.entries {
            merged.entry(item).or_insert(Bounds {
                lower: b.lower,
                upper: self.tau + b.upper,
            });
        }
        self.entries = merged;
        self.tau += other.tau;
        self.exact = self.exact && other.exact;
        self.prune();
    }

    /// Paper-priced: `(s_i + 2·s_a)` per entry (id, lower, upper) plus
    /// `s_a` for `tau`.
    fn encoded_bytes(&self, sizes: &WireSizes) -> u64 {
        self.entries.len() as u64 * (sizes.si + 2 * sizes.sa) + sizes.sa
    }
}

/// Tuning of the top-k engine.
#[derive(Debug, Clone)]
pub struct TopKConfig {
    /// How many items to return.
    pub k: usize,
    /// Candidate-list capacity per hop. Larger prunes less (more bytes,
    /// more certain); must be ≥ `k` for a full candidate slate.
    pub prune_cap: usize,
    /// Wire widths for byte pricing.
    pub sizes: WireSizes,
}

impl TopKConfig {
    /// A pragmatic default: prune to `4·k` candidates per hop.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-0 is the empty query");
        TopKConfig {
            k,
            prune_cap: 4 * k,
            sizes: WireSizes::default(),
        }
    }

    /// A lossless configuration: nothing is ever pruned, so the answer is
    /// always certified-exact (at whole-item-set cost — the upper end of
    /// the accuracy-vs-bytes sweep).
    pub fn lossless(k: usize) -> Self {
        TopKConfig {
            prune_cap: usize::MAX,
            ..TopKConfig::new(k)
        }
    }

    /// Overrides the prune capacity (for negative-path tests: a capacity
    /// below `k` cannot even field a full candidate slate).
    pub fn with_prune_cap(mut self, prune_cap: usize) -> Self {
        self.prune_cap = prune_cap;
        self
    }
}

/// The root's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKAnswer {
    /// The returned items with **exact** global values, descending by
    /// value then ascending by id; at most `k`.
    pub items: Vec<(ItemId, u64)>,
    /// Whether the returned set provably equals the true top-k.
    pub certified: bool,
    /// The `k` requested.
    pub k: usize,
    /// Candidates verified in phase 2.
    pub candidates: usize,
}

/// Wire messages of the top-k engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopKMsg {
    /// Phase 1, rootward: a subtree's pruned candidate list.
    Candidates(CandidateList),
    /// Phase 2, leafward: the root's chosen candidate ids.
    Query(Vec<ItemId>),
    /// Phase 2, rootward: exact subtree sums restricted to the query.
    Values(Vec<(ItemId, u64)>),
}

/// The sans-io top-k engine core for one peer.
#[derive(Debug, Clone)]
pub struct TopKProtocol {
    k: usize,
    sizes: WireSizes,
    slot: TreeSlot,
    local_items: Vec<(ItemId, u64)>,
    /// Phase 1, open from construction with the local list.
    lists: Convergecast<CandidateList, 1>,
    /// The query this node forwarded; set when phase 2 opens.
    query: Option<Vec<ItemId>>,
    /// Phase 2: exact sums restricted to the query.
    sums: Convergecast<MapSum, 2>,
    /// Root only: the strongest possible non-candidate value, from the
    /// phase-1 bounds — the certification bar.
    noncandidate_bound: u64,
    /// Root only: phase 1 proved the candidate list lossless.
    root_exact: bool,
    answer: Option<TopKAnswer>,
    env: Envelope<TopKMsg>,
}

impl TopKProtocol {
    /// Creates the state for `peer`.
    pub fn new(
        config: &TopKConfig,
        hierarchy: &Hierarchy,
        peer: PeerId,
        local_items: Vec<(ItemId, u64)>,
    ) -> Self {
        let mut lists = Convergecast::default();
        lists.open(CandidateList::from_items(config.prune_cap, &local_items));
        TopKProtocol {
            k: config.k,
            sizes: config.sizes,
            slot: TreeSlot::new(hierarchy, peer),
            local_items,
            lists,
            query: None,
            sums: Convergecast::default(),
            noncandidate_bound: 0,
            root_exact: false,
            answer: None,
            env: Envelope::plain(),
        }
    }

    /// Enables the ack/retransmit envelope with the given tuning.
    pub fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.env = Envelope::reliable(cfg);
        self
    }

    /// The root's answer, once both phases complete.
    pub fn result(&self) -> Option<&TopKAnswer> {
        self.answer.as_ref()
    }

    /// The peer population as bare cores for any driver; `rel` turns the
    /// ack/retransmit envelope on every peer.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy and data universes differ.
    pub fn peers(
        config: &TopKConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        rel: Option<RelConfig>,
    ) -> Vec<TopKProtocol> {
        assert_eq!(
            hierarchy.universe(),
            data.peer_count(),
            "hierarchy and data peer universes differ"
        );
        (0..data.peer_count())
            .map(|i| {
                let p = PeerId::new(i);
                let core = TopKProtocol::new(config, hierarchy, p, data.local_items(p).to_vec());
                match &rel {
                    None => core,
                    Some(cfg) => core.with_reliability(cfg.clone()),
                }
            })
            .collect()
    }

    /// Completes phase 1 once every child list arrived: forward the merged
    /// list rootward or (at the root) open phase 2.
    fn maybe_complete_p1(&mut self, fx: &mut Effects<Self>) {
        let Some(acc) = self.lists.complete(&self.slot) else {
            return;
        };
        if let Some(parent) = self.slot.parent() {
            let bytes = acc.encoded_bytes(&self.sizes);
            let list = TopKMsg::Candidates(acc);
            return self
                .env
                .send_retained(fx, parent, list, bytes, MsgClass::TOPK);
        }
        // Root: choose the k best lower bounds; everything else (listed or
        // pruned) is bounded by `noncandidate_bound`.
        let chosen = acc.best(self.k);
        self.root_exact = acc.is_exact();
        self.noncandidate_bound = acc
            .entries()
            .filter(|(item, _)| !chosen.contains(item))
            .map(|(_, b)| b.upper)
            .fold(acc.tau(), u64::max);
        self.begin_p2(fx, chosen);
    }

    /// Installs the query at this node and pushes it down the tree.
    fn begin_p2(&mut self, fx: &mut Effects<Self>, ids: Vec<ItemId>) {
        if ids.is_empty() && self.slot.is_root() {
            // Nothing to verify anywhere: answer straight away.
            self.query = Some(Vec::new());
            return self.deliver_answer(fx, MapSum::default());
        }
        let asked = self
            .local_items
            .iter()
            .filter(|(item, _)| ids.contains(item));
        self.sums.open(MapSum::from_pairs(asked.copied()));
        let bytes = ids.len() as u64 * self.sizes.si;
        for child in self.slot.children() {
            let query = TopKMsg::Query(ids.clone());
            self.env
                .send_retained(fx, child, query, bytes, MsgClass::TOPK);
        }
        self.query = Some(ids);
        self.maybe_complete_p2(fx);
    }

    /// Completes phase 2 once every child's exact sums arrived.
    fn maybe_complete_p2(&mut self, fx: &mut Effects<Self>) {
        let Some(acc) = self.sums.complete(&self.slot) else {
            return;
        };
        match self.slot.parent() {
            None => self.deliver_answer(fx, acc),
            Some(parent) => {
                let bytes = acc.encoded_bytes(&self.sizes);
                let vals = TopKMsg::Values(acc.0.into_iter().collect());
                self.env
                    .send_retained(fx, parent, vals, bytes, MsgClass::TOPK);
            }
        }
    }

    fn deliver_answer(&mut self, fx: &mut Effects<Self>, sums: MapSum) {
        let candidates = self.query.as_ref().map_or(0, Vec::len);
        let mut items: Vec<(ItemId, u64)> = sums.0.into_iter().filter(|&(_, v)| v > 0).collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        items.truncate(self.k);
        // Certified when phase 1 was lossless (the candidate choice *is*
        // the oracle prefix), or when a full slate of k candidates all
        // strictly beat the best possible non-candidate.
        let certified = self.root_exact
            || (candidates >= self.k
                && items.len() == self.k
                && items
                    .last()
                    .is_some_and(|&(_, v)| v > self.noncandidate_bound));
        let answer = TopKAnswer {
            items,
            certified,
            k: self.k,
            candidates,
        };
        self.answer = Some(answer.clone());
        fx.deliver(answer);
    }

    /// Handles a deduplicated payload. Every arm is idempotent: duplicate,
    /// replayed, misdirected, or malformed messages warn and drop, never
    /// merge twice.
    fn on_payload(&mut self, fx: &mut Effects<Self>, from: PeerId, msg: TopKMsg) {
        let absorbed = match msg {
            TopKMsg::Candidates(list) => {
                let same_cap = |mine: &CandidateList, l: &CandidateList| mine.cap == l.cap;
                self.lists.absorb(&mut self.slot, from, list, same_cap)
            }
            TopKMsg::Query(_) if self.slot.parent() != Some(from) => Err("unexpected-sender"),
            TopKMsg::Query(_) if self.query.is_some() => Err("duplicate-query"),
            TopKMsg::Query(ids) => {
                self.begin_p2(fx, ids);
                Ok(())
            }
            TopKMsg::Values(vals) => {
                // A child can only hold the query this node forwarded: an
                // id outside it must not reach a certified answer.
                let query = self.query.as_deref().unwrap_or_default();
                let asked = |_: &MapSum, sums: &MapSum| sums.0.keys().all(|i| query.contains(i));
                let sums = MapSum::from_pairs(vals);
                self.sums.absorb(&mut self.slot, from, sums, asked)
            }
        };
        match absorbed {
            // Whichever phase the message was the last piece of: a phase
            // that is not ready, or already fired, stays silent.
            Ok(()) => {
                self.maybe_complete_p1(fx);
                self.maybe_complete_p2(fx);
            }
            Err(warn) => fx.warn(warn),
        }
    }
}

impl SansIo for TopKProtocol {
    type Msg = ReliableMsg<TopKMsg>;
    type Timer = RetransmitTimer;
    type Output = TopKAnswer;

    fn on_event(
        &mut self,
        ev: NodeEvent<Self::Msg, Self::Timer>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => match self.slot.boot() {
                Boot::Outsider => {}
                Boot::Revival => self.env.revive(fx),
                Boot::First => self.maybe_complete_p1(fx),
            },
            NodeEvent::Message { from, msg } => {
                if let Some(payload) = self.env.on_frame(fx, from, msg) {
                    self.on_payload(fx, from, payload);
                }
            }
            NodeEvent::Timer { tag } => {
                if self.env.on_retransmit(fx, tag).is_some() {
                    fx.warn("retransmit-gave-up");
                }
            }
        }
    }
}

/// Result of an instant (DES-backed) top-k query — the convenience shape
/// `examples/` and the property suites consume.
#[derive(Debug, Clone)]
pub struct TopKRun {
    /// The returned items with exact global values (descending; ties by
    /// ascending id), at most `k`.
    pub items: Vec<(ItemId, u64)>,
    /// Whether the set is provably the true top-k.
    pub certified: bool,
    /// Candidates verified in phase 2.
    pub candidates: usize,
    /// Total bytes across both phases.
    pub total_bytes: u64,
}

impl TopKRun {
    /// The paper's metric.
    pub fn avg_bytes_per_peer(&self, peers: usize) -> f64 {
        self.total_bytes as f64 / peers.max(1) as f64
    }
}

/// Finds the top-`k` items by global value in one DES run of
/// [`TopKProtocol`].
///
/// # Panics
///
/// Panics if the hierarchy and data universes differ.
pub fn top_k(hierarchy: &Hierarchy, data: &SystemData, k: usize, config: &TopKConfig) -> TopKRun {
    let config = TopKConfig {
        k,
        ..config.clone()
    };
    let mut w = sansio_world(
        SimConfig::default(),
        TopKProtocol::peers(&config, hierarchy, data, None),
    );
    w.start();
    w.run_to_quiescence();
    let answer = w
        .peer(hierarchy.root())
        .result()
        .expect("quiescent top-k run must answer")
        .clone();
    TopKRun {
        items: answer.items,
        certified: answer.certified,
        candidates: answer.candidates,
        total_bytes: w.metrics().total_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_sim::FaultPlan;
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn setup(seed: u64) -> (Hierarchy, SystemData, GroundTruth) {
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: 50,
                items: 2_000,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        );
        let truth = GroundTruth::compute(&data);
        (Hierarchy::balanced(50, 3), data, truth)
    }

    #[test]
    fn lossless_matches_the_oracle_top_k() {
        let (h, data, truth) = setup(301);
        for k in [1usize, 5, 20, 100] {
            let run = top_k(&h, &data, k, &TopKConfig::lossless(k));
            let expect: Vec<(ItemId, u64)> = truth.globals().iter().copied().take(k).collect();
            assert_eq!(run.items, expect, "k = {k}");
            assert!(run.certified, "lossless run must certify (k = {k})");
        }
    }

    #[test]
    fn pruned_certified_answers_equal_the_oracle() {
        let (h, data, truth) = setup(303);
        let k = 10;
        // A cap comfortably above the per-peer distinct count (~400 here)
        // keeps local lists exact; only upper-tree merges prune, so `tau`
        // stays far below the Zipf head and the answer certifies.
        let run = top_k(&h, &data, k, &TopKConfig::new(k).with_prune_cap(512));
        let expect: Vec<(ItemId, u64)> = truth.globals().iter().copied().take(k).collect();
        assert!(
            run.certified,
            "a 512-entry slate should certify the Zipf head"
        );
        assert_eq!(run.items, expect);
        // And pruning actually saved bytes over the lossless run.
        let lossless = top_k(&h, &data, k, &TopKConfig::lossless(k));
        assert!(run.total_bytes < lossless.total_bytes);
    }

    #[test]
    fn starved_prune_cap_degrades_honestly() {
        let (h, data, truth) = setup(305);
        let k = 8;
        let run = top_k(&h, &data, k, &TopKConfig::new(k).with_prune_cap(1));
        assert!(!run.certified, "a one-entry slate cannot certify an 8-set");
        // Values returned are still exact for whatever was returned.
        for &(item, v) in &run.items {
            assert_eq!(v, truth.value_of(item));
        }
    }

    #[test]
    fn k_beyond_distinct_items_returns_everything() {
        let data = SystemData::from_local_sets(
            vec![vec![(ItemId(1), 5), (ItemId(2), 3)], vec![(ItemId(3), 1)]],
            10,
        );
        let h = Hierarchy::balanced(2, 2);
        let run = top_k(&h, &data, 50, &TopKConfig::lossless(50));
        assert_eq!(
            run.items,
            vec![(ItemId(1), 5), (ItemId(2), 3), (ItemId(3), 1)]
        );
        assert!(run.certified);
    }

    #[test]
    fn empty_system_returns_empty() {
        let data = SystemData::from_local_sets(vec![vec![], vec![]], 5);
        let h = Hierarchy::balanced(2, 2);
        let run = top_k(&h, &data, 3, &TopKConfig::new(3));
        assert!(run.items.is_empty());
        assert!(run.certified, "an empty system is trivially exact");
    }

    #[test]
    fn lossy_reliable_run_matches_the_clean_answer() {
        let (h, data, _) = setup(307);
        let cfg = TopKConfig::new(12);
        let mut clean = sansio_world(
            SimConfig::default(),
            TopKProtocol::peers(&cfg, &h, &data, None),
        );
        clean.start();
        clean.run_to_quiescence();
        let want = clean.peer(h.root()).result().expect("clean answer").clone();

        let sim = SimConfig::default()
            .with_seed(5)
            .with_faults(FaultPlan::none().with_drop(0.15).with_duplication(0.1));
        let mut lossy = sansio_world(
            sim,
            TopKProtocol::peers(&cfg, &h, &data, Some(RelConfig::default())),
        );
        lossy.start();
        lossy.run_to_quiescence();
        let got = lossy.peer(h.root()).result().expect("lossy answer").clone();
        assert_eq!(got, want, "loss must not change the canonical answer");
    }

    #[test]
    fn malformed_child_reports_warn_and_never_reach_a_certified_answer() {
        use ifi_sim::{AllUp, Effect};

        // Root 0 and its only child 1, driven by hand.
        let h = Hierarchy::balanced(2, 1);
        let cfg = TopKConfig::new(1).with_prune_cap(4);
        let items = |i: u64| vec![(ItemId(i), 5 + i)];
        let mut root = TopKProtocol::new(&cfg, &h, PeerId::new(0), items(0));
        let mut drive = |ev| {
            let mut fx = Effects::new();
            root.on_event(ev, SimTime::ZERO, &AllUp(2), &mut fx);
            fx.drain().collect::<Vec<_>>()
        };
        let child_says = |msg| NodeEvent::Message {
            from: PeerId::new(1),
            msg: ReliableMsg::Plain(msg),
        };
        let warned = |fx: &[Effect<_, _, _>], label| match fx {
            [Effect::Warn { label: l }] => *l == label,
            _ => false,
        };
        assert!(drive(NodeEvent::Start).is_empty(), "child 1 is still out");

        // A list of another capacity used to panic the merge.
        let other_cap = CandidateList::from_items(5, &items(1));
        let fx = drive(child_says(TopKMsg::Candidates(other_cap)));
        assert!(warned(&fx, "malformed-report"), "{fx:?}");
        let list = CandidateList::from_items(4, &items(1));
        let fx = drive(child_says(TopKMsg::Candidates(list)));
        let [Effect::Send { msg, .. }] = &fx[..] else {
            panic!("the root asks its child about the one candidate: {fx:?}");
        };
        assert_eq!(msg, &ReliableMsg::Plain(TopKMsg::Query(vec![ItemId(1)])));

        // Sums for an id the query never named used to land in the answer.
        let fx = drive(child_says(TopKMsg::Values(vec![(ItemId(7), 1_000)])));
        assert!(warned(&fx, "malformed-report"), "{fx:?}");
        let fx = drive(child_says(TopKMsg::Values(vec![(ItemId(1), 6)])));
        let [Effect::Deliver(answer)] = &fx[..] else {
            panic!("the genuine values finish the run: {fx:?}");
        };
        assert_eq!(answer.items, [(ItemId(1), 6)]);
        assert!(answer.certified);
    }

    #[test]
    fn merge_bounds_stay_sound() {
        let a = CandidateList::from_items(3, &[(ItemId(1), 10), (ItemId(2), 8), (ItemId(3), 5)]);
        let b = CandidateList::from_items(
            3,
            &[
                (ItemId(2), 7),
                (ItemId(4), 6),
                (ItemId(5), 4),
                (ItemId(6), 2),
            ],
        );
        let mut m = a.clone();
        m.merge(&b);
        assert!(m.len() <= 3);
        // True combined values.
        let truth = [
            (ItemId(1), 10),
            (ItemId(2), 15),
            (ItemId(3), 5),
            (ItemId(4), 6),
            (ItemId(5), 4),
            (ItemId(6), 2),
        ];
        for (item, v) in truth {
            match m.bounds(item) {
                Some(bounds) => {
                    assert!(bounds.lower <= v, "{item:?}: lower {} > {v}", bounds.lower);
                    assert!(bounds.upper >= v, "{item:?}: upper {} < {v}", bounds.upper);
                }
                None => assert!(m.tau() >= v, "{item:?}: tau {} < {v}", m.tau()),
            }
        }
        assert!(!m.is_exact(), "b dropped an item, so the merge is lossy");
    }

    #[test]
    #[should_panic(expected = "top-0")]
    fn k_zero_panics() {
        let _ = TopKConfig::new(0);
    }
}
