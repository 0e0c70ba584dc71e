//! Continuous standing queries: incremental sliding-window IFI with
//! multi-tenant delta sharing (ROADMAP item 3).
//!
//! The paper's motivating example (footnote 1: songs downloaded more than
//! 10,000 times *in the past week*) is a **standing** query, but
//! [`windowed`](crate::windowed) answers it by re-running full netFilter
//! per window. This module keeps the windowed answer *continuously* fresh
//! without re-aggregating:
//!
//! * every peer runs a [`SlidingWindow`] that advances on an **epoch
//!   fence** timer; at fence `e` it records its epoch-`e` batch, retires
//!   the oldest slice, and convergecasts only the per-epoch **delta** —
//!   signed `(item, diff)` pairs where `diff = batch_e − retired`;
//! * interior nodes buffer per-child contributions and forward exactly
//!   one merged delta per epoch upward, **in ascending epoch order**, only
//!   after their own fence has passed and every child has reported — so a
//!   run sends exactly `members − 1` delta messages per epoch regardless
//!   of scheduling interleavings;
//! * deltas telescope: the root's running sum of certified deltas equals
//!   the exact global window totals, so the standing answer is the answer
//!   a from-scratch windowed netFilter run would give at the same fence
//!   (the simcheck `window-consistency` oracle holds it to exactly that);
//! * each delta carries a contributor census (count + xor digest of
//!   member ids, priced in the FAILOVER class like all census fields);
//!   the root **certifies** an epoch only when the census covers the full
//!   roster, and delivers one [`EpochAnswer`] per certified fence;
//! * a [`QueryRegistry`] multiplexes K standing queries over the **one**
//!   shared delta stream (metered in [`MsgClass::DELTA`]): the root
//!   computes the min-threshold superset once and splits per-query
//!   answers from it like `requests.rs`, charging only the changed rows
//!   of each query's answer to [`MsgClass::STANDING`]. K queries thus
//!   cost exactly 1× the delta stream plus per-query split traffic — the
//!   `≪ K×` sharing claim the continuous-smoke CI lane checks as a
//!   number;
//! * a time-faded variant ([`FadePolicy::Exponential`]) follows the
//!   P2PTFHH line of work: the root reconstructs global per-epoch batch
//!   totals by induction (`B_e = Δ_e + B_{e−(W−1)}`) — costing zero extra
//!   traffic — and weights batch `j` by `(num/den)^(e−j)` in scaled
//!   integer arithmetic, so fade evaluation is an order-independent pure
//!   fold over epoch-keyed contributions (see [`FadedAccumulator`]).

use std::collections::BTreeMap;

use ifi_agg::{Boot, TreeSlot};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    mix64, sansio_world, Des, Duration, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId,
    PeerSet, RelConfig, ReliableMsg, RetransmitTimer, SansIo, SimConfig, SimTime, World,
};
use ifi_workload::{ItemId, SystemData};

use crate::windowed::SlidingWindow;
use crate::WireSizes;

/// How bucket weights decay with age when evaluating standing queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FadePolicy {
    /// No decay: every live bucket weighs 1 (the plain windowed answer).
    None,
    /// P2PTFHH-style exponential decay: a batch aged `a` epochs weighs
    /// `(num/den)^a`, evaluated in scaled integers (weight
    /// `num^a · den^(W−2−a)` against threshold scale `den^(W−2)`), so the
    /// comparison is exact and order-independent.
    Exponential {
        /// Decay numerator (`num ≤ den`).
        num: u64,
        /// Decay denominator (`≥ 1`).
        den: u64,
    },
}

/// One standing query registered at the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandingQuery {
    /// Caller-chosen stable id, echoed in every [`QueryAnswer`].
    pub id: u32,
    /// Absolute windowed (or faded, under a fade policy) threshold `t`.
    pub threshold: u64,
    /// The peer the per-epoch answer rows are streamed to; row traffic is
    /// priced per hop of its hierarchy depth.
    pub subscriber: PeerId,
}

/// The root's multiplexer: K standing queries sharing one delta stream.
#[derive(Debug, Clone, Default)]
pub struct QueryRegistry {
    queries: Vec<StandingQuery>,
}

impl QueryRegistry {
    /// An empty registry (the delta stream still runs; nothing is split).
    pub fn new() -> Self {
        QueryRegistry::default()
    }

    /// A registry holding one query.
    pub fn single(threshold: u64, subscriber: PeerId) -> Self {
        let mut r = QueryRegistry::new();
        r.register(StandingQuery {
            id: 0,
            threshold,
            subscriber,
        });
        r
    }

    /// Registers a standing query.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is zero (every item would qualify) or the
    /// id is already taken.
    pub fn register(&mut self, q: StandingQuery) {
        assert!(q.threshold > 0, "a standing query needs a threshold ≥ 1");
        assert!(
            self.queries.iter().all(|p| p.id != q.id),
            "duplicate query id {}",
            q.id
        );
        self.queries.push(q);
    }

    /// The registered queries, in registration order.
    pub fn queries(&self) -> &[StandingQuery] {
        &self.queries
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether no query is registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The smallest registered threshold — the superset bar the shared
    /// phase-1 split is computed at.
    pub fn min_threshold(&self) -> Option<u64> {
        self.queries.iter().map(|q| q.threshold).min()
    }
}

/// Wire message: one subtree's merged delta for one epoch, with its
/// contributor census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochDelta {
    /// The epoch fence this delta closes.
    pub epoch: u64,
    /// Signed per-item window-total diffs (`batch_e − retired`), zero
    /// entries pruned, sorted by item id.
    pub diffs: Vec<(ItemId, i64)>,
    /// Members of the sending subtree that contributed to this epoch.
    pub census_count: u32,
    /// Xor of `mix64(peer)` over the contributing members.
    pub census_digest: u64,
}

/// Timer tags of the continuous core: the epoch fence plus the reliability
/// envelope's retransmit checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContTimer {
    /// Close the current epoch: record, advance, convergecast the delta.
    Fence,
    /// An [`Envelope`] retransmit check.
    Retransmit(RetransmitTimer),
}

impl From<RetransmitTimer> for ContTimer {
    fn from(t: RetransmitTimer) -> Self {
        ContTimer::Retransmit(t)
    }
}

/// Tuning of the continuous engine.
#[derive(Debug, Clone)]
pub struct ContinuousConfig {
    /// Window size `W` in buckets (≥ 2); after fence `e` the live window
    /// holds the last `W − 1` full batches.
    pub window: usize,
    /// Number of epoch fences each peer runs.
    pub epochs: usize,
    /// Epoch length (sim time under the DES, wall time under the threaded
    /// transport — keep it tens of milliseconds there).
    pub epoch: Duration,
    /// Bucket-weight decay for standing-query evaluation.
    pub fade: FadePolicy,
    /// Wire widths for byte pricing.
    pub sizes: WireSizes,
}

impl ContinuousConfig {
    /// A plain (unfaded) configuration with a 200 ms epoch.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` (a 1-bucket window retires every batch the
    /// moment it closes, so every standing answer would be empty).
    pub fn new(window: usize, epochs: usize) -> Self {
        assert!(window >= 2, "continuous windows need at least 2 buckets");
        ContinuousConfig {
            window,
            epochs,
            epoch: Duration::from_millis(200),
            fade: FadePolicy::None,
            sizes: WireSizes::default(),
        }
    }

    /// Overrides the epoch length.
    pub fn with_epoch(mut self, epoch: Duration) -> Self {
        self.epoch = epoch;
        self
    }

    /// Enables exponential time-fading.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ num ≤ den` (a fade never amplifies old batches).
    pub fn with_fade(mut self, num: u64, den: u64) -> Self {
        assert!(num >= 1 && den >= num, "fade must satisfy 1 ≤ num ≤ den");
        self.fade = FadePolicy::Exponential { num, den };
        self
    }
}

/// One query's rows of a certified epoch answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The [`StandingQuery::id`] this answer belongs to.
    pub query: u32,
    /// The query's threshold.
    pub threshold: u64,
    /// Qualifying items with their **windowed** totals, sorted by value
    /// descending then id ascending. Under a fade policy membership is
    /// decided by the faded value; the reported value stays the windowed
    /// total so answers remain comparable across policies.
    pub items: Vec<(ItemId, u64)>,
}

/// The root's delivery for one certified epoch fence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochAnswer {
    /// The certified epoch.
    pub epoch: u64,
    /// Members whose contributions the census covered (the full roster).
    pub contributors: usize,
    /// Per-query answers, in registry order.
    pub answers: Vec<QueryAnswer>,
}

/// Epoch-keyed contribution store for the time-faded variant.
///
/// Absorbing is a commutative, associative fold — contributions may arrive
/// in any order (late, duplicated epochs merged by addition is the
/// caller's contract: the root only absorbs each reconstructed batch
/// once) and [`FadedAccumulator::faded_scaled`] reads the same value; the
/// `fade_is_order_independent` proptest pins exactly that.
#[derive(Debug, Clone, Default)]
pub struct FadedAccumulator {
    batches: BTreeMap<u64, BTreeMap<ItemId, u64>>,
}

impl FadedAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        FadedAccumulator::default()
    }

    /// Adds `value` of `item` to epoch `epoch`'s batch totals.
    pub fn absorb(&mut self, epoch: u64, item: ItemId, value: u64) {
        if value == 0 {
            return;
        }
        *self
            .batches
            .entry(epoch)
            .or_default()
            .entry(item)
            .or_insert(0) += value;
    }

    /// The reconstructed batch totals for one epoch, if any.
    pub fn batch(&self, epoch: u64) -> Option<&BTreeMap<ItemId, u64>> {
        self.batches.get(&epoch)
    }

    /// Drops every epoch before `lo` (aged out of the window).
    pub fn retain_from(&mut self, lo: u64) {
        self.batches = self.batches.split_off(&lo);
    }

    /// The scaled faded value of `item` at fence `epoch` for a `window`-
    /// bucket window: `Σ_j B_j(item) · num^(epoch−j) · den^(W−2−(epoch−j))`
    /// over the live batches `j ∈ [epoch−(W−2), epoch]`. Compare against
    /// `threshold · den^(W−2)`.
    pub fn faded_scaled(
        &self,
        item: ItemId,
        epoch: u64,
        window: usize,
        num: u64,
        den: u64,
    ) -> u128 {
        let full = (window - 1) as u64; // full batches a live window holds
        let lo = epoch.saturating_sub(full - 1);
        let mut acc: u128 = 0;
        for (&j, batch) in self.batches.range(lo..=epoch) {
            let age = (epoch - j) as u32;
            let weight = (num as u128).pow(age) * (den as u128).pow((full - 1) as u32 - age);
            acc += batch.get(&item).copied().unwrap_or(0) as u128 * weight;
        }
        acc
    }
}

/// Per-epoch merge buffer at one node: its subtree's contributions so far.
#[derive(Debug, Clone, Default)]
struct PendingEpoch {
    diffs: BTreeMap<ItemId, i64>,
    census_count: u32,
    census_digest: u64,
    /// Children whose merged delta already arrived (per-epoch dedup).
    reported: PeerSet,
    /// Whether this node's own fence contribution is merged.
    own_done: bool,
}

/// The sans-io continuous standing-query core for one peer.
#[derive(Debug, Clone)]
pub struct ContinuousProtocol {
    // Static.
    window: usize,
    epochs: usize,
    epoch_len: Duration,
    fade: FadePolicy,
    sizes: WireSizes,
    registry: QueryRegistry,
    /// Hop counts from each registered query's subscriber to the root.
    sub_hops: Vec<u64>,
    me: PeerId,
    slot: TreeSlot,
    members: usize,
    roster_digest: u64,
    /// This peer's per-epoch record batches, pre-loaded.
    schedule: Vec<Vec<(ItemId, u64)>>,
    /// Negative-path toggle: the root ignores retirement (negative) diffs
    /// when updating its standing state, so the standing answer overcounts
    /// once the window fills. Exists so the simcheck `window-consistency`
    /// oracle has a demonstrable bug to catch.
    #[doc(hidden)]
    drop_retirements: bool,
    // Dynamic.
    win: SlidingWindow,
    /// Next local fence index (epochs `< fence` are locally closed).
    fence: usize,
    pending: BTreeMap<u64, PendingEpoch>,
    /// Next epoch to forward upward (interior) or certify (root).
    next_forward: u64,
    env: Envelope<EpochDelta>,
    // Root-only.
    standing: BTreeMap<ItemId, u64>,
    faded: FadedAccumulator,
    prev_answers: Vec<Vec<(ItemId, u64)>>,
    history: Vec<EpochAnswer>,
}

impl ContinuousProtocol {
    /// Creates the state for `peer` with its per-epoch `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy has non-member peers (the census needs the
    /// full roster fencing) or the schedule is longer than the configured
    /// epoch count.
    pub fn new(
        config: &ContinuousConfig,
        hierarchy: &Hierarchy,
        registry: QueryRegistry,
        peer: PeerId,
        schedule: Vec<Vec<(ItemId, u64)>>,
    ) -> Self {
        assert!(config.window >= 2, "continuous windows need ≥ 2 buckets");
        assert_eq!(
            hierarchy.member_count(),
            hierarchy.universe(),
            "the continuous engine needs a full-membership hierarchy"
        );
        assert!(
            schedule.len() <= config.epochs,
            "schedule longer than the configured epoch count"
        );
        if let FadePolicy::Exponential { num, den } = config.fade {
            assert!(num >= 1 && den >= num, "fade must satisfy 1 ≤ num ≤ den");
        }
        let roster_digest = (0..hierarchy.universe())
            .map(|i| mix64(i as u64))
            .fold(0, |acc, d| acc ^ d);
        let sub_hops = registry
            .queries()
            .iter()
            .map(|q| u64::from(hierarchy.depth(q.subscriber).unwrap_or(0)))
            .collect();
        let prev_answers = vec![Vec::new(); registry.len()];
        ContinuousProtocol {
            window: config.window,
            epochs: config.epochs,
            epoch_len: config.epoch,
            fade: config.fade,
            sizes: config.sizes,
            registry,
            sub_hops,
            me: peer,
            slot: TreeSlot::new(hierarchy, peer),
            members: hierarchy.member_count(),
            roster_digest,
            schedule,
            drop_retirements: false,
            win: SlidingWindow::new(config.window),
            fence: 0,
            pending: BTreeMap::new(),
            next_forward: 0,
            env: Envelope::plain(),
            standing: BTreeMap::new(),
            faded: FadedAccumulator::new(),
            prev_answers,
            history: Vec::new(),
        }
    }

    /// Enables the ack/retransmit envelope with the given tuning.
    pub fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.env = Envelope::reliable(cfg);
        self
    }

    /// Enables the retirement-dropping bug (negative-path hook for the
    /// `window-consistency` oracle).
    #[doc(hidden)]
    pub fn with_dropped_retirements(mut self) -> Self {
        self.drop_retirements = true;
        self
    }

    /// Every certified epoch answer so far, oldest first (root only —
    /// other peers never certify).
    pub fn history(&self) -> &[EpochAnswer] {
        &self.history
    }

    /// The root's current standing window totals.
    pub fn standing(&self) -> &BTreeMap<ItemId, u64> {
        &self.standing
    }

    /// Number of epoch fences this peer has locally closed.
    pub fn fences_done(&self) -> usize {
        self.fence
    }

    /// The peer population as bare cores for any driver.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy universe and schedule peer count differ.
    pub fn peers(
        config: &ContinuousConfig,
        hierarchy: &Hierarchy,
        registry: &QueryRegistry,
        schedules: &[Vec<Vec<(ItemId, u64)>>],
        rel: Option<RelConfig>,
    ) -> Vec<ContinuousProtocol> {
        assert_eq!(
            hierarchy.universe(),
            schedules.len(),
            "hierarchy and schedule peer universes differ"
        );
        (0..schedules.len())
            .map(|i| {
                let core = ContinuousProtocol::new(
                    config,
                    hierarchy,
                    registry.clone(),
                    PeerId::new(i),
                    schedules[i].clone(),
                );
                match &rel {
                    None => core,
                    Some(cfg) => core.with_reliability(cfg.clone()),
                }
            })
            .collect()
    }

    /// Builds a ready-to-run world over `hierarchy` and `schedules`.
    pub fn build_world(
        config: &ContinuousConfig,
        hierarchy: &Hierarchy,
        registry: &QueryRegistry,
        schedules: &[Vec<Vec<(ItemId, u64)>>],
        sim: SimConfig,
    ) -> World<Des<ContinuousProtocol>> {
        sansio_world(
            sim,
            Self::peers(config, hierarchy, registry, schedules, None),
        )
    }

    /// Like [`build_world`](Self::build_world) with the ack/retransmit
    /// envelope on every peer.
    pub fn build_world_reliable(
        config: &ContinuousConfig,
        hierarchy: &Hierarchy,
        registry: &QueryRegistry,
        schedules: &[Vec<Vec<(ItemId, u64)>>],
        sim: SimConfig,
        rel: RelConfig,
    ) -> World<Des<ContinuousProtocol>> {
        sansio_world(
            sim,
            Self::peers(config, hierarchy, registry, schedules, Some(rel)),
        )
    }

    /// Closes the current epoch: record the batch, advance the window,
    /// merge the local delta, flush whatever became forwardable.
    fn do_fence(&mut self, fx: &mut Effects<Self>) {
        let e = self.fence as u64;
        let mut batch: BTreeMap<ItemId, u64> = BTreeMap::new();
        if let Some(records) = self.schedule.get(self.fence) {
            for &(item, v) in records {
                self.win.record(item, v);
                *batch.entry(item).or_insert(0) += v;
            }
        }
        let retired = self.win.advance();
        let mut diffs: BTreeMap<ItemId, i64> = BTreeMap::new();
        for (item, v) in batch {
            *diffs.entry(item).or_insert(0) += v as i64;
        }
        for (item, v) in retired {
            *diffs.entry(item).or_insert(0) -= v as i64;
        }
        diffs.retain(|_, v| *v != 0);
        self.fence += 1;
        let own_digest = mix64(self.me.index() as u64);
        self.merge(fx, e, diffs, 1, own_digest, None);
        self.flush(fx);
        if self.fence < self.epochs {
            fx.set_timer(self.epoch_len, ContTimer::Fence);
        }
    }

    /// Merges one contribution (own fence or a child's delta) into the
    /// epoch's pending buffer.
    fn merge(
        &mut self,
        fx: &mut Effects<Self>,
        epoch: u64,
        diffs: BTreeMap<ItemId, i64>,
        count: u32,
        digest: u64,
        from: Option<PeerId>,
    ) {
        let p = self.pending.entry(epoch).or_default();
        match from {
            Some(child) => {
                if !p.reported.insert(child) {
                    fx.warn("duplicate-delta");
                    return;
                }
            }
            None => p.own_done = true,
        }
        for (item, v) in diffs {
            let slot = p.diffs.entry(item).or_insert(0);
            *slot += v;
            if *slot == 0 {
                p.diffs.remove(&item);
            }
        }
        p.census_count += count;
        p.census_digest ^= digest;
    }

    /// Forwards (interior) or certifies (root) every complete epoch at the
    /// head of the in-order queue.
    fn flush(&mut self, fx: &mut Effects<Self>) {
        loop {
            let e = self.next_forward;
            if e >= self.fence as u64 {
                return; // own fence for e hasn't passed yet
            }
            let complete = match self.pending.get(&e) {
                Some(p) => p.own_done && p.reported.len() == self.slot.children().len(),
                None => false,
            };
            if !complete {
                return;
            }
            let p = self.pending.remove(&e).expect("checked above");
            if self.slot.is_root() {
                self.certify(fx, e, p);
            } else {
                self.forward(fx, e, p);
            }
            self.next_forward += 1;
        }
    }

    /// Sends the merged epoch delta to the parent: payload priced in
    /// [`MsgClass::DELTA`], census fields piggybacked in
    /// [`MsgClass::FAILOVER`].
    fn forward(&mut self, fx: &mut Effects<Self>, epoch: u64, p: PendingEpoch) {
        let parent = self.slot.parent().expect("non-root peers have a parent");
        let diffs: Vec<(ItemId, i64)> = p.diffs.into_iter().collect();
        let bytes = self.sizes.si + self.sizes.pair() * diffs.len() as u64;
        let msg = EpochDelta {
            epoch,
            diffs,
            census_count: p.census_count,
            census_digest: p.census_digest,
        };
        self.env
            .send_retained(fx, parent, msg, bytes, MsgClass::DELTA);
        fx.charge(MsgClass::FAILOVER, self.sizes.sa + self.sizes.si);
    }

    /// Certifies one complete epoch at the root: checks the census, folds
    /// the delta into the standing state, splits per-query answers, and
    /// delivers the [`EpochAnswer`].
    fn certify(&mut self, fx: &mut Effects<Self>, epoch: u64, p: PendingEpoch) {
        if p.census_count as usize != self.members || p.census_digest != self.roster_digest {
            fx.warn("census-mismatch");
            return;
        }
        for (&item, &v) in &p.diffs {
            if self.drop_retirements && v < 0 {
                continue;
            }
            let cur = self.standing.get(&item).copied().unwrap_or(0) as i128 + i128::from(v);
            if cur < 0 {
                fx.warn("negative-standing");
            }
            if cur <= 0 {
                self.standing.remove(&item);
            } else {
                self.standing.insert(item, cur as u64);
            }
        }
        if let FadePolicy::Exponential { .. } = self.fade {
            self.reconstruct_batch(fx, epoch, &p.diffs);
        }
        let answers = self.split_answers(fx, epoch);
        let ans = EpochAnswer {
            epoch,
            contributors: p.census_count as usize,
            answers,
        };
        self.history.push(ans.clone());
        fx.deliver(ans);
    }

    /// Root-side batch reconstruction for the faded variant: the global
    /// epoch-`e` batch is `Δ_e + B_{e−(W−1)}` (the retired batch the delta
    /// subtracted), so fading needs zero extra traffic.
    fn reconstruct_batch(
        &mut self,
        fx: &mut Effects<Self>,
        epoch: u64,
        diffs: &BTreeMap<ItemId, i64>,
    ) {
        let full = (self.window - 1) as u64;
        let mut batch: BTreeMap<ItemId, u64> = epoch
            .checked_sub(full)
            .and_then(|j| self.faded.batch(j).cloned())
            .unwrap_or_default();
        for (&item, &v) in diffs {
            if self.drop_retirements && v < 0 {
                continue;
            }
            let cur = batch.get(&item).copied().unwrap_or(0) as i128 + i128::from(v);
            if cur < 0 {
                fx.warn("negative-batch");
            }
            if cur <= 0 {
                batch.remove(&item);
            } else {
                batch.insert(item, cur as u64);
            }
        }
        for (item, v) in batch {
            self.faded.absorb(epoch, item, v);
        }
        self.faded.retain_from(epoch.saturating_sub(full - 1));
    }

    /// Splits the per-query answers from the shared min-threshold superset
    /// and charges each query's changed rows to [`MsgClass::STANDING`].
    fn split_answers(&mut self, fx: &mut Effects<Self>, epoch: u64) -> Vec<QueryAnswer> {
        let Some(min_t) = self.registry.min_threshold() else {
            return Vec::new();
        };
        // The shared superset, computed once: every item any query could
        // report. Under a (non-amplifying) fade the faded value never
        // exceeds the windowed total, so the windowed bar is a superset.
        let mut superset: Vec<(ItemId, u64)> = self
            .standing
            .iter()
            .filter(|&(_, v)| *v >= min_t)
            .map(|(&k, &v)| (k, v))
            .collect();
        superset.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let queries: Vec<StandingQuery> = self.registry.queries().to_vec();
        let mut out = Vec::with_capacity(queries.len());
        for (qi, q) in queries.iter().enumerate() {
            let items: Vec<(ItemId, u64)> = match self.fade {
                FadePolicy::None => superset
                    .iter()
                    .take_while(|&&(_, v)| v >= q.threshold)
                    .copied()
                    .collect(),
                FadePolicy::Exponential { num, den } => {
                    let scale = (den as u128).pow((self.window - 2) as u32);
                    superset
                        .iter()
                        .filter(|&&(item, _)| {
                            self.faded.faded_scaled(item, epoch, self.window, num, den)
                                >= u128::from(q.threshold) * scale
                        })
                        .copied()
                        .collect()
                }
            };
            let changed = changed_rows(&self.prev_answers[qi], &items);
            let bytes = self.sizes.pair() * changed * self.sub_hops[qi];
            if bytes > 0 {
                fx.charge(MsgClass::STANDING, bytes);
            }
            self.prev_answers[qi] = items.clone();
            out.push(QueryAnswer {
                query: q.id,
                threshold: q.threshold,
                items,
            });
        }
        out
    }
}

/// Rows of `new` that differ from `old` plus rows of `old` that vanished —
/// what the root must stream to keep a subscriber's mirror fresh.
fn changed_rows(old: &[(ItemId, u64)], new: &[(ItemId, u64)]) -> u64 {
    let a: BTreeMap<ItemId, u64> = old.iter().copied().collect();
    let b: BTreeMap<ItemId, u64> = new.iter().copied().collect();
    let mut n = 0;
    for (k, v) in &b {
        if a.get(k) != Some(v) {
            n += 1;
        }
    }
    for k in a.keys() {
        if !b.contains_key(k) {
            n += 1;
        }
    }
    n
}

impl SansIo for ContinuousProtocol {
    type Msg = ReliableMsg<EpochDelta>;
    type Timer = ContTimer;
    type Output = EpochAnswer;

    fn on_event(
        &mut self,
        ev: NodeEvent<Self::Msg, Self::Timer>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => {
                // A revival restores delivery guarantees, then resumes the
                // fence cadence the crash's lost timer broke.
                if self.slot.boot() == Boot::Revival {
                    self.env.revive(fx);
                }
                if self.fence < self.epochs {
                    fx.set_timer(self.epoch_len, ContTimer::Fence);
                }
            }
            NodeEvent::Message { from, msg } => {
                let Some(delta) = self.env.on_frame(fx, from, msg) else {
                    return;
                };
                if let Err(warn) = self.slot.child(from) {
                    return fx.warn(warn);
                }
                if delta.epoch >= self.epochs as u64 {
                    fx.warn("epoch-out-of-range");
                    return;
                }
                if delta.epoch < self.next_forward {
                    fx.warn("stale-delta");
                    return;
                }
                let diffs: BTreeMap<ItemId, i64> = delta.diffs.into_iter().collect();
                self.merge(
                    fx,
                    delta.epoch,
                    diffs,
                    delta.census_count,
                    delta.census_digest,
                    Some(from),
                );
                self.flush(fx);
            }
            NodeEvent::Timer { tag } => match tag {
                ContTimer::Fence => self.do_fence(fx),
                ContTimer::Retransmit(rt) => {
                    // Each epoch's delta goes up once; no later one repairs it.
                    if self.env.on_retransmit(fx, rt).is_some() {
                        fx.warn("retransmit-gave-up");
                    }
                }
            },
        }
    }
}

/// Splits each peer's static local items of `data` round-robin across
/// `epochs` per-epoch record batches — a deterministic way to turn a
/// one-shot workload into a continuous one.
///
/// # Panics
///
/// Panics if `epochs == 0`.
pub fn schedule_from_data(data: &SystemData, epochs: usize) -> Vec<Vec<Vec<(ItemId, u64)>>> {
    assert!(epochs > 0, "need at least one epoch");
    (0..data.peer_count())
        .map(|i| {
            let mut per: Vec<Vec<(ItemId, u64)>> = vec![Vec::new(); epochs];
            for (j, &(item, v)) in data.local_items(PeerId::new(i)).iter().enumerate() {
                per[j % epochs].push((item, v));
            }
            per
        })
        .collect()
}

/// Brute-force global window totals after fence `epoch`: the sum of every
/// peer's batches `j ∈ [epoch−(W−2), epoch]` — the from-scratch aggregation
/// the delta-maintained standing state must equal.
pub fn window_totals_from_scratch(
    schedules: &[Vec<Vec<(ItemId, u64)>>],
    epoch: u64,
    window: usize,
) -> BTreeMap<ItemId, u64> {
    let full = (window - 1) as u64;
    let lo = epoch.saturating_sub(full - 1);
    let mut totals: BTreeMap<ItemId, u64> = BTreeMap::new();
    for schedule in schedules {
        for (j, batch) in schedule.iter().enumerate() {
            let j = j as u64;
            if j >= lo && j <= epoch {
                for &(item, v) in batch {
                    *totals.entry(item).or_insert(0) += v;
                }
            }
        }
    }
    totals.retain(|_, v| *v > 0);
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_sim::FaultPlan;
    use ifi_workload::WorkloadParams;
    use proptest::prelude::*;

    fn small_world(
        peers: usize,
        window: usize,
        epochs: usize,
        registry: QueryRegistry,
        schedules: &[Vec<Vec<(ItemId, u64)>>],
    ) -> World<Des<ContinuousProtocol>> {
        let h = Hierarchy::balanced(peers, 3);
        let cfg = ContinuousConfig::new(window, epochs);
        ContinuousProtocol::build_world(&cfg, &h, &registry, schedules, SimConfig::default())
    }

    /// A deterministic 9-peer schedule: item 0 is steady everywhere, item
    /// 1 bursts in epoch 1, long-tail items churn per epoch.
    fn nine_peer_schedules(epochs: usize) -> Vec<Vec<Vec<(ItemId, u64)>>> {
        (0..9)
            .map(|p| {
                (0..epochs)
                    .map(|e| {
                        let mut batch = vec![(ItemId(0), 2)];
                        if e == 1 {
                            batch.push((ItemId(1), 10));
                        }
                        batch.push((ItemId(100 + (p * epochs + e) as u64), 1));
                        batch
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn root_certifies_every_epoch_and_matches_from_scratch() {
        let schedules = nine_peer_schedules(6);
        let mut w = small_world(
            9,
            3,
            6,
            QueryRegistry::single(30, PeerId::new(8)),
            &schedules,
        );
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();
        let root = w.peer(PeerId::new(0));
        assert_eq!(root.history().len(), 6, "every epoch certifies");
        assert_eq!(root.delivered().len(), 6);
        for ans in root.history() {
            assert_eq!(ans.contributors, 9);
            let scratch = window_totals_from_scratch(&schedules, ans.epoch, 3);
            let want: Vec<(ItemId, u64)> = {
                let mut v: Vec<(ItemId, u64)> = scratch
                    .iter()
                    .filter(|&(_, t)| *t >= 30)
                    .map(|(&k, &t)| (k, t))
                    .collect();
                v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                v
            };
            assert_eq!(ans.answers[0].items, want, "epoch {}", ans.epoch);
        }
        // Final standing state equals the final from-scratch window.
        let scratch = window_totals_from_scratch(&schedules, 5, 3);
        assert_eq!(root.standing(), &scratch);
        assert!(
            w.metrics_report().warnings.is_empty(),
            "clean run must stay quiet"
        );
    }

    #[test]
    fn burst_ages_out_of_the_standing_answer() {
        let schedules = nine_peer_schedules(6);
        let mut w = small_world(
            9,
            3,
            6,
            QueryRegistry::single(50, PeerId::new(8)),
            &schedules,
        );
        w.start();
        w.run_to_quiescence();
        let root = w.peer(PeerId::new(0));
        // Item 1 bursts to 90 in epoch 1: present at fences 1–2, aged out
        // from fence 3 on (window holds the last 2 full batches).
        let has_burst: Vec<bool> = root
            .history()
            .iter()
            .map(|a| a.answers[0].items.iter().any(|&(i, _)| i == ItemId(1)))
            .collect();
        assert_eq!(has_burst, vec![false, true, true, false, false, false]);
    }

    #[test]
    fn k_queries_share_one_delta_stream() {
        let schedules = nine_peer_schedules(5);
        let single = QueryRegistry::single(30, PeerId::new(8));
        let mut many = QueryRegistry::new();
        for k in 0..8 {
            many.register(StandingQuery {
                id: k,
                threshold: 30 + u64::from(k) * 5,
                subscriber: PeerId::new(8),
            });
        }
        let bytes = |reg: QueryRegistry| {
            let mut w = small_world(9, 3, 5, reg, &schedules);
            w.start();
            w.run_to_quiescence();
            (
                w.metrics().class_bytes(MsgClass::DELTA),
                w.metrics().class_bytes(MsgClass::STANDING),
            )
        };
        let (delta_1, standing_1) = bytes(single);
        let (delta_8, standing_8) = bytes(many);
        assert_eq!(delta_1, delta_8, "the delta stream is K-independent");
        assert!(delta_1 > 0);
        assert!(
            standing_8 >= standing_1,
            "per-query split traffic grows with K"
        );
        assert!(
            delta_8 < 8 * delta_1 / 2,
            "K=8 must cost well under half of 8×: {delta_8} vs 8×{delta_1}"
        );
    }

    #[test]
    fn lossy_reliable_run_matches_the_clean_history() {
        let schedules = nine_peer_schedules(6);
        let h = Hierarchy::balanced(9, 3);
        let cfg = ContinuousConfig::new(3, 6);
        let reg = QueryRegistry::single(30, PeerId::new(8));

        let mut clean =
            ContinuousProtocol::build_world(&cfg, &h, &reg, &schedules, SimConfig::default());
        clean.start();
        clean.run_to_quiescence();

        let sim = SimConfig::default()
            .with_seed(11)
            .with_faults(FaultPlan::none().with_drop(0.12).with_duplication(0.08));
        let mut lossy = ContinuousProtocol::build_world_reliable(
            &cfg,
            &h,
            &reg,
            &schedules,
            sim,
            RelConfig::default(),
        );
        lossy.start();
        lossy.run_to_quiescence();

        assert_eq!(
            clean.peer(h.root()).history(),
            lossy.peer(h.root()).history(),
            "loss must not change any certified answer"
        );
    }

    #[test]
    fn dropped_retirements_overcount_once_the_window_fills() {
        let schedules = nine_peer_schedules(6);
        let h = Hierarchy::balanced(9, 3);
        let cfg = ContinuousConfig::new(3, 6);
        let reg = QueryRegistry::single(30, PeerId::new(8));
        let cores: Vec<ContinuousProtocol> =
            ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, None)
                .into_iter()
                .map(|c| c.with_dropped_retirements())
                .collect();
        let mut w = sansio_world(SimConfig::default(), cores);
        w.start();
        w.run_to_quiescence();
        let root = w.peer(h.root());
        let scratch = window_totals_from_scratch(&schedules, 5, 3);
        assert_ne!(
            root.standing(),
            &scratch,
            "the planted bug must diverge from the from-scratch window"
        );
    }

    #[test]
    fn faded_membership_is_a_subset_of_the_windowed_answer() {
        let schedules = nine_peer_schedules(6);
        let h = Hierarchy::balanced(9, 3);
        let reg = QueryRegistry::single(30, PeerId::new(8));
        let run = |cfg: ContinuousConfig| {
            let mut w =
                ContinuousProtocol::build_world(&cfg, &h, &reg, &schedules, SimConfig::default());
            w.start();
            w.run_to_quiescence();
            w.peer(h.root()).history().to_vec()
        };
        let plain = run(ContinuousConfig::new(3, 6));
        let faded = run(ContinuousConfig::new(3, 6).with_fade(1, 2));
        assert_eq!(plain.len(), faded.len());
        for (p, f) in plain.iter().zip(&faded) {
            for (item, _) in &f.answers[0].items {
                assert!(
                    p.answers[0].items.iter().any(|(i, _)| i == item),
                    "fade must never add items the windowed answer lacks"
                );
            }
        }
        // The epoch-1 burst (faded weight 90·(1/2) = 45 ≥ 30 at fence 2)
        // still shows up somewhere, so the fade isn't trivially empty.
        assert!(faded.iter().any(|a| !a.answers[0].items.is_empty()));
    }

    #[test]
    fn paper_workload_runs_continuously() {
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: 30,
                items: 200,
                instances_per_item: 8,
                theta: 1.0,
            },
            7,
        );
        let schedules = schedule_from_data(&data, 5);
        let h = Hierarchy::balanced(30, 3);
        let cfg = ContinuousConfig::new(4, 5);
        let reg = QueryRegistry::single(40, PeerId::new(29));
        let mut w =
            ContinuousProtocol::build_world(&cfg, &h, &reg, &schedules, SimConfig::default());
        w.start();
        w.run_to_quiescence();
        let root = w.peer(h.root());
        assert_eq!(root.history().len(), 5);
        for ans in root.history() {
            let scratch = window_totals_from_scratch(&schedules, ans.epoch, 4);
            let want: usize = scratch.values().filter(|&&v| v >= 40).count();
            assert_eq!(ans.answers[0].items.len(), want, "epoch {}", ans.epoch);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Satellite (a): delta-maintained root state equals from-scratch
        /// window aggregation for arbitrary record/advance interleavings.
        #[test]
        fn delta_state_equals_from_scratch(
            peers in 2usize..7,
            window in 2usize..5,
            epochs in 1usize..6,
            seed in 0u64..1_000,
        ) {
            // A seeded arbitrary schedule: which items land on which peer
            // in which epoch varies with every case.
            let mut s = seed;
            let mut next = || { s = mix64(s.wrapping_add(0x9e37)); s };
            let schedules: Vec<Vec<Vec<(ItemId, u64)>>> = (0..peers)
                .map(|_| {
                    (0..epochs)
                        .map(|_| {
                            (0..(next() % 4))
                                .map(|_| (ItemId(next() % 12), next() % 9 + 1))
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let h = Hierarchy::balanced(peers, 2);
            let cfg = ContinuousConfig::new(window, epochs);
            let reg = QueryRegistry::single(1, PeerId::new(peers - 1));
            let mut w = ContinuousProtocol::build_world(
                &cfg, &h, &reg, &schedules, SimConfig::default().with_seed(seed),
            );
            w.start();
            w.run_to_quiescence();
            let root = w.peer(h.root());
            prop_assert_eq!(root.history().len(), epochs);
            for ans in root.history() {
                let scratch = window_totals_from_scratch(&schedules, ans.epoch, window);
                let got: BTreeMap<ItemId, u64> =
                    ans.answers[0].items.iter().copied().collect();
                prop_assert_eq!(&got, &scratch, "epoch {}", ans.epoch);
            }
            let scratch = window_totals_from_scratch(&schedules, epochs as u64 - 1, window);
            prop_assert_eq!(root.standing(), &scratch);
        }

        /// Satellite (b): the time-faded weighting is order-independent
        /// under out-of-order delta arrival.
        #[test]
        fn fade_is_order_independent(
            contributions in proptest::collection::vec(
                (0u64..8, 0u64..6, 1u64..50), 0..40,
            ),
            shuffle_seed in 0u64..1_000,
            window in 2usize..6,
            num in 1u64..4,
        ) {
            let den = 4u64;
            let mut in_order = contributions.clone();
            in_order.sort();
            // Seeded Fisher–Yates: a genuinely out-of-order arrival order.
            let mut contributions = contributions;
            let mut s = shuffle_seed;
            for i in (1..contributions.len()).rev() {
                s = mix64(s.wrapping_add(i as u64));
                contributions.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let mut a = FadedAccumulator::new();
            let mut b = FadedAccumulator::new();
            for &(epoch, item, v) in &in_order {
                a.absorb(epoch, ItemId(item), v);
            }
            for &(epoch, item, v) in &contributions {
                b.absorb(epoch, ItemId(item), v);
            }
            for epoch in 0..8 {
                for item in 0..6 {
                    prop_assert_eq!(
                        a.faded_scaled(ItemId(item), epoch, window, num, den),
                        b.faded_scaled(ItemId(item), epoch, window, num, den),
                        "epoch {} item {}", epoch, item
                    );
                }
            }
        }
    }
}
