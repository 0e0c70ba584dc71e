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
//!   `≪ K×` sharing claim the `continuous` smoke row checks as a
//!   number;
//! * a time-faded variant (`FadePolicy::Exponential`) follows the
//!   P2PTFHH line of work: the root reconstructs global per-epoch batch
//!   totals by induction (`B_e = Δ_e + B_{e−(W−1)}`) — costing zero extra
//!   traffic — and weights batch `j` by `(num/den)^(e−j)` in scaled
//!   integer arithmetic, so fade evaluation is an order-independent pure
//!   fold over epoch-keyed contributions (see `FadedAccumulator`).

use std::collections::{BTreeMap, VecDeque};

use ifi_agg::{fold_run, is_run, merge_join, merge_runs, Boot, Overflow, TreeSlot};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    mix64, Duration, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId, RelConfig,
    ReliableMsg, RetransmitTimer, SansIo, SimTime,
};
use ifi_workload::{ItemId, SystemData};

use crate::windowed::SlidingWindow;
use crate::WireSizes;

/// How bucket weights decay with age when evaluating standing queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FadePolicy {
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
    pub(crate) fn len(&self) -> usize {
        self.queries.len()
    }

    /// The smallest registered threshold — the superset bar the shared
    /// phase-1 split is computed at.
    pub(crate) fn min_threshold(&self) -> Option<u64> {
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
    pub(crate) census_count: u32,
    /// Xor of `mix64(peer)` over the contributing members.
    pub(crate) census_digest: u64,
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
    pub(crate) window: usize,
    /// Number of epoch fences each peer runs.
    pub(crate) epochs: usize,
    /// Epoch length (sim time under the DES, wall time under the threaded
    /// transport — keep it tens of milliseconds there).
    pub(crate) epoch: Duration,
    /// Bucket-weight decay for standing-query evaluation.
    pub(crate) fade: FadePolicy,
    /// Wire widths for byte pricing.
    pub(crate) sizes: WireSizes,
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
pub(crate) struct FadedAccumulator {
    /// Per epoch, ascending, the batch totals as a run.
    batches: Vec<(u64, Vec<(ItemId, u64)>)>,
}

impl FadedAccumulator {
    /// An empty accumulator.
    pub(crate) fn new() -> Self {
        FadedAccumulator::default()
    }

    /// Adds `pairs` (any order, items may repeat) to epoch `epoch`'s batch
    /// totals. A run — what the root passes — is summed in as it is; a
    /// total that overflows leaves the batch as it was.
    pub(crate) fn absorb_pairs(
        &mut self,
        epoch: u64,
        pairs: impl IntoIterator<Item = (ItemId, u64)>,
    ) -> Result<(), Overflow> {
        let mut pairs: Vec<(ItemId, u64)> = pairs.into_iter().collect();
        if !is_run(&pairs) {
            fold_run(&mut pairs);
        }
        let at = self.batches.partition_point(|b| b.0 < epoch);
        if self.batches.get(at).is_none_or(|b| b.0 != epoch) {
            self.batches.insert(at, (epoch, Vec::new()));
        }
        merge_runs(&mut self.batches[at].1, pairs)
    }

    /// The reconstructed batch totals for one epoch as a run (empty if
    /// none were absorbed).
    pub(crate) fn batch(&self, epoch: u64) -> &[(ItemId, u64)] {
        let at = self.batches.binary_search_by_key(&epoch, |b| b.0);
        at.map_or(&[], |at| &self.batches[at].1)
    }

    /// Drops every epoch before `lo` (aged out of the window).
    pub(crate) fn retain_from(&mut self, lo: u64) {
        self.batches.retain(|b| b.0 >= lo);
    }

    /// The scaled faded value of `item` at fence `epoch` for a `window`-
    /// bucket window: `Σ_j B_j(item) · num^(epoch−j) · den^(W−2−(epoch−j))`
    /// over the live batches `j ∈ [epoch−(W−2), epoch]`. Compare against
    /// `threshold · den^(W−2)`.
    pub(crate) fn faded_scaled(
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
        for (j, batch) in self.batches.iter().filter(|b| (lo..=epoch).contains(&b.0)) {
            let age = (epoch - j) as u32;
            let weight = (num as u128).pow(age) * (den as u128).pow((full - 1) as u32 - age);
            let value = batch
                .binary_search_by_key(&item, |p| p.0)
                .map_or(0, |i| batch[i].1);
            acc += value as u128 * weight;
        }
        acc
    }
}

/// Per-epoch merge buffer at one node: its subtree's contributions so far.
#[derive(Debug, Clone, Default)]
struct PendingEpoch {
    /// The admitted contributions, summed into one run as they arrive.
    diffs: Vec<(ItemId, i64)>,
    census_count: u32,
    census_digest: u64,
}

/// The sans-io continuous standing-query core for one peer.
#[derive(Debug, Clone)]
pub struct ContinuousProtocol {
    // Static.
    epoch_len: Duration,
    sizes: WireSizes,
    me: PeerId,
    slot: TreeSlot,
    members: u32,
    /// This peer's record batches, pre-loaded: every fence's pairs back to
    /// back, the batch of fence `f` ending at `ends[f]`. One end per
    /// configured fence, so `ends.len()` is the epoch count.
    schedule: Box<[(ItemId, u64)]>,
    ends: Box<[u32]>,
    // Dynamic.
    win: SlidingWindow,
    /// Next local fence index (epochs `< fence` are locally closed).
    fence: usize,
    /// The epochs from `next_forward` on, opened by a fence or a delta.
    pending: VecDeque<PendingEpoch>,
    /// Per pending epoch, `words()` words: a bit per child already in.
    reported: VecDeque<u64>,
    /// Next epoch to forward upward (interior) or certify (root).
    next_forward: u64,
    env: Envelope<EpochDelta>,
    /// `Some` at the root alone.
    root: Option<Box<RootState>>,
}

// One pointer is all the other N − 1 peers pay for the root's state; a
// field added in line shows up here before it shows up as N copies.
const _: () = assert!(std::mem::size_of::<ContinuousProtocol>() == 256);

/// What only the root holds: what it certifies against, the queries it
/// splits answers for, and the standing state certified deltas fold into.
#[derive(Debug, Clone)]
struct RootState {
    window: usize,
    fade: FadePolicy,
    roster_digest: u64,
    registry: QueryRegistry,
    /// Hop counts from each registered query's subscriber to the root.
    sub_hops: Vec<u64>,
    /// Negative-path toggle: the root ignores retirement (negative) diffs
    /// when updating its standing state, so the standing answer overcounts
    /// once the window fills. Exists so the simcheck `window-consistency`
    /// oracle has a demonstrable bug to catch.
    drop_retirements: bool,
    /// Set once an epoch is skipped for its census: the standing run then
    /// lacks that epoch's delta, so no later epoch can certify from it.
    skipped: bool,
    /// The global window totals, as a run.
    standing: Vec<(ItemId, u64)>,
    faded: FadedAccumulator,
    /// Each query's last answer as a run (ascending by item, not ranked).
    prev_answers: Vec<Vec<(ItemId, u64)>>,
}

impl ContinuousProtocol {
    /// Creates the state for `peer` with its per-epoch `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy has non-member peers (the census needs the
    /// full roster fencing) or the schedule is longer than the configured
    /// epoch count.
    pub(crate) fn new(
        config: &ContinuousConfig,
        hierarchy: &Hierarchy,
        registry: &QueryRegistry,
        peer: PeerId,
        schedule: &[Vec<(ItemId, u64)>],
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
        let slot = TreeSlot::new(hierarchy, peer);
        let root = slot.is_root().then(|| {
            let hops = |q: &StandingQuery| u64::from(hierarchy.depth(q.subscriber).unwrap_or(0));
            Box::new(RootState {
                window: config.window,
                fade: config.fade,
                roster_digest: (0..hierarchy.universe()).fold(0, |acc, i| acc ^ mix64(i as u64)),
                registry: registry.clone(),
                sub_hops: registry.queries().iter().map(hops).collect(),
                drop_retirements: false,
                skipped: false,
                standing: Vec::new(),
                faded: FadedAccumulator::new(),
                prev_answers: vec![Vec::new(); registry.len()],
            })
        });
        let mut end = 0;
        let ends = (0..config.epochs).map(|f| {
            end += schedule.get(f).map_or(0, Vec::len);
            end as u32
        });
        ContinuousProtocol {
            epoch_len: config.epoch,
            sizes: config.sizes,
            me: peer,
            slot,
            members: hierarchy.member_count() as u32,
            schedule: schedule.concat().into_boxed_slice(),
            ends: ends.collect(),
            win: SlidingWindow::new(config.window),
            fence: 0,
            pending: VecDeque::new(),
            reported: VecDeque::new(),
            next_forward: 0,
            env: Envelope::plain(),
            root,
        }
    }

    /// Enables the ack/retransmit envelope with the given tuning.
    pub(crate) fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.env = Envelope::reliable(cfg);
        self
    }

    /// Enables the retirement-dropping bug (negative-path hook for the
    /// `window-consistency` oracle).
    #[doc(hidden)]
    pub fn with_dropped_retirements(mut self) -> Self {
        if let Some(root) = &mut self.root {
            root.drop_retirements = true;
        }
        self
    }

    /// The root's current standing window totals, ascending by item
    /// (empty on every other peer).
    pub fn standing(&self) -> &[(ItemId, u64)] {
        self.root.as_ref().map_or(&[], |r| &r.standing)
    }

    /// Number of epoch fences this peer has locally closed.
    pub fn fences_done(&self) -> usize {
        self.fence
    }

    /// The peer population as bare cores for any driver; `rel` turns the
    /// ack/retransmit envelope on every peer.
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
        (schedules.iter().enumerate())
            .map(|(i, schedule)| {
                let core = Self::new(config, hierarchy, registry, PeerId::new(i), schedule);
                match &rel {
                    None => core,
                    Some(cfg) => core.with_reliability(cfg.clone()),
                }
            })
            .collect()
    }

    /// Opens every pending epoch up to `epoch` (which is at least
    /// `next_forward`) and returns its place in the ring.
    fn open(&mut self, epoch: u64) -> usize {
        let at = (epoch - self.next_forward) as usize;
        let len = self.pending.len().max(at + 1);
        self.pending.resize_with(len, PendingEpoch::default);
        self.reported.resize(len * self.words(), 0);
        at
    }

    /// Words of child bits each pending epoch holds in `reported`.
    fn words(&self) -> usize {
        self.slot.children().len().div_ceil(64)
    }

    /// Closes the current epoch: record the batch, advance the window,
    /// merge the local delta, flush whatever became forwardable. A delta
    /// that does not fit an `i64`, or whose sum with what is pending does
    /// not, is refused with `malformed-report` and leaves the census short.
    fn do_fence(&mut self, fx: &mut Effects<Self>) {
        let e = self.fence as u64;
        let all = self.schedule.len(); // a fence past the last end: no batch
        let end = |f| self.ends.get(f).map_or(all, |&n| n as usize);
        let batch = &self.schedule[self.fence.checked_sub(1).map_or(0, end)..end(self.fence)];
        self.win.extend(batch.iter().copied());
        let retired = self.win.advance();
        let changed = || merge_join(self.win.newest(), &retired).filter(|row| row.1 != row.2);
        let mut own = Vec::with_capacity(changed().count());
        let fits = changed().try_for_each(|(item, new, old)| {
            let diff = i128::from(new.unwrap_or(0)) - i128::from(old.unwrap_or(0));
            own.push((item, i64::try_from(diff).map_err(|_| Overflow)?));
            Ok(())
        });
        let at = self.open(e);
        let p = &mut self.pending[at];
        if fits.and_then(|()| merge_runs(&mut p.diffs, own)).is_ok() {
            // Only over a child's lie can this saturate, and then no root
            // certifies the epoch.
            p.census_count = p.census_count.saturating_add(1);
            p.census_digest ^= mix64(self.me.index() as u64);
        } else {
            fx.warn("malformed-report");
        }
        self.fence += 1;
        self.flush(fx);
        if self.fence < self.ends.len() {
            fx.set_timer(self.epoch_len, ContTimer::Fence);
        }
    }

    /// Sums a child's delta into its epoch's pending run. It is what the
    /// wire handed over, so it is checked before the child's dedup bit is
    /// set: taken only as a run, with a census the roster can hold and
    /// sums that fit; anything else is dropped whole, pending state
    /// untouched, for the honest resend to replace.
    fn admit(&mut self, fx: &mut Effects<Self>, child: usize, delta: EpochDelta) {
        let at = self.open(delta.epoch);
        let (word, bit) = (at * self.words() + child / 64, 1 << (child % 64));
        if self.reported[word] & bit != 0 {
            return fx.warn("duplicate-delta");
        }
        let p = &mut self.pending[at];
        let census = p.census_count.checked_add(delta.census_count);
        let census = census.filter(|&c| c <= self.members && is_run(&delta.diffs));
        let Some(census) = census.filter(|_| merge_runs(&mut p.diffs, delta.diffs).is_ok()) else {
            return fx.warn("malformed-report");
        };
        self.reported[word] |= bit;
        p.census_count = census;
        p.census_digest ^= delta.census_digest;
    }

    /// Forwards (interior) or certifies (root) every complete epoch at the
    /// head of the in-order queue: its own fence has passed (so it is
    /// open) and every child has reported.
    fn flush(&mut self, fx: &mut Effects<Self>) {
        let words = self.words();
        while self.next_forward < self.fence as u64 {
            let reported: u32 = self.reported.range(..words).map(|w| w.count_ones()).sum();
            if (reported as usize) < self.slot.children().len() {
                return;
            }
            let p = self.pending.pop_front().expect("a passed fence is open");
            self.reported.drain(..words);
            let e = self.next_forward;
            match &mut self.root {
                Some(root) => root.certify(fx, &self.sizes, self.members, e, p),
                None => self.forward(fx, e, p),
            }
            self.next_forward += 1;
        }
    }

    /// Sends the merged epoch delta to the parent: payload priced in
    /// [`MsgClass::DELTA`], census fields piggybacked in
    /// [`MsgClass::FAILOVER`].
    fn forward(&mut self, fx: &mut Effects<Self>, epoch: u64, p: PendingEpoch) {
        let parent = self.slot.parent().expect("non-root peers have a parent");
        let bytes = self.sizes.si + self.sizes.pair() * p.diffs.len() as u64;
        let msg = EpochDelta {
            epoch,
            diffs: p.diffs,
            census_count: p.census_count,
            census_digest: p.census_digest,
        };
        self.env
            .send_retained(fx, parent, msg, bytes, MsgClass::DELTA);
        fx.charge(MsgClass::FAILOVER, self.sizes.sa + self.sizes.si);
    }
}

type Fx = Effects<ContinuousProtocol>;

impl RootState {
    /// Certifies one complete epoch: checks the census, folds the delta
    /// into the standing state, splits per-query answers, and delivers the
    /// [`EpochAnswer`]. An epoch whose census does not match is skipped
    /// with `census-mismatch`, and so is every epoch after it.
    fn certify(
        &mut self,
        fx: &mut Fx,
        sizes: &WireSizes,
        members: u32,
        epoch: u64,
        p: PendingEpoch,
    ) {
        self.skipped |= p.census_count != members || p.census_digest != self.roster_digest;
        if self.skipped {
            return fx.warn("census-mismatch");
        }
        self.standing = self.apply(fx, "negative-standing", &self.standing, &p.diffs);
        if let FadePolicy::Exponential { .. } = self.fade {
            // Batch reconstruction for the faded variant: the global
            // epoch-`e` batch is `Δ_e + B_{e−(W−1)}` (the delta subtracted the
            // retired one), new at each epoch: fading costs no extra traffic.
            let full = (self.window - 1) as u64;
            let retired = epoch
                .checked_sub(full)
                .map_or(&[][..], |j| self.faded.batch(j));
            let batch = self.apply(fx, "negative-batch", retired, &p.diffs);
            self.faded.absorb_pairs(epoch, batch).expect("new epoch");
            self.faded.retain_from(epoch.saturating_sub(full - 1));
        }
        let answers = self.split_answers(fx, sizes, epoch);
        fx.deliver(EpochAnswer {
            epoch,
            contributors: p.census_count as usize,
            answers,
        });
    }

    /// `base + delta` as a run, by one merge-join. A sum below zero warns
    /// `underflow` and is dropped like a zero.
    fn apply(
        &self,
        fx: &mut Fx,
        underflow: &'static str,
        base: &[(ItemId, u64)],
        delta: &[(ItemId, i64)],
    ) -> Vec<(ItemId, u64)> {
        let mut out = Vec::with_capacity(base.len().max(delta.len()));
        out.extend(merge_join(base, delta).filter_map(|(item, have, diff)| {
            let diff = diff.filter(|&d| !(self.drop_retirements && d < 0));
            let sum = i128::from(have.unwrap_or(0)) + i128::from(diff.unwrap_or(0));
            if sum < 0 {
                fx.warn(underflow);
            }
            (sum > 0).then(|| (item, u64::try_from(sum).unwrap_or(u64::MAX)))
        }));
        out
    }

    /// Splits the per-query answers from the shared min-threshold superset
    /// and charges each query's changed rows to [`MsgClass::STANDING`].
    fn split_answers(&mut self, fx: &mut Fx, sizes: &WireSizes, epoch: u64) -> Vec<QueryAnswer> {
        let Some(min_t) = self.registry.min_threshold() else {
            return Vec::new();
        };
        // The shared superset, computed once: every item any query could
        // report. Under a (non-amplifying) fade the faded value never
        // exceeds the windowed total, so the windowed bar is a superset.
        let superset = self.standing.iter().copied();
        let superset: Vec<(ItemId, u64)> = superset.filter(|p| p.1 >= min_t).collect();
        let mut out = Vec::with_capacity(self.registry.len());
        for (qi, q) in self.registry.queries().iter().enumerate() {
            let of_query = superset.iter().copied();
            let run: Vec<(ItemId, u64)> = match self.fade {
                FadePolicy::None => of_query.filter(|p| p.1 >= q.threshold).collect(),
                FadePolicy::Exponential { num, den } => {
                    let bar = u128::from(q.threshold) * (den as u128).pow((self.window - 2) as u32);
                    let faded = |item| self.faded.faded_scaled(item, epoch, self.window, num, den);
                    of_query.filter(|p| faded(p.0) >= bar).collect()
                }
            };
            // Rows of the new answer that differ from the last one plus
            // rows of the last one that vanished — what the root must
            // stream to keep the subscriber's mirror fresh.
            let changed = merge_join(&self.prev_answers[qi], &run).filter(|row| row.1 != row.2);
            let bytes = sizes.pair() * changed.count() as u64 * self.sub_hops[qi];
            if bytes > 0 {
                fx.charge(MsgClass::STANDING, bytes);
            }
            let mut items = run.clone();
            items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            self.prev_answers[qi] = run;
            out.push(QueryAnswer {
                query: q.id,
                threshold: q.threshold,
                items,
            });
        }
        out
    }
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
                if self.fence < self.ends.len() {
                    fx.set_timer(self.epoch_len, ContTimer::Fence);
                }
            }
            NodeEvent::Message { from, msg } => {
                let Some(delta) = self.env.on_frame(fx, from, msg) else {
                    return;
                };
                let child = match self.slot.child(from) {
                    Ok(child) => child,
                    Err(warn) => return fx.warn(warn),
                };
                if delta.epoch >= self.ends.len() as u64 {
                    fx.warn("epoch-out-of-range");
                    return;
                }
                if delta.epoch < self.next_forward {
                    fx.warn("stale-delta");
                    return;
                }
                self.admit(fx, child, delta);
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
    let lo = (epoch + 2).saturating_sub(window as u64); // epoch − (W − 2)
    let live = schedules
        .iter()
        .flat_map(|s| s.iter().take(epoch as usize + 1).skip(lo as usize));
    let mut totals: BTreeMap<ItemId, u64> = BTreeMap::new();
    for &(item, v) in live.flatten() {
        *totals.entry(item).or_insert(0) += v;
    }
    totals.retain(|_, v| *v > 0);
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_sim::{sansio_world, Des, FaultPlan, SimConfig, World};
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
        sansio_world(
            SimConfig::default(),
            ContinuousProtocol::peers(&cfg, &h, &registry, schedules, None),
        )
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
        assert_eq!(root.delivered().len(), 6, "every epoch certifies");
        for ans in root.delivered() {
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
        assert!(root.standing().iter().copied().eq(scratch));
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
            .delivered()
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

        let mut clean = sansio_world(
            SimConfig::default(),
            ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, None),
        );
        clean.start();
        clean.run_to_quiescence();

        let sim = SimConfig::default()
            .with_seed(11)
            .with_faults(FaultPlan::none().with_drop(0.12).with_duplication(0.08));
        let mut lossy = sansio_world(
            sim,
            ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, Some(RelConfig::default())),
        );
        lossy.start();
        lossy.run_to_quiescence();

        assert_eq!(
            clean.peer(h.root()).delivered(),
            lossy.peer(h.root()).delivered(),
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
        assert!(
            !root.standing().iter().copied().eq(scratch),
            "the planted bug must diverge from the from-scratch window"
        );
    }

    /// A delta that is not a run, whose census the roster cannot hold, or
    /// whose sum with what is pending overflows, is dropped whole with
    /// `malformed-report` — before the child's dedup bit is set, so the
    /// honest resend still certifies the epoch exactly.
    #[test]
    fn malformed_deltas_are_dropped_and_the_honest_resend_certifies() {
        use ifi_sim::{AllUp, Effect};

        let schedules: Vec<Vec<Vec<(ItemId, u64)>>> = vec![
            vec![vec![(ItemId(0), 2)]],
            vec![vec![(ItemId(0), 2), (ItemId(5), 1)]],
            vec![vec![(ItemId(0), 2), (ItemId(7), 3)]],
        ];
        let h = Hierarchy::balanced(3, 2);
        let cfg = ContinuousConfig::new(3, 1);
        let reg = QueryRegistry::single(1, PeerId::new(2));
        let (env, now) = (AllUp(3), SimTime::ZERO);
        type Fx = Vec<Effect<ReliableMsg<EpochDelta>, ContTimer, EpochAnswer>>;
        let drive = |core: &mut ContinuousProtocol, ev| -> Fx {
            let mut fx = Effects::new();
            core.on_event(ev, now, &env, &mut fx);
            fx.drain().collect()
        };
        let fence = || NodeEvent::Timer {
            tag: ContTimer::Fence,
        };
        let core = |i: usize| {
            let mut c = ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, None).swap_remove(i);
            drive(&mut c, NodeEvent::Start);
            c
        };
        // Each leaf's fence yields the honest delta it sends the root.
        let honest = |i: usize| {
            drive(&mut core(i), fence())
                .into_iter()
                .find_map(|e| match e {
                    Effect::Send {
                        msg: ReliableMsg::Plain(delta),
                        ..
                    } => Some(delta),
                    _ => None,
                })
                .expect("a leaf forwards its delta at the fence")
        };
        let (d1, d2) = (honest(1), honest(2));
        assert_eq!(d1.diffs, [(ItemId(0), 2), (ItemId(5), 1)]);
        let from = |i: usize, delta: &EpochDelta| NodeEvent::Message {
            from: PeerId::new(i),
            msg: ReliableMsg::Plain(delta.clone()),
        };

        let diffs = |pairs: &[(u64, i64)]| EpochDelta {
            diffs: pairs.iter().map(|&(k, v)| (ItemId(k), v)).collect(),
            ..d1.clone()
        };
        let hostile = [
            ("duplicate key", diffs(&[(0, 1), (0, 1), (5, 1)])),
            ("descending pair", diffs(&[(5, 1), (0, 2)])),
            ("zero diff", diffs(&[(0, 2), (3, 0), (5, 1)])),
            (
                "census overflow",
                EpochDelta {
                    census_count: u32::MAX,
                    ..d1.clone()
                },
            ),
        ];
        for (what, bad) in &hostile {
            let mut root = core(0);
            // Before the root's own fence: the census has nothing in it yet,
            // so a bare `checked_add` would let `u32::MAX` through.
            let fx = drive(&mut root, from(1, bad));
            assert!(
                matches!(
                    fx[..],
                    [Effect::Warn {
                        label: "malformed-report"
                    }]
                ),
                "{what}: {fx:?}"
            );
            drive(&mut root, fence());
            let mut fx = drive(&mut root, from(1, &d1));
            fx.extend(drive(&mut root, from(2, &d2)));
            assert!(
                !fx.iter().any(|e| matches!(e, Effect::Warn { .. })),
                "{what}: {fx:?}"
            );
            let certified: Vec<&EpochAnswer> = fx
                .iter()
                .filter_map(|e| match e {
                    Effect::Deliver(ans) => Some(ans),
                    _ => None,
                })
                .collect();
            assert_eq!(certified.len(), 1, "{what}: epoch 0 certifies");
            assert_eq!(certified[0].contributors, 3);
            let scratch = window_totals_from_scratch(&schedules, 0, 3);
            assert!(root.standing().iter().copied().eq(scratch), "{what}");
        }

        // An `i64::MAX` diff is a run, but item 0 is in every contribution.
        let overflow = diffs(&[(0, i64::MAX), (5, 1)]);
        let warned = |fx: &Fx| {
            let malformed =
                |e: &_| matches!(e, Effect::Warn { label } if *label == "malformed-report");
            !fx.is_empty() && fx.iter().all(malformed)
        };
        // After the root's own fence, the child's delta is what overflows:
        // refused, its dedup bit clear, and the honest resend certifies.
        let mut root = core(0);
        drive(&mut root, fence());
        assert!(warned(&drive(&mut root, from(1, &overflow))));
        let mut fx = drive(&mut root, from(1, &d1));
        fx.extend(drive(&mut root, from(2, &d2)));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Deliver(a) if a.contributors == 3)));
        let scratch = window_totals_from_scratch(&schedules, 0, 3);
        assert!(root.standing().iter().copied().eq(scratch));
        // Before it, the child's delta is taken over as the pending run, so
        // the root's own contribution and the other child's are what
        // overflow: both refused, the census stays short, nothing certifies.
        let mut root = core(0);
        assert!(drive(&mut root, from(1, &overflow)).is_empty());
        assert!(warned(&drive(&mut root, fence())));
        assert!(warned(&drive(&mut root, from(2, &d2))));
        assert!(root.standing().is_empty());
    }

    /// An epoch skipped for its census leaves the standing run without
    /// its delta, so the root certifies no later epoch either: each one
    /// warns `census-mismatch` and delivers nothing.
    #[test]
    fn a_skipped_epoch_stops_every_later_certification() {
        use ifi_sim::{AllUp, Effect};

        let schedules = vec![vec![vec![(ItemId(0), 2)]; 2]; 2];
        let h = Hierarchy::balanced(2, 1);
        let cfg = ContinuousConfig::new(3, 2);
        let reg = QueryRegistry::single(1, PeerId::new(1));
        let (env, now) = (AllUp(2), SimTime::ZERO);
        type Fx = Vec<Effect<ReliableMsg<EpochDelta>, ContTimer, EpochAnswer>>;
        let drive = |core: &mut ContinuousProtocol, ev| -> Fx {
            let mut fx = Effects::new();
            core.on_event(ev, now, &env, &mut fx);
            fx.drain().collect()
        };
        let fence = || NodeEvent::Timer {
            tag: ContTimer::Fence,
        };
        let mut cores = ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, None);
        let (mut root, mut leaf) = (cores.remove(0), cores.remove(0));
        drive(&mut root, NodeEvent::Start);
        drive(&mut leaf, NodeEvent::Start);
        let mut sent = (0..2).map(|_| {
            let fx = drive(&mut leaf, fence());
            fx.into_iter()
                .find_map(|e| match e {
                    Effect::Send {
                        msg: ReliableMsg::Plain(delta),
                        ..
                    } => Some(delta),
                    _ => None,
                })
                .expect("the leaf forwards its delta at each fence")
        });
        let forged = EpochDelta {
            census_digest: 0xF0F0,
            ..sent.next().unwrap()
        };
        let honest = sent.next().unwrap();
        let from_leaf = |delta: EpochDelta| NodeEvent::Message {
            from: PeerId::new(1),
            msg: ReliableMsg::Plain(delta),
        };
        let census_mismatch = |fx: &Fx| {
            matches!(
                fx[..],
                [Effect::Warn {
                    label: "census-mismatch"
                }]
            )
        };
        for delta in [forged, honest] {
            drive(&mut root, fence());
            let fx = drive(&mut root, from_leaf(delta));
            assert!(census_mismatch(&fx), "{fx:?}");
        }
        assert!(root.standing().is_empty(), "no delta was folded in");
    }

    #[test]
    fn faded_membership_is_a_subset_of_the_windowed_answer() {
        let schedules = nine_peer_schedules(6);
        let h = Hierarchy::balanced(9, 3);
        let reg = QueryRegistry::single(30, PeerId::new(8));
        let run = |cfg: ContinuousConfig| {
            let mut w = sansio_world(
                SimConfig::default(),
                ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, None),
            );
            w.start();
            w.run_to_quiescence();
            w.peer(h.root()).delivered().to_vec()
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
        let mut w = sansio_world(
            SimConfig::default(),
            ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, None),
        );
        w.start();
        w.run_to_quiescence();
        let root = w.peer(h.root());
        assert_eq!(root.delivered().len(), 5);
        for ans in root.delivered() {
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
            let mut w = sansio_world(SimConfig::default().with_seed(seed), ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, None));
            w.start();
            w.run_to_quiescence();
            let root = w.peer(h.root());
            prop_assert_eq!(root.delivered().len(), epochs);
            for ans in root.delivered() {
                let scratch = window_totals_from_scratch(&schedules, ans.epoch, window);
                let got: BTreeMap<ItemId, u64> =
                    ans.answers[0].items.iter().copied().collect();
                prop_assert_eq!(&got, &scratch, "epoch {}", ans.epoch);
            }
            let scratch = window_totals_from_scratch(&schedules, epochs as u64 - 1, window);
            prop_assert!(root.standing().iter().copied().eq(scratch));
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
                prop_assert_eq!(a.absorb_pairs(epoch, [(ItemId(item), v)]), Ok(()));
            }
            for &(epoch, item, v) in &contributions {
                prop_assert_eq!(b.absorb_pairs(epoch, [(ItemId(item), v)]), Ok(()));
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
