//! Churn-resilient netFilter: epoch-based re-query over a self-repairing
//! hierarchy, with live root failover and certified-complete epochs.
//!
//! The base [`protocol`](crate::protocol) assumes the tree is stable for
//! the duration of one run — the paper arranges this by recruiting stable
//! peers (§III-A). This module composes netFilter with the §III-A.3
//! maintenance machinery (via [`ifi_hierarchy::MaintainCore`]) into a
//! single protocol that keeps answering **across** failures:
//!
//! * every peer runs heartbeats/repair continuously;
//! * the acting root starts a fresh *query epoch* every `query_period`,
//!   flooding `Start{epoch}` down the **current** tree;
//! * each epoch is an ordinary two-phase netFilter run keyed by its epoch
//!   number; stale-epoch messages are discarded;
//! * an epoch disturbed by churn simply stalls (a re-attached subtree never
//!   saw its `Start`, or a dead child never reports) and is superseded by
//!   the next epoch over the repaired tree.
//!
//! # Root failover
//!
//! §III-A.1 notes the hierarchy "is still vulnerable to single point of
//! failure" and proposes constructing multiple hierarchies. The
//! [`peers`](ResilientProtocol::peers) of a `k`-tree [`MultiHierarchy`]
//! recruit a *succession line* of `k` candidate roots (its distinct
//! roots); all peers initially serve the primary tree, and the successors
//! are ordinary members who merely know their rank (a one-tree
//! `MultiHierarchy` is the single-root protocol, with no failover):
//!
//! * a candidate that stays **continuously detached** for
//!   `takeover_grace + rank · takeover_stagger` promotes itself to root
//!   (depth 0) and immediately starts issuing epochs — the root's death is
//!   observable precisely as the detachment cascade it causes, and the
//!   rank-staggered grace makes lower ranks win the race;
//! * two acting roots can never complete concurrent epochs thanks to an
//!   **epoch fence**: the candidate of rank `j` only issues epoch numbers
//!   `≡ j (mod k)`, every maintenance message carries the sender's current
//!   epoch as a stamp, and an acting root that hears a *newer* epoch
//!   stamped by a *lower* rank demotes itself (detaching its tree, which
//!   re-homes to the winner). With `k = 1` the numbering degenerates to
//!   exactly the legacy `epoch + 1` sequence;
//! * a revived ex-root comes back as a plain detached candidate
//!   (demote-then-rejoin), so the old primary never resurrects a stale
//!   claim to the root role.
//!
//! # Certified-complete epochs
//!
//! Rootward reports additionally carry a contributor [`Census`] — a peer
//! count plus an order-independent xor digest — merged up the tree exactly
//! like the aggregates. At issue time the root snapshots a roster of
//! currently-live peers (an out-of-band membership oracle used **only to
//! label** the result, never to steer the protocol), and on completion
//! compares both phases' censuses against it: a match certifies the answer
//! as [`Certificate::Complete`] — exact IFI over every live peer — while a
//! mismatch yields [`Certificate::Partial`] with the missing delta. A
//! false `Complete` requires an xor-digest collision (~2⁻⁶⁴).
//!
//! # Metering
//!
//! Failover and certification overhead is kept out of the paper's message
//! classes so churn-free runs stay byte-identical to the pre-failover
//! protocol: census fields and epoch stamps are charged as piggyback bytes
//! to [`MsgClass::FAILOVER`] (stamps only in multi-root mode, where they
//! are actually on the wire), and demotion cascades send as `FAILOVER`
//! class outright. Piggyback bytes are charged once at the original send;
//! an envelope retransmission resends the original frame and is charged,
//! as before, at the frame's size under `RETRANSMIT`.
//!
//! Given a [`RelConfig`], [`peers`](ResilientProtocol::peers) additionally
//! wraps every *query-critical* message (`Start`, `GroupAgg`, `Heavy`,
//! `CandidateAgg`) in the [`Envelope`]'s ack/retransmit machinery so
//! random message loss no longer stalls epochs; receivers suppress
//! duplicates before they can double-merge an accumulator, and in-flight
//! frames to a peer that just got suspected are abandoned rather than
//! retried into silence. Maintenance traffic stays unreliable —
//! heartbeats and `Attach` refreshes are periodic (redundancy *is* their
//! reliability).

use ifi_agg::{Aggregate, MapSum, OnArrival, VecSum};
use ifi_hierarchy::{MaintainCore, MaintainMsg, MultiHierarchy};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{
    mix64, Duration, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId, PeerSet,
    RelConfig, ReliableMsg, RetransmitTimer, SansIo, SimTime, TimerToken,
};
use ifi_workload::{ItemId, SystemData};

use crate::config::NetFilterConfig;
use crate::filter::{HeavyGroups, HeavyLists, LocalFilter};
use crate::hashing::HashFamily;
use crate::phases;

/// Wire size of a `Start{epoch}` control message.
const START_BYTES: u64 = 12;

/// Piggyback size of the epoch stamp on maintenance messages (multi-root
/// mode only): one `u64`.
const STAMP_BYTES: u64 = 8;

/// Piggyback size of a [`Census`] on rootward reports: `u32` count plus
/// `u64` digest. Shared with the one-shot protocol's census mode
/// (`crate::protocol`), so both engines price certification identically.
pub const CENSUS_BYTES: u64 = 12;

/// An order-independent summary of a set of contributing peers: how many,
/// plus the xor of a 64-bit mix of each peer id. Two censuses are equal
/// exactly when the underlying peer sets are (up to a ~2⁻⁶⁴ xor
/// collision), and merging is associative/commutative, so censuses can be
/// combined up the tree in any arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Census {
    /// Number of contributing peers.
    pub count: u32,
    /// Xor over `mix64(peer index)` of every contributor.
    pub digest: u64,
}

impl Census {
    /// The empty census.
    pub fn empty() -> Self {
        Census::default()
    }

    /// The census of exactly one peer.
    pub fn solo(peer: PeerId) -> Self {
        Census {
            count: 1,
            digest: mix64(peer.index() as u64),
        }
    }

    /// Adds one peer.
    pub fn add(&mut self, peer: PeerId) {
        self.merge(Census::solo(peer));
    }

    /// Merges another census (disjoint union); the count saturates.
    pub fn merge(&mut self, other: Census) {
        self.count = self.count.saturating_add(other.count);
        self.digest ^= other.digest;
    }

    /// The delta between two censuses: absolute count difference and xor
    /// of digests. When `other` is a subset of `self`, this is exactly the
    /// census of the missing peers.
    pub fn minus(&self, other: Census) -> Census {
        Census {
            count: self.count.abs_diff(other.count),
            digest: self.digest ^ other.digest,
        }
    }
}

/// Censuses ride the tree beside the aggregates they certify, merged the
/// same way and priced at [`CENSUS_BYTES`].
impl Aggregate for Census {
    type Fold = OnArrival;

    fn merge(&mut self, other: &Self) {
        Census::merge(self, *other);
    }

    fn encoded_bytes(&self, _sizes: &crate::WireSizes) -> u64 {
        CENSUS_BYTES
    }
}

/// What the root can assert about one completed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certificate {
    /// Every peer alive at issue time contributed to both phases: the
    /// answer is the exact IFI over the live system.
    Complete,
    /// Some live peers' contributions never arrived (churn mid-epoch, a
    /// detached subtree, a just-promoted root's still-regrowing tree).
    Partial {
        /// Census delta between the issue-time roster and the phase that
        /// fell short.
        missing: Census,
    },
}

impl Certificate {
    /// What a root can certify from the issue-time `roster` and the two
    /// phases' contributor censuses: [`Complete`](Certificate::Complete)
    /// exactly when both equal the roster, otherwise
    /// [`Partial`](Certificate::Partial) against the first phase that
    /// fell short.
    pub fn from_phases(roster: Census, phase1: Census, phase2: Census) -> Self {
        match [phase1, phase2].into_iter().find(|&phase| phase != roster) {
            None => Certificate::Complete,
            Some(short) => Certificate::Partial {
                missing: roster.minus(short),
            },
        }
    }
}

/// The root's last step of an exact run: the merged candidates at or over
/// `threshold`, sorted by value descending, then id.
pub fn frequent_items(candidates: &MapSum, threshold: u64) -> Vec<(ItemId, u64)> {
    let over = candidates.0.iter().filter(|&(_, &v)| v >= threshold);
    let mut frequent: Vec<(ItemId, u64)> = over.map(|(&k, &v)| (k, v)).collect();
    frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    frequent
}

/// One completed epoch at the root.
#[derive(Debug, Clone)]
pub struct EpochResult {
    /// The epoch number.
    pub epoch: u64,
    /// When the acting root issued it.
    pub started_at: SimTime,
    /// The frequent items, sorted by value descending (ties by id).
    pub answer: Vec<(ItemId, u64)>,
    /// Census of peers alive when the epoch was issued.
    pub roster: Census,
    /// Census of phase-1 (group-vector) contributors.
    pub phase1: Census,
    /// Census of phase-2 (candidate) contributors.
    pub phase2: Census,
    /// Whether the answer is certified exact over the roster.
    pub certificate: Certificate,
}

impl EpochResult {
    /// Whether this epoch is certified complete.
    pub fn is_complete(&self) -> bool {
        self.certificate == Certificate::Complete
    }
}

/// Messages of the resilient protocol.
#[derive(Debug, Clone)]
pub enum RMsg {
    /// Embedded maintenance traffic (heartbeats, attach, detach), stamped
    /// with the sender's current epoch (0 and not charged in single-root
    /// mode). The stamps diffuse the newest epoch number across tree
    /// boundaries, which is what fences stale roots out.
    Maintain {
        /// The maintenance payload.
        m: MaintainMsg,
        /// The sender's current epoch (the failover fence gossip).
        epoch: u64,
    },
    /// Root-initiated epoch kickoff, flooded down the current tree.
    Start {
        /// The epoch being started.
        epoch: u64,
    },
    /// Phase-1 report moving rootward.
    GroupAgg {
        /// The epoch this report belongs to.
        epoch: u64,
        /// The merged subtree group vector.
        vector: VecSum,
        /// Census of the subtree's contributors.
        census: Census,
    },
    /// Phase-2a heavy lists moving leafward.
    Heavy {
        /// The epoch these lists belong to.
        epoch: u64,
        /// Per-filter heavy group ids.
        lists: HeavyLists,
    },
    /// Phase-2b candidate report moving rootward.
    CandidateAgg {
        /// The epoch this report belongs to.
        epoch: u64,
        /// The merged partial candidate set.
        candidates: MapSum,
        /// Census of the subtree's contributors.
        census: Census,
    },
}

/// Timers of the resilient protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RTimer {
    /// Periodic heartbeat/failure-detection tick.
    Tick,
    /// Acting root only: start the next query epoch.
    NewEpoch,
    /// Retransmission deadline of a reliable frame (only armed when
    /// reliability is enabled).
    Retransmit(RetransmitTimer),
}

impl From<RetransmitTimer> for RTimer {
    fn from(t: RetransmitTimer) -> Self {
        RTimer::Retransmit(t)
    }
}

/// Timing knobs for the resilient protocol.
///
/// The heartbeat `timeout` must exceed `interval` plus the worst one-way
/// network jitter, or healthy neighbors get spuriously suspected and
/// epochs silently lose their subtrees' contributions (the classic
/// failure-detector completeness/accuracy trade-off).
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// Heartbeat cadence and failure timeout.
    pub heartbeat: HeartbeatConfig,
    /// How often the acting root starts a fresh query epoch.
    pub query_period: Duration,
    /// How long the root lets an incomplete epoch run before superseding
    /// it. Without this guard a period shorter than one convergecast
    /// would livelock: every epoch would be superseded mid-flight.
    pub epoch_timeout: Duration,
    /// Multi-root mode: how long a succession candidate must stay
    /// *continuously* detached before claiming the root role. Must
    /// comfortably exceed one detect-and-reattach cycle, or transient
    /// repair churn triggers spurious takeovers.
    pub takeover_grace: Duration,
    /// Multi-root mode: extra grace per succession rank, so lower ranks
    /// win the takeover race and later ranks stand down as the winner's
    /// regrowing tree re-attaches them.
    pub takeover_stagger: Duration,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            heartbeat: HeartbeatConfig::default(),
            query_period: Duration::from_secs(10),
            epoch_timeout: Duration::from_secs(30),
            takeover_grace: Duration::from_secs(6),
            takeover_stagger: Duration::from_secs(3),
        }
    }
}

/// Smallest epoch number `> base` congruent to `rank (mod k)` — the
/// residue-class numbering that keeps concurrent roots' epochs disjoint.
fn next_epoch_in_class(base: u64, k: u64, rank: u64) -> u64 {
    debug_assert!(k > 0 && rank < k);
    let e = base + 1;
    e + (rank + k - e % k) % k
}

/// Per-peer state of the resilient protocol.
#[derive(Debug, Clone)]
pub struct ResilientProtocol {
    core: MaintainCore,
    local_filter: LocalFilter,
    sizes: crate::WireSizes,
    threshold: u64,
    me: PeerId,
    universe: usize,
    local_items: Vec<(ItemId, u64)>,
    rc: ResilientConfig,

    // --- root succession (multi-root mode; len 1 = legacy single root) ---
    /// Candidate roots, primary first (`MultiHierarchy::roots` order).
    succession: Vec<PeerId>,
    /// This peer's position in the succession line, if any.
    rank: Option<usize>,
    /// Whether this peer currently acts as the query root.
    active_root: bool,
    /// Since when this candidate has been continuously detached.
    detached_since: Option<SimTime>,
    /// Newest epoch number heard anywhere (stamps and `Start` floods).
    fence_epoch: u64,
    /// The epoch this acting root last issued, if any.
    issued: Option<u64>,
    /// The pending `NewEpoch` timer, cancelled on demotion.
    epoch_timer: Option<TimerToken>,

    // --- state of the epoch this peer is currently serving ---
    epoch: u64,
    epoch_parent: Option<PeerId>,
    p1_received: PeerSet,
    p1_acc: Option<VecSum>,
    p1_census: Census,
    p1_sent: bool,
    /// Whether this epoch's heavy lists have arrived (or, at the acting
    /// root, been computed) — all a peer keeps of them.
    heavy_seen: bool,
    p2_received: PeerSet,
    p2_acc: Option<MapSum>,
    p2_census: Census,
    p2_sent: bool,

    /// Root only: phase-1 census frozen when phase 2 began.
    p1_final: Option<Census>,
    /// Root only: live peers at issue time (the completeness yardstick).
    roster: Census,
    /// Root only: every completed epoch, oldest first.
    completed: Vec<EpochResult>,
    /// Root only: when the current epoch was started.
    epoch_started_at: SimTime,
    started_before: bool,
    /// Envelope of the query-critical traffic; plain unless enabled. It
    /// retains nothing: a revival only bumps the incarnation, and the
    /// next epoch re-asks over the repaired tree.
    env: Envelope<RMsg>,
    /// Regression toggle: restore the pre-fix aggregation bug where the
    /// per-sender insert-guard did not protect the merge, so a duplicated
    /// `GroupAgg`/`CandidateAgg` frame was folded in twice. Exists only so
    /// the schedule-exploration harness (`ifi-simcheck`) can prove it
    /// rediscovers the historical double-merge; never set in production.
    legacy_double_merge: bool,
}

impl ResilientProtocol {
    /// Creates the state for one peer with a root-succession line: every
    /// peer serves `multi`'s primary tree, and its roots (primary first)
    /// form the failover order. A one-tree `multi` is a single root with
    /// no live failover: if it dies, epochs stop until it revives.
    #[allow(clippy::too_many_arguments)]
    pub fn new_multi(
        config: &NetFilterConfig,
        rc: ResilientConfig,
        multi: &MultiHierarchy,
        peer: PeerId,
        neighbors: Vec<PeerId>,
        local_items: Vec<(ItemId, u64)>,
        threshold: u64,
    ) -> Self {
        let (hierarchy, succession) = (multi.primary(), multi.roots());
        let family = HashFamily::new(config.filters, config.filter_size, config.hash_seed);
        let rank = succession.iter().position(|&r| r == peer);
        ResilientProtocol {
            core: MaintainCore::new(hierarchy, peer, neighbors, rc.heartbeat),
            local_filter: LocalFilter::new(family),
            sizes: config.sizes,
            threshold,
            me: peer,
            universe: hierarchy.universe(),
            local_items,
            rc,
            succession,
            rank,
            active_root: rank == Some(0),
            detached_since: None,
            fence_epoch: 0,
            issued: None,
            epoch_timer: None,
            epoch: 0,
            epoch_parent: None,
            p1_received: PeerSet::new(),
            p1_acc: None,
            p1_census: Census::empty(),
            p1_sent: false,
            heavy_seen: false,
            p2_received: PeerSet::new(),
            p2_acc: None,
            p2_census: Census::empty(),
            p2_sent: false,
            p1_final: None,
            roster: Census::empty(),
            completed: Vec::new(),
            epoch_started_at: SimTime::ZERO,
            started_before: false,
            env: Envelope::plain(),
            legacy_double_merge: false,
        }
    }

    /// Re-enables the historical pre-fix behavior where the insert-guard on
    /// aggregation frames did not protect the merge, so duplicated frames
    /// inflated the aggregate. Test tooling only (see `ifi-simcheck`'s
    /// pinned regression cases).
    #[doc(hidden)]
    pub fn enable_legacy_double_merge(&mut self) {
        self.legacy_double_merge = true;
    }

    /// Enables the ack/retransmit envelope for query-critical messages.
    ///
    /// `Start`, `GroupAgg`, `Heavy` and `CandidateAgg` frames are then
    /// sequenced, acknowledged and retransmitted with exponential backoff;
    /// receivers drop duplicates before dispatching the payload.
    /// Maintenance traffic is untouched.
    #[must_use]
    pub fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.env = Envelope::reliable(cfg);
        self
    }

    /// One core per peer of `data`, on `topology`'s neighbor lists and
    /// `multi`'s succession line (see [`new_multi`](Self::new_multi)).
    /// `rel` wraps every peer's query-critical traffic in the reliability
    /// envelope.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn peers(
        config: &NetFilterConfig,
        rc: ResilientConfig,
        topology: &Topology,
        multi: &MultiHierarchy,
        data: &SystemData,
        rel: Option<RelConfig>,
    ) -> Vec<ResilientProtocol> {
        let n = data.peer_count();
        assert_eq!(multi.primary().universe(), n, "universe mismatch");
        assert_eq!(topology.peer_count(), n, "universe mismatch");
        let threshold = config.threshold.resolve(data.total_value());
        (0..n)
            .map(|i| {
                let p = PeerId::new(i);
                let (nb, items) = (topology.neighbors(p).to_vec(), data.local_items(p).to_vec());
                let core = ResilientProtocol::new_multi(config, rc, multi, p, nb, items, threshold);
                match &rel {
                    None => core,
                    Some(cfg) => core.with_reliability(cfg.clone()),
                }
            })
            .collect()
    }

    /// Root only: the completed epochs, oldest first.
    pub fn completed_epochs(&self) -> &[EpochResult] {
        &self.completed
    }

    /// Root only: the newest completed `(epoch, answer)`.
    pub fn last_result(&self) -> Option<(u64, &[(ItemId, u64)])> {
        self.completed.last().map(|r| (r.epoch, &r.answer[..]))
    }

    /// Root only: the newest epoch certified [`Certificate::Complete`].
    pub fn last_complete(&self) -> Option<&EpochResult> {
        self.completed.iter().rev().find(|r| r.is_complete())
    }

    /// Whether this peer currently acts as the query root.
    pub fn is_active_root(&self) -> bool {
        self.active_root
    }

    /// This peer's position in the succession line, if any.
    pub fn rank(&self) -> Option<usize> {
        self.rank
    }

    /// The epoch this peer currently serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the peer is currently detached from the tree.
    pub fn is_detached(&self) -> bool {
        self.core.is_detached()
    }

    /// The resolved threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Whether live failover is in play (more than one candidate root).
    fn multi(&self) -> bool {
        self.succession.len() > 1
    }

    fn flush_maintain(&mut self, fx: &mut Effects<Self>, out: ifi_hierarchy::Outbox) {
        // Handlers interleave repair and query traffic, so each send site
        // re-marks its phase just before sending.
        fx.mark_phase(phases::MAINTENANCE);
        let hb = self.rc.heartbeat.bytes;
        let multi = self.multi();
        let stamp = if multi { self.epoch } else { 0 };
        for (to, msg) in out {
            let (bytes, class) = match msg {
                MaintainMsg::Heartbeat { .. } => (hb, MsgClass::HEARTBEAT),
                _ => (8, MsgClass::CONTROL),
            };
            fx.send(
                to,
                ReliableMsg::Plain(RMsg::Maintain {
                    m: msg,
                    epoch: stamp,
                }),
                bytes,
                class,
            );
            // The fence stamp is only on the wire in multi-root mode; it is
            // charged as piggyback so maintenance classes stay
            // byte-identical to the single-root protocol.
            if multi {
                fx.charge(MsgClass::FAILOVER, STAMP_BYTES);
            }
        }
    }

    fn reset_epoch(&mut self, epoch: u64, parent: Option<PeerId>) {
        self.epoch = epoch;
        self.epoch_parent = parent;
        self.p1_received.clear();
        self.p1_acc = Some(self.local_filter.group_vector(&self.local_items));
        self.p1_census = Census::solo(self.me);
        self.p1_sent = false;
        self.heavy_seen = false;
        self.p2_received.clear();
        self.p2_acc = None;
        self.p2_census = Census::solo(self.me);
        self.p2_sent = false;
        self.p1_final = None;
    }

    fn children_covered(&self, received: &PeerSet) -> bool {
        self.core.children().iter().all(|&c| received.contains(c))
    }

    fn check_p1(&mut self, fx: &mut Effects<Self>) {
        if self.p1_sent
            || self.p1_acc.is_none()
            || !self.children_covered(&self.p1_received.clone())
        {
            return;
        }
        self.p1_sent = true;
        let acc = self.p1_acc.take().expect("guarded above");
        if self.active_root {
            let heavy =
                HeavyGroups::from_aggregate(self.local_filter.family(), &acc, self.threshold);
            self.enter_phase2(fx, heavy);
        } else if let Some(parent) = self.epoch_parent {
            let bytes = acc.encoded_bytes(&self.sizes);
            let census = self.p1_census;
            fx.mark_phase(phases::FILTERING);
            self.env.send(
                fx,
                parent,
                RMsg::GroupAgg {
                    epoch: self.epoch,
                    vector: acc,
                    census,
                },
                bytes,
                MsgClass::FILTERING,
            );
            fx.charge(MsgClass::FAILOVER, CENSUS_BYTES);
        }
    }

    fn enter_phase2(&mut self, fx: &mut Effects<Self>, heavy: HeavyGroups) {
        if self.active_root {
            self.p1_final = Some(self.p1_census);
        }
        let list_bytes = self.sizes.sg * heavy.total_heavy() as u64;
        fx.mark_phase(phases::DISSEMINATION);
        for c in self.core.children() {
            self.env.send(
                fx,
                c,
                RMsg::Heavy {
                    epoch: self.epoch,
                    lists: heavy.clone().into(),
                },
                list_bytes,
                MsgClass::DISSEMINATION,
            );
        }
        self.p2_acc = Some(
            self.local_filter
                .partial_candidates(&self.local_items, &heavy),
        );
        self.heavy_seen = true;
        self.check_p2(fx);
    }

    fn check_p2(&mut self, fx: &mut Effects<Self>) {
        if self.p2_sent
            || !self.heavy_seen
            || self.p2_acc.is_none()
            || !self.children_covered(&self.p2_received.clone())
        {
            return;
        }
        self.p2_sent = true;
        let acc = self.p2_acc.take().expect("guarded above");
        if self.active_root {
            let phase1 = self.p1_final.unwrap_or(self.p1_census);
            let phase2 = self.p2_census;
            let result = EpochResult {
                epoch: self.epoch,
                started_at: self.epoch_started_at,
                answer: frequent_items(&acc, self.threshold),
                roster: self.roster,
                phase1,
                phase2,
                certificate: Certificate::from_phases(self.roster, phase1, phase2),
            };
            fx.deliver(result.clone());
            self.completed.push(result);
        } else if let Some(parent) = self.epoch_parent {
            let bytes = acc.encoded_bytes(&self.sizes);
            let census = self.p2_census;
            fx.mark_phase(phases::AGGREGATION);
            self.env.send(
                fx,
                parent,
                RMsg::CandidateAgg {
                    epoch: self.epoch,
                    candidates: acc,
                    census,
                },
                bytes,
                MsgClass::AGGREGATION,
            );
            fx.charge(MsgClass::FAILOVER, CENSUS_BYTES);
        }
    }

    /// Reacts to an epoch number gossiped by a maintenance stamp or a
    /// `Start` flood: advance the fence, and — the split-brain breaker —
    /// an acting root that hears a newer epoch issued by a *lower* rank
    /// stands down. The residue-class numbering makes the issuer's rank
    /// recoverable from the epoch number alone, and the primary (rank 0)
    /// can never be demoted this way.
    fn note_epoch(&mut self, fx: &mut Effects<Self>, heard: u64) {
        if heard > self.fence_epoch {
            self.fence_epoch = heard;
        }
        if !self.multi() || !self.active_root || heard <= self.epoch {
            return;
        }
        let issuer_rank = (heard % self.succession.len() as u64) as usize;
        if self.rank.is_some_and(|mine| issuer_rank < mine) {
            self.demote(fx);
        }
    }

    /// Steps down from the acting-root role: stop issuing epochs and
    /// detach-cascade the tree so it re-homes to the winner. The cascade
    /// is failover overhead, metered as such.
    fn demote(&mut self, fx: &mut Effects<Self>) {
        if !self.active_root {
            return;
        }
        self.active_root = false;
        self.issued = None;
        if let Some(t) = self.epoch_timer.take() {
            fx.cancel_timer(t);
        }
        let out = self.core.demote();
        let stamp = if self.multi() { self.epoch } else { 0 };
        fx.mark_phase(phases::FAILOVER);
        for (to, m) in out {
            fx.send(
                to,
                ReliableMsg::Plain(RMsg::Maintain { m, epoch: stamp }),
                8,
                MsgClass::FAILOVER,
            );
        }
    }

    /// Claims the root role and immediately issues an epoch. The tree is
    /// still regrowing around the new root, so the first epochs are
    /// honestly reported as `Partial`; once repair converges they certify
    /// `Complete` again.
    fn promote(&mut self, fx: &mut Effects<Self>) {
        self.active_root = true;
        self.detached_since = None;
        self.core.promote_to_root();
        if let Some(t) = self.epoch_timer.take() {
            fx.cancel_timer(t);
        }
        self.epoch_timer = Some(fx.set_timer(Duration::ZERO, RTimer::NewEpoch));
    }

    /// Succession candidates promote themselves after staying continuously
    /// detached for the rank-staggered grace period: the only way a
    /// candidate stays detached that long is that no tree with a live,
    /// lower-ranked root is reachable.
    fn check_takeover(&mut self, fx: &mut Effects<Self>, now: SimTime) {
        if !self.multi() || self.active_root {
            return;
        }
        let Some(rank) = self.rank else { return };
        if !self.core.is_detached() {
            self.detached_since = None;
            return;
        }
        let since = *self.detached_since.get_or_insert(now);
        let wait = self.rc.takeover_grace + self.rc.takeover_stagger.saturating_mul(rank as u64);
        if now.duration_since(since) >= wait {
            self.promote(fx);
        }
    }

    /// Acting root: issue the next epoch over the current tree. Snapshots
    /// the roster of live peers — an out-of-band membership oracle used
    /// only to *label* the eventual result (see [`Certificate`]), never to
    /// steer the protocol.
    fn issue_epoch(&mut self, fx: &mut Effects<Self>, now: SimTime, env: &dyn Membership) {
        let k = self.succession.len() as u64;
        let rank = self.rank.unwrap_or(0) as u64;
        let next = next_epoch_in_class(self.epoch.max(self.fence_epoch), k, rank);
        self.reset_epoch(next, None);
        self.issued = Some(next);
        self.epoch_started_at = now;
        let mut roster = Census::empty();
        for i in 0..self.universe {
            let p = PeerId::new(i);
            if env.is_up(p) {
                roster.add(p);
            }
        }
        self.roster = roster;
        fx.mark_phase(phases::EPOCH);
        for c in self.core.children() {
            self.env.send(
                fx,
                c,
                RMsg::Start { epoch: next },
                START_BYTES,
                MsgClass::CONTROL,
            );
        }
        self.check_p1(fx);
    }

    /// Handles an unwrapped (post-envelope) protocol message.
    fn on_payload(&mut self, fx: &mut Effects<Self>, now: SimTime, from: PeerId, msg: RMsg) {
        match msg {
            RMsg::Maintain { m, epoch } => {
                self.note_epoch(fx, epoch);
                let out = self.core.on_message(from, m, now);
                self.flush_maintain(fx, out);
            }
            RMsg::Start { epoch } => {
                if epoch <= self.epoch {
                    return;
                }
                if self.active_root {
                    // A concurrent root's flood reached us directly. Stand
                    // down only to a lower rank; otherwise keep the role
                    // (the stale higher rank will hear us and demote).
                    let issuer_rank = (epoch % self.succession.len() as u64) as usize;
                    if self.rank.is_none_or(|mine| issuer_rank >= mine) {
                        return;
                    }
                    self.demote(fx);
                }
                if epoch > self.fence_epoch {
                    self.fence_epoch = epoch;
                }
                self.reset_epoch(epoch, Some(from));
                fx.mark_phase(phases::EPOCH);
                for c in self.core.children() {
                    self.env
                        .send(fx, c, RMsg::Start { epoch }, START_BYTES, MsgClass::CONTROL);
                }
                self.check_p1(fx);
            }
            RMsg::GroupAgg {
                epoch,
                vector,
                census,
            } => {
                // The insert-guard runs *before* the merge so a duplicated
                // frame (plain mode under duplication faults) can corrupt
                // neither the aggregate nor the census. The legacy toggle
                // re-opens exactly that hole: a duplicate merges again.
                if epoch != self.epoch || self.p1_sent {
                    return;
                }
                let Some(acc) = self.p1_acc.as_mut() else {
                    return;
                };
                // A decodable report of the wrong dimension, or counting
                // more peers than exist, is a broken child, not a reason
                // to take this peer down with it. (Bounding each report
                // rather than the merged count keeps a double merge an
                // inflated answer, which the legacy toggle must show.)
                if vector.len() != acc.len() || census.count as usize > self.universe {
                    return fx.warn("malformed-report");
                }
                let fresh = self.p1_received.insert(from);
                if fresh || self.legacy_double_merge {
                    acc.merge_owned(vector);
                    self.p1_census.merge(census);
                    self.check_p1(fx);
                }
            }
            RMsg::Heavy { epoch, lists } => {
                if epoch == self.epoch && !self.heavy_seen && Some(from) == self.epoch_parent {
                    match HeavyGroups::for_family(self.local_filter.family(), lists) {
                        Some(heavy) => self.enter_phase2(fx, heavy),
                        None => fx.warn("malformed-report"),
                    }
                }
            }
            RMsg::CandidateAgg {
                epoch,
                candidates,
                census,
            } => {
                if epoch == self.epoch && !self.p2_sent && self.p2_acc.is_some() {
                    if census.count as usize > self.universe {
                        return fx.warn("malformed-report");
                    }
                    let fresh = self.p2_received.insert(from);
                    if fresh || self.legacy_double_merge {
                        self.p2_acc
                            .as_mut()
                            .expect("guarded above")
                            .merge_owned(candidates);
                        self.p2_census.merge(census);
                        self.check_p2(fx);
                    }
                }
            }
        }
    }

    fn on_timer(
        &mut self,
        fx: &mut Effects<Self>,
        now: SimTime,
        env: &dyn Membership,
        timer: RTimer,
    ) {
        match timer {
            RTimer::Tick => {
                let outcome = self.core.on_tick(now);
                // Stop retransmitting toward peers that just died: every
                // pending frame to them would otherwise burn its full
                // retry budget against a silent destination.
                for &d in &outcome.newly_dead {
                    self.env.abandon(d);
                }
                self.flush_maintain(fx, outcome.out);
                fx.set_timer(self.rc.heartbeat.interval, RTimer::Tick);
                self.check_takeover(fx, now);
                if outcome.changed {
                    // A dropped child may have been the last straggler.
                    self.check_p1(fx);
                    self.check_p2(fx);
                }
            }
            RTimer::NewEpoch => {
                if !self.active_root {
                    // Left over from a demoted incarnation; let the chain
                    // die rather than re-arm it.
                    self.epoch_timer = None;
                    return;
                }
                // Start the next epoch if the current one finished (or
                // none was issued yet); supersede it only once it has been
                // in flight longer than `epoch_timeout`.
                let current_done = match self.issued {
                    None => true,
                    Some(e) => self.completed.last().is_some_and(|r| r.epoch == e),
                };
                let timed_out = now >= self.epoch_started_at + self.rc.epoch_timeout;
                if current_done || timed_out {
                    self.issue_epoch(fx, now, env);
                }
                self.epoch_timer = Some(fx.set_timer(self.rc.query_period, RTimer::NewEpoch));
            }
            RTimer::Retransmit(t) => {
                if self.env.resends(t) {
                    fx.mark_phase(phases::RETRANSMIT);
                }
                // Giving up is silent: the destination is unreachable (or
                // the frame belongs to a long-superseded epoch), and the
                // stalled epoch is exactly what the root's `NewEpoch`
                // timeout supersedes over the repaired tree.
                self.env.on_retransmit(fx, t);
            }
        }
    }
}

impl SansIo for ResilientProtocol {
    type Msg = ReliableMsg<RMsg>;
    type Timer = RTimer;
    type Output = EpochResult;

    fn on_event(
        &mut self,
        ev: NodeEvent<ReliableMsg<RMsg>, RTimer>,
        now: SimTime,
        env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => {
                if self.started_before {
                    // Revival: in multi-root mode an ex-root first renounces
                    // any stale claim to the role (cascading Detach to
                    // children that never noticed the crash), then rejoins
                    // detached like any §III-A.3 newcomer. In single-root
                    // mode the lone root must keep its role or queries would
                    // stop forever.
                    if self.multi() {
                        self.demote(fx);
                    }
                    self.core.rejoin(now);
                    // The restart also invalidates the reliability window:
                    // a new incarnation keeps late pre-crash duplicates
                    // from double-dispatching against the fresh sequence
                    // space.
                    self.env.restart();
                } else {
                    self.started_before = true;
                    self.core.start(now);
                }
                fx.set_timer(self.rc.heartbeat.interval, RTimer::Tick);
                if self.active_root {
                    self.epoch_timer = Some(fx.set_timer(self.rc.query_period, RTimer::NewEpoch));
                }
            }
            NodeEvent::Message { from, msg } => {
                // Ack every copy, dispatch only the first: a duplicate
                // `GroupAgg` or `CandidateAgg` would double-merge.
                if self.env.acks(&msg) {
                    fx.mark_phase(phases::RETRANSMIT);
                }
                if let Some(payload) = self.env.on_frame(fx, from, msg) {
                    self.on_payload(fx, now, from, payload);
                }
            }
            NodeEvent::Timer { tag } => self.on_timer(fx, now, env, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Threshold;
    use ifi_hierarchy::Hierarchy;
    use ifi_sim::{sansio_world, DetRng, SimConfig, SimTime};
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn rc() -> ResilientConfig {
        ResilientConfig {
            heartbeat: HeartbeatConfig {
                interval: Duration::from_millis(500),
                timeout: Duration::from_millis(1600),
                bytes: 8,
            },
            query_period: Duration::from_secs(8),
            epoch_timeout: Duration::from_secs(24),
            takeover_grace: Duration::from_secs(4),
            takeover_stagger: Duration::from_secs(3),
        }
    }

    /// A one-tree (no failover) system rooted at peer 0.
    fn setup(n: usize, seed: u64) -> (Topology, MultiHierarchy, SystemData, NetFilterConfig) {
        let mut rng = DetRng::new(seed);
        let topo = Topology::random_regular(n, 5, &mut rng);
        let h = MultiHierarchy::with_roots(&topo, &[PeerId::new(0)]);
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: n,
                items: 2_000,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        );
        let cfg = NetFilterConfig::builder()
            .filter_size(40)
            .filters(3)
            .threshold(Threshold::Ratio(0.01))
            .build();
        (topo, h, data, cfg)
    }

    #[test]
    fn census_algebra_tracks_peer_sets() {
        let mut all = Census::empty();
        for i in 0..10 {
            all.add(PeerId::new(i));
        }
        // Merging two disjoint halves reproduces the full census.
        let mut left = Census::empty();
        let mut right = Census::empty();
        for i in 0..10 {
            if i < 5 {
                left.add(PeerId::new(i))
            } else {
                right.add(PeerId::new(i))
            }
        }
        let mut merged = left;
        merged.merge(right);
        assert_eq!(merged, all);
        // Removing one contributor is detected, and `minus` names it.
        let mut short = Census::empty();
        for i in 0..9 {
            short.add(PeerId::new(i));
        }
        assert_ne!(short, all);
        assert_eq!(all.minus(short), Census::solo(PeerId::new(9)));
        // Order independence.
        let mut rev = Census::empty();
        for i in (0..10).rev() {
            rev.add(PeerId::new(i));
        }
        assert_eq!(rev, all);
    }

    #[test]
    fn residue_class_numbering_keeps_roots_disjoint() {
        // k = 1 reproduces the legacy epoch + 1 sequence exactly.
        for base in 0..5 {
            assert_eq!(next_epoch_in_class(base, 1, 0), base + 1);
        }
        // Each rank stays in its residue class and always advances.
        for k in 2..5u64 {
            for rank in 0..k {
                for base in 0..20 {
                    let e = next_epoch_in_class(base, k, rank);
                    assert!(e > base);
                    assert_eq!(e % k, rank);
                    assert!(e - base <= k, "skipped a whole period");
                }
            }
        }
    }

    #[test]
    fn quiet_network_completes_every_epoch_exactly() {
        let (topo, h, data, cfg) = setup(60, 111);
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(0.01);
        let mut w = sansio_world(
            SimConfig::default().with_seed(1),
            ResilientProtocol::peers(&cfg, rc(), &topo, &h, &data, None),
        );
        w.start();
        w.run_until(SimTime::from_micros(30_000_000));

        let root = w.peer(PeerId::new(0));
        let done = root.completed_epochs();
        assert!(done.len() >= 3, "only {} epochs completed", done.len());
        for er in done {
            assert_eq!(
                er.answer,
                truth.frequent_items(t),
                "epoch {} wrong",
                er.epoch
            );
            assert!(
                er.is_complete(),
                "epoch {} not certified complete on a quiet network",
                er.epoch
            );
            assert_eq!(er.roster.count, 60);
        }
        // Epochs are strictly increasing.
        assert!(done.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    #[test]
    fn malformed_phase_payloads_warn_and_drop_instead_of_panicking() {
        use ifi_sim::{AllUp, Effect};

        let h = MultiHierarchy::from_trees(vec![Hierarchy::balanced(3, 2)]);
        let cfg = NetFilterConfig::builder()
            .filter_size(8)
            .filters(2)
            .threshold(Threshold::Absolute(1))
            .build();
        let (root, child) = (PeerId::new(0), PeerId::new(1));
        let core = |p: PeerId, neighbors| {
            ResilientProtocol::new_multi(&cfg, rc(), &h, p, neighbors, vec![(ItemId(7), 3)], 1)
        };
        /// Feeds one event; returns the warnings and how many frames left.
        fn feed(
            core: &mut ResilientProtocol,
            ev: NodeEvent<ReliableMsg<RMsg>, RTimer>,
        ) -> (Vec<&'static str>, usize) {
            let mut fx = Effects::new();
            core.on_event(ev, SimTime::ZERO, &AllUp(3), &mut fx);
            let (mut warnings, mut sends) = (Vec::new(), 0);
            for effect in fx.drain() {
                match effect {
                    Effect::Warn { label } => warnings.push(label),
                    Effect::Send { .. } => sends += 1,
                    _ => {}
                }
            }
            (warnings, sends)
        }
        let from = |from, m| NodeEvent::Message {
            from,
            msg: ReliableMsg::Plain(m),
        };

        // The root, one epoch in: a child's report of the wrong dimension.
        let mut r = core(root, vec![child, PeerId::new(2)]);
        feed(&mut r, NodeEvent::Start);
        feed(
            &mut r,
            NodeEvent::Timer {
                tag: RTimer::NewEpoch,
            },
        );
        let epoch = r.epoch();
        let report = |slots| RMsg::GroupAgg {
            epoch,
            vector: VecSum::from(vec![1; slots]),
            census: Census::solo(child),
        };
        assert_eq!(
            feed(&mut r, from(child, report(15))).0,
            ["malformed-report"]
        );
        // It was not counted as the child's report: the genuine one merges.
        assert!(feed(&mut r, from(child, report(16))).0.is_empty());

        // A leaf, its epoch started by the root: lists with a group id
        // ≥ g, then fewer than f lists, then the genuine ones.
        let mut c = core(child, vec![root]);
        feed(&mut c, NodeEvent::Start);
        feed(&mut c, from(root, RMsg::Start { epoch }));
        let heavy = |lists: Vec<Vec<u32>>| RMsg::Heavy {
            epoch,
            lists: lists.into(),
        };
        for lists in [vec![vec![1], vec![8]], vec![vec![1]]] {
            assert_eq!(
                feed(&mut c, from(root, heavy(lists))),
                (vec!["malformed-report"], 0)
            );
        }
        let (warnings, sends) = feed(&mut c, from(root, heavy(vec![vec![1], vec![7]])));
        assert!(warnings.is_empty());
        assert_eq!(sends, 1, "the leaf answers the genuine lists");
    }

    #[test]
    fn a_census_counting_past_the_universe_is_dropped_not_wrapped() {
        use ifi_sim::{AllUp, Effect};

        let h = MultiHierarchy::from_trees(vec![Hierarchy::balanced(3, 2)]);
        let cfg = NetFilterConfig::builder()
            .filter_size(8)
            .filters(2)
            .threshold(Threshold::Absolute(1))
            .build();
        let (root, child) = (PeerId::new(0), PeerId::new(1));
        let mut r = ResilientProtocol::new_multi(
            &cfg,
            rc(),
            &h,
            root,
            vec![child, PeerId::new(2)],
            vec![(ItemId(7), 3)],
            1,
        );
        let mut feed = |ev: NodeEvent<ReliableMsg<RMsg>, RTimer>| {
            let mut fx = Effects::new();
            r.on_event(ev, SimTime::ZERO, &AllUp(3), &mut fx);
            let warnings = fx.drain().filter_map(|e| match e {
                Effect::Warn { label } => Some(label),
                _ => None,
            });
            warnings.collect::<Vec<_>>()
        };
        feed(NodeEvent::Start);
        feed(NodeEvent::Timer {
            tag: RTimer::NewEpoch,
        });
        let epoch = 1;
        let report = |count| {
            let census = Census {
                count,
                ..Census::solo(child)
            };
            NodeEvent::Message {
                from: child,
                msg: ReliableMsg::Plain(RMsg::GroupAgg {
                    epoch,
                    vector: VecSum::from(vec![1; 16]),
                    census,
                }),
            }
        };
        // A count past the three peers that exist used to overflow the
        // root's merge: a panic in debug builds, a wrap in release.
        assert_eq!(feed(report(u32::MAX)), ["malformed-report"]);
        assert_eq!(feed(report(4)), ["malformed-report"]);
        // Neither was counted as the child's report: the genuine one merges.
        assert!(feed(report(1)).is_empty());
    }

    #[test]
    fn failure_mid_stream_recovers_in_later_epochs() {
        let (topo, h, data, cfg) = setup(60, 113);
        let mut w = sansio_world(
            SimConfig::default().with_seed(2),
            ResilientProtocol::peers(&cfg, rc(), &topo, &h, &data, None),
        );
        w.start();

        // Kill a depth-1 internal peer between epochs 1 and 2.
        let victim = *h
            .primary()
            .internal_nodes()
            .iter()
            .max_by_key(|&&p| h.primary().subtree_size(p))
            .expect("internal nodes exist");
        w.schedule_kill(SimTime::from_micros(9_000_000), victim);
        w.run_until(SimTime::from_micros(80_000_000));

        // Ground truth over survivors.
        let surviving = SystemData::from_local_sets(
            (0..60)
                .map(|i| {
                    if PeerId::new(i) == victim {
                        Vec::new()
                    } else {
                        data.local_items(PeerId::new(i)).to_vec()
                    }
                })
                .collect(),
            data.universe(),
        );
        let truth = GroundTruth::compute(&surviving);
        // Threshold was resolved against the original total; recompute it
        // the same way the protocol holds it fixed.
        let t = cfg.threshold.resolve(data.total_value());

        let root = w.peer(PeerId::new(0));
        let (last_epoch, last) = root.last_result().expect("epochs completed");
        assert!(last_epoch >= 3, "repair should allow later epochs");
        assert_eq!(
            last,
            &truth.frequent_items(t)[..],
            "steady-state epoch must be exact over survivors"
        );
        // Post-repair epochs certify complete over the 59 survivors.
        let last_complete = root.last_complete().expect("a complete epoch exists");
        assert_eq!(last_complete.roster.count, 59);
    }

    #[test]
    fn lossy_network_completion_certifies_exactness() {
        // 0.2% of all messages (heartbeats, attaches, query traffic)
        // vanish. An epoch completes only if every one of its messages
        // arrived — a lost Start/report stalls it and the next epoch
        // supersedes it — so *completion certifies exactness*, and the
        // Attach-refresh + children-expiry rules prevent the permanent
        // half-attached states a lost control message would otherwise
        // cause. (At percent-level loss virtually no epoch completes; a
        // deployment would add per-hop retransmission below this layer.)
        let (topo, h, data, cfg) = setup(60, 127);
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(0.01);
        let sim = SimConfig::default()
            .with_seed(6)
            .with_faults(ifi_sim::FaultPlan::none().with_drop(0.002));
        let mut w = sansio_world(
            sim,
            ResilientProtocol::peers(&cfg, rc(), &topo, &h, &data, None),
        );
        w.start();
        w.run_until(SimTime::from_micros(150_000_000));

        let root = w.peer(PeerId::new(0));
        let done = root.completed_epochs();
        assert!(
            done.len() >= 2,
            "only {} epochs completed under loss",
            done.len()
        );
        for er in done {
            assert_eq!(
                er.answer,
                truth.frequent_items(t),
                "epoch {} inexact",
                er.epoch
            );
            assert!(er.is_complete(), "epoch {} not certified", er.epoch);
        }
    }

    #[test]
    fn reliable_envelope_completes_epochs_under_heavy_loss() {
        // 10% of every message (including acks and retransmissions)
        // vanishes and 5% are duplicated, yet epochs keep completing
        // because query-critical frames are retransmitted until
        // acknowledged and duplicates are suppressed before they can
        // double-merge an accumulator. The failure-detector timeout is
        // widened so random heartbeat/Attach loss cannot masquerade as
        // churn (10 consecutive losses ~ 1e-10 per window): any inexact
        // epoch here would be a reliability bug, not a repair artifact.
        let (topo, h, data, cfg) = setup(60, 131);
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(0.01);
        let mut rcfg = rc();
        rcfg.heartbeat.timeout = Duration::from_secs(5);
        let faults = ifi_sim::FaultPlan::none()
            .with_drop(0.1)
            .with_duplication(0.05);
        let sim = SimConfig::default().with_seed(9).with_faults(faults);
        let mut w = sansio_world(
            sim,
            ResilientProtocol::peers(
                &cfg,
                rcfg,
                &topo,
                &h,
                &data,
                Some(ifi_sim::RelConfig::default()),
            ),
        );
        w.start();
        w.run_until(SimTime::from_micros(60_000_000));

        let root = w.peer(PeerId::new(0));
        let done = root.completed_epochs();
        assert!(
            done.len() >= 4,
            "retransmission should let epochs complete despite loss, got {}",
            done.len()
        );
        for er in done {
            assert_eq!(
                er.answer,
                truth.frequent_items(t),
                "epoch {} inexact",
                er.epoch
            );
            assert!(er.is_complete(), "epoch {} not certified", er.epoch);
        }
        // Loss actually fired: the kernel recorded dropped messages and
        // the retransmit class carried real traffic.
        assert!(w.metrics().dropped_messages() > 0);
        assert!(
            w.metrics().class_bytes(MsgClass::RETRANSMIT) > 0,
            "acks/retransmissions must be metered"
        );
    }

    #[test]
    fn revived_peer_rejoins_and_its_data_returns() {
        // A peer crashes and later revives with its local data intact; the
        // epochs completed while it was gone exclude its contribution, and
        // epochs after its rejoin include it again.
        let (topo, h, data, cfg) = setup(60, 119);
        let truth_full = GroundTruth::compute(&data);
        let t = cfg.threshold.resolve(data.total_value());

        let victim = *h.primary().leaves().first().expect("leaves exist");
        let victim_mass: u64 = data.local_items(victim).iter().map(|&(_, v)| v).sum();
        assert!(
            victim_mass > 0,
            "victim must hold data for the test to bite"
        );

        let mut w = sansio_world(
            SimConfig::default().with_seed(4),
            ResilientProtocol::peers(&cfg, rc(), &topo, &h, &data, None),
        );
        w.start();
        w.schedule_kill(SimTime::from_micros(9_000_000), victim);
        w.schedule_revive(SimTime::from_micros(40_000_000), victim);
        w.run_until(SimTime::from_micros(110_000_000));

        let root = w.peer(PeerId::new(0));
        let (last_epoch, last) = root.last_result().expect("epochs completed");
        assert!(last_epoch >= 5);
        // After rejoin, the answer covers the FULL data again.
        assert_eq!(
            last,
            &truth_full.frequent_items(t)[..],
            "post-revival epochs must include the returned peer's data"
        );
        // And the final epochs certify complete over all 60 peers again.
        let lc = root.last_complete().expect("complete epochs exist");
        assert_eq!(lc.roster.count, 60);
        // While the victim was down, completed epochs were still certified
        // complete — over the then-smaller roster of 59.
        assert!(root
            .completed_epochs()
            .iter()
            .any(|er| er.is_complete() && er.roster.count == 59));
    }

    #[test]
    fn stale_epoch_messages_are_ignored() {
        // Two epochs overlap under huge latency variance; results must
        // still be exact because stale messages are keyed out.
        let (topo, h, data, cfg) = setup(40, 117);
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(0.01);
        // Jitter stays below timeout − interval (1600 − 500 ms), so no
        // spurious suspicion; epochs still overlap because one convergecast
        // takes several round trips at this latency.
        let sim = SimConfig::default()
            .with_seed(3)
            .with_latency(ifi_sim::LatencyModel::Uniform {
                lo: Duration::from_millis(10),
                hi: Duration::from_millis(1_000),
            });
        let mut rcfg = rc();
        rcfg.query_period = Duration::from_secs(4); // epochs overlap in flight
        let mut w = sansio_world(
            sim,
            ResilientProtocol::peers(&cfg, rcfg, &topo, &h, &data, None),
        );
        w.start();
        w.run_until(SimTime::from_micros(60_000_000));
        let root = w.peer(PeerId::new(0));
        for er in root.completed_epochs() {
            assert_eq!(
                er.answer,
                truth.frequent_items(t),
                "epoch {} corrupted",
                er.epoch
            );
        }
        assert!(!root.completed_epochs().is_empty());
    }

    #[test]
    fn root_failover_keeps_epochs_coming() {
        // Kill the primary root mid-run: the rank-1 successor must detect
        // the death (continuous detachment), promote itself, and produce
        // epochs — eventually certified Complete over the survivors.
        let (topo, _h, data, cfg) = setup(60, 137);
        let multi =
            MultiHierarchy::with_roots(&topo, &[PeerId::new(0), PeerId::new(7), PeerId::new(23)]);
        let mut w = sansio_world(
            SimConfig::default().with_seed(5),
            ResilientProtocol::peers(&cfg, rc(), &topo, &multi, &data, None),
        );
        w.start();
        w.schedule_kill(SimTime::from_micros(12_300_000), PeerId::new(0));
        w.run_until(SimTime::from_micros(90_000_000));

        let successor = w.peer(PeerId::new(7));
        assert!(
            successor.is_active_root(),
            "rank-1 successor must have taken over"
        );
        let survivors = SystemData::from_local_sets(
            (0..60)
                .map(|i| {
                    if i == 0 {
                        Vec::new()
                    } else {
                        data.local_items(PeerId::new(i)).to_vec()
                    }
                })
                .collect(),
            data.universe(),
        );
        let truth = GroundTruth::compute(&survivors);
        let t = cfg.threshold.resolve(data.total_value());
        let lc = successor
            .last_complete()
            .expect("post-failover Complete epoch");
        assert_eq!(lc.roster.count, 59);
        assert_eq!(lc.answer, truth.frequent_items(t));
        // The fence keeps every successor epoch in its residue class and
        // above anything the dead primary issued.
        assert_eq!(lc.epoch % 3, 1, "rank-1 epochs live in residue class 1");
        // Rank 2 never promoted: the stagger let rank 1 win.
        assert!(!w.peer(PeerId::new(23)).is_active_root());
    }

    #[test]
    fn zero_churn_multi_run_charges_failover_as_piggyback_only() {
        // Without churn, a multi-root run must behave exactly like a
        // single-root run in the paper's message classes: the fence stamps
        // and censuses ride as FAILOVER piggyback bytes, and no demotion
        // or promotion traffic exists.
        let (topo, h, data, cfg) = setup(40, 139);
        let run_single = {
            let mut w = sansio_world(
                SimConfig::default().with_seed(8),
                ResilientProtocol::peers(&cfg, rc(), &topo, &h, &data, None),
            );
            w.start();
            w.run_until(SimTime::from_micros(30_000_000));
            let m = w.metrics();
            [
                m.class_bytes(MsgClass::FILTERING),
                m.class_bytes(MsgClass::DISSEMINATION),
                m.class_bytes(MsgClass::AGGREGATION),
                m.class_bytes(MsgClass::HEARTBEAT),
                m.class_bytes(MsgClass::CONTROL),
            ]
        };
        let multi = MultiHierarchy::with_roots(&topo, &[PeerId::new(0), PeerId::new(11)]);
        let mut w = sansio_world(
            SimConfig::default().with_seed(8),
            ResilientProtocol::peers(&cfg, rc(), &topo, &multi, &data, None),
        );
        w.start();
        w.run_until(SimTime::from_micros(30_000_000));
        let m = w.metrics();
        let run_multi = [
            m.class_bytes(MsgClass::FILTERING),
            m.class_bytes(MsgClass::DISSEMINATION),
            m.class_bytes(MsgClass::AGGREGATION),
            m.class_bytes(MsgClass::HEARTBEAT),
            m.class_bytes(MsgClass::CONTROL),
        ];
        assert_eq!(
            run_single, run_multi,
            "paper + maintenance classes must be byte-identical"
        );
        assert!(
            m.class_bytes(MsgClass::FAILOVER) > 0,
            "stamps and censuses must be metered"
        );
        let root = w.peer(PeerId::new(0));
        assert!(root.completed_epochs().iter().all(|er| er.is_complete()));
    }
}
