//! netFilter as a message-level protocol on the DES.
//!
//! The instant engine in [`crate::NetFilter`] evaluates the two phases by
//! tree walks; this module runs the *same* phases as real messages over
//! [`ifi_sim`], exercising asynchrony, per-hop latency, and completion
//! detection:
//!
//! 1. **Filtering convergecast** — every peer computes its local `f·g`
//!    group vector; leaves send at start, internal peers count down their
//!    children and forward the merged vector (`MsgClass::FILTERING`).
//! 2. **Heavy dissemination** — the root thresholds the aggregate and
//!    pushes the per-filter heavy-group lists down the tree
//!    (`MsgClass::DISSEMINATION`).
//! 3. **Candidate convergecast** — on receiving the lists, each peer
//!    materializes its partial candidate set (§III-C) and the sets merge
//!    upward (`MsgClass::AGGREGATION`); the root thresholds the exact
//!    values and stores the result.
//!
//! Equivalence with the instant engine — identical answers *and* identical
//! per-phase byte totals — is asserted by this module's tests and the
//! workspace integration suite.
//!
//! By default the protocol assumes a reliable network and a stable
//! hierarchy for the duration of one run (the paper recruits stable peers
//! for exactly this reason, §III-A). Under churn, the maintenance protocol
//! of `ifi-hierarchy` repairs the tree and the query is re-issued — see
//! the `failure_recovery` integration test. On lossy networks, enable the
//! ack/retransmit envelope ([`NetFilterProtocol::build_world_reliable`]):
//! every phase message is sequenced, acknowledged, retransmitted with
//! exponential backoff, and deduplicated at the receiver, so the answer
//! stays exact under drops, duplication, and reordering. Originals keep
//! their phase class; acks and retransmissions are metered separately
//! under [`MsgClass::RETRANSMIT`].

use ifi_agg::{Aggregate, MapSum, VecSum};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    sansio_world, Des, Effects, Membership, MsgClass, NodeEvent, PeerId, RelConfig, ReliableLink,
    ReliableMsg, Retransmit, SansIo, SimConfig, SimTime, World,
};
use ifi_workload::{ItemId, SystemData};

use crate::config::NetFilterConfig;
use crate::filter::{HeavyGroups, HeavyLists, LocalFilter};
use crate::hashing::HashFamily;
use crate::resilient::{Census, Certificate, CENSUS_BYTES};

/// Messages of the netFilter protocol.
#[derive(Debug, Clone)]
pub enum NfMsg {
    /// Phase 1: a merged item-group aggregate vector moving rootward.
    GroupAgg(VecSum),
    /// Phase 2a: the per-filter heavy-group lists moving leafward.
    Heavy(HeavyLists),
    /// Phase 2b: a merged partial candidate set moving rootward.
    CandidateAgg(MapSum),
    /// Census mode only: the merged contributor census of one phase
    /// (`1` or `2`), moving rootward beside the phase report it certifies.
    /// Metered at [`CENSUS_BYTES`] under [`MsgClass::FAILOVER`], exactly
    /// like the resilient engine's census piggyback, so enabling
    /// certification never touches the paper's phase classes.
    PhaseCensus {
        /// Which convergecast the census certifies: `1` or `2`.
        phase: u8,
        /// Merged census of every contributor in this subtree.
        census: Census,
    },
}

/// What the root hands the driver when a run completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfDelivery {
    /// The exact frequent-item answer, sorted by value descending, then id.
    pub answer: Vec<(ItemId, u64)>,
    /// What the root can certify about coverage (census mode only):
    /// [`Certificate::Complete`] when every roster member contributed to
    /// both phases, [`Certificate::Partial`] with the missing census
    /// otherwise. `None` when census mode is off.
    pub certificate: Option<Certificate>,
}

/// Timers of the netFilter protocol; only armed when the reliability
/// envelope is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfTimer {
    /// Retransmission check for the reliable frame numbered `seq`.
    Retransmit(u64),
}

/// One downstream neighbor and which of its reports have been merged —
/// the idempotency guard that makes duplicate or replayed reports
/// harmless.
#[derive(Debug, Clone, Copy)]
struct Child {
    id: PeerId,
    /// Bit set of [`Report`]s merged from this child.
    seen: u8,
}

/// The four kinds of rootward report a child sends, as [`Child::seen`] bits.
#[derive(Debug, Clone, Copy)]
enum Report {
    P1 = 1,
    P2 = 2,
    P1Census = 4,
    P2Census = 8,
}

/// Census-mode state: present only on peers given a roster.
#[derive(Debug, Clone)]
struct CensusState {
    /// The issue-time roster to certify against.
    roster: Census,
    /// Merged contributor censuses of this subtree (self plus children).
    p1: Census,
    p2: Census,
    /// Countdowns of children's phase censuses.
    p1_pending: usize,
    p2_pending: usize,
    certificate: Option<Certificate>,
}

/// Ack/retransmit envelope state: present only under reliability.
#[derive(Debug, Clone)]
struct Reliability {
    link: ReliableLink<NfMsg>,
    /// Originals produced so far `(to, msg, bytes)`: a revival re-sends
    /// them all (the crash lost every retransmit timer), charged as
    /// [`MsgClass::RETRANSMIT`].
    resend_buf: Vec<(PeerId, NfMsg, u64)>,
}

/// Per-peer state of the netFilter protocol.
///
/// Sized for `N = 10^5` of them in one address space: what only census
/// mode or the reliability envelope touches sits behind one pointer each,
/// the per-child seen-sets are bits beside the child ids, and the heavy
/// lists are used once and not kept.
#[derive(Debug, Clone)]
pub struct NetFilterProtocol {
    local_filter: LocalFilter,
    sizes: crate::WireSizes,
    threshold: u64,
    me: PeerId,
    parent: Option<PeerId>,
    children: Vec<Child>,
    is_root: bool,
    /// Whether this peer is a member of the hierarchy at all. Dead or
    /// detached peers stay in the universe but take no part in the run.
    is_member: bool,
    /// Whether `Start` has been handled once; a second `Start` marks a
    /// crash/revival and triggers the re-send path instead of re-init.
    started: bool,
    /// Whether the heavy lists have arrived (or, at the root, been
    /// computed) — all a peer keeps of them.
    heavy_seen: bool,
    local_items: Vec<(ItemId, u64)>,

    p1_pending: usize,
    p1_acc: Option<VecSum>,
    p2_pending: usize,
    p2_acc: Option<MapSum>,
    result: Option<Vec<(ItemId, u64)>>,

    /// `Some` switches census mode on for this peer (reports are
    /// accompanied by metered [`NfMsg::PhaseCensus`] messages, and the
    /// root emits a certificate).
    census: Option<Box<CensusState>>,
    /// `None` runs the classic fire-and-forget protocol (zero overhead,
    /// zero extra traffic).
    rel: Option<Box<Reliability>>,
}

// The diet above is what lets the N = 10^5 epoch fit its memory budget;
// a field added in line shows up here before it shows up as 100 000 copies.
const _: () = assert!(std::mem::size_of::<NetFilterProtocol>() <= 240);

impl NetFilterProtocol {
    /// Creates the state for `peer`. The threshold must already be
    /// resolved (the root learns `v` from the preliminary scalar
    /// aggregation, as in the paper).
    pub fn new(
        config: &NetFilterConfig,
        hierarchy: &Hierarchy,
        peer: PeerId,
        local_items: Vec<(ItemId, u64)>,
        threshold: u64,
    ) -> Self {
        let family = HashFamily::new(config.filters, config.filter_size, config.hash_seed);
        let children: Vec<Child> = hierarchy
            .children(peer)
            .iter()
            .map(|&id| Child { id, seen: 0 })
            .collect();
        NetFilterProtocol {
            local_filter: LocalFilter::new(family),
            sizes: config.sizes,
            threshold,
            me: peer,
            parent: hierarchy.parent(peer),
            is_root: hierarchy.root() == peer,
            is_member: hierarchy.is_member(peer),
            started: false,
            heavy_seen: false,
            local_items,
            p1_pending: children.len(),
            p1_acc: None,
            p2_pending: children.len(),
            p2_acc: None,
            children,
            result: None,
            census: None,
            rel: None,
        }
    }

    /// Enables the ack/retransmit envelope with the given tuning.
    pub fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.rel = Some(Box::new(Reliability {
            link: ReliableLink::new(cfg),
            resend_buf: Vec::new(),
        }));
        self
    }

    /// Enables census mode against the given issue-time roster: every
    /// rootward report travels with a metered [`NfMsg::PhaseCensus`], and
    /// the root's delivery carries a [`Certificate`] — `Complete` exactly
    /// when both phase censuses equal `roster`.
    pub fn with_census(mut self, roster: Census) -> Self {
        let me = Census::solo(self.me);
        self.census = Some(Box::new(CensusState {
            roster,
            p1: me,
            p2: me,
            p1_pending: self.children.len(),
            p2_pending: self.children.len(),
            certificate: None,
        }));
        self
    }

    /// The census of every hierarchy member — the roster a driver passes
    /// to [`with_census`](Self::with_census) when all members are expected
    /// to contribute.
    pub fn roster(hierarchy: &Hierarchy) -> Census {
        let mut census = Census::empty();
        for i in 0..hierarchy.universe() {
            let p = PeerId::new(i);
            if hierarchy.is_member(p) {
                census.add(p);
            }
        }
        census
    }

    /// The root's coverage certificate, once the run completes in census
    /// mode.
    pub fn certificate(&self) -> Option<Certificate> {
        self.census.as_ref().and_then(|c| c.certificate)
    }

    /// The world every `build_world*` returns: one core per peer of `data`,
    /// each passed through `configure`.
    fn build_world_with(
        config: &NetFilterConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        sim: SimConfig,
        configure: impl Fn(Self) -> Self,
    ) -> World<Des<NetFilterProtocol>> {
        assert_eq!(
            hierarchy.universe(),
            data.peer_count(),
            "hierarchy and data peer universes differ"
        );
        let threshold = config.threshold.resolve(data.total_value());
        let peers = (0..data.peer_count())
            .map(PeerId::new)
            .map(|p| {
                let items = data.local_items(p).to_vec();
                configure(NetFilterProtocol::new(
                    config, hierarchy, p, items, threshold,
                ))
            })
            .collect();
        sansio_world(sim, peers)
    }

    /// Builds a ready-to-run world over `hierarchy` and `data`.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy and data universes differ.
    pub fn build_world(
        config: &NetFilterConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        sim: SimConfig,
    ) -> World<Des<NetFilterProtocol>> {
        Self::build_world_with(config, hierarchy, data, sim, |core| core)
    }

    /// Like [`build_world`](Self::build_world), but with the ack/retransmit
    /// envelope enabled on every peer — required for exact answers when the
    /// simulation injects faults ([`ifi_sim::FaultPlan`]).
    pub fn build_world_reliable(
        config: &NetFilterConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        sim: SimConfig,
        rel: RelConfig,
    ) -> World<Des<NetFilterProtocol>> {
        Self::build_world_with(config, hierarchy, data, sim, |core| {
            core.with_reliability(rel.clone())
        })
    }

    /// Like [`build_world_reliable`](Self::build_world_reliable), with
    /// census mode on against the full member roster: the run's answer is
    /// accompanied by a coverage [`Certificate`] at the root.
    pub fn build_world_certified(
        config: &NetFilterConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        sim: SimConfig,
        rel: RelConfig,
    ) -> World<Des<NetFilterProtocol>> {
        let roster = Self::roster(hierarchy);
        Self::build_world_with(config, hierarchy, data, sim, |core| {
            core.with_reliability(rel.clone()).with_census(roster)
        })
    }

    /// The final result (root only, once the run quiesces).
    pub fn result(&self) -> Option<&[(ItemId, u64)]> {
        self.result.as_deref()
    }

    /// The resolved threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Sends a phase message, through the ack/retransmit envelope when
    /// reliability is enabled. The original is charged in `class` either
    /// way, so phase costs are loss-independent. Under reliability the
    /// original is also retained in the revival backlog: a crash loses
    /// every retransmit timer, so re-sending the backlog (as RETRANSMIT)
    /// is what keeps delivery guaranteed across restarts.
    fn send_phase(
        &mut self,
        fx: &mut Effects<Self>,
        to: PeerId,
        msg: NfMsg,
        bytes: u64,
        class: MsgClass,
    ) {
        match self.rel.as_deref_mut() {
            None => {
                fx.send(to, ReliableMsg::Plain(msg), bytes, class);
            }
            Some(rel) => {
                let (seq, frame) = rel.link.send_data(to, msg.clone(), bytes);
                let delay = rel.link.rto(seq, 0);
                fx.send(to, frame, bytes, class);
                fx.set_timer(delay, NfTimer::Retransmit(seq));
                rel.resend_buf.push((to, msg, bytes));
            }
        }
    }

    /// Sends a phase report to the parent and, in census mode, the merged
    /// census of `phase` beside it.
    fn report(
        &mut self,
        fx: &mut Effects<Self>,
        phase: u8,
        msg: NfMsg,
        bytes: u64,
        class: MsgClass,
    ) {
        let parent = self.parent.expect("non-root has a parent");
        self.send_phase(fx, parent, msg, bytes, class);
        if let Some(c) = self.census.as_deref() {
            let census = if phase == 1 { c.p1 } else { c.p2 };
            self.send_phase(
                fx,
                parent,
                NfMsg::PhaseCensus { phase, census },
                CENSUS_BYTES,
                MsgClass::FAILOVER,
            );
        }
    }

    /// Fires phase-1 completion once everything it needs has merged: the
    /// local vector (Start ran), every child's report, and — in census
    /// mode — every child's phase-1 census.
    fn maybe_complete_p1(&mut self, fx: &mut Effects<Self>) {
        let census_pending = self.census.as_ref().map_or(0, |c| c.p1_pending);
        if self.p1_acc.is_some() && self.p1_pending == 0 && census_pending == 0 {
            self.phase1_complete(fx);
        }
    }

    /// Phase-2 counterpart of [`maybe_complete_p1`](Self::maybe_complete_p1);
    /// `p2_acc` is set when the heavy lists arrive and taken at completion,
    /// so it doubles as the fired-once guard.
    fn maybe_complete_p2(&mut self, fx: &mut Effects<Self>) {
        let census_pending = self.census.as_ref().map_or(0, |c| c.p2_pending);
        if self.p2_acc.is_some() && self.p2_pending == 0 && census_pending == 0 {
            self.phase2_complete(fx);
        }
    }

    fn phase1_complete(&mut self, fx: &mut Effects<Self>) {
        let acc = self
            .p1_acc
            .take()
            .expect("phase-1 accumulator present until completion");
        if self.is_root {
            let heavy =
                HeavyGroups::from_aggregate(self.local_filter.family(), &acc, self.threshold);
            self.start_phase2(fx, heavy);
        } else {
            let bytes = acc.encoded_bytes(&self.sizes);
            self.report(fx, 1, NfMsg::GroupAgg(acc), bytes, MsgClass::FILTERING);
        }
    }

    fn start_phase2(&mut self, fx: &mut Effects<Self>, heavy: HeavyGroups) {
        // Forward the heavy lists to every downstream neighbor: each
        // message carries the handle, not a copy of the lists.
        let list_bytes = self.sizes.sg * heavy.total_heavy() as u64;
        for i in 0..self.children.len() {
            let child = self.children[i].id;
            let lists = NfMsg::Heavy(heavy.clone().into());
            self.send_phase(fx, child, lists, list_bytes, MsgClass::DISSEMINATION);
        }
        // Materialize the local partial candidate set (Algorithm 2 line 2).
        self.p2_acc = Some(
            self.local_filter
                .partial_candidates(&self.local_items, &heavy),
        );
        self.heavy_seen = true;
        self.maybe_complete_p2(fx);
    }

    fn phase2_complete(&mut self, fx: &mut Effects<Self>) {
        let acc = self
            .p2_acc
            .take()
            .expect("phase-2 accumulator present until completion");
        if self.is_root {
            let mut frequent: Vec<(ItemId, u64)> = acc
                .0
                .iter()
                .filter(|&(_, &v)| v >= self.threshold)
                .map(|(&k, &v)| (k, v))
                .collect();
            frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            if let Some(c) = self.census.as_deref_mut() {
                c.certificate = Some(if c.p1 == c.roster && c.p2 == c.roster {
                    Certificate::Complete
                } else if c.p1 != c.roster {
                    Certificate::Partial {
                        missing: c.roster.minus(c.p1),
                    }
                } else {
                    Certificate::Partial {
                        missing: c.roster.minus(c.p2),
                    }
                });
            }
            fx.deliver(NfDelivery {
                answer: frequent.clone(),
                certificate: self.certificate(),
            });
            self.result = Some(frequent);
        } else {
            let bytes = acc.encoded_bytes(&self.sizes);
            self.report(
                fx,
                2,
                NfMsg::CandidateAgg(acc),
                bytes,
                MsgClass::AGGREGATION,
            );
        }
    }

    /// Admission guard for a child's rootward message: the sender must be
    /// a child and `report` must not have been merged from it already.
    /// Returns the child's position — for [`Child::seen`] to be marked
    /// once the payload has passed its own checks — or the warning label
    /// to emit when the message must be dropped.
    fn admit(&self, from: PeerId, report: Report) -> Result<usize, &'static str> {
        let i = self
            .children
            .iter()
            .position(|c| c.id == from)
            .ok_or("unexpected-sender")?;
        if self.children[i].seen & report as u8 != 0 {
            return Err("duplicate-report");
        }
        Ok(i)
    }

    /// Handles a deduplicated protocol payload. Every arm is idempotent:
    /// a duplicate, replayed, misdirected, or malformed message is counted
    /// as a metered warning and dropped, never merged twice and never a
    /// panic — the property that lets a crashed-and-restarted sender
    /// blindly re-send its backlog, and that keeps one bad neighbor from
    /// taking a peer thread down.
    fn on_payload(&mut self, fx: &mut Effects<Self>, from: PeerId, msg: NfMsg) {
        let admitted = match &msg {
            NfMsg::GroupAgg(_) => self.admit(from, Report::P1),
            NfMsg::CandidateAgg(_) => self.admit(from, Report::P2),
            NfMsg::PhaseCensus { phase: 1, .. } if self.census.is_some() => {
                self.admit(from, Report::P1Census)
            }
            NfMsg::PhaseCensus { phase: 2, .. } if self.census.is_some() => {
                self.admit(from, Report::P2Census)
            }
            NfMsg::PhaseCensus { .. } => Err("unexpected-census"),
            NfMsg::Heavy(_) if Some(from) != self.parent => Err("unexpected-sender"),
            NfMsg::Heavy(_) if self.heavy_seen => Err("duplicate-report"),
            // From the parent: no child slot to mark.
            NfMsg::Heavy(_) => Ok(0),
        };
        let child = match admitted {
            Ok(child) => child,
            Err(warn) => return fx.warn(warn),
        };
        match msg {
            NfMsg::GroupAgg(v) => {
                let acc = self
                    .p1_acc
                    .as_mut()
                    .expect("phase-1 accumulator initialized at start");
                if v.len() != acc.len() {
                    return fx.warn("malformed-report");
                }
                acc.merge_owned(v);
                self.children[child].seen |= Report::P1 as u8;
                self.p1_pending -= 1;
                self.maybe_complete_p1(fx);
            }
            NfMsg::Heavy(lists) => match HeavyGroups::for_family(self.local_filter.family(), lists)
            {
                Some(heavy) => self.start_phase2(fx, heavy),
                None => fx.warn("malformed-report"),
            },
            NfMsg::CandidateAgg(m) => {
                self.p2_acc
                    .as_mut()
                    .expect("phase-2 accumulator set when heavy lists arrived")
                    .merge_owned(m);
                self.children[child].seen |= Report::P2 as u8;
                self.p2_pending -= 1;
                self.maybe_complete_p2(fx);
            }
            NfMsg::PhaseCensus { phase, census } => {
                let c = self.census.as_deref_mut().expect("admitted in census mode");
                if phase == 1 {
                    self.children[child].seen |= Report::P1Census as u8;
                    c.p1.merge(census);
                    c.p1_pending -= 1;
                    self.maybe_complete_p1(fx);
                } else {
                    self.children[child].seen |= Report::P2Census as u8;
                    c.p2.merge(census);
                    c.p2_pending -= 1;
                    self.maybe_complete_p2(fx);
                }
            }
        }
    }

    /// A second `Start` is a crash/revival (the DES `Revive` event, or the
    /// transport supervisor respawning a crashed peer thread). State
    /// survived — only the in-flight frames and armed timers died with the
    /// old life — so: bump the reliability incarnation (abandoning the old
    /// life's frames) and re-send every original this node ever produced,
    /// charged as RETRANSMIT. Receivers that already merged a copy warn
    /// and drop it (the `admit` guards); anyone else finally gets it.
    fn on_revival(&mut self, fx: &mut Effects<Self>) {
        let Some(rel) = self.rel.as_deref_mut() else {
            // Without the envelope there is no delivery guarantee to
            // restore (and no incarnation to bump); a revived peer just
            // resumes with its surviving state.
            return;
        };
        rel.link.on_restart();
        for (to, msg, bytes) in &rel.resend_buf {
            let (seq, frame) = rel.link.send_data(*to, msg.clone(), *bytes);
            let delay = rel.link.rto(seq, 0);
            fx.send(*to, frame, *bytes, MsgClass::RETRANSMIT);
            fx.set_timer(delay, NfTimer::Retransmit(seq));
        }
    }

    fn on_frame(&mut self, fx: &mut Effects<Self>, from: PeerId, msg: ReliableMsg<NfMsg>) {
        let payload = match msg {
            ReliableMsg::Plain(m) => m,
            ReliableMsg::Data { inc, seq, payload } => {
                let Some(link) = self.rel.as_deref_mut().map(|rel| &mut rel.link) else {
                    // A sequenced frame at a peer with no reliability
                    // envelope is a configuration mismatch between the two
                    // ends; drop it rather than take the node down.
                    fx.warn("sequenced-frame-without-reliability");
                    return;
                };
                let ack_bytes = link.cfg().ack_bytes;
                let fresh = link.accept(from, inc, seq);
                // Always ack — a duplicate usually means the first ack was
                // lost — but only fresh payloads reach the phase logic. The
                // ack echoes the frame's incarnation so the sender can
                // match it to the right life.
                fx.send(
                    from,
                    ReliableMsg::Ack { inc, seq },
                    ack_bytes,
                    MsgClass::RETRANSMIT,
                );
                if !fresh {
                    return;
                }
                payload
            }
            ReliableMsg::Ack { inc, seq } => {
                if let Some(rel) = self.rel.as_deref_mut() {
                    rel.link.on_ack(from, inc, seq);
                }
                return;
            }
        };
        self.on_payload(fx, from, payload);
    }

    fn on_retransmit(&mut self, fx: &mut Effects<Self>, timer: NfTimer) {
        let NfTimer::Retransmit(seq) = timer;
        let Some(rel) = self.rel.as_deref_mut() else {
            fx.warn("retransmit-timer-without-reliability");
            return;
        };
        match rel.link.retransmit(seq) {
            Retransmit::Resend {
                to,
                frame,
                bytes,
                next_delay,
            } => {
                fx.send(to, frame, bytes, MsgClass::RETRANSMIT);
                fx.set_timer(next_delay, NfTimer::Retransmit(seq));
            }
            Retransmit::Acked => {}
            Retransmit::GaveUp { .. } => {
                // A one-shot run has no coarser repair to escalate to; the
                // resilient engine's epoch supersession handles this case
                // (see `resilient.rs`). With default tuning this needs 17
                // consecutive losses of the same frame.
            }
        }
    }
}

impl SansIo for NetFilterProtocol {
    type Msg = ReliableMsg<NfMsg>;
    type Timer = NfTimer;
    type Output = NfDelivery;

    fn on_event(
        &mut self,
        ev: NodeEvent<ReliableMsg<NfMsg>, NfTimer>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => {
                if !self.is_member {
                    return; // not part of the hierarchy: contributes nothing
                }
                if self.started {
                    self.on_revival(fx);
                    return;
                }
                self.started = true;
                self.p1_acc = Some(self.local_filter.group_vector(&self.local_items));
                self.maybe_complete_p1(fx);
            }
            NodeEvent::Message { from, msg } => self.on_frame(fx, from, msg),
            NodeEvent::Timer { tag } => self.on_retransmit(fx, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetFilter, Threshold};
    use ifi_overlay::Topology;
    use ifi_sim::{DetRng, Duration, LatencyModel};
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn workload(peers: usize, items: u64, seed: u64) -> SystemData {
        SystemData::generate(
            &WorkloadParams {
                peers,
                items,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        )
    }

    fn config(g: u32, f: u32) -> NetFilterConfig {
        NetFilterConfig::builder()
            .filter_size(g)
            .filters(f)
            .threshold(Threshold::Ratio(0.01))
            .build()
    }

    #[test]
    fn protocol_matches_instant_engine_exactly() {
        let data = workload(60, 2_000, 81);
        let topo = Topology::random_regular(60, 4, &mut DetRng::new(2));
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let cfg = config(50, 3);

        let instant = NetFilter::new(cfg.clone()).run(&h, &data);

        let mut w =
            NetFilterProtocol::build_world(&cfg, &h, &data, SimConfig::default().with_seed(4));
        w.start();
        w.run_to_quiescence();

        let result = w
            .peer(PeerId::new(0))
            .result()
            .expect("root must finish")
            .to_vec();
        assert_eq!(result, instant.frequent_items());

        // Byte-for-byte identical per phase.
        let m = w.metrics();
        let c = instant.cost();
        assert_eq!(
            m.class_bytes(MsgClass::FILTERING),
            c.filtering.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::DISSEMINATION),
            c.dissemination.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::AGGREGATION),
            c.aggregation.iter().sum::<u64>()
        );
    }

    #[test]
    fn asynchrony_does_not_change_the_answer() {
        let data = workload(40, 1_000, 83);
        let h = Hierarchy::balanced(40, 3);
        let cfg = config(30, 2);
        let instant = NetFilter::new(cfg.clone()).run(&h, &data);

        for seed in [1u64, 2, 3] {
            let sim = SimConfig::default()
                .with_seed(seed)
                .with_latency(LatencyModel::Uniform {
                    lo: Duration::from_millis(5),
                    hi: Duration::from_millis(500),
                });
            let mut w = NetFilterProtocol::build_world(&cfg, &h, &data, sim);
            w.start();
            w.run_to_quiescence();
            assert_eq!(
                w.peer(PeerId::new(0)).result().expect("root finishes"),
                instant.frequent_items(),
                "divergence at sim seed {seed}"
            );
            assert_eq!(
                w.metrics().class_bytes(MsgClass::FILTERING),
                instant.cost().filtering.iter().sum::<u64>()
            );
        }
    }

    #[test]
    fn non_root_peers_hold_no_result() {
        let data = workload(20, 300, 85);
        let h = Hierarchy::balanced(20, 3);
        let mut w = NetFilterProtocol::build_world(&config(10, 2), &h, &data, SimConfig::default());
        w.start();
        w.run_to_quiescence();
        for i in 1..20 {
            assert!(w.peer(PeerId::new(i)).result().is_none());
        }
        assert!(w.peer(PeerId::new(0)).result().is_some());
    }

    #[test]
    fn answer_is_exact_against_ground_truth() {
        let data = workload(50, 1_500, 87);
        let truth = GroundTruth::compute(&data);
        let h = Hierarchy::balanced(50, 3);
        let mut w = NetFilterProtocol::build_world(&config(40, 3), &h, &data, SimConfig::default());
        w.start();
        w.run_to_quiescence();
        let t = truth.threshold_for_ratio(0.01);
        assert_eq!(
            w.peer(PeerId::new(0)).result().unwrap(),
            &truth.frequent_items(t)[..]
        );
    }

    #[test]
    fn reliability_at_zero_loss_adds_only_acks() {
        let data = workload(30, 800, 91);
        let h = Hierarchy::balanced(30, 3);
        let cfg = config(20, 2);
        let instant = NetFilter::new(cfg.clone()).run(&h, &data);

        let mut w = NetFilterProtocol::build_world_reliable(
            &cfg,
            &h,
            &data,
            SimConfig::default().with_seed(5),
            RelConfig::default(),
        );
        w.start();
        w.run_to_quiescence();

        assert_eq!(
            w.peer(PeerId::new(0)).result().expect("root finishes"),
            instant.frequent_items()
        );
        // Phase classes are untouched by the envelope...
        let m = w.metrics();
        let c = instant.cost();
        assert_eq!(
            m.class_bytes(MsgClass::FILTERING),
            c.filtering.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::DISSEMINATION),
            c.dissemination.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::AGGREGATION),
            c.aggregation.iter().sum::<u64>()
        );
        // ... and with no losses the only overhead is one ack per frame.
        let class_msgs = |cl: MsgClass| {
            (0..30)
                .map(|i| m.peer_class(PeerId::new(i), cl).messages)
                .sum::<u64>()
        };
        let frames = class_msgs(MsgClass::FILTERING)
            + class_msgs(MsgClass::DISSEMINATION)
            + class_msgs(MsgClass::AGGREGATION);
        assert_eq!(class_msgs(MsgClass::RETRANSMIT), frames);
        assert_eq!(
            m.class_bytes(MsgClass::RETRANSMIT),
            frames * RelConfig::default().ack_bytes
        );
        assert_eq!(m.dropped_messages(), 0);
    }

    #[test]
    fn certified_run_is_complete_and_meters_census_under_failover() {
        let data = workload(30, 800, 93);
        let h = Hierarchy::balanced(30, 3);
        let cfg = config(20, 2);
        let instant = NetFilter::new(cfg.clone()).run(&h, &data);

        let mut w = NetFilterProtocol::build_world_certified(
            &cfg,
            &h,
            &data,
            SimConfig::default().with_seed(6),
            RelConfig::default(),
        );
        w.start();
        w.run_to_quiescence();

        let root = w.peer(PeerId::new(0));
        assert_eq!(root.certificate(), Some(Certificate::Complete));
        assert_eq!(
            root.delivered(),
            &[NfDelivery {
                answer: instant.frequent_items().to_vec(),
                certificate: Some(Certificate::Complete),
            }]
        );

        // The census travels entirely in the failover class: one
        // PhaseCensus per phase per non-root member, nothing else.
        let m = w.metrics();
        assert_eq!(m.class_bytes(MsgClass::FAILOVER), CENSUS_BYTES * 29 * 2);
        // The paper's phase classes are untouched by certification.
        let c = instant.cost();
        assert_eq!(
            m.class_bytes(MsgClass::FILTERING),
            c.filtering.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::DISSEMINATION),
            c.dissemination.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::AGGREGATION),
            c.aggregation.iter().sum::<u64>()
        );
    }

    #[test]
    fn inflated_roster_yields_partial_certificate_naming_the_ghost() {
        // Certify against a roster containing a peer that never runs: the
        // answer still arrives, but the certificate must demote itself to
        // `Partial` and name exactly the ghost.
        let data = workload(12, 200, 97);
        let h = Hierarchy::balanced(12, 3);
        let cfg = config(10, 2);
        let threshold = cfg.threshold.resolve(data.total_value());
        let ghost = PeerId::new(12);
        let mut roster = NetFilterProtocol::roster(&h);
        roster.add(ghost);

        let peers = (0..12)
            .map(|i| {
                let p = PeerId::new(i);
                NetFilterProtocol::new(&cfg, &h, p, data.local_items(p).to_vec(), threshold)
                    .with_reliability(RelConfig::default())
                    .with_census(roster)
            })
            .collect();
        let mut w = sansio_world(SimConfig::default().with_seed(9), peers);
        w.start();
        w.run_to_quiescence();

        let root = w.peer(PeerId::new(0));
        assert_eq!(
            root.certificate(),
            Some(Certificate::Partial {
                missing: Census::solo(ghost)
            })
        );
        assert!(root.result().is_some(), "partial coverage still answers");
    }

    #[test]
    fn duplicate_and_alien_reports_are_warned_and_dropped() {
        use ifi_sim::{AllUp, Effect};

        let data = workload(3, 100, 95);
        let h = Hierarchy::balanced(3, 2);
        let cfg = config(8, 2);
        let threshold = cfg.threshold.resolve(data.total_value());
        let core = |i: usize| {
            let p = PeerId::new(i);
            NetFilterProtocol::new(&cfg, &h, p, data.local_items(p).to_vec(), threshold)
        };
        let env = AllUp(3);
        let now = SimTime::ZERO;

        // A leaf's Start yields its phase-1 report to replay at the root.
        let mut leaf = core(1);
        let mut fx = Effects::new();
        leaf.on_event(NodeEvent::Start, now, &env, &mut fx);
        let report = fx
            .drain()
            .find_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .expect("leaf must report on start");

        let mut root = core(0);
        let mut fx = Effects::new();
        root.on_event(NodeEvent::Start, now, &env, &mut fx);
        fx.drain().count();

        let deliver = |root: &mut NetFilterProtocol, from: usize| {
            let mut fx = Effects::new();
            root.on_event(
                NodeEvent::Message {
                    from: PeerId::new(from),
                    msg: report.clone(),
                },
                now,
                &env,
                &mut fx,
            );
            fx.drain()
                .filter_map(|e| match e {
                    Effect::Warn { label } => Some(label),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };

        // First report from a real child: accepted.
        assert!(deliver(&mut root, 1).is_empty());
        // Replay of the same child's report: warned, not double-merged.
        assert_eq!(deliver(&mut root, 1), ["duplicate-report"]);
        // A report from a peer that is not a child: warned, dropped.
        assert_eq!(deliver(&mut root, 0), ["unexpected-sender"]);
        // Phase 1 is still waiting on child 2 — the guarded deliveries
        // must not have decremented the countdown twice.
        let mut child2 = core(2);
        let mut fx = Effects::new();
        child2.on_event(NodeEvent::Start, now, &env, &mut fx);
        let report2 = fx
            .drain()
            .find_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .expect("child 2 must report on start");
        let mut fx = Effects::new();
        root.on_event(
            NodeEvent::Message {
                from: PeerId::new(2),
                msg: report2,
            },
            now,
            &env,
            &mut fx,
        );
        // Root now finishes phase 1 and moves to dissemination.
        assert!(fx
            .drain()
            .any(|e| matches!(e, Effect::Send { .. } | Effect::Deliver(_))));
    }

    #[test]
    fn malformed_phase_payloads_warn_and_drop_instead_of_panicking() {
        use crate::wire::NfWire;
        use ifi_transport::WireCodec;

        let data = workload(3, 100, 95);
        let h = Hierarchy::balanced(3, 2);
        let cfg = config(8, 2);
        let instant = NetFilter::new(cfg.clone()).run(&h, &data);
        let (root, child) = (PeerId::new(0), PeerId::new(1));

        // Each decodes cleanly and comes from the right neighbor; each
        // used to take the receiving peer down.
        let malformed = [
            // f·g = 16 slots expected: a vector of another dimension.
            (child, root, NfMsg::GroupAgg(VecSum::from(vec![1; 15]))),
            // A group id ≥ g.
            (root, child, NfMsg::Heavy(vec![vec![1], vec![8]].into())),
            // Fewer than f lists.
            (root, child, NfMsg::Heavy(vec![vec![1]].into())),
        ];
        let wire = NfWire::new(cfg.sizes);
        let mut w =
            NetFilterProtocol::build_world(&cfg, &h, &data, SimConfig::default().with_seed(4));
        w.enable_metrics_sink();
        // Injected before `start`, so each arrives one hop in: after its
        // receiver's `Start`, ahead of the genuine report it imitates.
        for (from, to, msg) in malformed {
            let frame = wire
                .encode(&ReliableMsg::Plain(msg))
                .and_then(|bytes| wire.decode(&bytes))
                .expect("malformed for the protocol, well-formed for the codec");
            w.inject(from, to, frame, 0, MsgClass::DATA);
        }
        w.start();
        w.run_to_quiescence();

        assert_eq!(
            w.metrics_report().warnings,
            [("malformed-report".to_string(), 3)]
        );
        // Nothing of them was merged, and the genuine reports still were.
        assert_eq!(
            w.peer(root).result().expect("root finishes"),
            instant.frequent_items()
        );
    }

    #[test]
    fn singleton_system_answers_immediately() {
        let data = SystemData::from_local_sets(vec![vec![(ItemId(1), 10), (ItemId(2), 1)]], 5);
        let h = Hierarchy::balanced(1, 3);
        let cfg = NetFilterConfig::builder()
            .filter_size(4)
            .filters(2)
            .threshold(Threshold::Absolute(5))
            .build();
        let mut w = NetFilterProtocol::build_world(&cfg, &h, &data, SimConfig::default());
        w.start();
        w.run_to_quiescence();
        assert_eq!(w.peer(PeerId::new(0)).result().unwrap(), &[(ItemId(1), 10)]);
        assert_eq!(w.metrics().total_bytes(), 0, "no peers, no traffic");
    }
}
