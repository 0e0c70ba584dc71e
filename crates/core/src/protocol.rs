//! netFilter as a message-level protocol on the DES.
//!
//! The two phases run as real messages over [`ifi_sim`], exercising
//! asynchrony, per-hop latency, and completion detection:
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
//! [`NetFilterProtocol::peers`] makes one core per peer for any driver:
//! `sansio_world(sim, NetFilterProtocol::peers(..))` on the DES, or the
//! threaded transport's `run_channel` / `run_tcp`.
//! [`NetFilter`](crate::NetFilter) drives one epoch of these cores and reads
//! its answer, costs and counts back. The workspace integration suite holds
//! the protocol to ground truth and, per peer and phase, to an instant
//! reference walk over the same hierarchy.
//!
//! By default the protocol assumes a reliable network and a stable
//! hierarchy for the duration of one run (the paper recruits stable peers
//! for exactly this reason, §III-A). Under churn, the maintenance protocol
//! of `ifi-hierarchy` repairs the tree and the query is re-issued — see
//! the `failure_recovery` integration test. On lossy networks, enable the
//! ack/retransmit envelope (a [`RelConfig`] to [`NetFilterProtocol::peers`]):
//! every phase message is sequenced, acknowledged, retransmitted with
//! exponential backoff, and deduplicated at the receiver, so the answer
//! stays exact under drops, duplication, and reordering. Originals keep
//! their phase class; acks and retransmissions are metered separately
//! under [`MsgClass::RETRANSMIT`].

use ifi_agg::{Aggregate, Boot, Convergecast, MapSum, TreeSlot, VecSum};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    Des, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId, RelConfig, ReliableMsg,
    RetransmitTimer, SansIo, SimTime,
};
use ifi_workload::{ItemId, SystemData};

use crate::config::NetFilterConfig;
use crate::filter::{HeavyGroups, HeavyLists, LocalFilter};
use crate::hashing::HashFamily;
use crate::resilient::{frequent_items, Census, Certificate, CENSUS_BYTES};

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

impl From<RetransmitTimer> for NfTimer {
    fn from(t: RetransmitTimer) -> Self {
        NfTimer::Retransmit(t.0)
    }
}

/// Census-mode state: present only on peers given a roster.
#[derive(Debug, Clone)]
struct CensusState {
    /// The issue-time roster to certify against.
    roster: Census,
    /// Contributor censuses of this subtree (self plus children), one
    /// rider convergecast beside each phase's.
    p1: Convergecast<Census, 4>,
    p2: Convergecast<Census, 8>,
}

/// What only the root holds: the threshold it applies and what applying
/// it produced.
#[derive(Debug, Clone)]
struct RootState {
    threshold: u64,
    /// Heavy groups summed over filters (`Σ w_i`), once computed.
    heavy_groups: usize,
    result: Option<Vec<(ItemId, u64)>>,
}

/// Per-peer state of the netFilter protocol.
///
/// Sized for `N = 10^5` of them in one address space: what only the root,
/// census mode or the reliability envelope touches sits behind one pointer
/// each, the per-child seen-sets are bits beside the child ids, and the
/// heavy lists are used once and not kept.
#[derive(Debug, Clone)]
pub struct NetFilterProtocol {
    local_filter: LocalFilter,
    sizes: crate::WireSizes,
    me: PeerId,
    slot: TreeSlot,
    /// Whether the heavy lists have arrived (or, at the root, been
    /// computed) — all a non-root peer keeps of them.
    heavy_seen: bool,
    local_items: Box<[(ItemId, u64)]>,

    /// Filtering convergecast; opens empty at `Start`, and the local vector
    /// joins it at completion.
    p1: Convergecast<VecSum, 1>,
    /// Candidate convergecast; opens when the heavy lists arrive. The root
    /// re-opens it with the finished map: the run's candidate set.
    p2: Convergecast<MapSum, 2>,
    /// `Some` at the root alone.
    root: Option<Box<RootState>>,

    /// `Some` switches census mode on for this peer (reports are
    /// accompanied by metered [`NfMsg::PhaseCensus`] messages, and the
    /// root emits a certificate).
    census: Option<Box<CensusState>>,
    /// Plain by default: the classic fire-and-forget protocol (zero
    /// overhead, zero extra traffic).
    env: Envelope<NfMsg>,
}

// The diet above is what lets the N = 10^5 epoch fit its memory budget;
// a field added in line shows up here before it shows up as 100 000 copies.
const _: () = assert!(std::mem::size_of::<NetFilterProtocol>() == 192);
// The DES slot around it, the number `peak_mem_mb` moves with: the core,
// a token counter, the timer list and one pointer for the root's delivery.
const _: () = assert!(std::mem::size_of::<Des<NetFilterProtocol>>() == 232);

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
        let slot = TreeSlot::new(hierarchy, peer);
        let root = slot.is_root().then(|| {
            Box::new(RootState {
                threshold,
                heavy_groups: 0,
                result: None,
            })
        });
        NetFilterProtocol {
            local_filter: LocalFilter::new(family),
            sizes: config.sizes,
            me: peer,
            slot,
            heavy_seen: false,
            local_items: local_items.into_boxed_slice(),
            p1: Convergecast::default(),
            p2: Convergecast::default(),
            root,
            census: None,
            env: Envelope::plain(),
        }
    }

    /// Enables the ack/retransmit envelope with the given tuning.
    pub fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.env = Envelope::reliable(cfg);
        self
    }

    /// Enables census mode against the given issue-time roster: every
    /// rootward report travels with a metered [`NfMsg::PhaseCensus`], and
    /// the root's delivery carries a [`Certificate`] — `Complete` exactly
    /// when both phase censuses equal `roster`.
    pub fn with_census(mut self, roster: Census) -> Self {
        let (mut p1, mut p2) = (Convergecast::default(), Convergecast::default());
        p1.open(Census::solo(self.me));
        p2.open(Census::solo(self.me));
        self.census = Some(Box::new(CensusState { roster, p1, p2 }));
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
        let (c, _done) = (self.census.as_deref()?, self.result()?);
        let (p1, p2) = (*c.p1.value()?, *c.p2.value()?);
        Some(Certificate::from_phases(c.roster, p1, p2))
    }

    /// One core per peer of `data` over `hierarchy`, for any driver. `rel`
    /// turns the ack/retransmit envelope on, which exact answers need when
    /// the simulation injects faults ([`ifi_sim::FaultPlan`]).
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy and data universes differ.
    pub fn peers(
        config: &NetFilterConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        rel: Option<RelConfig>,
    ) -> Vec<NetFilterProtocol> {
        assert_eq!(
            hierarchy.universe(),
            data.peer_count(),
            "hierarchy and data peer universes differ"
        );
        let threshold = config.threshold.resolve(data.total_value());
        (0..data.peer_count())
            .map(PeerId::new)
            .map(|p| {
                let items = data.local_items(p).to_vec();
                let core = NetFilterProtocol::new(config, hierarchy, p, items, threshold);
                match &rel {
                    None => core,
                    Some(cfg) => core.with_reliability(cfg.clone()),
                }
            })
            .collect()
    }

    /// The final result (root only, once the run quiesces).
    pub fn result(&self) -> Option<&[(ItemId, u64)]> {
        self.root.as_ref()?.result.as_deref()
    }

    /// The root's candidate set — every item that survived filtering, with
    /// its exact global value — once the run completes. Read off the core,
    /// not carried in the [`NfDelivery`]: the epoch benches' exact
    /// allocation counters pin the delivery's size.
    pub(crate) fn candidates(&self) -> Option<&MapSum> {
        self.result().and(self.p2.value())
    }

    /// Heavy groups summed over filters (root only, once phase 2 has
    /// begun).
    pub(crate) fn heavy_groups(&self) -> Option<usize> {
        Some(self.root.as_ref()?.heavy_groups)
    }

    /// The resolved threshold (root only: no other peer applies one).
    pub fn threshold(&self) -> Option<u64> {
        Some(self.root.as_ref()?.threshold)
    }

    /// Sends a phase report to the parent and, in census mode, the merged
    /// census of `phase` beside it. Every phase message is retained for a
    /// revival to re-send: this protocol says each thing once.
    fn report(
        &mut self,
        fx: &mut Effects<Self>,
        phase: u8,
        msg: NfMsg,
        bytes: u64,
        class: MsgClass,
    ) {
        let parent = self.slot.parent().expect("non-root has a parent");
        self.env.send_retained(fx, parent, msg, bytes, class);
        if let Some(c) = self.census.as_deref() {
            let census = if phase == 1 {
                c.p1.value()
            } else {
                c.p2.value()
            };
            let census = *census.expect("census riders are open for the whole run");
            let msg = NfMsg::PhaseCensus { phase, census };
            self.env
                .send_retained(fx, parent, msg, CENSUS_BYTES, MsgClass::FAILOVER);
        }
    }

    /// Fires phase-1 completion once everything it needs has merged: the
    /// local vector (Start ran), every child's report, and — in census
    /// mode — every child's phase-1 census.
    fn maybe_complete_p1(&mut self, fx: &mut Effects<Self>) {
        if self
            .census
            .as_ref()
            .is_some_and(|c| !c.p1.ready(&self.slot))
        {
            return;
        }
        let Some(mut acc) = self.p1.complete(&self.slot) else {
            return;
        };
        self.local_filter
            .add_group_vector(&mut acc, &self.local_items);
        if let Some(root) = self.root.as_deref_mut() {
            let heavy =
                HeavyGroups::from_aggregate(self.local_filter.family(), &acc, root.threshold);
            root.heavy_groups = heavy.total_heavy();
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
        for child in self.slot.children() {
            let lists = NfMsg::Heavy(heavy.clone().into());
            self.env
                .send_retained(fx, child, lists, list_bytes, MsgClass::DISSEMINATION);
        }
        // Materialize the local partial candidate set (Algorithm 2 line 2).
        self.p2.open(
            self.local_filter
                .partial_candidates(&self.local_items, &heavy),
        );
        self.heavy_seen = true;
        self.maybe_complete_p2(fx);
    }

    /// Phase-2 counterpart of [`maybe_complete_p1`](Self::maybe_complete_p1).
    fn maybe_complete_p2(&mut self, fx: &mut Effects<Self>) {
        if self.result().is_some()
            || self
                .census
                .as_ref()
                .is_some_and(|c| !c.p2.ready(&self.slot))
        {
            return;
        }
        let Some(acc) = self.p2.complete(&self.slot) else {
            return;
        };
        if let Some(root) = self.root.as_deref_mut() {
            let answer = frequent_items(&acc, root.threshold);
            root.result = Some(answer.clone());
            self.p2.open(acc);
            let certificate = self.certificate();
            fx.deliver(NfDelivery {
                answer,
                certificate,
            });
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

    /// Handles a deduplicated protocol payload. Every arm is idempotent:
    /// a duplicate, replayed, misdirected, or malformed message is counted
    /// as a metered warning and dropped, never merged twice and never a
    /// panic — the property that lets a crashed-and-restarted sender
    /// blindly re-send its backlog, and that keeps one bad neighbor from
    /// taking a peer thread down.
    fn on_payload(&mut self, fx: &mut Effects<Self>, from: PeerId, msg: NfMsg) {
        let slot = &mut self.slot;
        // A census counting more peers than the roster holds is malformed.
        let roster = self.census.as_deref().map_or(0, |c| c.roster.count);
        let within = |mine: &Census, c: &Census| mine.count.saturating_add(c.count) <= roster;
        let absorbed = match msg {
            NfMsg::GroupAgg(v) => {
                let same_dimension = |mine: &VecSum, v: &VecSum| mine.len() == v.len();
                self.p1.absorb(slot, from, v, same_dimension)
            }
            NfMsg::CandidateAgg(m) => self.p2.absorb(slot, from, m, |_, _| true),
            NfMsg::PhaseCensus { phase, census } => match (self.census.as_deref_mut(), phase) {
                (Some(c), 1) => c.p1.absorb(slot, from, census, within),
                (Some(c), 2) => c.p2.absorb(slot, from, census, within),
                _ => Err("unexpected-census"),
            },
            NfMsg::Heavy(_) if Some(from) != slot.parent() => Err("unexpected-sender"),
            NfMsg::Heavy(_) if self.heavy_seen => Err("duplicate-report"),
            NfMsg::Heavy(lists) => HeavyGroups::for_family(self.local_filter.family(), lists)
                .map(|heavy| self.start_phase2(fx, heavy))
                .ok_or("malformed-report"),
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
            NodeEvent::Start => match self.slot.boot() {
                Boot::Outsider => {}
                // State survived the crash — only in-flight frames and
                // armed timers died with the old life. Receivers that
                // already merged a re-sent copy warn and drop it.
                Boot::Revival => self.env.revive(fx),
                // Opens empty, allocating nothing: a first child's report
                // becomes the accumulator, own items join at completion.
                Boot::First => {
                    self.p1.open(self.local_filter.group_vector(&[]));
                    self.maybe_complete_p1(fx);
                }
            },
            NodeEvent::Message { from, msg } => {
                if let Some(payload) = self.env.on_frame(fx, from, msg) {
                    self.on_payload(fx, from, payload);
                }
            }
            NodeEvent::Timer {
                tag: NfTimer::Retransmit(seq),
            } => {
                // Giving up is silent: a one-shot run has no coarser
                // repair to escalate to, and with default tuning it takes
                // 17 consecutive losses of the same frame.
                self.env.on_retransmit(fx, RetransmitTimer(seq));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Threshold;
    use ifi_sim::{sansio_world, Duration, LatencyModel, SimConfig};
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

    /// The exact answer, from ground truth.
    fn truth(cfg: &NetFilterConfig, data: &SystemData) -> Vec<(ItemId, u64)> {
        let t = cfg.threshold.resolve(data.total_value());
        GroundTruth::compute(data).frequent_items(t)
    }

    /// Each paper phase's bytes in `m`.
    fn paper_phases(m: &ifi_sim::Metrics) -> [u64; 3] {
        [
            MsgClass::FILTERING,
            MsgClass::DISSEMINATION,
            MsgClass::AGGREGATION,
        ]
        .map(|cl| m.class_bytes(cl))
    }

    /// The paper phases' bytes of a plain, fault-free run — what an
    /// envelope or a census may add to, never change.
    fn plain_phases(cfg: &NetFilterConfig, h: &Hierarchy, data: &SystemData) -> [u64; 3] {
        let mut w = sansio_world(
            SimConfig::default(),
            NetFilterProtocol::peers(cfg, h, data, None),
        );
        w.start();
        w.run_to_quiescence();
        paper_phases(w.metrics())
    }

    #[test]
    fn asynchrony_does_not_change_the_answer() {
        let data = workload(40, 1_000, 83);
        let h = Hierarchy::balanced(40, 3);
        let cfg = config(30, 2);
        let want = truth(&cfg, &data);

        for seed in [1u64, 2, 3] {
            let sim = SimConfig::default()
                .with_seed(seed)
                .with_latency(LatencyModel::Uniform {
                    lo: Duration::from_millis(5),
                    hi: Duration::from_millis(500),
                });
            let mut w = sansio_world(sim, NetFilterProtocol::peers(&cfg, &h, &data, None));
            w.start();
            w.run_to_quiescence();
            assert_eq!(
                w.peer(PeerId::new(0)).result().expect("root finishes"),
                want,
                "divergence at sim seed {seed}"
            );
            // Every non-root member sends its full `s_a·f·g` vector once.
            assert_eq!(
                w.metrics().class_bytes(MsgClass::FILTERING),
                39 * 4 * 2 * 30
            );
        }
    }

    #[test]
    fn non_root_peers_hold_no_result() {
        let data = workload(20, 300, 85);
        let h = Hierarchy::balanced(20, 3);
        let mut w = sansio_world(
            SimConfig::default(),
            NetFilterProtocol::peers(&config(10, 2), &h, &data, None),
        );
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
        let mut w = sansio_world(
            SimConfig::default(),
            NetFilterProtocol::peers(&config(40, 3), &h, &data, None),
        );
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

        let mut w = sansio_world(
            SimConfig::default().with_seed(5),
            NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default())),
        );
        w.start();
        w.run_to_quiescence();

        assert_eq!(
            w.peer(PeerId::new(0)).result().expect("root finishes"),
            truth(&cfg, &data)
        );
        // Phase classes are untouched by the envelope...
        let m = w.metrics();
        assert_eq!(paper_phases(m), plain_phases(&cfg, &h, &data));
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

        let roster = NetFilterProtocol::roster(&h);
        let peers = NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default()));
        let certified = peers.into_iter().map(|core| core.with_census(roster));
        let mut w = sansio_world(SimConfig::default().with_seed(6), certified.collect());
        w.start();
        w.run_to_quiescence();

        let root = w.peer(PeerId::new(0));
        assert_eq!(root.certificate(), Some(Certificate::Complete));
        assert_eq!(
            root.delivered(),
            &[NfDelivery {
                answer: truth(&cfg, &data),
                certificate: Some(Certificate::Complete),
            }]
        );

        // The census travels entirely in the failover class: one
        // PhaseCensus per phase per non-root member, nothing else.
        let m = w.metrics();
        assert_eq!(m.class_bytes(MsgClass::FAILOVER), CENSUS_BYTES * 29 * 2);
        // The paper's phase classes are untouched by certification.
        assert_eq!(paper_phases(m), plain_phases(&cfg, &h, &data));
    }

    #[test]
    fn inflated_roster_yields_partial_certificate_naming_the_ghost() {
        // Certify against a roster containing a peer that never runs: the
        // answer still arrives, but the certificate must demote itself to
        // `Partial` and name exactly the ghost.
        let data = workload(12, 200, 97);
        let h = Hierarchy::balanced(12, 3);
        let cfg = config(10, 2);
        let ghost = PeerId::new(12);
        let mut roster = NetFilterProtocol::roster(&h);
        roster.add(ghost);

        let peers = NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default()));
        let certified = peers.into_iter().map(|core| core.with_census(roster));
        let mut w = sansio_world(SimConfig::default().with_seed(9), certified.collect());
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
    fn a_census_counting_past_the_roster_is_dropped_not_wrapped() {
        use crate::wire::NfWire;
        use ifi_transport::WireCodec;

        let data = workload(12, 200, 97);
        let h = Hierarchy::balanced(12, 3);
        let cfg = config(10, 2);
        let roster = NetFilterProtocol::roster(&h);
        let peers = NetFilterProtocol::peers(&cfg, &h, &data, None);
        let certified = peers.into_iter().map(|core| core.with_census(roster));
        let mut w = sansio_world(SimConfig::default().with_seed(9), certified.collect());
        w.enable_metrics_sink();
        // Off the wire, ahead of the child's genuine census: a count that
        // used to overflow the root's merge (a panic in debug builds, a
        // wrap to a small count in release).
        let forged = Census {
            count: u32::MAX,
            digest: 0,
        };
        let wire = NfWire::new(cfg.sizes);
        let frame = wire
            .encode(&ReliableMsg::Plain(NfMsg::PhaseCensus {
                phase: 1,
                census: forged,
            }))
            .and_then(|bytes| wire.decode(&bytes))
            .expect("well-formed for the codec");
        w.inject(PeerId::new(1), PeerId::new(0), frame, 0, MsgClass::DATA);
        w.start();
        w.run_to_quiescence();

        assert_eq!(
            w.metrics_report().warnings,
            [("malformed-report".to_string(), 1)]
        );
        // The genuine census still counts, so coverage certifies exactly.
        let root = w.peer(PeerId::new(0));
        assert_eq!(root.certificate(), Some(Certificate::Complete));
        assert_eq!(root.result(), Some(truth(&cfg, &data).as_slice()));
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
    fn an_interior_peer_forwards_its_own_vector_plus_both_children() {
        use ifi_sim::{AllUp, Effect};

        // 0 ← 1 ← {2, 3}: peer 1 is interior and not the root.
        let parents = [None, Some(0), Some(1), Some(1)].map(|p| p.map(PeerId::new));
        let h = Hierarchy::from_parents(PeerId::new(0), &parents);
        let cfg = config(8, 2);
        let items = workload(4, 100, 95).local_items(PeerId::new(1)).to_vec();
        let family = HashFamily::new(cfg.filters, cfg.filter_size, cfg.hash_seed);
        let own = LocalFilter::new(family).group_vector(&items);
        assert!(own.to_dense().iter().any(|&v| v > 0), "peer 1 holds items");
        let mut core = NetFilterProtocol::new(&cfg, &h, PeerId::new(1), items, 1);
        let (env, now, mut fx) = (AllUp(4), SimTime::ZERO, Effects::new());
        core.on_event(NodeEvent::Start, now, &env, &mut fx);
        assert_eq!(
            fx.drain().count(),
            0,
            "an interior peer waits for its children"
        );

        // One child reports the dense array, the other a run.
        let dense = VecSum::from((0..16).collect::<Vec<u64>>());
        let mut run = VecSum::zeros(16);
        run.add(3, 100);
        run.add(3, 1);
        assert!(dense.is_dense() && !run.is_dense());
        let mut want = own;
        want.merge(&dense);
        want.merge(&run);
        for (from, report) in [(2, dense), (3, run)] {
            let msg = ReliableMsg::Plain(NfMsg::GroupAgg(report));
            let from = PeerId::new(from);
            core.on_event(NodeEvent::Message { from, msg }, now, &env, &mut fx);
        }
        let sent: Vec<_> = fx
            .drain()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: ReliableMsg::Plain(NfMsg::GroupAgg(v)),
                    ..
                } => Some((to, v)),
                _ => None,
            })
            .collect();
        assert_eq!(sent, [(PeerId::new(0), want)]);
    }

    #[test]
    fn malformed_phase_payloads_warn_and_drop_instead_of_panicking() {
        use crate::wire::NfWire;
        use ifi_transport::WireCodec;

        let data = workload(3, 100, 95);
        let h = Hierarchy::balanced(3, 2);
        let cfg = config(8, 2);
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
        let mut w = sansio_world(
            SimConfig::default().with_seed(4),
            NetFilterProtocol::peers(&cfg, &h, &data, None),
        );
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
            truth(&cfg, &data)
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
        let mut w = sansio_world(
            SimConfig::default(),
            NetFilterProtocol::peers(&cfg, &h, &data, None),
        );
        w.start();
        w.run_to_quiescence();
        assert_eq!(w.peer(PeerId::new(0)).result().unwrap(), &[(ItemId(1), 10)]);
        assert_eq!(w.metrics().total_bytes(), 0, "no peers, no traffic");
    }
}
