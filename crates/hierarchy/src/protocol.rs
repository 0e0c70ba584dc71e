//! Message-level hierarchy construction and maintenance on the DES.
//!
//! [`BuildProtocol`] implements §III-A.1 (BFS construction from a
//! designated root); [`MaintainProtocol`] implements §III-A.3 (periodic
//! heartbeats carrying a `DEPTH` counter, failure detection, depth-∞
//! detachment flooding, and re-attachment to the first finite-depth
//! neighbor heard from).

use ifi_overlay::HeartbeatConfig;

use crate::maintain_core::MaintainCore;
use ifi_sim::{
    Des, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId, RelConfig, ReliableMsg,
    RetransmitTimer, SansIo, SimTime,
};

use crate::tree::Hierarchy;

/// Depth value encoding the paper's "∞" (detached) state.
const DEPTH_INF: u32 = u32::MAX;

/// Wire size of a construction/maintenance control message: one depth
/// counter plus a small header.
const CTRL_BYTES: u64 = 8;

/// Messages of the BFS construction protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildMsg {
    /// "I am at `depth`; join beneath me." Sent by every peer that settles.
    Invite {
        /// The sender's depth in the forming hierarchy.
        depth: u32,
    },
    /// "You are now my upstream neighbor."
    Attach,
    /// "I found a shorter path; I am no longer your child."
    Detach,
}

/// BFS hierarchy construction (§III-A.1).
///
/// The designated root starts at depth 0 and invites its neighbors; a peer
/// adopts the first (or any strictly better) invitation, attaches to the
/// sender, and re-invites its own neighbors. Under constant latency this is
/// exactly breadth-first search; under variable latency the
/// strictly-better-offer rule makes it converge to the same shortest-path
/// tree (asynchronous Bellman–Ford over hop counts).
#[derive(Debug, Clone)]
pub struct BuildProtocol {
    neighbors: Vec<PeerId>,
    is_root: bool,
    /// Current depth; `DEPTH_INF` until settled.
    depth: u32,
    parent: Option<PeerId>,
    children: Vec<PeerId>,
}

impl BuildProtocol {
    /// Creates the per-peer state. `neighbors` are the peer's overlay
    /// neighbors that participate in netFilter.
    pub fn new(neighbors: Vec<PeerId>, is_root: bool) -> Self {
        BuildProtocol {
            neighbors,
            is_root,
            depth: DEPTH_INF,
            parent: None,
            children: Vec::new(),
        }
    }

    /// The settled depth, if the peer has joined the hierarchy.
    pub fn depth(&self) -> Option<u32> {
        (self.depth != DEPTH_INF).then_some(self.depth)
    }

    /// The settled parent.
    pub fn parent(&self) -> Option<PeerId> {
        self.parent
    }

    /// The settled children (sorted).
    pub fn children(&self) -> Vec<PeerId> {
        let mut c = self.children.clone();
        c.sort_unstable();
        c
    }

    fn settle(&mut self, fx: &mut Effects<Self>, depth: u32, parent: Option<PeerId>) {
        fx.mark_phase("construction");
        if let Some(old) = self.parent {
            fx.send(old, BuildMsg::Detach, CTRL_BYTES, MsgClass::CONTROL);
        }
        self.depth = depth;
        self.parent = parent;
        if let Some(p) = parent {
            fx.send(p, BuildMsg::Attach, CTRL_BYTES, MsgClass::CONTROL);
        }
        for &nb in &self.neighbors.clone() {
            if Some(nb) != parent {
                fx.send(
                    nb,
                    BuildMsg::Invite { depth },
                    CTRL_BYTES,
                    MsgClass::CONTROL,
                );
            }
        }
    }

    /// Snapshots the converged construction into a [`Hierarchy`].
    ///
    /// `states` yields every peer's protocol state in id order.
    ///
    /// # Panics
    ///
    /// Panics if the recorded parents do not form a tree rooted at `root`
    /// (construction has not converged).
    pub fn snapshot<'a>(
        root: PeerId,
        states: impl Iterator<Item = &'a Des<BuildProtocol>>,
    ) -> Hierarchy {
        let parents: Vec<Option<PeerId>> = states.map(|s| s.parent).collect();
        Hierarchy::from_parents(root, &parents)
    }
}

impl SansIo for BuildProtocol {
    type Msg = BuildMsg;
    type Timer = ();
    type Output = ();

    fn on_event(
        &mut self,
        ev: NodeEvent<BuildMsg, ()>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => {
                if self.is_root && self.depth == DEPTH_INF {
                    self.settle(fx, 0, None);
                }
            }
            NodeEvent::Message { from, msg } => match msg {
                BuildMsg::Invite { depth } => {
                    let offered = depth.saturating_add(1);
                    if offered < self.depth {
                        self.settle(fx, offered, Some(from));
                    }
                }
                BuildMsg::Attach => {
                    if !self.children.contains(&from) {
                        self.children.push(from);
                    }
                }
                BuildMsg::Detach => {
                    self.children.retain(|&c| c != from);
                }
            },
            NodeEvent::Timer { tag: () } => {}
        }
    }
}

/// Messages of the maintenance (heartbeat + repair) protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainMsg {
    /// Periodic liveness beacon carrying the sender's DEPTH counter
    /// (`u32::MAX` = ∞, detached).
    Heartbeat {
        /// The sender's current depth in the hierarchy.
        depth: u32,
    },
    /// "You are now my upstream neighbor."
    Attach,
    /// Parent-to-child: "our subtree is detached; set your depth to ∞ and
    /// pass it on" (§III-A.3).
    Detach,
}

impl MaintainMsg {
    /// Whether this message is sent exactly **once** per state transition,
    /// so that a single loss wedges progress until some coarser mechanism
    /// notices. `Heartbeat` and `Attach` are refreshed every tick — their
    /// redundancy *is* their reliability — but a `Detach` cascade fires
    /// once, which is what the optional ack/retransmit envelope protects.
    pub fn is_send_once(&self) -> bool {
        matches!(self, MaintainMsg::Detach)
    }
}

/// Timers of the maintenance protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainTimer {
    /// Periodic heartbeat tick.
    Tick,
    /// Retransmission deadline of a reliable frame (only armed when
    /// reliability is enabled).
    Retransmit(RetransmitTimer),
}

impl From<RetransmitTimer> for MaintainTimer {
    fn from(t: RetransmitTimer) -> Self {
        MaintainTimer::Retransmit(t)
    }
}

/// Steady-state hierarchy maintenance (§III-A.3).
///
/// Every peer periodically heartbeats its overlay neighbors with its DEPTH.
/// A peer that stops hearing its parent for the configured timeout sets its
/// depth to ∞ and recursively detaches its subtree; any detached peer that
/// hears a heartbeat advertising finite depth `d` re-attaches beneath the
/// sender at depth `d + 1`.
///
/// The state machine itself lives in [`crate::MaintainCore`] (shared with
/// the churn-resilient netFilter protocol); this type binds it to the DES
/// transport.
#[derive(Debug, Clone)]
pub struct MaintainProtocol {
    core: MaintainCore,
    started_before: bool,
    /// Envelope of the send-once repair traffic; plain unless enabled. It
    /// retains nothing: a revived peer rejoins detached and has nothing
    /// of its old life left to say.
    env: Envelope<MaintainMsg>,
}

impl MaintainProtocol {
    /// Creates per-peer state from an established hierarchy position.
    pub fn new(
        hierarchy: &Hierarchy,
        peer: PeerId,
        neighbors: Vec<PeerId>,
        config: HeartbeatConfig,
    ) -> Self {
        MaintainProtocol {
            core: MaintainCore::new(hierarchy, peer, neighbors, config),
            started_before: false,
            env: Envelope::plain(),
        }
    }

    /// Enables the ack/retransmit envelope for send-once repair messages
    /// (see [`MaintainMsg::is_send_once`]). Periodic traffic is untouched,
    /// so a fault-free run sends exactly the same bytes as without this.
    #[must_use]
    pub fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.env = Envelope::reliable(cfg);
        self
    }

    /// Current depth, or `None` while detached.
    pub fn depth(&self) -> Option<u32> {
        self.core.depth()
    }

    /// Current parent.
    pub fn parent(&self) -> Option<PeerId> {
        self.core.parent()
    }

    /// Current children (sorted).
    pub fn children(&self) -> Vec<PeerId> {
        self.core.children()
    }

    /// Whether the peer is detached (depth ∞).
    pub fn is_detached(&self) -> bool {
        self.core.is_detached()
    }

    /// Number of detach events this peer underwent.
    pub fn detach_count(&self) -> u32 {
        self.core.detach_count
    }

    /// Peak children-arena occupancy (see `MaintainCore::children_high_water`).
    pub fn children_high_water(&self) -> usize {
        self.core.children_high_water()
    }

    /// Peak heartbeat-tracker arena occupancy (see
    /// `MaintainCore::tracked_high_water`).
    pub fn tracked_high_water(&self) -> usize {
        self.core.tracked_high_water()
    }

    /// Re-introduces the historical churn-race panic (see
    /// [`MaintainCore::enable_legacy_churn_race`]). Test tooling only.
    #[doc(hidden)]
    pub fn enable_legacy_churn_race(&mut self) {
        self.core.enable_legacy_churn_race();
    }

    /// Re-introduces the historical count-to-infinity freeze (see
    /// [`MaintainCore::enable_legacy_unbounded_depth`]). Test tooling only.
    #[doc(hidden)]
    pub fn enable_legacy_unbounded_depth(&mut self) {
        self.core.enable_legacy_unbounded_depth();
    }

    fn flush(&mut self, fx: &mut Effects<Self>, out: crate::maintain_core::Outbox) {
        fx.mark_phase("maintenance");
        let hb_bytes = self.core.config().bytes;
        for (to, msg) in out {
            let (bytes, class) = match msg {
                MaintainMsg::Heartbeat { .. } => (hb_bytes, MsgClass::HEARTBEAT),
                _ => (CTRL_BYTES, MsgClass::CONTROL),
            };
            if msg.is_send_once() {
                self.env.send(fx, to, msg, bytes, class);
            } else {
                fx.send(to, ReliableMsg::Plain(msg), bytes, class);
            }
        }
    }

    /// Snapshots the current structure of alive peers into a [`Hierarchy`].
    ///
    /// # Panics
    ///
    /// Panics if the structure is not a tree rooted at `root` (repair has
    /// not converged).
    pub fn snapshot<'a>(
        root: PeerId,
        states: impl Iterator<Item = (&'a Des<MaintainProtocol>, bool)>,
    ) -> Hierarchy {
        let parents: Vec<Option<PeerId>> = states
            .map(|(s, alive)| if alive { s.core.parent() } else { None })
            .collect();
        Hierarchy::from_parents(root, &parents)
    }
}

impl MaintainProtocol {
    fn on_message(
        &mut self,
        now: SimTime,
        from: PeerId,
        msg: ReliableMsg<MaintainMsg>,
        fx: &mut Effects<Self>,
    ) {
        // Ack every copy, dispatch only the first: a duplicated Detach must
        // not bump `detach_count` twice.
        if self.env.acks(&msg) {
            fx.mark_phase("retransmit");
        }
        let Some(payload) = self.env.on_frame(fx, from, msg) else {
            return;
        };
        let out = self.core.on_message(from, payload, now);
        self.flush(fx, out);
    }

    fn on_timer(&mut self, now: SimTime, timer: MaintainTimer, fx: &mut Effects<Self>) {
        match timer {
            MaintainTimer::Tick => {
                let outcome = self.core.on_tick(now);
                // Stop retransmitting toward peers that just died: every
                // pending frame to them would otherwise burn its full retry
                // budget against a silent destination.
                for &d in &outcome.newly_dead {
                    self.env.abandon(d);
                }
                self.flush(fx, outcome.out);
                fx.set_timer(self.core.config().interval, MaintainTimer::Tick);
            }
            MaintainTimer::Retransmit(t) => {
                if self.env.resends(t) {
                    fx.mark_phase("retransmit");
                }
                // Giving up is silent: the destination died mid-cascade,
                // its own state is gone with it, and any parent-side
                // bookkeeping for it expires via the children stamp map.
                self.env.on_retransmit(fx, t);
            }
        }
    }
}

impl SansIo for MaintainProtocol {
    type Msg = ReliableMsg<MaintainMsg>;
    type Timer = MaintainTimer;
    type Output = ();

    fn on_event(
        &mut self,
        ev: NodeEvent<ReliableMsg<MaintainMsg>, MaintainTimer>,
        now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => {
                if self.started_before {
                    // Crash-revival or late join: come back as a fresh,
                    // detached participant and re-attach via heartbeats
                    // (§III-A.3). The reliable link starts a new life too:
                    // its sequence space resets under a fresh incarnation
                    // so late frames from the previous life cannot alias.
                    self.core.rejoin(now);
                    self.env.restart();
                } else {
                    self.started_before = true;
                    self.core.start(now);
                }
                fx.set_timer(self.core.config().interval, MaintainTimer::Tick);
            }
            NodeEvent::Message { from, msg } => self.on_message(now, from, msg, fx),
            NodeEvent::Timer { tag } => self.on_timer(now, tag, fx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_overlay::Topology;
    use ifi_sim::{sansio_world, DetRng, Duration, SimConfig, SimTime, World};

    fn build_world(topo: &Topology, root: PeerId, seed: u64) -> World<Des<BuildProtocol>> {
        let peers: Vec<BuildProtocol> = topo
            .peers()
            .map(|p| BuildProtocol::new(topo.neighbors(p).to_vec(), p == root))
            .collect();
        sansio_world(SimConfig::default().with_seed(seed), peers)
    }

    #[test]
    fn build_converges_to_bfs_tree_constant_latency() {
        let topo = Topology::random_regular(150, 4, &mut DetRng::new(2));
        let root = PeerId::new(0);
        let mut w = build_world(&topo, root, 1);
        w.start();
        w.run_to_quiescence();
        let h = BuildProtocol::snapshot(root, w.peers());
        h.check_invariants(Some(&topo)); // exact BFS depths under constant latency
        assert_eq!(h.member_count(), 150);
    }

    #[test]
    fn build_converges_under_variable_latency() {
        let topo = Topology::random_regular(100, 4, &mut DetRng::new(4));
        let root = PeerId::new(5);
        let peers: Vec<BuildProtocol> = topo
            .peers()
            .map(|p| BuildProtocol::new(topo.neighbors(p).to_vec(), p == root))
            .collect();
        let cfg = SimConfig::default()
            .with_seed(9)
            .with_latency(ifi_sim::LatencyModel::Uniform {
                lo: Duration::from_millis(10),
                hi: Duration::from_millis(200),
            });
        let mut w = sansio_world(cfg, peers);
        w.start();
        w.run_to_quiescence();
        let h = BuildProtocol::snapshot(root, w.peers());
        // The strictly-better rule still yields true shortest-path depths.
        h.check_invariants(Some(&topo));
        assert_eq!(h.member_count(), 100);
    }

    #[test]
    fn build_on_line_matches_instant_bfs() {
        let topo = Topology::line(10);
        let mut w = build_world(&topo, PeerId::new(0), 3);
        w.start();
        w.run_to_quiescence();
        let h = BuildProtocol::snapshot(PeerId::new(0), w.peers());
        assert_eq!(h, Hierarchy::bfs(&topo, PeerId::new(0)));
    }

    fn maintain_world(topo: &Topology, h: &Hierarchy, seed: u64) -> World<Des<MaintainProtocol>> {
        let cfg = HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_millis(1600),
            bytes: 8,
        };
        let peers: Vec<MaintainProtocol> = topo
            .peers()
            .map(|p| MaintainProtocol::new(h, p, topo.neighbors(p).to_vec(), cfg))
            .collect();
        sansio_world(
            SimConfig::default()
                .with_seed(seed)
                .with_latency(ifi_sim::LatencyModel::Constant(Duration::from_millis(20))),
            peers,
        )
    }

    #[test]
    fn maintain_is_stable_without_failures() {
        let topo = Topology::random_regular(60, 4, &mut DetRng::new(6));
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let mut w = maintain_world(&topo, &h, 7);
        w.start();
        w.run_until(SimTime::from_micros(10_000_000));
        let snap = MaintainProtocol::snapshot(
            PeerId::new(0),
            (0..60).map(|i| (w.peer(PeerId::new(i)), true)),
        );
        assert_eq!(snap, h, "tree changed without any failure");
        assert!(w.peers().all(|p| p.detach_count() == 0));
    }

    #[test]
    fn repair_reattaches_orphans_after_internal_failure() {
        let topo = Topology::random_regular(60, 4, &mut DetRng::new(8));
        let root = PeerId::new(0);
        let h = Hierarchy::bfs(&topo, root);
        // Kill an internal (non-root) node with children.
        let victim = *h
            .internal_nodes()
            .first()
            .expect("random graph tree must have internal nodes");
        let orphan_count = h.children(victim).len();
        assert!(orphan_count > 0);

        let mut w = maintain_world(&topo, &h, 11);
        w.start();
        w.schedule_kill(SimTime::from_micros(2_000_000), victim);
        w.run_until(SimTime::from_micros(30_000_000));

        let snap = MaintainProtocol::snapshot(
            root,
            (0..60).map(|i| (w.peer(PeerId::new(i)), w.is_up(PeerId::new(i)))),
        );
        snap.check_invariants(None);
        // All alive peers are members again.
        assert_eq!(snap.member_count(), 59);
        assert!(!snap.is_member(victim));
        // At least the orphans detached once.
        let total_detaches: u32 = w.peers().map(|p| p.detach_count()).sum();
        assert!(total_detaches as usize >= orphan_count);
    }

    #[test]
    fn repair_cascades_through_subtree() {
        // Line topology: killing peer 1 detaches the entire tail 2..n,
        // which can never re-attach (no alternative path) — they stay at
        // depth ∞, exactly as the paper's scheme implies for a partitioned
        // overlay.
        let topo = Topology::line(6);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let mut w = maintain_world(&topo, &h, 13);
        w.start();
        w.schedule_kill(SimTime::from_micros(1_000_000), PeerId::new(1));
        w.run_until(SimTime::from_micros(20_000_000));
        for i in 2..6 {
            assert!(
                w.peer(PeerId::new(i)).is_detached(),
                "P{i} should remain detached in a partitioned overlay"
            );
        }
    }

    #[test]
    fn repair_finds_alternative_path_on_ring() {
        // Ring: 0-1-2-3-4-5-0. Tree from 0. Kill peer 1; peer 2 (and its
        // subtree) must re-attach the other way around the ring.
        let topo = Topology::ring(6);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let mut w = maintain_world(&topo, &h, 17);
        w.start();
        w.schedule_kill(SimTime::from_micros(1_000_000), PeerId::new(1));
        w.run_until(SimTime::from_micros(40_000_000));
        let snap = MaintainProtocol::snapshot(
            PeerId::new(0),
            (0..6).map(|i| (w.peer(PeerId::new(i)), w.is_up(PeerId::new(i)))),
        );
        snap.check_invariants(None);
        assert_eq!(snap.member_count(), 5);
        assert!(snap.is_member(PeerId::new(2)));
    }

    #[test]
    fn heartbeat_bytes_are_metered() {
        let topo = Topology::ring(4);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let mut w = maintain_world(&topo, &h, 19);
        w.start();
        w.run_until(SimTime::from_micros(5_000_000));
        let hb = w.metrics().class_bytes(MsgClass::HEARTBEAT);
        // 4 peers × 2 neighbors × 10 ticks × 8 bytes = 640.
        assert_eq!(hb, 640);
    }

    #[test]
    fn reliable_detach_cascades_under_heavy_loss() {
        // Line 0-1-2, root 0 killed. P1 detects the death by heartbeat
        // silence, but P2's parent (P1) stays alive and heartbeating, so
        // P2 can learn of the detachment *only* from P1's send-once
        // Detach message. At 30% loss the envelope retransmits it until
        // acknowledged (and suppresses the 10% duplicates), so P2 must
        // end up detached with exactly one detach event. The
        // failure-detector timeout is widened so random heartbeat loss
        // cannot masquerade as churn.
        let topo = Topology::line(3);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let cfg = HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_millis(5_000),
            bytes: 8,
        };
        let peers: Vec<MaintainProtocol> = topo
            .peers()
            .map(|p| {
                MaintainProtocol::new(&h, p, topo.neighbors(p).to_vec(), cfg)
                    .with_reliability(ifi_sim::RelConfig::default())
            })
            .collect();
        let sim = SimConfig::default().with_seed(37).with_faults(
            ifi_sim::FaultPlan::none()
                .with_drop(0.3)
                .with_duplication(0.1),
        );
        let mut w = sansio_world(sim, peers);
        w.start();
        w.schedule_kill(SimTime::from_micros(2_000_000), PeerId::new(0));
        w.run_until(SimTime::from_micros(40_000_000));
        for i in 1..3 {
            assert!(
                w.peer(PeerId::new(i)).is_detached(),
                "P{i} must learn of the detachment despite loss"
            );
            assert_eq!(
                w.peer(PeerId::new(i)).detach_count(),
                1,
                "P{i}: duplicated Detach frames must not double-count"
            );
        }
        assert!(w.metrics().class_bytes(MsgClass::RETRANSMIT) > 0);
    }

    #[test]
    fn reliability_is_free_on_a_fault_free_network() {
        // No failures → no Detach traffic → the envelope wraps nothing:
        // a reliable run is byte-identical to a plain one.
        let topo = Topology::random_regular(30, 4, &mut DetRng::new(41));
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let cfg = HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_millis(1600),
            bytes: 8,
        };
        let run = |reliable: bool| {
            let peers: Vec<MaintainProtocol> = topo
                .peers()
                .map(|p| {
                    let m = MaintainProtocol::new(&h, p, topo.neighbors(p).to_vec(), cfg);
                    if reliable {
                        m.with_reliability(ifi_sim::RelConfig::default())
                    } else {
                        m
                    }
                })
                .collect();
            let mut w = sansio_world(SimConfig::default().with_seed(43), peers);
            w.start();
            w.run_until(SimTime::from_micros(10_000_000));
            (
                w.metrics().total_bytes(),
                w.metrics().class_bytes(MsgClass::RETRANSMIT),
            )
        };
        let (plain_total, _) = run(false);
        let (rel_total, rel_retrans) = run(true);
        assert_eq!(plain_total, rel_total);
        assert_eq!(rel_retrans, 0);
    }

    #[test]
    fn revived_peer_rejoins_the_tree() {
        // Kill a leaf, let the tree settle, revive it: §III-A.3 join
        // handling must re-attach it (as a fresh detached participant).
        let topo = Topology::random_regular(40, 4, &mut DetRng::new(23));
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let victim = *h.leaves().first().expect("trees have leaves");
        let mut w = maintain_world(&topo, &h, 29);
        w.start();
        w.schedule_kill(SimTime::from_micros(2_000_000), victim);
        w.schedule_revive(SimTime::from_micros(12_000_000), victim);
        w.run_until(SimTime::from_micros(40_000_000));

        let snap = MaintainProtocol::snapshot(
            PeerId::new(0),
            (0..40).map(|i| (w.peer(PeerId::new(i)), w.is_up(PeerId::new(i)))),
        );
        snap.check_invariants(None);
        assert_eq!(snap.member_count(), 40, "revived peer must rejoin");
        assert!(snap.is_member(victim));
        assert!(!w.peer(victim).is_detached());
    }

    #[test]
    fn churn_revival_within_one_interval_does_not_double_the_tick_chain() {
        // Regression: a peer killed and revived *inside* one heartbeat
        // interval still has its pre-kill Tick pending at revival. Before
        // timers carried an incarnation stamp, that stale Tick fired after
        // the revival's fresh chain and the peer heartbeated at twice the
        // configured rate forever.
        use ifi_overlay::churn::{ChurnEvent, ChurnSchedule};
        let topo = Topology::ring(4);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let victim = PeerId::new(2);
        let horizon = SimTime::from_micros(60_000_000);
        // Interval 500ms: the Tick armed at 1.0s is due at 1.5s, after the
        // 1.3s revival.
        let sched = ChurnSchedule::from_events(
            4,
            vec![
                ChurnEvent::Down(SimTime::from_micros(1_200_000), victim),
                ChurnEvent::Up(SimTime::from_micros(1_300_000), victim),
            ],
            horizon,
        );
        let mut w = maintain_world(&topo, &h, 53);
        w.start();
        sched.install_world(&mut w);
        w.run_until(horizon);
        let hb_msgs = |i: usize| {
            w.metrics()
                .peer_class(PeerId::new(i), MsgClass::HEARTBEAT)
                .messages
        };
        let untouched = hb_msgs(0);
        let revived = hb_msgs(victim.index());
        // The 0.1s outage can cost at most one tick (2 heartbeats on the
        // ring); a doubled chain would show ~2x the untouched count.
        assert!(
            revived <= untouched && revived + 4 >= untouched,
            "revived peer sent {revived} heartbeats vs {untouched} for an \
             untouched peer: stale tick chain survived the revival"
        );
    }

    #[test]
    fn churn_revival_does_not_alias_stale_reliable_link_retransmits() {
        // Regression: P1's send-once Detach is in flight (unacked) when P1
        // dies; the Retransmit timer armed for it is still pending when P1
        // revives moments later. Before timers carried an incarnation
        // stamp, the stale timer fired in the new incarnation and resent a
        // frame from the previous life.
        use ifi_overlay::churn::{ChurnEvent, ChurnSchedule};
        let topo = Topology::line(3);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let cfg = HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_millis(1600),
            bytes: 8,
        };
        let peers: Vec<MaintainProtocol> = topo
            .peers()
            .map(|p| {
                MaintainProtocol::new(&h, p, topo.neighbors(p).to_vec(), cfg)
                    .with_reliability(ifi_sim::RelConfig::default())
            })
            .collect();
        let mut w = sansio_world(
            SimConfig::default()
                .with_seed(59)
                .with_latency(ifi_sim::LatencyModel::Constant(Duration::from_millis(20))),
            peers,
        );
        let horizon = SimTime::from_micros(20_000_000);
        // Root 0 dies at 2.0s; P1 suspects it and detaches on its 3.5s
        // tick, sending the reliable Detach to P2 (delivered 3.52s, ack due
        // back 3.54s). Killing P1 at 3.53s catches the ack in flight, so
        // the frame stays unacked with a Retransmit timer due ~3.9-4.1s
        // (base_rto 400ms + jitter) — after the 3.8s revival.
        let sched = ChurnSchedule::from_events(
            3,
            vec![
                ChurnEvent::Down(SimTime::from_micros(2_000_000), PeerId::new(0)),
                ChurnEvent::Down(SimTime::from_micros(3_530_000), PeerId::new(1)),
                ChurnEvent::Up(SimTime::from_micros(3_800_000), PeerId::new(1)),
            ],
            horizon,
        );
        w.start();
        sched.install_world(&mut w);
        w.run_until(horizon);
        // Preconditions: the cascade really happened over the reliable
        // envelope (P1 detached once and P2 heard it and acked).
        assert_eq!(w.peer(PeerId::new(1)).detach_count(), 1);
        assert!(w.peer(PeerId::new(2)).is_detached());
        assert!(
            w.metrics()
                .peer_class(PeerId::new(2), MsgClass::RETRANSMIT)
                .messages
                >= 1,
            "P2 must have acked the reliable Detach"
        );
        // The regression assertion: P1 never resends a frame from its
        // previous incarnation.
        assert_eq!(
            w.metrics()
                .peer_class(PeerId::new(1), MsgClass::RETRANSMIT)
                .messages,
            0,
            "stale retransmit timer fired across the revival"
        );
    }

    #[test]
    fn detach_from_a_restarted_parent_is_not_mistaken_for_a_duplicate() {
        // Regression for receive-window aliasing across a sender restart.
        // Life 0: P1's reliable Detach (seq 0) detaches P2 and lands in
        // P2's dedup window. P1 later crashes and revives; its fresh link
        // reuses seq 0. Without incarnation stamps on the wire, P2 would
        // suppress the new Detach as a replay of the old one and keep
        // trusting a detached parent until the slower ∞-heartbeat repair.
        use ifi_overlay::churn::{ChurnEvent, ChurnSchedule};
        let topo = Topology::line(3);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let cfg = HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_millis(1600),
            bytes: 8,
        };
        let peers: Vec<MaintainProtocol> = topo
            .peers()
            .map(|p| {
                MaintainProtocol::new(&h, p, topo.neighbors(p).to_vec(), cfg)
                    .with_reliability(ifi_sim::RelConfig::default())
            })
            .collect();
        let mut w = sansio_world(
            SimConfig::default()
                .with_seed(61)
                .with_latency(ifi_sim::LatencyModel::Constant(Duration::from_millis(20))),
            peers,
        );
        // Root 0 dies at 2.05s -> P1 detaches on its 4.0s tick and its
        // send-once Detach (life 0, seq 0) detaches P2 at 4.02s. Root 0
        // revives at 6.1s (off the shared 0.5s tick grid, so its
        // heartbeats land *after* P2's re-asserted Attach in every later
        // window) and the tree regrows: P1 re-attaches at 6.62s, P2 at
        // 7.02s. P1 then blinks (down 9.05s, up 9.3s): it rejoins
        // detached, with a fresh link whose next frame reuses seq 0.
        // P2 — which never noticed the blink — re-asserts its Attach on
        // its 9.5s tick, and the detached P1 bounces the reliable Detach
        // (life 1, seq 0), delivered at 9.54s.
        let horizon = SimTime::from_micros(9_700_000);
        let sched = ChurnSchedule::from_events(
            3,
            vec![
                ChurnEvent::Down(SimTime::from_micros(2_050_000), PeerId::new(0)),
                ChurnEvent::Up(SimTime::from_micros(6_100_000), PeerId::new(0)),
                ChurnEvent::Down(SimTime::from_micros(9_050_000), PeerId::new(1)),
                ChurnEvent::Up(SimTime::from_micros(9_300_000), PeerId::new(1)),
            ],
            horizon,
        );
        w.start();
        sched.install_world(&mut w);
        w.run_until(horizon);
        // The horizon stops before P1's first post-revival tick (9.8s),
        // so the ∞-heartbeat repair path cannot have run yet: only the
        // fresh-incarnation reliable Detach can explain a second detach.
        assert_eq!(
            w.peer(PeerId::new(2)).detach_count(),
            2,
            "the restarted parent's Detach was suppressed as a stale duplicate"
        );
        assert!(w.peer(PeerId::new(2)).is_detached());
        assert_eq!(w.peer(PeerId::new(2)).parent(), None);
        // The bounce is not a detach event at P1 itself.
        assert_eq!(w.peer(PeerId::new(1)).detach_count(), 1);
    }

    #[test]
    fn brand_new_peer_joins_via_heartbeats() {
        // A peer constructed outside the hierarchy (depth ∞ from the
        // start) attaches to the first finite-depth neighbor it hears —
        // the paper's new-peer accommodation.
        let topo = Topology::ring(6);
        let h = Hierarchy::bfs_filtered(&topo, PeerId::new(0), |p| p.index() != 3);
        assert!(!h.is_member(PeerId::new(3)));
        let mut w = maintain_world(&topo, &h, 31);
        w.start();
        w.run_until(SimTime::from_micros(20_000_000));
        let snap = MaintainProtocol::snapshot(
            PeerId::new(0),
            (0..6).map(|i| (w.peer(PeerId::new(i)), true)),
        );
        snap.check_invariants(None);
        assert!(snap.is_member(PeerId::new(3)), "new peer must join");
    }
}
