//! Transport-agnostic hierarchy-maintenance state machine.
//!
//! The §III-A.3 repair rules (periodic heartbeats with a `DEPTH` counter,
//! depth-∞ detachment cascades, re-attachment to the first finite-depth
//! neighbor) are needed by two protocols: the standalone
//! [`MaintainProtocol`](crate::MaintainProtocol) and the churn-resilient
//! netFilter protocol in the `netfilter` crate, whose message enum embeds
//! [`MaintainMsg`](crate::MaintainMsg). [`MaintainCore`] holds the shared
//! logic; handlers return the messages to transmit instead of sending
//! them, so any transport (and any enclosing message enum) can drive it.

use ifi_overlay::{HeartbeatConfig, HeartbeatTracker, NeighborStatus};
use ifi_sim::{PeerId, PeerMap, PeerSet, SimTime};

use crate::protocol::MaintainMsg;
use crate::tree::Hierarchy;

/// Depth value encoding the paper's "∞" (detached) state.
pub(crate) const DEPTH_INF: u32 = u32::MAX;

/// Outbound maintenance traffic produced by one handler call.
pub type Outbox = Vec<(PeerId, MaintainMsg)>;

/// Result of one maintenance tick.
#[derive(Debug, Clone)]
pub struct TickOutcome {
    /// Outbound maintenance traffic.
    pub out: Outbox,
    /// Whether local tree membership (parent or children) changed.
    pub changed: bool,
    /// Neighbors that crossed alive → suspected on this tick. Reported
    /// exactly once per transition so callers can abandon in-flight
    /// reliable-delivery state for the dead peer.
    pub newly_dead: Vec<PeerId>,
}

/// The maintenance state machine for one peer.
#[derive(Debug, Clone)]
pub struct MaintainCore {
    neighbors: Vec<PeerId>,
    is_root: bool,
    depth: u32,
    /// Exclusive upper bound on legal depths (= universe size: a BFS depth
    /// can never reach the peer count). Following a parent past this bound
    /// proves the depth information is circular — a stale attachment loop
    /// with no live root under it — and forces a detach, exactly like the
    /// count-to-infinity bound in distance-vector routing.
    max_depth: u32,
    parent: Option<PeerId>,
    /// `child -> last time it asserted the link` (initially the tracking
    /// epoch start). Children that stop re-asserting expire after one
    /// heartbeat timeout — a child that re-parented elsewhere is alive
    /// (so failure suspicion never fires) yet must still be dropped, or
    /// this peer waits on its reports forever.
    children: PeerMap<SimTime>,
    tracker: HeartbeatTracker,
    /// Neighbors suspected as of the previous tick, for edge-triggered
    /// death reporting in [`TickOutcome::newly_dead`].
    last_suspected: PeerSet,
    /// Number of detach events this peer underwent.
    pub(crate) detach_count: u32,
    /// Regression toggle: restore the pre-fix tick order that forgot
    /// suspected neighbors before the parent status check, combined with
    /// the tracker's strict (panicking) status lookup. Reproduces the
    /// historical heartbeat churn-race panic for `ifi-simcheck`'s pinned
    /// regression cases; never set in production code.
    legacy_churn_race: bool,
    /// Regression toggle: drop the parent-depth following and the
    /// universe-size attach bound, restoring the count-to-infinity freeze
    /// (stale attachment cycles whose finite depths never climb). For
    /// `ifi-simcheck` only.
    legacy_unbounded_depth: bool,
}

impl MaintainCore {
    /// Creates per-peer state from an established hierarchy position.
    pub fn new(
        hierarchy: &Hierarchy,
        peer: PeerId,
        neighbors: Vec<PeerId>,
        config: HeartbeatConfig,
    ) -> Self {
        let tracker = HeartbeatTracker::new(config, neighbors.iter().copied());
        MaintainCore {
            neighbors,
            is_root: hierarchy.root() == peer,
            depth: hierarchy.depth(peer).unwrap_or(DEPTH_INF),
            max_depth: hierarchy.universe() as u32,
            parent: hierarchy.parent(peer),
            children: hierarchy
                .children(peer)
                .iter()
                .map(|&c| (c, SimTime::ZERO))
                .collect(),
            tracker,
            last_suspected: PeerSet::new(),
            detach_count: 0,
            legacy_churn_race: false,
            legacy_unbounded_depth: false,
        }
    }

    /// Re-introduces the historical churn-race bug (PR 2's heartbeat
    /// panic): the tick sweep forgets suspected neighbors *before* the
    /// parent status check, and the tracker's status lookup panics on
    /// untracked peers, so a dying parent crashes the peer. Test tooling
    /// only.
    #[doc(hidden)]
    pub(crate) fn enable_legacy_churn_race(&mut self) {
        self.legacy_churn_race = true;
        self.tracker.set_legacy_strict_status(true);
    }

    /// Re-introduces the historical count-to-infinity freeze (PR 3's
    /// maintenance bug): no parent-depth following, no universe-size
    /// attach bound, so attachment cycles formed after a root death keep
    /// their stale finite depths forever. Test tooling only.
    #[doc(hidden)]
    pub(crate) fn enable_legacy_unbounded_depth(&mut self) {
        self.legacy_unbounded_depth = true;
    }

    /// The heartbeat configuration.
    pub(crate) fn config(&self) -> HeartbeatConfig {
        self.tracker.config()
    }

    /// Current depth, or `None` while detached.
    pub(crate) fn depth(&self) -> Option<u32> {
        (self.depth != DEPTH_INF).then_some(self.depth)
    }

    /// Current parent.
    pub(crate) fn parent(&self) -> Option<PeerId> {
        self.parent
    }

    /// Current children (sorted).
    pub fn children(&self) -> Vec<PeerId> {
        self.children.keys().collect()
    }

    /// Peak number of children ever held — arena occupancy for the perf
    /// benches' state-layout counters.
    pub(crate) fn children_high_water(&self) -> usize {
        self.children.high_water()
    }

    /// Peak number of neighbors the heartbeat tracker ever held — arena
    /// occupancy for the perf benches' state-layout counters.
    pub(crate) fn tracked_high_water(&self) -> usize {
        self.tracker.tracked_high_water()
    }

    /// Whether the peer is detached (depth ∞ and not the root).
    pub fn is_detached(&self) -> bool {
        self.depth == DEPTH_INF && !self.is_root
    }

    /// Promotes this peer to hierarchy root (depth 0, no parent). The tree
    /// regrows around it as neighbors hear its finite-depth heartbeats.
    pub fn promote_to_root(&mut self) {
        self.is_root = true;
        self.depth = 0;
        self.parent = None;
    }

    /// Steps down from the root role and detaches, cascading `Detach` to
    /// any children so the abandoned subtree re-homes to the surviving
    /// hierarchy. Returns the detach traffic to send.
    pub fn demote(&mut self) -> Outbox {
        let mut out = Outbox::new();
        self.is_root = false;
        self.detach(&mut out);
        out
    }

    /// Starts the tracking epoch.
    pub fn start(&mut self, now: SimTime) {
        self.tracker.start(now);
        self.last_suspected.clear();
        for stamp in self.children.values_mut() {
            *stamp = now;
        }
    }

    /// Resets the peer to the detached state, as a **newly joining** (or
    /// crash-revived) peer: §III-A.3 sets up the upstream/downstream
    /// neighbors of a new participant "similarly as described in Section
    /// III-A.1" — here, by starting at depth ∞ and attaching to the first
    /// finite-depth heartbeat, exactly like a repaired orphan. Any stale
    /// parent/children links from a previous incarnation are dropped
    /// (the neighbors detected the crash and detached long ago).
    pub fn rejoin(&mut self, now: SimTime) {
        if !self.is_root {
            self.depth = DEPTH_INF;
            self.parent = None;
        }
        self.children.clear();
        self.tracker.start(now);
        self.last_suspected.clear();
    }

    fn detach(&mut self, out: &mut Outbox) {
        if self.depth == DEPTH_INF {
            return;
        }
        self.depth = DEPTH_INF;
        self.parent = None;
        self.detach_count += 1;
        for c in self.children.keys() {
            out.push((c, MaintainMsg::Detach));
        }
        self.children.clear();
    }

    /// Handles an incoming maintenance message. Returns outbound traffic.
    pub fn on_message(&mut self, from: PeerId, msg: MaintainMsg, now: SimTime) -> Outbox {
        let mut out = Outbox::new();
        match msg {
            MaintainMsg::Heartbeat { depth } => {
                self.tracker.on_heartbeat(from, depth, now);
                // The legacy toggle drops the universe-size bound (any
                // finite depth attracts a detached peer) and the
                // parent-depth following below.
                let attach_ok = depth != DEPTH_INF
                    && (self.legacy_unbounded_depth || depth + 1 < self.max_depth);
                if self.is_detached() && attach_ok {
                    self.depth = depth + 1;
                    self.parent = Some(from);
                    out.push((from, MaintainMsg::Attach));
                } else if self.parent == Some(from) && !self.legacy_unbounded_depth {
                    // Follow the parent's advertised depth. Without this,
                    // stale attachment loops (possible once the root dies:
                    // a detached peer re-attaches to a branch whose own
                    // chain dies moments later, closing a cycle of live
                    // parents) freeze forever — no one in the cycle ever
                    // suspects anyone. Following makes a cycle's depths
                    // climb by ~1 per heartbeat interval until they hit
                    // `max_depth`, which breaks the loop; any chain with a
                    // real root converges to true BFS depths instead.
                    if depth == DEPTH_INF || depth + 1 >= self.max_depth {
                        self.detach(&mut out);
                    } else {
                        self.depth = depth + 1;
                    }
                }
            }
            MaintainMsg::Attach => {
                // The Attach itself proves the sender is alive; without
                // this, a just-revived child is suspected (stale tracker
                // entry) and silently dropped on the next tick while it
                // believes it attached — a permanent half-attached state.
                self.tracker.touch(from, now);
                if self.is_detached() {
                    out.push((from, MaintainMsg::Detach));
                } else {
                    self.children.insert(from, now);
                }
            }
            MaintainMsg::Detach => {
                self.tracker.touch(from, now);
                if self.parent == Some(from) {
                    self.detach(&mut out);
                }
            }
        }
        out
    }

    /// Handles a periodic tick: emits heartbeats, applies failure
    /// detection. Returns outbound traffic, whether the local tree
    /// membership (parent or children) changed, and which neighbors just
    /// transitioned into suspicion.
    pub fn on_tick(&mut self, now: SimTime) -> TickOutcome {
        let mut out = Outbox::new();
        for &nb in &self.neighbors {
            out.push((nb, MaintainMsg::Heartbeat { depth: self.depth }));
        }
        if self.legacy_churn_race {
            // Pre-fix sweep order: act on failures (forget the tracker
            // entry) before the parent status check. Combined with the
            // strict status lookup this panics whenever the parent itself
            // is among the suspects — the historical churn-race crash.
            for p in self.tracker.suspected(now) {
                self.tracker.forget(p);
            }
        }
        let mut changed = false;
        if let Some(p) = self.parent {
            if self.tracker.status(p, now) == NeighborStatus::Suspected {
                self.detach(&mut out);
                changed = true;
            }
        }
        // Drop children that failed, and children that stopped asserting
        // the link (they re-parented; they are alive, so suspicion alone
        // never fires for them).
        let suspected: PeerSet = self.tracker.suspected(now).into_iter().collect();
        let timeout = self.tracker.config().timeout;
        let before = self.children.len();
        self.children
            .retain(|c, stamp| !suspected.contains(c) && now.duration_since(*stamp) <= timeout);
        changed |= self.children.len() != before;
        let newly_dead: Vec<PeerId> = suspected
            .iter()
            .filter(|&p| !self.last_suspected.contains(p))
            .collect();
        self.last_suspected = suspected;
        // Re-assert the parent link every tick. Attach is idempotent at
        // the parent, and without the refresh a single lost Attach leaves
        // the peer permanently half-attached under message loss: it
        // believes it has a parent (so it never re-attaches), while the
        // parent never forwards it anything.
        if let Some(p) = self.parent {
            out.push((p, MaintainMsg::Attach));
        }
        TickOutcome {
            out,
            changed,
            newly_dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_overlay::Topology;
    use ifi_sim::Duration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    fn core_at(peer: usize) -> MaintainCore {
        // Line 0-1-2: peer 1 has parent 0 and child 2.
        let topo = Topology::line(3);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let cfg = HeartbeatConfig {
            interval: Duration::from_millis(100),
            timeout: Duration::from_millis(300),
            bytes: 8,
        };
        let p = PeerId::new(peer);
        let mut c = MaintainCore::new(&h, p, topo.neighbors(p).to_vec(), cfg);
        c.start(t(0));
        c
    }

    #[test]
    fn tick_emits_heartbeats_and_refreshes_the_parent_link() {
        let mut c = core_at(1);
        let TickOutcome { out, changed, .. } = c.on_tick(t(100));
        assert!(!changed);
        let hb: Vec<PeerId> = out
            .iter()
            .filter(|(_, m)| matches!(m, MaintainMsg::Heartbeat { .. }))
            .map(|&(to, _)| to)
            .collect();
        assert_eq!(hb, vec![PeerId::new(0), PeerId::new(2)]);
        // The parent link is re-asserted so a lost Attach heals itself.
        assert!(out.contains(&(PeerId::new(0), MaintainMsg::Attach)));
    }

    #[test]
    fn silent_parent_triggers_detach_cascade() {
        let mut c = core_at(1);
        // Child 2 keeps heartbeating; parent 0 goes silent.
        c.on_message(PeerId::new(2), MaintainMsg::Heartbeat { depth: 2 }, t(350));
        let TickOutcome { out, changed, .. } = c.on_tick(t(400));
        assert!(changed);
        assert!(c.is_detached());
        assert_eq!(c.detach_count, 1);
        assert!(out.contains(&(PeerId::new(2), MaintainMsg::Detach)));
    }

    #[test]
    fn detached_core_reattaches_on_finite_heartbeat() {
        let mut c = core_at(1);
        let _ = c.on_tick(t(400)); // detach (parent silent)
        let out = c.on_message(PeerId::new(2), MaintainMsg::Heartbeat { depth: 1 }, t(450));
        assert_eq!(c.depth(), Some(2));
        assert_eq!(c.parent(), Some(PeerId::new(2)));
        assert_eq!(out, vec![(PeerId::new(2), MaintainMsg::Attach)]);
    }

    #[test]
    fn stale_overdeep_heartbeat_cannot_attract_a_detached_peer() {
        // Universe is 3, so any legal depth is < 3: a heartbeat claiming
        // depth 2 would put us at 3 — circular depth info, refused.
        let mut c = core_at(1);
        let _ = c.on_tick(t(400)); // detach (parent silent)
        let out = c.on_message(PeerId::new(2), MaintainMsg::Heartbeat { depth: 2 }, t(450));
        assert!(c.is_detached());
        assert!(out.is_empty());
    }

    #[test]
    fn follows_parent_depth_and_detaches_past_the_bound() {
        let mut c = core_at(1);
        assert_eq!(c.depth(), Some(1));
        // Parent re-attached elsewhere at a different (legal) depth: follow.
        // (Line of 3: parent 0 now claims depth 0 again — no-op — then a
        // cycle inflates its advertised depth.)
        c.on_message(PeerId::new(0), MaintainMsg::Heartbeat { depth: 0 }, t(50));
        assert_eq!(c.depth(), Some(1));
        // Parent claims depth 2: following would give 3 == universe, which
        // no real BFS position can have — the chain is a loop. Detach.
        let out = c.on_message(PeerId::new(0), MaintainMsg::Heartbeat { depth: 2 }, t(150));
        assert!(c.is_detached());
        assert!(out.contains(&(PeerId::new(2), MaintainMsg::Detach)));
    }

    #[test]
    fn parent_advertising_infinite_depth_detaches_the_child() {
        // The parent detached but its Detach to us was lost (expired child
        // link); its ∞-depth heartbeat must still propagate the cascade.
        let mut c = core_at(1);
        let out = c.on_message(
            PeerId::new(0),
            MaintainMsg::Heartbeat { depth: DEPTH_INF },
            t(50),
        );
        assert!(c.is_detached());
        assert!(out.contains(&(PeerId::new(2), MaintainMsg::Detach)));
    }

    #[test]
    fn attach_while_detached_is_bounced() {
        let mut c = core_at(1);
        let _ = c.on_tick(t(400)); // detach
        let out = c.on_message(PeerId::new(0), MaintainMsg::Attach, t(410));
        assert_eq!(out, vec![(PeerId::new(0), MaintainMsg::Detach)]);
        assert!(c.children().is_empty());
    }

    #[test]
    fn suspected_child_is_dropped_from_children() {
        let mut c = core_at(1);
        c.on_message(PeerId::new(0), MaintainMsg::Heartbeat { depth: 0 }, t(350));
        // Child 2 silent past the timeout.
        let outcome = c.on_tick(t(400));
        assert!(outcome.changed);
        assert!(c.children().is_empty());
        assert!(!c.is_detached(), "losing a child must not detach us");
    }

    #[test]
    fn newly_dead_reports_each_suspicion_transition_once() {
        let mut c = core_at(1);
        // Both neighbors heartbeat once, then peer 0 goes silent.
        c.on_message(PeerId::new(0), MaintainMsg::Heartbeat { depth: 0 }, t(50));
        c.on_message(PeerId::new(2), MaintainMsg::Heartbeat { depth: 2 }, t(50));
        let alive = c.on_tick(t(100));
        assert!(alive.newly_dead.is_empty());
        c.on_message(PeerId::new(2), MaintainMsg::Heartbeat { depth: 2 }, t(380));
        let first = c.on_tick(t(400));
        assert_eq!(first.newly_dead, vec![PeerId::new(0)]);
        c.on_message(PeerId::new(2), MaintainMsg::Heartbeat { depth: 2 }, t(480));
        let second = c.on_tick(t(500));
        assert!(
            second.newly_dead.is_empty(),
            "a dead peer must be reported exactly once"
        );
    }

    #[test]
    #[should_panic(expected = "is not tracked")]
    fn legacy_churn_race_panics_when_the_parent_dies() {
        let mut c = core_at(1);
        c.enable_legacy_churn_race();
        // Child 2 keeps heartbeating; parent 0 goes silent past the
        // timeout. The pre-fix sweep forgets the suspected parent, then
        // the parent status check hits the strict lookup.
        c.on_message(PeerId::new(2), MaintainMsg::Heartbeat { depth: 2 }, t(350));
        let _ = c.on_tick(t(400));
    }

    #[test]
    fn legacy_unbounded_depth_restores_the_freeze_ingredients() {
        let mut c = core_at(1);
        c.enable_legacy_unbounded_depth();
        let _ = c.on_tick(t(400)); // detach (parent silent)
        assert!(c.is_detached());
        // The universe-size bound is gone: a depth-2 heartbeat in a
        // 3-peer universe attracts us to the impossible depth 3.
        let out = c.on_message(PeerId::new(2), MaintainMsg::Heartbeat { depth: 2 }, t(450));
        assert_eq!(c.depth(), Some(3));
        assert!(out.contains(&(PeerId::new(2), MaintainMsg::Attach)));
        // Parent-depth following is gone too: the stale finite depth
        // freezes in place even as the parent advertises ∞.
        let out = c.on_message(
            PeerId::new(2),
            MaintainMsg::Heartbeat { depth: DEPTH_INF },
            t(500),
        );
        assert!(out.is_empty());
        assert_eq!(c.depth(), Some(3), "count-to-infinity freeze restored");
    }

    #[test]
    fn promote_then_demote_round_trips_through_root() {
        let mut c = core_at(1);
        let _ = c.on_tick(t(400)); // parent silent -> detached
        assert!(c.is_detached());
        c.promote_to_root();
        assert!(c.is_root);
        assert_eq!(c.depth(), Some(0));
        assert_eq!(c.parent(), None);
        assert!(!c.is_detached());
        // A child attaches to the new root.
        let _ = c.on_message(PeerId::new(2), MaintainMsg::Attach, t(450));
        assert_eq!(c.children(), vec![PeerId::new(2)]);
        let out = c.demote();
        assert!(!c.is_root);
        assert!(c.is_detached());
        assert!(out.contains(&(PeerId::new(2), MaintainMsg::Detach)));
        assert!(c.children().is_empty());
    }
}
