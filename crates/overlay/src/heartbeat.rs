//! Heartbeat bookkeeping with the paper's `DEPTH` counter.
//!
//! §III-A.3: *"peers exchange heartbeat messages with their neighbors
//! periodically to inform the aliveness among each other. Here we modify
//! these heartbeat messages slightly by including a DEPTH counter,
//! indicating the depth of the message sender in the hierarchy."*
//!
//! [`HeartbeatTracker`] is a passive component that protocol state machines
//! embed: it decides when to emit heartbeats, records the last heartbeat
//! (and advertised depth) per neighbor, and reports which neighbors have
//! missed enough heartbeats to be declared failed. The hierarchy-repair
//! protocol in `ifi-hierarchy` is its main consumer.

use ifi_sim::{Duration, PeerId, PeerMap, SimTime};

/// Timing parameters for the heartbeat protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Interval between heartbeats sent to each neighbor.
    pub interval: Duration,
    /// A neighbor is declared failed after this long without a heartbeat
    /// ("lack of heartbeat messages … for a predefined time interval").
    pub timeout: Duration,
    /// Wire size of one heartbeat message (liveness bit + DEPTH counter).
    pub bytes: u64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_secs(1),
            timeout: Duration::from_secs(3),
            bytes: 8,
        }
    }
}

/// Liveness verdict for one neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborStatus {
    /// Heartbeats arriving on schedule; carries the last advertised depth
    /// (`None` until the first heartbeat arrives — neighbors get the benefit
    /// of the doubt for one timeout after tracking starts).
    Alive(Option<u32>),
    /// No heartbeat within the timeout.
    Suspected,
}

/// Per-neighbor heartbeat state embedded in protocol state machines.
#[derive(Debug, Clone)]
pub struct HeartbeatTracker {
    config: HeartbeatConfig,
    /// `(last heard, last advertised depth)` per tracked neighbor, stored
    /// in a degree-sized sorted arena. The tracking epoch starts at
    /// [`HeartbeatTracker::start`].
    last: PeerMap<(SimTime, Option<u32>)>,
    started: Option<SimTime>,
    /// Regression toggle: restore the pre-fix behavior where
    /// [`status`](Self::status) panicked on an untracked peer. Exists only
    /// so the schedule-exploration harness (`ifi-simcheck`) can prove it
    /// rediscovers the historical churn-race panic; never set in
    /// production code.
    legacy_strict_status: bool,
}

impl HeartbeatTracker {
    /// Creates a tracker for the given neighbor set.
    pub fn new(config: HeartbeatConfig, neighbors: impl IntoIterator<Item = PeerId>) -> Self {
        HeartbeatTracker {
            config,
            last: neighbors
                .into_iter()
                .map(|p| (p, (SimTime::ZERO, None)))
                .collect(),
            started: None,
            legacy_strict_status: false,
        }
    }

    /// Re-enables the historical pre-fix behavior: [`status`](Self::status)
    /// panics on an untracked peer instead of reporting `Suspected`. Test
    /// tooling only (see `ifi-simcheck`'s pinned regression cases).
    #[doc(hidden)]
    pub fn set_legacy_strict_status(&mut self, on: bool) {
        self.legacy_strict_status = on;
    }

    /// The timing parameters.
    pub fn config(&self) -> HeartbeatConfig {
        self.config
    }

    /// Marks the start of the tracking epoch: every neighbor is treated as
    /// heard-from at `now` (grace period of one timeout).
    pub fn start(&mut self, now: SimTime) {
        self.started = Some(now);
        for (t, _) in self.last.values_mut() {
            *t = now;
        }
    }

    /// Records a heartbeat from `from` advertising `depth` (where
    /// `u32::MAX` encodes the paper's depth-∞ "detached" state).
    /// Unknown senders are added to the tracked set (new neighbors).
    pub fn on_heartbeat(&mut self, from: PeerId, depth: u32, now: SimTime) {
        self.last.insert(from, (now, Some(depth)));
    }

    /// Records liveness evidence from `peer` without a depth update — any
    /// received protocol message proves the sender was recently alive, so
    /// control messages (Attach/Detach) refresh the failure detector even
    /// though only heartbeats carry DEPTH. Without this, a parent can
    /// accept an `Attach` from a just-revived peer and then spuriously
    /// drop it on the next tick, before its first heartbeat lands.
    pub fn touch(&mut self, from: PeerId, now: SimTime) {
        let depth = self.last.get(from).and_then(|&(_, d)| d);
        self.last.insert(from, (now, depth));
    }

    /// Stops tracking a neighbor (e.g. after acting on its failure).
    pub fn forget(&mut self, peer: PeerId) {
        self.last.remove(peer);
    }

    /// The status of `peer` at time `now`.
    ///
    /// An **untracked** peer is reported [`NeighborStatus::Suspected`]:
    /// under churn, a heartbeat or status query can race a departure the
    /// tracker already acted on via [`forget`](Self::forget), and "no
    /// evidence of life" is exactly what `Suspected` means. (Any later
    /// message from the peer re-registers it — see
    /// [`on_heartbeat`](Self::on_heartbeat) / [`touch`](Self::touch).)
    ///
    /// # Panics
    ///
    /// Panics if [`start`](Self::start) was never called.
    pub fn status(&self, peer: PeerId, now: SimTime) -> NeighborStatus {
        assert!(self.started.is_some(), "tracker not started");
        match self.last.get(peer) {
            None if self.legacy_strict_status => panic!("peer {peer} is not tracked"),
            None => NeighborStatus::Suspected,
            Some(&(heard, depth)) => {
                if now.duration_since(heard) > self.config.timeout {
                    NeighborStatus::Suspected
                } else {
                    NeighborStatus::Alive(depth)
                }
            }
        }
    }

    /// All neighbors currently suspected of failure.
    pub fn suspected(&self, now: SimTime) -> Vec<PeerId> {
        self.last
            .keys()
            .filter(|&p| self.status(p, now) == NeighborStatus::Suspected)
            .collect()
    }

    /// Peak number of neighbors ever tracked — arena occupancy for the perf
    /// benches' state-layout counters.
    pub fn tracked_high_water(&self) -> usize {
        self.last.high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn tracker() -> HeartbeatTracker {
        let cfg = HeartbeatConfig {
            interval: Duration::from_micros(100),
            timeout: Duration::from_micros(300),
            bytes: 8,
        };
        let mut hb = HeartbeatTracker::new(cfg, [PeerId::new(1), PeerId::new(2)]);
        hb.start(t(0));
        hb
    }

    #[test]
    fn alive_within_timeout_then_suspected() {
        let mut hb = tracker();
        hb.on_heartbeat(PeerId::new(1), 2, t(100));
        assert_eq!(
            hb.status(PeerId::new(1), t(350)),
            NeighborStatus::Alive(Some(2))
        );
        assert_eq!(hb.status(PeerId::new(1), t(401)), NeighborStatus::Suspected);
    }

    #[test]
    fn grace_period_before_first_heartbeat() {
        let hb = tracker();
        assert_eq!(
            hb.status(PeerId::new(2), t(300)),
            NeighborStatus::Alive(None)
        );
        assert_eq!(hb.status(PeerId::new(2), t(301)), NeighborStatus::Suspected);
    }

    #[test]
    fn suspected_lists_all_silent_neighbors() {
        let mut hb = tracker();
        hb.on_heartbeat(PeerId::new(1), 0, t(500));
        assert_eq!(hb.suspected(t(600)), vec![PeerId::new(2)]);
        assert_eq!(hb.suspected(t(900)), vec![PeerId::new(1), PeerId::new(2)]);
    }

    #[test]
    fn heartbeat_revives_suspected_neighbor() {
        let mut hb = tracker();
        assert_eq!(
            hb.status(PeerId::new(1), t(1000)),
            NeighborStatus::Suspected
        );
        hb.on_heartbeat(PeerId::new(1), 7, t(1000));
        assert_eq!(
            hb.status(PeerId::new(1), t(1100)),
            NeighborStatus::Alive(Some(7))
        );
        assert_eq!(hb.last.get(PeerId::new(1)).and_then(|&(_, d)| d), Some(7));
    }

    #[test]
    fn unknown_sender_becomes_tracked() {
        let mut hb = tracker();
        hb.on_heartbeat(PeerId::new(9), 4, t(50));
        assert!(hb.last.keys().any(|p| p == PeerId::new(9)));
        assert_eq!(
            hb.status(PeerId::new(9), t(60)),
            NeighborStatus::Alive(Some(4))
        );
    }

    #[test]
    fn touch_refreshes_liveness_but_keeps_depth() {
        let mut hb = tracker();
        hb.on_heartbeat(PeerId::new(1), 4, t(100));
        // Silent past the timeout, then a control message arrives.
        assert_eq!(hb.status(PeerId::new(1), t(500)), NeighborStatus::Suspected);
        hb.touch(PeerId::new(1), t(500));
        assert_eq!(
            hb.status(PeerId::new(1), t(600)),
            NeighborStatus::Alive(Some(4)),
            "touch must refresh liveness and preserve the advertised depth"
        );
        // Touching an untracked peer starts tracking it with unknown depth.
        hb.touch(PeerId::new(9), t(500));
        assert_eq!(
            hb.status(PeerId::new(9), t(600)),
            NeighborStatus::Alive(None)
        );
    }

    #[test]
    fn forget_removes_neighbor() {
        let mut hb = tracker();
        hb.forget(PeerId::new(2));
        assert!(hb.last.keys().eq([PeerId::new(1)]));
    }

    #[test]
    fn status_of_unknown_is_suspected() {
        let hb = tracker();
        assert_eq!(hb.status(PeerId::new(42), t(0)), NeighborStatus::Suspected);
    }

    #[test]
    fn heartbeat_after_departure_does_not_panic() {
        // Churn race: the tracker acts on a neighbor's failure and forgets
        // it, then an in-flight heartbeat from the departed peer lands.
        // The tracker must take the late evidence gracefully — report the
        // unknown peer as Suspected, then re-register it on the heartbeat.
        let mut hb = tracker();
        hb.forget(PeerId::new(2));
        assert_eq!(hb.status(PeerId::new(2), t(400)), NeighborStatus::Suspected);
        hb.on_heartbeat(PeerId::new(2), 3, t(450));
        assert_eq!(
            hb.status(PeerId::new(2), t(500)),
            NeighborStatus::Alive(Some(3)),
            "a late heartbeat re-registers the departed peer"
        );
        assert!(hb.last.keys().any(|p| p == PeerId::new(2)));
    }

    #[test]
    #[should_panic(expected = "not started")]
    fn status_before_start_panics() {
        let hb = HeartbeatTracker::new(HeartbeatConfig::default(), [PeerId::new(1)]);
        let _ = hb.status(PeerId::new(1), t(0));
    }

    #[test]
    #[should_panic(expected = "is not tracked")]
    fn legacy_strict_status_restores_the_pre_fix_panic() {
        let mut hb = tracker();
        hb.set_legacy_strict_status(true);
        hb.forget(PeerId::new(2));
        let _ = hb.status(PeerId::new(2), t(400));
    }
}
