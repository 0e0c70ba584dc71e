//! Ack/retransmit reliability envelope for protocol messages.
//!
//! [`ReliableLink`] is a pure state machine (no kernel access, like the
//! hierarchy crate's `MaintainCore`): protocols feed it sends, acks, and
//! retransmit-timer firings, and it tells them what to put on the wire.
//! Keeping it transport-free makes every transition unit-testable without a
//! simulation and lets any [`Protocol`](crate::Protocol) adopt it.
//!
//! The contract, per phase-critical message:
//!
//! * the **original** transmission is charged once, in its own phase class,
//!   so phase costs stay comparable to a loss-free run;
//! * every **retransmission** and every **ack** is charged to
//!   [`MsgClass::RETRANSMIT`] — the visible price of reliability;
//! * the receiver suppresses duplicates by `(sender, seq)`, so retransmits
//!   and network-duplicated frames never double-count values;
//! * retransmissions back off exponentially with deterministic jitter (no
//!   PRNG draws — jitter is hashed from the sequence number and attempt, so
//!   enabling reliability does not perturb the kernel's random stream);
//! * after [`RelConfig::max_retries`] attempts the link gives up and
//!   reports it, letting the caller escalate to coarser repair (netFilter's
//!   epoch supersession path).

use std::collections::{BTreeMap, BTreeSet};

use crate::arena::PeerMap;
use crate::id::PeerId;
use crate::rng::mix64;
use crate::time::Duration;

#[cfg(doc)]
use crate::metrics::MsgClass;

/// Wire format of a reliability-aware protocol: either an unadorned payload
/// (fire-and-forget traffic, or reliability disabled) or a sequenced frame
/// with its acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReliableMsg<M> {
    /// An unsequenced payload outside the reliability envelope.
    Plain(M),
    /// A sequenced payload; the receiver acks `(inc, seq)` and
    /// deduplicates on it.
    Data {
        /// The sender's restart incarnation (see [`ReliableLink::on_restart`]).
        inc: u32,
        /// Sender-local sequence number within incarnation `inc`.
        seq: u64,
        /// The protocol payload.
        payload: M,
    },
    /// Acknowledges receipt of the frame numbered `seq`. Echoes the
    /// acknowledged frame's incarnation so a restarted sender (whose fresh
    /// sequence space reuses old numbers) never mistakes a stale ack from
    /// its previous life for one of its current frames.
    Ack {
        /// The acknowledged frame's sender incarnation.
        inc: u32,
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// Tuning knobs for [`ReliableLink`].
#[derive(Debug, Clone)]
pub struct RelConfig {
    /// Bytes charged per acknowledgement (sequence number + framing).
    pub ack_bytes: u64,
    /// Timeout before the first retransmission; doubles per attempt.
    pub base_rto: Duration,
    /// Upper bound on the backed-off timeout.
    pub max_rto: Duration,
    /// Retransmissions attempted before the link gives up on a frame.
    pub max_retries: u32,
}

impl Default for RelConfig {
    fn default() -> Self {
        RelConfig {
            ack_bytes: 8,
            base_rto: Duration::from_millis(400),
            max_rto: Duration::from_secs(5),
            max_retries: 16,
        }
    }
}

/// Backed-off delay before attempt `attempt + 1` of a retried operation:
/// exponential growth from [`RelConfig::base_rto`] capped at
/// [`RelConfig::max_rto`], plus up to half a `base_rto` of jitter hashed
/// deterministically from `(salt, attempt)` — no PRNG draws, so enabling
/// retries never perturbs a seeded random stream, and synchronized
/// failures do not retry in lockstep.
///
/// This is the single backoff schedule of the workspace: the DES-side
/// [`ReliableLink::rto`] retransmit path and the transport crate's
/// connection supervisor both call it, so reconnect pacing over real
/// sockets is the very policy the simulator models.
pub fn backoff_delay(cfg: &RelConfig, attempt: u32, salt: u64) -> Duration {
    let backed_off = cfg
        .base_rto
        .saturating_mul(1u64 << attempt.min(16))
        .min(cfg.max_rto);
    let jitter_unit = cfg.base_rto.as_micros() / 2;
    let jitter = if jitter_unit == 0 {
        0
    } else {
        mix64(salt.wrapping_mul(0x9E37).wrapping_add(attempt as u64)) % jitter_unit
    };
    backed_off + Duration::from_micros(jitter)
}

/// A frame awaiting acknowledgement. The original's message class is not
/// retained: the caller charged it at first send, and every later copy is
/// [`MsgClass::RETRANSMIT`] by contract.
#[derive(Debug, Clone)]
struct Pending<M> {
    to: PeerId,
    payload: M,
    bytes: u64,
    attempts: u32,
}

/// Receiver-side duplicate suppression for one sender.
///
/// All sequence numbers below `next` have been accepted; `sparse` holds
/// accepted numbers at or above it (out-of-order arrivals). Compaction
/// advances the watermark as gaps fill, so memory stays bounded by the
/// reorder window rather than the run length.
#[derive(Debug, Clone, Default)]
struct DedupWindow {
    next: u64,
    sparse: BTreeSet<u64>,
}

/// Receiver-side state for one sender: its dedup window, tagged with the
/// sender incarnation the window belongs to. A restarted sender's fresh
/// sequence space gets a fresh window; frames stamped with an older
/// incarnation than the stored one are late stragglers from a dead life
/// and are never dispatched.
#[derive(Debug, Clone, Default)]
struct SenderWindow {
    inc: u32,
    window: DedupWindow,
}

impl DedupWindow {
    /// Records `seq`; returns `true` the first time it is seen.
    fn insert(&mut self, seq: u64) -> bool {
        if seq < self.next || !self.sparse.insert(seq) {
            return false;
        }
        while self.sparse.remove(&self.next) {
            self.next += 1;
        }
        true
    }
}

/// Outcome of a retransmit-timer firing (see [`ReliableLink::retransmit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Retransmit<M> {
    /// The frame is still unacknowledged: resend it (charging `bytes` to
    /// [`MsgClass::RETRANSMIT`]) and re-arm the timer after `next_delay`.
    Resend {
        /// Destination peer.
        to: PeerId,
        /// The frame to put back on the wire.
        frame: ReliableMsg<M>,
        /// Payload bytes to charge for the retransmission.
        bytes: u64,
        /// Backed-off delay until the next retransmission check.
        next_delay: Duration,
    },
    /// The frame was acknowledged in the meantime; nothing to do.
    Acked,
    /// Retries are exhausted; the frame is abandoned and responsibility
    /// escalates to the caller's coarser repair path.
    GaveUp {
        /// The peer that never acknowledged.
        to: PeerId,
    },
}

/// Per-peer reliability state: sender-side in-flight table plus
/// receiver-side dedup windows.
#[derive(Debug, Clone)]
pub struct ReliableLink<M> {
    cfg: RelConfig,
    /// This node's restart incarnation, stamped into every frame and ack.
    inc: u32,
    next_seq: u64,
    in_flight: BTreeMap<u64, Pending<M>>,
    /// Per-sender dedup windows, arena-backed: the sender population is
    /// bounded by the overlay degree, so a sorted vector beats a tree map
    /// at every size the simulator reaches.
    seen: PeerMap<SenderWindow>,
    abandoned: u64,
}

impl<M: Clone> ReliableLink<M> {
    /// Creates an idle link with the given configuration.
    pub fn new(cfg: RelConfig) -> Self {
        ReliableLink {
            cfg,
            inc: 0,
            next_seq: 0,
            in_flight: BTreeMap::new(),
            seen: PeerMap::new(),
            abandoned: 0,
        }
    }

    /// This node's current restart incarnation.
    pub fn incarnation(&self) -> u32 {
        self.inc
    }

    /// Marks a restart of this node after a crash: bumps the incarnation,
    /// resets the sequence space, and abandons every in-flight frame (the
    /// crash already lost their retransmit timers; counting them keeps the
    /// [`abandoned`](Self::abandoned) escalation signal honest).
    ///
    /// The incarnation stamp is what makes the reset sound: receivers key
    /// their dedup windows by `(sender, inc)`, so the reused sequence
    /// numbers of the new life can never alias the old life's — neither
    /// suppressing fresh frames against a stale window nor dispatching a
    /// late old-life duplicate against the fresh one. Receiver windows are
    /// deliberately retained: they describe the *remote* peers' lives, not
    /// this node's.
    pub fn on_restart(&mut self) {
        self.inc = self.inc.wrapping_add(1);
        self.next_seq = 0;
        self.abandoned += self.in_flight.len() as u64;
        self.in_flight.clear();
    }

    /// The link configuration.
    pub fn cfg(&self) -> &RelConfig {
        &self.cfg
    }

    /// Wraps `payload` in a sequenced frame bound for `to`, retaining a
    /// copy for retransmission. Returns the sequence number and the frame;
    /// the caller sends the frame (charging `bytes` in the message's own
    /// phase class, exactly as an unreliable send would) and arms a
    /// retransmit timer after [`ReliableLink::rto`]`(seq, 0)`.
    pub fn send_data(&mut self, to: PeerId, payload: M, bytes: u64) -> (u64, ReliableMsg<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight.insert(
            seq,
            Pending {
                to,
                payload: payload.clone(),
                bytes,
                attempts: 0,
            },
        );
        (
            seq,
            ReliableMsg::Data {
                inc: self.inc,
                seq,
                payload,
            },
        )
    }

    /// Timeout before attempt `attempt + 1` of frame `seq`: exponential
    /// backoff capped at `max_rto`, plus up to half a `base_rto` of jitter
    /// hashed deterministically from `(seq, attempt)` so synchronized
    /// losses do not retransmit in lockstep (see [`backoff_delay`]).
    pub fn rto(&self, seq: u64, attempt: u32) -> Duration {
        backoff_delay(&self.cfg, attempt, seq)
    }

    /// Receiver side: records a `Data` frame from `from`, stamped with the
    /// sender's incarnation `inc` and number `seq`. Returns `true` when
    /// the payload is fresh and must be handed to the protocol, `false`
    /// for a duplicate to suppress. The caller acks in both cases, echoing
    /// the frame's `inc` — the duplicate usually means the first ack was
    /// lost, and a stale-life frame's ack is harmless (the restarted
    /// sender ignores it by incarnation).
    ///
    /// A frame from a *newer* incarnation than the stored window retires
    /// the window: the restarted sender's sequence space began again at
    /// zero, so the old watermark would wrongly suppress its fresh frames.
    /// A frame from an *older* incarnation is a late duplicate from a dead
    /// life; its payload was either delivered then or died with the
    /// sender, and is never dispatched now.
    pub fn accept(&mut self, from: PeerId, inc: u32, seq: u64) -> bool {
        let entry = self.seen.entry_or_default(from);
        if inc < entry.inc {
            return false;
        }
        if inc > entry.inc {
            entry.inc = inc;
            entry.window = DedupWindow::default();
        }
        entry.window.insert(seq)
    }

    /// Sender side: handles an `Ack` for `seq` from `from`, stamped with
    /// the acknowledged frame's incarnation `inc`. Ignores acks for a
    /// previous life of this node (a restart reuses sequence numbers, so
    /// an old-life ack must not clear a current-life frame), for unknown
    /// frames (already acked, or abandoned), and from a peer the frame was
    /// never sent to.
    pub fn on_ack(&mut self, from: PeerId, inc: u32, seq: u64) {
        if inc == self.inc && self.in_flight.get(&seq).is_some_and(|p| p.to == from) {
            self.in_flight.remove(&seq);
        }
    }

    /// Sender side: handles a retransmit-timer firing for `seq`.
    pub fn retransmit(&mut self, seq: u64) -> Retransmit<M> {
        let Some(pending) = self.in_flight.get_mut(&seq) else {
            return Retransmit::Acked;
        };
        if pending.attempts >= self.cfg.max_retries {
            let to = pending.to;
            self.in_flight.remove(&seq);
            self.abandoned += 1;
            return Retransmit::GaveUp { to };
        }
        pending.attempts += 1;
        let (to, payload, bytes, attempts) = (
            pending.to,
            pending.payload.clone(),
            pending.bytes,
            pending.attempts,
        );
        Retransmit::Resend {
            to,
            // In-flight frames always belong to the current incarnation:
            // `on_restart` clears the table.
            frame: ReliableMsg::Data {
                inc: self.inc,
                seq,
                payload,
            },
            bytes,
            next_delay: self.rto(seq, attempts),
        }
    }

    /// Sender side: drops every in-flight frame addressed to `peer`,
    /// counting each as abandoned. Called when a failure detector declares
    /// `peer` dead — capped retries to a corpse would otherwise keep
    /// burning metered retransmit bytes until `max_retries` runs out. Any
    /// still-armed retransmit timer for a dropped frame finds it gone and
    /// reports [`Retransmit::Acked`] (a no-op), so callers need not track
    /// timer handles. Returns the number of frames dropped.
    pub fn abandon(&mut self, peer: PeerId) -> usize {
        let before = self.in_flight.len();
        self.in_flight.retain(|_, p| p.to != peer);
        let dropped = before - self.in_flight.len();
        self.abandoned += dropped as u64;
        dropped
    }

    /// Frames currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Frames abandoned after exhausting retries (escalated to the caller).
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Peak number of per-sender dedup windows ever held — an arena
    /// occupancy counter for the perf benches' state-layout gate.
    pub fn dedup_high_water(&self) -> usize {
        self.seen.high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> ReliableLink<&'static str> {
        ReliableLink::new(RelConfig::default())
    }

    #[test]
    fn sequences_are_fresh_per_send() {
        let mut l = link();
        let (s0, f0) = l.send_data(PeerId::new(1), "a", 4);
        let (s1, _) = l.send_data(PeerId::new(2), "b", 4);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(
            f0,
            ReliableMsg::Data {
                inc: 0,
                seq: 0,
                payload: "a"
            }
        );
        assert_eq!(l.in_flight(), 2);
    }

    #[test]
    fn ack_clears_in_flight_and_timer_becomes_noop() {
        let mut l = link();
        let (seq, _) = l.send_data(PeerId::new(1), "a", 4);
        l.on_ack(PeerId::new(1), 0, seq);
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.retransmit(seq), Retransmit::Acked);
        // A duplicate ack is harmless.
        l.on_ack(PeerId::new(1), 0, seq);
    }

    #[test]
    fn ack_from_the_wrong_peer_is_ignored() {
        let mut l = link();
        let (seq, _) = l.send_data(PeerId::new(1), "a", 4);
        l.on_ack(PeerId::new(9), 0, seq);
        assert_eq!(l.in_flight(), 1);
    }

    #[test]
    fn retransmit_resends_until_retries_exhaust() {
        let mut l = ReliableLink::new(RelConfig {
            max_retries: 2,
            ..RelConfig::default()
        });
        let (seq, _) = l.send_data(PeerId::new(3), "x", 10);
        for _ in 0..2 {
            match l.retransmit(seq) {
                Retransmit::Resend {
                    to, frame, bytes, ..
                } => {
                    assert_eq!(to, PeerId::new(3));
                    assert_eq!(bytes, 10);
                    assert!(matches!(frame, ReliableMsg::Data { seq: s, .. } if s == seq));
                }
                other => panic!("expected resend, got {other:?}"),
            }
        }
        assert_eq!(l.retransmit(seq), Retransmit::GaveUp { to: PeerId::new(3) });
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.abandoned(), 1);
        // Once abandoned, stray timers are no-ops.
        assert_eq!(l.retransmit(seq), Retransmit::Acked);
    }

    #[test]
    fn abandon_drops_only_frames_to_the_dead_peer() {
        let mut l = link();
        let dead = PeerId::new(3);
        let (s0, _) = l.send_data(dead, "a", 4);
        let (s1, _) = l.send_data(PeerId::new(5), "b", 4);
        let (s2, _) = l.send_data(dead, "c", 4);
        assert_eq!(l.abandon(dead), 2);
        assert_eq!(l.in_flight(), 1);
        assert_eq!(l.abandoned(), 2);
        // Stray timers for the abandoned frames are silent no-ops, not
        // GaveUp escalations; the live peer's frame still retransmits.
        assert_eq!(l.retransmit(s0), Retransmit::Acked);
        assert_eq!(l.retransmit(s2), Retransmit::Acked);
        assert!(matches!(l.retransmit(s1), Retransmit::Resend { .. }));
        // Abandoning a peer with nothing in flight is harmless.
        assert_eq!(l.abandon(dead), 0);
        assert_eq!(l.abandoned(), 2);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let l = link();
        let base = l.cfg().base_rto;
        assert!(l.rto(0, 0) >= base);
        assert!(l.rto(0, 0) < base + base); // jitter < base/2 < base
        assert!(l.rto(0, 3) >= base.saturating_mul(8));
        let capped = l.rto(0, 30);
        assert!(capped <= l.cfg().max_rto + base);
        // Jitter is deterministic.
        assert_eq!(l.rto(7, 2), l.rto(7, 2));
    }

    #[test]
    fn dedup_accepts_once_per_sender_sequence() {
        let mut l = link();
        let a = PeerId::new(1);
        let b = PeerId::new(2);
        assert!(l.accept(a, 0, 0));
        assert!(!l.accept(a, 0, 0), "retransmit double-counted");
        assert!(l.accept(b, 0, 0), "windows are per-sender");
        assert!(l.accept(a, 0, 1));
    }

    #[test]
    fn dedup_survives_reordering_and_compacts() {
        let mut l = link();
        let p = PeerId::new(4);
        // Arrivals: 2, 0, 1 (reordered), then dups of each.
        assert!(l.accept(p, 0, 2));
        assert!(l.accept(p, 0, 0));
        assert!(l.accept(p, 0, 1));
        for seq in 0..3 {
            assert!(!l.accept(p, 0, seq));
        }
        let w = l.seen.get(p).unwrap();
        assert_eq!(w.window.next, 3, "watermark compacted past the filled gap");
        assert!(w.window.sparse.is_empty());
        assert_eq!(l.dedup_high_water(), 1);
    }

    #[test]
    fn restart_resets_the_seq_space_without_aliasing_the_old_window() {
        // Receiver's view of a sender that crashes and restarts: the new
        // life reuses sequence numbers starting from zero, and without the
        // incarnation stamp the old watermark would swallow all of them.
        let mut l = link();
        let p = PeerId::new(2);
        assert!(l.accept(p, 0, 0));
        assert!(l.accept(p, 0, 1));
        assert!(l.accept(p, 0, 2));
        // Sender restarts: incarnation 1, fresh seq space.
        assert!(l.accept(p, 1, 0), "fresh life suppressed by stale window");
        assert!(!l.accept(p, 1, 0), "retransmit within the new life");
        assert!(l.accept(p, 1, 1));
        // One window per sender throughout — the arena slot is reused.
        assert_eq!(l.dedup_high_water(), 1);
    }

    #[test]
    fn late_duplicate_from_a_previous_life_never_dispatches() {
        let mut l = link();
        let p = PeerId::new(2);
        assert!(l.accept(p, 0, 0), "delivered in the old life");
        assert!(l.accept(p, 1, 0), "new life after restart");
        // A network-delayed duplicate of the already-delivered old-life
        // frame arrives after the window reset: it must not dispatch a
        // second time even though the fresh window has no record of it.
        assert!(!l.accept(p, 0, 0), "old-life duplicate dispatched twice");
        // Same for an old-life frame the receiver never saw: its send died
        // with the old life and must not leak into the new one.
        assert!(!l.accept(p, 0, 7));
    }

    #[test]
    fn stale_ack_from_a_previous_life_does_not_clear_a_current_frame() {
        let mut l = link();
        let p = PeerId::new(1);
        let (s0, _) = l.send_data(p, "old", 4);
        assert_eq!(s0, 0);
        // Crash + restart: the new life's first frame reuses seq 0.
        l.on_restart();
        let (s1, f1) = l.send_data(p, "new", 4);
        assert_eq!(s1, 0, "restart resets the sequence space");
        assert!(matches!(f1, ReliableMsg::Data { inc: 1, seq: 0, .. }));
        // The old life's ack for seq 0 finally arrives: it must not clear
        // the in-flight frame of the new life.
        l.on_ack(p, 0, 0);
        assert_eq!(l.in_flight(), 1, "stale ack cleared a current frame");
        l.on_ack(p, 1, 0);
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn restart_abandons_in_flight_frames() {
        let mut l = link();
        l.send_data(PeerId::new(1), "a", 4);
        l.send_data(PeerId::new(2), "b", 4);
        assert_eq!(l.incarnation(), 0);
        l.on_restart();
        assert_eq!(l.incarnation(), 1);
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.abandoned(), 2);
        // Stray timers from the old life find nothing to resend.
        assert_eq!(l.retransmit(0), Retransmit::Acked);
        assert_eq!(l.retransmit(1), Retransmit::Acked);
    }

    mod abandon_world {
        use super::*;
        use crate::metrics::MsgClass;
        use crate::time::{Duration, SimTime};
        use crate::world::{Ctx, Protocol, SimConfig, World};

        const FRAME_BYTES: u64 = 16;

        #[derive(Debug, Clone, Copy)]
        enum Tm {
            Retransmit(u64),
            Abandon,
        }

        /// Peer 0 sends one reliable frame to peer 1 (dead for the whole
        /// run), retransmits on timers, and abandons the peer at t = 1 s.
        #[derive(Debug)]
        struct Sender {
            rel: ReliableLink<&'static str>,
            resends: u32,
            resends_at_abandon: Option<u32>,
            gave_up: u32,
        }

        impl Default for Sender {
            fn default() -> Self {
                Sender {
                    rel: ReliableLink::new(RelConfig::default()),
                    resends: 0,
                    resends_at_abandon: None,
                    gave_up: 0,
                }
            }
        }

        impl Protocol for Sender {
            type Msg = ReliableMsg<&'static str>;
            type Timer = Tm;
            type Scratch = ();

            fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
                if ctx.self_id().index() != 0 {
                    return;
                }
                let dead = PeerId::new(1);
                let (seq, frame) = self.rel.send_data(dead, "payload", FRAME_BYTES);
                let delay = self.rel.rto(seq, 0);
                ctx.send(dead, frame, FRAME_BYTES, MsgClass::DATA);
                ctx.set_timer(delay, Tm::Retransmit(seq));
                ctx.set_timer(Duration::from_secs(1), Tm::Abandon);
            }

            fn on_message(
                &mut self,
                _ctx: &mut Ctx<'_, Self>,
                from: PeerId,
                msg: ReliableMsg<&'static str>,
            ) {
                if let ReliableMsg::Ack { inc, seq } = msg {
                    self.rel.on_ack(from, inc, seq);
                }
            }

            fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, t: Tm) {
                match t {
                    Tm::Abandon => {
                        self.rel.abandon(PeerId::new(1));
                        self.resends_at_abandon = Some(self.resends);
                    }
                    Tm::Retransmit(seq) => match self.rel.retransmit(seq) {
                        Retransmit::Resend {
                            to,
                            frame,
                            bytes,
                            next_delay,
                        } => {
                            self.resends += 1;
                            ctx.send(to, frame, bytes, MsgClass::RETRANSMIT);
                            ctx.set_timer(next_delay, Tm::Retransmit(seq));
                        }
                        Retransmit::Acked => {}
                        Retransmit::GaveUp { .. } => self.gave_up += 1,
                    },
                }
            }
        }

        #[test]
        fn abandoned_peer_stops_retransmitting_without_double_metering() {
            let mut w = World::new(
                SimConfig::default().with_seed(31),
                vec![Sender::default(), Sender::default()],
            );
            w.kill_now(PeerId::new(1));
            w.start();
            w.run_to_quiescence();

            let s = w.peer(PeerId::new(0));
            let at_abandon = s
                .resends_at_abandon
                .expect("abandon timer fired before quiescence");
            // The default base RTO (400 ms + jitter) guarantees at least
            // one resend before the 1 s abandon, so the assertion below is
            // not vacuous.
            assert!(at_abandon >= 1, "no resend happened before abandon");
            // No retransmission fires for the abandoned peer: every timer
            // pending at abandon time resolved to a silent no-op.
            assert_eq!(s.resends, at_abandon, "retransmission fired after abandon");
            assert_eq!(s.gave_up, 0, "abandon escalated to GaveUp");
            assert_eq!(s.rel.in_flight(), 0);
            assert_eq!(s.rel.abandoned(), 1);
            // In-flight bytes are metered exactly once per wire frame —
            // the original plus each pre-abandon resend; abandoning the
            // peer charges nothing extra.
            let expect = FRAME_BYTES * (1 + u64::from(at_abandon));
            assert_eq!(w.metrics().total_bytes(), expect);
            assert_eq!(
                w.metrics().class_bytes(MsgClass::RETRANSMIT),
                FRAME_BYTES * u64::from(at_abandon)
            );
            // And quiescence itself proves no retransmit timer re-armed
            // after the abandon; the clock stopped at the last no-op timer.
            assert!(w.now() >= SimTime::from_micros(1_000_000));
        }
    }
}
