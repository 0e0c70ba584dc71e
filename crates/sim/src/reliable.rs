//! Ack/retransmit reliability envelope for protocol messages.
//!
//! [`ReliableLink`] is a pure state machine (no kernel access, like the
//! hierarchy crate's `MaintainCore`): protocols feed it sends, acks, and
//! retransmit-timer firings, and it tells them what to put on the wire.
//! Keeping it transport-free makes every transition unit-testable without a
//! simulation and lets any [`SansIo`](crate::SansIo) core adopt it.
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
//!
//! [`Envelope`] binds a link to a sans-io core's [`Effects`]: it is the one
//! place where frames, acks, retransmit timers and revival re-sends are
//! emitted, and every reliable core of the workspace routes through it.
//! What the cores differ in is spelled as which of its methods they call,
//! never as a mode: [`send`](Envelope::send) or
//! [`send_retained`](Envelope::send_retained),
//! [`restart`](Envelope::restart) or [`revive`](Envelope::revive), whether
//! to [`abandon`](Envelope::abandon) a dead peer, whether to mark a phase
//! when [`acks`](Envelope::acks)/[`resends`](Envelope::resends) say traffic
//! is coming, and what to do with the peer
//! [`on_retransmit`](Envelope::on_retransmit) gave up on.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use crate::arena::PeerMap;
use crate::id::PeerId;
use crate::metrics::MsgClass;
use crate::rng::mix64;
use crate::sansio::{Effects, SansIo};
use crate::time::Duration;

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
        /// The sender's restart incarnation (see `ReliableLink::on_restart`).
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
/// `ReliableLink::rto` retransmit path and the transport crate's
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
    payload: Held<M>,
    bytes: u64,
    attempts: u32,
}

/// Where a pending frame's payload is kept: one copy per frame, never two.
#[derive(Debug, Clone)]
enum Held<M> {
    /// Its own copy, dropped with the frame; boxed, so that no in-flight
    /// entry is sized by the payload type.
    Own(Box<M>),
    /// Entry `.0` of the link's revival backlog, which outlives the frame.
    Backlog(usize),
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

/// Outcome of a retransmit-timer firing (see `ReliableLink::retransmit`).
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

/// Per-peer reliability state: sender-side in-flight table and revival
/// backlog plus receiver-side dedup windows.
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
    /// Originals `(to, msg, bytes)` kept by [`Envelope::send_retained`]
    /// for [`Envelope::revive`] to re-send; a restart keeps them.
    backlog: Vec<(PeerId, M, u64)>,
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
            backlog: Vec::new(),
        }
    }

    /// This node's current restart incarnation.
    pub fn incarnation(&self) -> u32 {
        self.inc
    }

    /// Marks a restart of this node after a crash: bumps the incarnation,
    /// resets the sequence space, and abandons every in-flight frame (the
    /// crash already lost their retransmit timers).
    ///
    /// The incarnation stamp is what makes the reset sound: receivers key
    /// their dedup windows by `(sender, inc)`, so the reused sequence
    /// numbers of the new life can never alias the old life's — neither
    /// suppressing fresh frames against a stale window nor dispatching a
    /// late old-life duplicate against the fresh one. Receiver windows are
    /// deliberately retained: they describe the *remote* peers' lives, not
    /// this node's.
    pub(crate) fn on_restart(&mut self) {
        self.inc = self.inc.wrapping_add(1);
        self.next_seq = 0;
        self.in_flight.clear();
    }

    /// Wraps `payload` in a sequenced frame bound for `to`, retaining a
    /// copy for retransmission. Returns the sequence number and the frame;
    /// the caller sends the frame (charging `bytes` in the message's own
    /// phase class, exactly as an unreliable send would) and arms a
    /// retransmit timer after `ReliableLink::rto(seq, 0)`.
    pub fn send_data(&mut self, to: PeerId, payload: M, bytes: u64) -> (u64, ReliableMsg<M>) {
        self.sequence(to, Held::Own(Box::new(payload.clone())), payload, bytes)
    }

    /// Sequences `wire` bound for `to`, its retransmit copy kept as `held`.
    fn sequence(
        &mut self,
        to: PeerId,
        held: Held<M>,
        wire: M,
        bytes: u64,
    ) -> (u64, ReliableMsg<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pending = Pending {
            to,
            payload: held,
            bytes,
            attempts: 0,
        };
        self.in_flight.insert(seq, pending);
        (
            seq,
            ReliableMsg::Data {
                inc: self.inc,
                seq,
                payload: wire,
            },
        )
    }

    /// Timeout before attempt `attempt + 1` of frame `seq`: exponential
    /// backoff capped at `max_rto`, plus up to half a `base_rto` of jitter
    /// hashed deterministically from `(seq, attempt)` so synchronized
    /// losses do not retransmit in lockstep (see [`backoff_delay`]).
    pub(crate) fn rto(&self, seq: u64, attempt: u32) -> Duration {
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

    /// Whether a retransmit-timer firing for `seq` would put the frame
    /// back on the wire: still unacknowledged, with retries left.
    fn will_resend(&self, seq: u64) -> bool {
        let pending = self.in_flight.get(&seq);
        pending.is_some_and(|p| p.attempts < self.cfg.max_retries)
    }

    /// Sender side: handles a retransmit-timer firing for `seq`.
    pub(crate) fn retransmit(&mut self, seq: u64) -> Retransmit<M> {
        if !self.will_resend(seq) {
            let Some(Pending { to, .. }) = self.in_flight.remove(&seq) else {
                return Retransmit::Acked;
            };
            return Retransmit::GaveUp { to };
        }
        let pending = self.in_flight.get_mut(&seq).expect("will_resend found it");
        pending.attempts += 1;
        let payload = match &pending.payload {
            Held::Own(m) => M::clone(m),
            Held::Backlog(i) => self.backlog[*i].1.clone(),
        };
        let (to, bytes, attempts) = (pending.to, pending.bytes, pending.attempts);
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

    /// Sender side: drops every in-flight frame addressed to `peer`.
    /// Called when a failure detector declares
    /// `peer` dead — capped retries to a corpse would otherwise keep
    /// burning metered retransmit bytes until `max_retries` runs out. Any
    /// still-armed retransmit timer for a dropped frame finds it gone and
    /// reports [`Retransmit::Acked`] (a no-op), so callers need not track
    /// timer handles. Returns the number of frames dropped.
    pub(crate) fn abandon(&mut self, peer: PeerId) -> usize {
        let before = self.in_flight.len();
        self.in_flight.retain(|_, p| p.to != peer);
        before - self.in_flight.len()
    }

    /// A sequenced frame as effects: the frame, then its first retransmit
    /// timer.
    fn emit<P: Enveloped<M>>(
        &self,
        fx: &mut Effects<P>,
        to: PeerId,
        (seq, frame): (u64, ReliableMsg<M>),
        bytes: u64,
        class: MsgClass,
    ) {
        fx.send(to, frame, bytes, class);
        fx.set_timer(self.rto(seq, 0), RetransmitTimer(seq).into());
    }

    /// Frames backlog entry `i` afresh: its wire copy is the only copy
    /// made, the entry itself is what a retransmission clones.
    fn send_backlog<P: Enveloped<M>>(&mut self, fx: &mut Effects<P>, i: usize, class: MsgClass) {
        let (to, ref msg, bytes) = self.backlog[i];
        let sent = self.sequence(to, Held::Backlog(i), msg.clone(), bytes);
        self.emit(fx, to, sent, bytes, class);
    }
}

/// The timer tag of an [`Envelope`]: a retransmit check for the frame
/// numbered `.0`. A core's timer type embeds it via `From`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitTimer(pub u64);

/// A sans-io core whose messages ride an [`Envelope`] of payload `M`.
pub trait Enveloped<M>: SansIo<Msg = ReliableMsg<M>, Timer: From<RetransmitTimer>> {}

impl<M, P> Enveloped<M> for P where P: SansIo<Msg = ReliableMsg<M>, Timer: From<RetransmitTimer>> {}

/// Optional reliability envelope around a core's payload type `M`.
///
/// `Envelope::plain()` runs fire-and-forget: sends go out as
/// [`ReliableMsg::Plain`], nothing else is emitted, and the core pays one
/// null pointer. `Envelope::reliable(cfg)` arms a [`ReliableLink`].
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    link: Option<Box<ReliableLink<M>>>,
}

impl<M: Debug + Clone> Envelope<M> {
    /// A fire-and-forget envelope.
    pub fn plain() -> Self {
        Envelope { link: None }
    }

    /// An ack/retransmit envelope with the given tuning.
    pub fn reliable(cfg: RelConfig) -> Self {
        let link = Some(Box::new(ReliableLink::new(cfg)));
        Envelope { link }
    }

    /// Sends `msg` to `to`, charged `bytes` in `class`: plain, or as a
    /// sequenced frame followed by its first retransmit timer.
    pub fn send<P: Enveloped<M>>(
        &mut self,
        fx: &mut Effects<P>,
        to: PeerId,
        msg: M,
        bytes: u64,
        class: MsgClass,
    ) {
        match self.link.as_deref_mut() {
            None => fx.send(to, ReliableMsg::Plain(msg), bytes, class),
            Some(link) => {
                let sent = link.send_data(to, msg, bytes);
                link.emit(fx, to, sent, bytes, class);
            }
        }
    }

    /// [`send`](Self::send), and (when reliable) keeps the original so a
    /// later [`revive`](Self::revive) can re-send it. A crash loses every
    /// armed timer; for a core that says each thing once, the backlog is
    /// what keeps delivery guaranteed across restarts. The kept original
    /// is also what retransmissions copy: one retained copy per frame.
    pub fn send_retained<P: Enveloped<M>>(
        &mut self,
        fx: &mut Effects<P>,
        to: PeerId,
        msg: M,
        bytes: u64,
        class: MsgClass,
    ) {
        match self.link.as_deref_mut() {
            None => fx.send(to, ReliableMsg::Plain(msg), bytes, class),
            Some(link) => {
                link.backlog.push((to, msg, bytes));
                link.send_backlog(fx, link.backlog.len() - 1, class);
            }
        }
    }

    /// Whether [`on_frame`](Self::on_frame) will answer `frame` with an
    /// ack — for cores that mark a phase before envelope traffic. The
    /// pattern is `on_frame`'s acking arm.
    pub fn acks(&self, frame: &ReliableMsg<M>) -> bool {
        matches!((frame, &self.link), (ReliableMsg::Data { .. }, Some(_)))
    }

    /// Unwraps an incoming frame. Returns the payload when it must reach
    /// the core's logic, `None` for acks, duplicates, and sequenced frames
    /// at a plain envelope (warned, never a panic). Sequenced frames are
    /// always acked — a duplicate usually means the first ack was lost —
    /// with the frame's incarnation echoed so a restarted sender never
    /// credits a pre-crash ack to a post-crash frame.
    pub fn on_frame<P: Enveloped<M>>(
        &mut self,
        fx: &mut Effects<P>,
        from: PeerId,
        frame: ReliableMsg<M>,
    ) -> Option<M> {
        match (frame, self.link.as_deref_mut()) {
            (ReliableMsg::Plain(m), _) => Some(m),
            (ReliableMsg::Data { inc, seq, payload }, Some(link)) => {
                let fresh = link.accept(from, inc, seq);
                let ack = ReliableMsg::Ack { inc, seq };
                fx.send(from, ack, link.cfg.ack_bytes, MsgClass::RETRANSMIT);
                fresh.then_some(payload)
            }
            (ReliableMsg::Data { .. }, None) => {
                // A configuration mismatch between the two ends; drop the
                // frame rather than take the node down.
                fx.warn("sequenced-frame-without-reliability");
                None
            }
            (ReliableMsg::Ack { inc, seq }, link) => {
                if let Some(link) = link {
                    link.on_ack(from, inc, seq);
                }
                None
            }
        }
    }

    /// Whether [`on_retransmit`](Self::on_retransmit) will put the frame
    /// of `timer` back on the wire — the timer-side twin of
    /// [`acks`](Self::acks).
    pub fn resends(&self, timer: RetransmitTimer) -> bool {
        self.link.as_ref().is_some_and(|l| l.will_resend(timer.0))
    }

    /// Handles a retransmit-timer firing: resends (as RETRANSMIT) and
    /// re-arms while the frame is unacknowledged, goes quiet once acked.
    /// Returns the destination when retries just ran out and the frame was
    /// abandoned — to warn about, or to leave to a coarser repair.
    pub fn on_retransmit<P: Enveloped<M>>(
        &mut self,
        fx: &mut Effects<P>,
        timer: RetransmitTimer,
    ) -> Option<PeerId> {
        let Some(link) = self.link.as_deref_mut() else {
            fx.warn("retransmit-timer-without-reliability");
            return None;
        };
        match link.retransmit(timer.0) {
            Retransmit::Resend {
                to,
                frame,
                bytes,
                next_delay,
            } => {
                fx.send(to, frame, bytes, MsgClass::RETRANSMIT);
                fx.set_timer(next_delay, timer.into());
                None
            }
            Retransmit::Acked => None,
            Retransmit::GaveUp { to } => Some(to),
        }
    }

    /// A crash/revival of this node: bumps the incarnation and abandons
    /// the old life's frames (see `ReliableLink::on_restart`). Emits
    /// nothing; a no-op in plain mode.
    pub fn restart(&mut self) {
        if let Some(link) = self.link.as_deref_mut() {
            link.on_restart();
        }
    }

    /// [`restart`](Self::restart), then re-sends everything
    /// [`send_retained`](Self::send_retained) kept, charged as RETRANSMIT.
    /// Receivers that already took a copy suppress it by their own
    /// idempotency guard; anyone else finally gets it.
    pub fn revive<P: Enveloped<M>>(&mut self, fx: &mut Effects<P>) {
        self.restart();
        if let Some(link) = self.link.as_deref_mut() {
            for i in 0..link.backlog.len() {
                link.send_backlog(fx, i, MsgClass::RETRANSMIT);
            }
        }
    }

    /// Stops retransmitting toward `peer` (see `ReliableLink::abandon`):
    /// for cores whose failure detector just declared it dead.
    pub fn abandon(&mut self, peer: PeerId) {
        if let Some(link) = self.link.as_deref_mut() {
            link.abandon(peer);
        }
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
        assert_eq!(l.in_flight.len(), 2);
    }

    #[test]
    fn ack_clears_in_flight_and_timer_becomes_noop() {
        let mut l = link();
        let (seq, _) = l.send_data(PeerId::new(1), "a", 4);
        l.on_ack(PeerId::new(1), 0, seq);
        assert_eq!(l.in_flight.len(), 0);
        assert_eq!(l.retransmit(seq), Retransmit::Acked);
        // A duplicate ack is harmless.
        l.on_ack(PeerId::new(1), 0, seq);
    }

    #[test]
    fn ack_from_the_wrong_peer_is_ignored() {
        let mut l = link();
        let (seq, _) = l.send_data(PeerId::new(1), "a", 4);
        l.on_ack(PeerId::new(9), 0, seq);
        assert_eq!(l.in_flight.len(), 1);
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
        assert_eq!(l.in_flight.len(), 0);
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
        assert_eq!(l.in_flight.len(), 1);
        // Stray timers for the abandoned frames are silent no-ops, not
        // GaveUp escalations; the live peer's frame still retransmits.
        assert_eq!(l.retransmit(s0), Retransmit::Acked);
        assert_eq!(l.retransmit(s2), Retransmit::Acked);
        assert!(matches!(l.retransmit(s1), Retransmit::Resend { .. }));
        // Abandoning a peer with nothing in flight is harmless.
        assert_eq!(l.abandon(dead), 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let l = link();
        let base = l.cfg.base_rto;
        assert!(l.rto(0, 0) >= base);
        assert!(l.rto(0, 0) < base + base); // jitter < base/2 < base
        assert!(l.rto(0, 3) >= base.saturating_mul(8));
        let capped = l.rto(0, 30);
        assert!(capped <= l.cfg.max_rto + base);
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
        assert_eq!(l.seen.high_water(), 1);
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
        assert_eq!(l.seen.high_water(), 1);
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
        assert_eq!(l.in_flight.len(), 1, "stale ack cleared a current frame");
        l.on_ack(p, 1, 0);
        assert_eq!(l.in_flight.len(), 0);
    }

    #[test]
    fn restart_abandons_in_flight_frames() {
        let mut l = link();
        l.send_data(PeerId::new(1), "a", 4);
        l.send_data(PeerId::new(2), "b", 4);
        assert_eq!(l.incarnation(), 0);
        l.on_restart();
        assert_eq!(l.incarnation(), 1);
        assert_eq!(l.in_flight.len(), 0);
        // Stray timers from the old life find nothing to resend.
        assert_eq!(l.retransmit(0), Retransmit::Acked);
        assert_eq!(l.retransmit(1), Retransmit::Acked);
    }

    mod envelope {
        use super::*;
        use crate::sansio::{Effect, Membership, NodeEvent};
        use crate::time::SimTime;
        use crate::world::sansio_world;
        use crate::world::SimConfig;

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Tm {
            Retransmit(RetransmitTimer),
            /// Abandon peer 1 (the failure detector's verdict, scripted).
            Abandon,
        }

        impl From<RetransmitTimer> for Tm {
            fn from(t: RetransmitTimer) -> Self {
                Tm::Retransmit(t)
            }
        }

        /// Minimal envelope-driven core; peer 0 of a `talkative` world
        /// opens by sending one frame to peer 1.
        #[derive(Debug)]
        struct Echo {
            env: Envelope<u32>,
            talkative: bool,
            resends: u32,
            resends_at_abandon: Option<u32>,
            gave_up: u32,
        }

        const FRAME_BYTES: u64 = 16;

        impl SansIo for Echo {
            type Msg = ReliableMsg<u32>;
            type Timer = Tm;
            type Output = ();

            fn on_event(
                &mut self,
                ev: NodeEvent<Self::Msg, Self::Timer>,
                _now: SimTime,
                _env: &dyn Membership,
                fx: &mut Effects<Self>,
            ) {
                match ev {
                    NodeEvent::Start if self.talkative => {
                        let to = PeerId::new(1);
                        self.env.send(fx, to, 7, FRAME_BYTES, MsgClass::DATA);
                        fx.set_timer(Duration::from_secs(1), Tm::Abandon);
                    }
                    NodeEvent::Start => {}
                    NodeEvent::Message { from, msg } => {
                        self.env.on_frame(fx, from, msg);
                    }
                    NodeEvent::Timer { tag: Tm::Abandon } => {
                        self.env.abandon(PeerId::new(1));
                        self.resends_at_abandon = Some(self.resends);
                    }
                    NodeEvent::Timer {
                        tag: Tm::Retransmit(t),
                    } => {
                        self.resends += u32::from(self.env.resends(t));
                        self.gave_up += u32::from(self.env.on_retransmit(fx, t).is_some());
                    }
                }
            }
        }

        fn echo(env: Envelope<u32>) -> Echo {
            Echo {
                env,
                talkative: false,
                resends: 0,
                resends_at_abandon: None,
                gave_up: 0,
            }
        }

        fn reliable() -> Echo {
            echo(Envelope::reliable(RelConfig::default()))
        }

        fn sends(fx: &mut Effects<Echo>) -> Vec<(PeerId, ReliableMsg<u32>, u64, MsgClass)> {
            fx.drain()
                .filter_map(|e| match e {
                    Effect::Send {
                        to,
                        msg,
                        bytes,
                        class,
                    } => Some((to, msg, bytes, class)),
                    _ => None,
                })
                .collect()
        }

        #[test]
        fn plain_mode_is_fire_and_forget() {
            let mut node = echo(Envelope::plain());
            let mut fx: Effects<Echo> = Effects::new();
            node.env
                .send_retained(&mut fx, PeerId::new(1), 7, 16, MsgClass::SKETCH);
            let sent = fx.drain().count();
            assert_eq!(sent, 1, "no timer, no second frame");
            node.env
                .send(&mut fx, PeerId::new(1), 7, 16, MsgClass::SKETCH);
            assert_eq!(
                sends(&mut fx),
                [(PeerId::new(1), ReliableMsg::Plain(7), 16, MsgClass::SKETCH)]
            );
        }

        #[test]
        fn reliable_send_frames_arms_a_timer_and_dedups_on_receipt() {
            let (mut sender, mut receiver) = (reliable(), reliable());
            let mut fx: Effects<Echo> = Effects::new();
            sender
                .env
                .send(&mut fx, PeerId::new(1), 42, 16, MsgClass::TOPK);
            let effects: Vec<_> = fx.drain().collect();
            let [Effect::Send {
                msg: frame, class, ..
            }, Effect::SetTimer { tag, .. }] = &effects[..]
            else {
                panic!("a reliable send is one frame, then its timer: {effects:?}");
            };
            assert_eq!(*class, MsgClass::TOPK, "original keeps its phase class");
            assert_eq!(*tag, Tm::Retransmit(RetransmitTimer(0)));
            let frame = frame.clone();

            // First delivery dispatches and acks; the duplicate only acks.
            let mut rfx: Effects<Echo> = Effects::new();
            let p0 = PeerId::new(0);
            assert!(receiver.env.acks(&frame));
            assert_eq!(receiver.env.on_frame(&mut rfx, p0, frame.clone()), Some(42));
            assert_eq!(receiver.env.on_frame(&mut rfx, p0, frame), None);
            let acks = sends(&mut rfx);
            assert_eq!(acks.len(), 2, "every sequenced frame is acked");
            for (_, msg, _, class) in acks {
                assert!(matches!(msg, ReliableMsg::Ack { .. }));
                assert_eq!(class, MsgClass::RETRANSMIT);
            }
        }

        #[test]
        fn retransmit_stops_after_ack() {
            let mut sender = reliable();
            let mut fx: Effects<Echo> = Effects::new();
            sender
                .env
                .send(&mut fx, PeerId::new(1), 9, 8, MsgClass::THRESHOLD);
            fx.drain().count();

            // Unacked: the timer resends (as RETRANSMIT) and re-arms.
            assert!(sender.env.resends(RetransmitTimer(0)));
            sender.env.on_retransmit(&mut fx, RetransmitTimer(0));
            let resent = sends(&mut fx);
            assert_eq!(resent.len(), 1);
            assert_eq!(resent[0].3, MsgClass::RETRANSMIT);

            // Acked: the timer goes quiet.
            let ack = ReliableMsg::Ack { inc: 0, seq: 0 };
            assert!(!sender.env.acks(&ack));
            assert_eq!(sender.env.on_frame(&mut fx, PeerId::new(1), ack), None);
            assert!(!sender.env.resends(RetransmitTimer(0)));
            sender.env.on_retransmit(&mut fx, RetransmitTimer(0));
            assert!(sends(&mut fx).is_empty(), "acked frame retransmitted");
        }

        #[test]
        fn revival_resends_the_retained_backlog_under_a_new_incarnation() {
            let mut sender = reliable();
            let mut fx: Effects<Echo> = Effects::new();
            for to in [1, 2] {
                sender
                    .env
                    .send_retained(&mut fx, PeerId::new(to), 1, 8, MsgClass::SKETCH);
            }
            fx.drain().count();

            sender.env.revive(&mut fx);
            let resent = sends(&mut fx);
            assert_eq!(resent.len(), 2, "whole backlog resent on revival");
            for (_, msg, _, class) in resent {
                assert_eq!(class, MsgClass::RETRANSMIT);
                assert!(
                    matches!(msg, ReliableMsg::Data { inc: 1, .. }),
                    "revival frames must carry the bumped incarnation"
                );
            }

            // Plain mode has nothing to restore.
            let mut plain = echo(Envelope::plain());
            plain.env.revive(&mut fx);
            assert_eq!(fx.drain().count(), 0);
        }

        #[test]
        fn bare_restart_resends_nothing_and_plain_sends_retain_nothing() {
            let mut sender = reliable();
            let mut fx: Effects<Echo> = Effects::new();
            sender
                .env
                .send(&mut fx, PeerId::new(1), 1, 8, MsgClass::CONTROL);
            fx.drain().count();

            // `restart` only bumps the incarnation: no effect at all, the
            // old life's frame is abandoned and its timer is a no-op.
            sender.env.restart();
            assert!(!sender.env.resends(RetransmitTimer(0)));
            assert_eq!(sender.env.on_retransmit(&mut fx, RetransmitTimer(0)), None);
            assert_eq!(fx.drain().count(), 0);
            // Nothing was retained by `send`, so even `revive` is silent.
            sender.env.revive(&mut fx);
            assert_eq!(fx.drain().count(), 0, "an unretained original came back");
            // The new life stamps its frames with the bumped incarnation.
            sender
                .env
                .send(&mut fx, PeerId::new(1), 2, 8, MsgClass::CONTROL);
            let (_, frame, ..) = sends(&mut fx).remove(0);
            assert!(matches!(frame, ReliableMsg::Data { inc: 2, seq: 0, .. }));
        }

        #[test]
        fn abandoned_peer_stops_retransmitting_without_double_metering() {
            // Peer 0 sends one frame to peer 1 (dead for the whole run),
            // retransmits on timers, and abandons the peer at t = 1 s.
            let talker = Echo {
                talkative: true,
                ..reliable()
            };
            let mut w = sansio_world(SimConfig::default().with_seed(31), vec![talker, reliable()]);
            w.schedule_kill(SimTime::ZERO, PeerId::new(1));
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
            assert_eq!(s.gave_up, 0, "abandon escalated to a give-up");
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
