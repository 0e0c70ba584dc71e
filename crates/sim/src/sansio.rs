//! Sans-io protocol cores and the per-peer slot the DES drives them in.
//!
//! The protocols in this workspace are written as **pure state machines**:
//! an event goes in ([`NodeEvent`]), a sequence of [`Effect`]s comes out,
//! and nothing inside the core touches a transport, a clock, or a random
//! stream. The [`SansIo`] trait captures that contract. Two drivers run
//! the same cores:
//!
//! * the deterministic DES kernel: a [`World`] keeps each core in a
//!   [`Des`] slot and applies its effects to the simulated network,
//!   timers and meters itself, and
//! * the real threaded transport in `ifi-transport`, which applies the
//!   same effects to OS channels or TCP sockets.
//!
//! # Driver obligations
//!
//! Byte-for-byte equivalence with the pre-split protocols rests on two
//! rules every driver must follow:
//!
//! 1. **Apply effects in emission order.** The kernel allocates sequence
//!    numbers and samples latency per send, so reordering effects would
//!    perturb the deterministic schedule. [`World`] applies the buffer
//!    front-to-back, which makes the effect stream indistinguishable from
//!    the handler having called the kernel directly.
//! 2. **Timer tokens are the protocol's only timer identity.** A
//!    [`TimerToken`] is allocated by [`Effects::set_timer`] and must fire
//!    back exactly once (or never, after [`Effects::cancel_timer`]); how a
//!    driver maps tokens onto its own timer facility is its business.
//!
//! The textbook shape `fn on_event(..) -> impl Iterator<Item = Effect>` is
//! realized through a reusable push-buffer ([`Effects`]) instead of a
//! returned iterator so the hot path stays allocation-free: the [`World`]
//! hands every activation of every peer the one [`EffectBuf`] it owns,
//! drained by the previous activation.
//!
//! [`World`]: crate::World

use std::fmt::Debug;
use std::ops::{Deref, DerefMut};

use crate::id::PeerId;
use crate::metrics::MsgClass;
use crate::time::{Duration, SimTime};

/// Protocol-side handle to a pending timer, allocated by
/// [`Effects::set_timer`] and usable with [`Effects::cancel_timer`].
///
/// Tokens are unique per node across its whole lifetime (the driver
/// threads the counter through every activation), so a cancelled or fired
/// token can never alias a later timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub(crate) u64);

/// An input to a sans-io protocol core.
#[derive(Debug)]
pub enum NodeEvent<M, T> {
    /// The node boots, or revives after a crash (state retained).
    Start,
    /// A message from `from` is delivered.
    Message {
        /// The sending peer.
        from: PeerId,
        /// The payload.
        msg: M,
    },
    /// A timer armed by this node fires.
    Timer {
        /// The tag given to [`Effects::set_timer`].
        tag: T,
    },
}

/// An output of a sans-io protocol core — one instruction to the driver.
#[derive(Debug)]
pub enum Effect<M, T, O> {
    /// Transmit `msg` to `to`, charging `bytes` in `class`.
    Send {
        /// Destination peer.
        to: PeerId,
        /// The payload.
        msg: M,
        /// Metered payload bytes.
        bytes: u64,
        /// Accounting class for the send.
        class: MsgClass,
    },
    /// Arm a timer: fire [`NodeEvent::Timer`] with `tag` after `delay`.
    SetTimer {
        /// The token identifying this timer for cancellation.
        token: TimerToken,
        /// Delay until the timer fires.
        delay: Duration,
        /// The tag to hand back on firing.
        tag: T,
    },
    /// Disarm the timer previously armed under `token` (no-op if it
    /// already fired).
    CancelTimer {
        /// The token returned by [`Effects::set_timer`].
        token: TimerToken,
    },
    /// Meter `bytes` piggybacked on an already-emitted send in `class`,
    /// without a frame of its own.
    Charge {
        /// Accounting class for the piggyback.
        class: MsgClass,
        /// Piggybacked bytes.
        bytes: u64,
    },
    /// Attribute the rest of this activation's sends to the phase `label`.
    MarkPhase {
        /// The phase label.
        label: &'static str,
    },
    /// Record a tolerated anomaly (e.g. a frame that had to be dropped)
    /// under `label` in the driver's event sink.
    Warn {
        /// The warning label.
        label: &'static str,
    },
    /// Hand a finished protocol-level result to the driver (an answer, a
    /// completed epoch).
    Deliver(O),
}

/// The effect vector of a protocol `P` — the scratch type drivers recycle
/// across activations via [`Effects::from_parts`]/[`Effects::into_parts`].
pub type EffectBuf<P> =
    Vec<Effect<<P as SansIo>::Msg, <P as SansIo>::Timer, <P as SansIo>::Output>>;

/// Reusable effect buffer handed to [`SansIo::on_event`].
///
/// Each call pushes one [`Effect`] in program order, which is exactly the
/// order drivers must apply them in.
#[derive(Debug)]
pub struct Effects<P: SansIo> {
    buf: EffectBuf<P>,
    next_token: u64,
}

impl<P: SansIo> Default for Effects<P> {
    fn default() -> Self {
        Effects::new()
    }
}

impl<P: SansIo> Effects<P> {
    /// An empty buffer with the token counter at zero (fresh node).
    pub fn new() -> Self {
        Effects {
            buf: Vec::new(),
            next_token: 0,
        }
    }

    /// Rebuilds a buffer from a scratch vector and the node's persistent
    /// token counter — the allocation-free driver path.
    pub fn from_parts(mut buf: EffectBuf<P>, next_token: u64) -> Self {
        buf.clear();
        Effects { buf, next_token }
    }

    /// Decomposes the buffer into its effect vector and the advanced token
    /// counter, for the driver to apply and persist.
    pub fn into_parts(self) -> (EffectBuf<P>, u64) {
        (self.buf, self.next_token)
    }

    /// Queues a send of `msg` to `to`, charging `bytes` in `class`.
    pub fn send(&mut self, to: PeerId, msg: P::Msg, bytes: u64, class: MsgClass) {
        self.buf.push(Effect::Send {
            to,
            msg,
            bytes,
            class,
        });
    }

    /// Queues arming a timer with `tag` after `delay`; returns the token
    /// for later cancellation.
    pub fn set_timer(&mut self, delay: Duration, tag: P::Timer) -> TimerToken {
        let token = TimerToken(self.next_token);
        self.next_token += 1;
        self.buf.push(Effect::SetTimer { token, delay, tag });
        token
    }

    /// Queues cancelling the timer armed under `token`.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.buf.push(Effect::CancelTimer { token });
    }

    /// Queues metering `bytes` piggybacked in `class`.
    pub fn charge(&mut self, class: MsgClass, bytes: u64) {
        self.buf.push(Effect::Charge { class, bytes });
    }

    /// Queues attributing subsequent sends to the phase `label`.
    pub fn mark_phase(&mut self, label: &'static str) {
        self.buf.push(Effect::MarkPhase { label });
    }

    /// Queues recording a tolerated anomaly under `label`.
    pub fn warn(&mut self, label: &'static str) {
        self.buf.push(Effect::Warn { label });
    }

    /// Queues delivering a finished result to the driver.
    pub fn deliver(&mut self, out: P::Output) {
        self.buf.push(Effect::Deliver(out));
    }

    /// Drains the queued effects in emission order.
    pub fn drain(&mut self) -> impl Iterator<Item = Effect<P::Msg, P::Timer, P::Output>> + '_ {
        self.buf.drain(..)
    }
}

/// The driver-provided liveness view a core may consult.
///
/// Real peers cannot query remote liveness instantaneously — cores use
/// this only as a stand-in for an out-of-band membership service when
/// *labeling* results (the resilient protocol's epoch-roster snapshot),
/// never to steer control flow.
pub trait Membership {
    /// Whether `peer` is currently up.
    fn is_up(&self, peer: PeerId) -> bool;
    /// Number of peers in the universe.
    fn peer_count(&self) -> usize;
}

/// A [`Membership`] where every peer of a fixed universe is up — the real
/// transport's view (it has no failure injector).
#[derive(Debug, Clone, Copy)]
pub struct AllUp(pub usize);

impl Membership for AllUp {
    fn is_up(&self, peer: PeerId) -> bool {
        peer.index() < self.0
    }

    fn peer_count(&self) -> usize {
        self.0
    }
}

/// A pure, transport-free protocol state machine: one value per node,
/// driven entirely through [`on_event`](SansIo::on_event).
pub trait SansIo: Sized {
    /// The message type exchanged between nodes.
    type Msg: Debug + Clone;
    /// The tag type carried by timers.
    type Timer: Debug;
    /// The type of finished results handed to the driver via
    /// [`Effect::Deliver`].
    type Output: Debug;

    /// Handles one input event at time `now`, queuing any resulting
    /// effects on `fx` in the order the driver must apply them.
    fn on_event(
        &mut self,
        ev: NodeEvent<Self::Msg, Self::Timer>,
        now: SimTime,
        env: &dyn Membership,
        fx: &mut Effects<Self>,
    );

    /// Called when the node is taken down (crash or departure). State is
    /// retained and observed again if the node revives.
    fn on_stop(&mut self) {}
}

/// The per-peer slot of a DES [`World`](crate::World): one [`SansIo`]
/// core plus the driver state the world keeps beside it. The world applies
/// the core's effects itself; the slot only remembers what must outlive an
/// activation.
///
/// `Des<P>` dereferences to `P`, so accessor-style call sites
/// (`world.peer(p).result()`) are untouched by the sans-io split.
#[derive(Debug)]
pub struct Des<P: SansIo> {
    pub(crate) node: P,
    /// Persistent token counter (threaded through every activation).
    pub(crate) next_token: u64,
    /// Live token → kernel timer seq, for cancellation. Pruned when a
    /// timer fires or is cancelled, and cleared wholesale on (re)start —
    /// a revival invalidates every pre-crash timer by incarnation.
    pub(crate) timers: Vec<(TimerToken, u64)>,
    /// Results the core delivered, in order; boxed on the first, since in
    /// most engines only the root ever delivers.
    #[allow(clippy::box_collection)] // one pointer per slot, not a 24-byte `Vec`
    pub(crate) outputs: Option<Box<Vec<P::Output>>>,
}

impl<P: SansIo> Des<P> {
    pub(crate) fn new(node: P) -> Self {
        Des {
            node,
            next_token: 0,
            timers: Vec::new(),
            outputs: None,
        }
    }

    /// The wrapped core.
    pub fn inner(&self) -> &P {
        &self.node
    }

    /// Results the core delivered via [`Effect::Deliver`], oldest first.
    pub fn delivered(&self) -> &[P::Output] {
        self.outputs.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl<P: SansIo> Deref for Des<P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.node
    }
}

impl<P: SansIo> DerefMut for Des<P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.node
    }
}

mod sealed {
    pub trait Sealed {}
}

/// Names the core type of a per-peer slot, so `World<Des<P>>` can spell
/// its queue's message and timer types. Sealed: [`Des`] is the only slot.
pub trait Slot: sealed::Sealed {
    /// The sans-io core the slot holds.
    type Core: SansIo;
}

impl<P: SansIo> sealed::Sealed for Des<P> {}

impl<P: SansIo> Slot for Des<P> {
    type Core = P;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MsgClass;
    use crate::world::{sansio_world, SimConfig};

    /// Ping-pong with a cancellable deadline: exercises every effect kind.
    #[derive(Debug, Default)]
    struct Ping {
        initiator: bool,
        got: u32,
        deadline: Option<TimerToken>,
        expired: bool,
    }

    impl Ping {
        fn pair() -> Vec<Ping> {
            vec![
                Ping {
                    initiator: true,
                    ..Ping::default()
                },
                Ping::default(),
            ]
        }
    }

    #[derive(Debug)]
    enum Tm {
        Deadline,
    }

    impl SansIo for Ping {
        type Msg = u32;
        type Timer = Tm;
        type Output = u32;

        fn on_event(
            &mut self,
            ev: NodeEvent<u32, Tm>,
            _now: SimTime,
            env: &dyn Membership,
            fx: &mut Effects<Self>,
        ) {
            match ev {
                NodeEvent::Start => {
                    self.deadline = Some(fx.set_timer(Duration::from_secs(60), Tm::Deadline));
                    if self.initiator {
                        fx.mark_phase("ping");
                        fx.send(PeerId::new(1), 1, 8, MsgClass::DATA);
                    }
                }
                NodeEvent::Message { from, msg } => {
                    self.got += 1;
                    if msg < 3 {
                        fx.send(from, msg + 1, 8, MsgClass::DATA);
                    } else if let Some(t) = self.deadline.take() {
                        fx.cancel_timer(t);
                        fx.charge(MsgClass::CONTROL, 4);
                        fx.deliver(env.peer_count() as u32);
                    }
                }
                NodeEvent::Timer { tag: Tm::Deadline } => {
                    self.expired = true;
                    fx.warn("deadline-expired");
                }
            }
        }
    }

    #[test]
    fn des_driver_applies_effects_and_collects_outputs() {
        let mut w = sansio_world(SimConfig::default().with_seed(3), Ping::pair());
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();
        // 0 sent 1, 1 replied 2, 0 sent 3, 1 cancelled + delivered.
        let p0 = PeerId::new(0);
        let p1 = PeerId::new(1);
        assert_eq!(w.peer(p0).got, 1);
        assert_eq!(w.peer(p1).got, 2);
        assert_eq!(w.peer(p1).delivered(), &[2]);
        // Only the peer that received msg 3 cancels its deadline; the
        // initiator's fires at 60 s and warns.
        assert!(w.peer(p0).expired);
        assert!(!w.peer(p1).expired, "cancelled deadline fired anyway");
        let report = w.metrics_report();
        assert_eq!(report.phase_bytes("ping"), 8);
        assert_eq!(report.phase_bytes("data"), 16);
        assert_eq!(report.phase_bytes("control"), 4);
        assert_eq!(report.warnings, vec![("deadline-expired".to_string(), 1)]);
        assert_eq!(w.metrics().total_messages(), 3);
    }

    #[test]
    fn tokens_are_unique_across_activations() {
        let mut fx: Effects<Ping> = Effects::new();
        let t0 = fx.set_timer(Duration::from_secs(1), Tm::Deadline);
        let (buf, next) = fx.into_parts();
        let mut fx2: Effects<Ping> = Effects::from_parts(buf, next);
        let t1 = fx2.set_timer(Duration::from_secs(1), Tm::Deadline);
        assert_ne!(t0, t1);
        assert_eq!(fx2.buf.len(), 1);
    }
}
