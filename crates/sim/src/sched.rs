//! Schedule exploration: the pluggable [`ScheduleStrategy`] hook.
//!
//! A deterministic DES replays exactly one schedule per seed: simultaneous
//! events fire in scheduling order (the `(time, seq)` tie-break pinned by
//! `EventQueue`). That determinism is what makes runs reproducible — and
//! also what makes the suite blind to every *other* legal interleaving of
//! the same messages. The strategy hook opens the tie-break to a driver:
//! whenever the [`World`](crate::World) pops an event, it first gathers the
//! *batch* of events tied at the minimum time and asks the installed
//! strategy which one to fire (or whether to push a delivery a little
//! later, manufacturing a reordering no latency sample would produce).
//!
//! Strategies see only scheduling metadata ([`EventInfo`]) — never message
//! payloads — so they cannot alter protocol semantics, only the order in
//! which the kernel reveals them. Replaying the same strategy decisions on
//! the same seed reproduces the same execution bit for bit, which is what
//! `ifi-simcheck` builds its shrinking and replay artifacts on.
//!
//! Two rules keep perturbed schedules legal:
//!
//! * **Only deliveries move.** A [`ScheduleDecision::Delay`] aimed at a
//!   timer, start, kill, or revival degrades to taking that event: timer
//!   durations are protocol semantics (and the timer `seq` doubles as its
//!   cancellation id), while kills and revivals belong to the driver's
//!   churn script. Message latency, by contrast, is explicitly arbitrary.
//! * **Bounded stalling.** The world honors a limited run of consecutive
//!   delays per pop, then forces a take, so an adversarial strategy cannot
//!   livelock the simulation.

use crate::id::PeerId;
use crate::time::SimTime;

/// Scheduling metadata for one pending event, as shown to a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventInfo {
    /// The time the event is scheduled to fire.
    pub time: SimTime,
    /// Kernel-wide scheduling sequence number — the FIFO tie-break key.
    pub seq: u64,
    /// What kind of event this is and whom it concerns.
    pub tag: EventTag,
}

/// Coarse classification of a pending event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventTag {
    /// A message delivery.
    Deliver {
        /// The sending peer.
        from: PeerId,
        /// The receiving peer.
        to: PeerId,
    },
    /// A timer firing.
    Timer {
        /// The peer whose timer fires.
        peer: PeerId,
    },
    /// A peer's `on_start` (initial boot or post-revival).
    Start {
        /// The peer booting.
        peer: PeerId,
    },
    /// An administrative crash.
    Kill {
        /// The peer going down.
        peer: PeerId,
    },
    /// An administrative revival.
    Revive {
        /// The peer coming back.
        peer: PeerId,
    },
}

impl EventTag {
    /// Whether this event is a message delivery (the only kind a
    /// [`ScheduleDecision::Delay`] may move).
    pub fn is_deliver(&self) -> bool {
        matches!(self, EventTag::Deliver { .. })
    }
}

/// A strategy's verdict on a tied batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleDecision {
    /// Fire the `i % batch.len()`-th event of the batch now. `Take(0)` is
    /// the default FIFO schedule.
    Take(usize),
    /// Re-schedule the `index % batch.len()`-th event `micros` later
    /// (minimum 1 µs) and consult again. Honored only for deliveries and
    /// only within the world's consecutive-delay budget; otherwise it
    /// degrades to `Take(index)`.
    Delay {
        /// Index into the batch, modulo its length.
        index: usize,
        /// How far to push the delivery, in microseconds.
        micros: u64,
    },
}

/// A pluggable schedule strategy, consulted at the event-pop site.
///
/// The batch passed to [`decide`](Self::decide) is non-empty and sorted by
/// ascending `seq` — index 0 is the event the unperturbed kernel would
/// fire. The strategy is consulted once per pop *per batch state*: after a
/// honored delay the (shrunken or re-gathered) batch is presented again.
pub trait ScheduleStrategy: std::fmt::Debug {
    /// Chooses what to do with the events tied at the minimum time.
    fn decide(&mut self, batch: &[EventInfo]) -> ScheduleDecision;
}

/// The maximum consecutive [`ScheduleDecision::Delay`]s the world honors
/// within a single pop before forcing a take (livelock guard).
pub(crate) const MAX_CONSECUTIVE_DELAYS: usize = 32;
