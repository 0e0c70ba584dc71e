//! Execution tracing for protocol debugging.
//!
//! A [`Trace`] is an optional, bounded ring buffer of simulation events
//! (sends, deliveries, timers, kills, revivals) that the [`World`] fills
//! when tracing is enabled; the schedule explorer attaches its tail to
//! every violation it reports. The buffer is bounded so long simulations cannot exhaust memory — when
//! full, the oldest entries are evicted.
//!
//! [`World`]: crate::World

use std::collections::VecDeque;

use crate::id::PeerId;
use crate::metrics::MsgClass;
use crate::time::SimTime;

/// What happened, without the payload (payloads are protocol-typed; the
/// trace stays monomorphic so it can live in the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// `from` put a message for `to` on the wire.
    Send {
        /// Sender.
        from: PeerId,
        /// Recipient.
        to: PeerId,
        /// Message class.
        class: MsgClass,
        /// Charged bytes.
        bytes: u64,
    },
    /// A message from `from` was delivered to `to`.
    Deliver {
        /// Original sender.
        from: PeerId,
        /// Recipient whose handler ran.
        to: PeerId,
    },
    /// A timer fired at `peer`.
    Timer {
        /// The peer whose timer fired.
        peer: PeerId,
    },
    /// `peer` went down.
    Kill {
        /// The peer taken down.
        peer: PeerId,
    },
    /// `peer` came back up.
    Revive {
        /// The revived peer.
        peer: PeerId,
    },
}

/// One trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event happened (send time for sends, fire time otherwise).
    pub(crate) at: SimTime,
    /// What happened.
    pub(crate) kind: TraceKind,
}

/// A bounded ring buffer of [`TraceEntry`] values.
#[derive(Debug, Clone)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
}

impl Trace {
    /// Creates a trace holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Records an event, evicting the oldest when full.
    pub(crate) fn record(&mut self, at: SimTime, kind: TraceKind) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(TraceEntry { at, kind });
    }

    /// Entries currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn send(from: usize, to: usize) -> TraceKind {
        TraceKind::Send {
            from: PeerId::new(from),
            to: PeerId::new(to),
            class: MsgClass::DATA,
            bytes: 8,
        }
    }

    #[test]
    fn records_in_order() {
        let mut tr = Trace::new(10);
        tr.record(t(1), send(0, 1));
        tr.record(
            t(2),
            TraceKind::Timer {
                peer: PeerId::new(1),
            },
        );
        assert_eq!(tr.len(), 2);
        let ats: Vec<u64> = tr.entries().map(|e| e.at.as_micros()).collect();
        assert_eq!(ats, vec![1, 2]);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut tr = Trace::new(3);
        for i in 0..5 {
            tr.record(t(i), send(0, 1));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.entries().next().unwrap().at, t(2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Trace::new(0);
    }
}
