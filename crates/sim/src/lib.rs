//! # ifi-sim — deterministic discrete-event simulation kernel
//!
//! A small, fully deterministic discrete-event simulator (DES) used as the
//! substrate for evaluating P2P protocols. The netFilter paper (ICDCS 2008)
//! evaluates its in-network filtering technique by simulation of an
//! unstructured P2P system; this crate provides the message-level machinery
//! for that simulation:
//!
//! * a virtual clock ([`SimTime`]) with microsecond resolution,
//! * an event queue with deterministic tie-breaking,
//! * point-to-point messages with pluggable latency models ([`LatencyModel`])
//!   and optional loss,
//! * per-peer timers,
//! * configurable fault injection ([`FaultPlan`]: per-class drops,
//!   duplication, delay spikes, deterministic drop schedules) plus an
//!   ack/retransmit reliability envelope ([`ReliableLink`]) protocols can
//!   adopt to stay exact under loss,
//! * peer failure/recovery (churn) injected by the driver,
//! * per-peer, per-message-class **byte accounting** ([`Metrics`]) — the
//!   paper's sole performance metric is *bytes propagated per peer*, so the
//!   kernel meters every send.
//!
//! Protocols are sans-io cores ([`SansIo`]): an event goes in, [`Effect`]s
//! come out. [`sansio_world`] puts one core per peer into a [`World`],
//! which applies every effect to the simulated network, timers and meters.
//!
//! All randomness is drawn from a seeded PRNG owned by the world, so a given
//! `(protocol, topology, seed)` triple always replays the same execution.
//!
//! ```
//! use ifi_sim::{
//!     sansio_world, Effects, Membership, MsgClass, NodeEvent, PeerId, SansIo, SimConfig, SimTime,
//! };
//!
//! /// Each peer forwards a token to the next peer, once.
//! struct Ring { id: PeerId, n: usize }
//! impl SansIo for Ring {
//!     type Msg = u64;
//!     type Timer = ();
//!     type Output = ();
//!     fn on_event(
//!         &mut self,
//!         ev: NodeEvent<u64, ()>,
//!         _now: SimTime,
//!         _env: &dyn Membership,
//!         fx: &mut Effects<Self>,
//!     ) {
//!         let next = PeerId::new((self.id.index() + 1) % self.n);
//!         match ev {
//!             NodeEvent::Start if self.id.index() == 0 => fx.send(next, 1, 8, MsgClass::DATA),
//!             NodeEvent::Message { msg, .. } if next.index() != 0 => {
//!                 fx.send(next, msg + 1, 8, MsgClass::DATA)
//!             }
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let peers = (0..4).map(|i| Ring { id: PeerId::new(i), n: 4 }).collect();
//! let mut world = sansio_world(SimConfig::default().with_seed(7), peers);
//! world.start();
//! world.run_to_quiescence();
//! assert_eq!(world.metrics().total_messages(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod event;
mod fault;
mod id;
mod metrics;
mod network;
mod obs;
mod reliable;
mod rng;
mod sansio;
mod sched;
mod time;
mod trace;
mod world;

pub use arena::{PeerMap, PeerSet};
pub use fault::FaultPlan;
pub use id::PeerId;
pub use metrics::{ClassTotals, Metrics, MsgClass};
pub use network::LatencyModel;
pub use obs::{EventSink, MetricsReport, PhaseMetrics};
pub use reliable::{
    backoff_delay, Envelope, Enveloped, RelConfig, ReliableLink, ReliableMsg, Retransmit,
    RetransmitTimer,
};
pub use rng::{mix64, DetRng};
pub use sansio::{
    AllUp, Des, Effect, EffectBuf, Effects, Membership, NodeEvent, SansIo, Slot, TimerToken,
};
pub use sched::{EventInfo, EventTag, ScheduleDecision, ScheduleStrategy};
pub use time::{Duration, SimTime};
pub use trace::{Trace, TraceEntry, TraceKind};
pub use world::{sansio_world, SimConfig, World};
