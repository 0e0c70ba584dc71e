//! A real threaded runtime for the workspace's sans-io protocol cores.
//!
//! The DES kernel in `ifi-sim` runs a [`SansIo`] core against simulated
//! time; this crate runs the *same* cores against the operating system:
//! one thread per peer, real clocks for timers, and either in-process
//! channels ([`run_channel`]) or TCP loopback sockets ([`run_tcp`]) as
//! the message fabric. The fabric's helper threads — the TCP readers,
//! the hub's forwarders and accept loop — come from a
//! pool of parked workers reused across runs, so a run starts and joins
//! only its peer threads. Over TCP, the hub acknowledges each peer's
//! hello once its route exists, and every ack is in before any peer
//! starts: a frame can never reach the hub ahead of its destination's
//! route. Nothing in the protocol changes between the two
//! drivers — that is the point of the sans-io split, and the
//! `transport_equivalence` integration test holds both drivers to the
//! same answers and the same per-phase byte totals.
//!
//! # Driver obligations, discharged here
//!
//! The sans-io contract (see `ifi_sim::sansio`) imposes two rules:
//!
//! 1. **Effects apply in emission order.** Each activation's effect batch
//!    is applied front-to-back while holding the shared metrics lock, so
//!    a `MarkPhase` attributes exactly the sends that follow it within
//!    the activation, and interleavings between peers can never split a
//!    batch ([`EventSink`] marks are cleared before the lock drops).
//! 2. **Timer tokens fire at most once.** Every node owns a private
//!    deadline list keyed by [`TimerToken`]; `CancelTimer` removes the
//!    entry outright, so a cancelled token cannot fire late.
//!
//! # Metering
//!
//! Sends are metered through the same [`EventSink`] the DES world uses,
//! at the byte counts the protocol charges (the paper's cost model) —
//! *not* at the framed wire length. The report therefore reconciles
//! byte-for-byte with a DES run of the same workload, which is what makes
//! "the simulator's cost curves describe the real system" an assertion
//! rather than a hope. Frame overhead of the TCP hub (12-byte routing
//! header) is observable separately via [`RunOutcome::frames_sent`].
//!
//! # Chaos
//!
//! Both fabrics accept a seed-replayable [`ChaosPlan`] — the transport
//! sibling of the simulator's `FaultPlan` — via [`run_channel_chaos`] /
//! [`run_tcp_chaos`]: probabilistic frame drops, wall-clock partition
//! windows, and peer-thread crashes with delayed restarts. A main-thread supervisor
//! owns the fault timeline: it tears crashed peers down (mailbox and
//! armed timers lost, link severed), respawns them after their downtime,
//! and reconnects severed links under capped exponential backoff with
//! deterministic jitter (`Backoff`, reusing the reliability envelope's
//! RTO schedule) confirmed by ping/pong health checks. Mailboxes are
//! bounded (`MAILBOX_CAP`): a full mailbox load-sheds the frame with a
//! metered `mailbox-shed` warning instead of blocking the sender, and a
//! reliability envelope recovers the shed frame like any other loss.
//! [`ChaosPlan::fault_plan`] maps a plan onto the DES vocabulary, which
//! is what lets the chaos-equivalence suite hold both drivers to the
//! same certified answer under the same faults.

mod chaos;
mod pool;
mod runtime;
mod supervisor;
mod tcp;
mod wire;

pub use chaos::ChaosPlan;
pub use runtime::{run_channel, run_channel_chaos, RunOutcome};
pub use tcp::{run_tcp, run_tcp_chaos};
pub use wire::{WireCodec, WireError};

// Re-exported so transport callers need not depend on `ifi-sim` directly
// for the common driver vocabulary.
pub use ifi_sim::{
    AllUp, Effect, Effects, EventSink, MetricsReport, NodeEvent, SansIo, TimerToken,
};

#[cfg(test)]
mod tests {
    use std::time::Duration as StdDuration;

    use ifi_sim::{Duration, Membership, MsgClass, PeerId, SimTime};

    use super::*;

    /// Token-ring counter: peer 0 starts a token at 0; each hop increments
    /// it; whoever sees it reach `LAPS * n` delivers and stops. Exercises
    /// Send, Deliver, MarkPhase, Charge, and (via the watchdog) SetTimer +
    /// CancelTimer on a real transport.
    #[derive(Debug, Clone)]
    struct Ring {
        id: usize,
        n: usize,
        target: u32,
        watchdog: Option<TimerToken>,
        fired: bool,
    }

    #[derive(Debug)]
    enum RingTimer {
        Watchdog,
    }

    impl Ring {
        fn population(n: usize, laps: u32) -> Vec<Ring> {
            (0..n)
                .map(|id| Ring {
                    id,
                    n,
                    target: laps * n as u32,
                    watchdog: None,
                    fired: false,
                })
                .collect()
        }

        fn next(&self) -> PeerId {
            PeerId::new((self.id + 1) % self.n)
        }
    }

    impl SansIo for Ring {
        type Msg = u32;
        type Timer = RingTimer;
        type Output = u32;

        fn on_event(
            &mut self,
            ev: NodeEvent<u32, RingTimer>,
            _now: SimTime,
            env: &dyn Membership,
            fx: &mut Effects<Self>,
        ) {
            match ev {
                NodeEvent::Start => {
                    assert_eq!(env.peer_count(), self.n);
                    self.watchdog =
                        Some(fx.set_timer(Duration::from_secs(120), RingTimer::Watchdog));
                    if self.id == 0 {
                        fx.mark_phase("ring");
                        fx.send(self.next(), 1, 4, MsgClass::DATA);
                    }
                }
                NodeEvent::Message { from: _, msg } => {
                    if msg >= self.target {
                        if let Some(t) = self.watchdog.take() {
                            fx.cancel_timer(t);
                        }
                        fx.charge(MsgClass::CONTROL, 2);
                        fx.deliver(msg);
                    } else {
                        fx.mark_phase("ring");
                        fx.send(self.next(), msg + 1, 4, MsgClass::DATA);
                    }
                }
                NodeEvent::Timer {
                    tag: RingTimer::Watchdog,
                } => {
                    self.fired = true;
                    fx.warn("watchdog-expired");
                }
            }
        }
    }

    fn check_outcome(outcome: &RunOutcome<Ring>, n: usize, laps: u32) {
        let target = laps * n as u32;
        assert_eq!(outcome.outputs.len(), 1, "exactly one delivery expected");
        assert_eq!(outcome.outputs[0].1, target);
        // target hops of 4 bytes each, all attributed to the "ring" phase.
        assert_eq!(outcome.report.phase_bytes("ring"), u64::from(target) * 4);
        assert_eq!(outcome.report.phase_bytes("control"), 2);
        assert_eq!(outcome.frames_sent, u64::from(target));
        assert!(
            outcome.report.warnings.is_empty(),
            "a cancelled watchdog fired: {:?}",
            outcome.report.warnings
        );
    }

    #[test]
    fn channel_fabric_runs_a_ring_to_completion() {
        let (n, laps) = (5, 3);
        let outcome = run_channel(Ring::population(n, laps), 1, StdDuration::from_secs(30));
        check_outcome(&outcome, n, laps);
    }

    /// Big-endian u32, enough for the ring token.
    struct U32Wire;

    impl WireCodec<u32> for U32Wire {
        fn encode(&self, msg: &u32) -> Result<Vec<u8>, WireError> {
            Ok(msg.to_be_bytes().to_vec())
        }

        fn decode(&self, bytes: &[u8]) -> Result<u32, WireError> {
            let arr: [u8; 4] = bytes
                .try_into()
                .map_err(|_| WireError(format!("expected 4 bytes, got {}", bytes.len())))?;
            Ok(u32::from_be_bytes(arr))
        }
    }

    #[test]
    fn tcp_fabric_runs_a_ring_to_completion() {
        ring_over_tcp();
    }

    fn ring_over_tcp() {
        let (n, laps) = (4, 2);
        let outcome = run_tcp(
            Ring::population(n, laps),
            U32Wire,
            1,
            StdDuration::from_secs(30),
        )
        .expect("tcp fabric setup failed");
        check_outcome(&outcome, n, laps);
    }

    /// A codec that encodes fine but rejects everything on decode —
    /// simulating payload corruption between two live sockets.
    struct GarbageWire;

    impl WireCodec<u32> for GarbageWire {
        fn encode(&self, msg: &u32) -> Result<Vec<u8>, WireError> {
            Ok(msg.to_be_bytes().to_vec())
        }

        fn decode(&self, _bytes: &[u8]) -> Result<u32, WireError> {
            Err(WireError("corrupted payload".into()))
        }
    }

    #[test]
    fn undecodable_payloads_warn_and_disconnect_without_panicking() {
        garbage_over_tcp();
    }

    fn garbage_over_tcp() {
        let outcome = run_tcp(
            Ring::population(2, 1),
            GarbageWire,
            1,
            StdDuration::from_secs(2),
        )
        .expect("tcp fabric setup failed");
        // The token never survives decoding, so nothing is delivered —
        // but the run tears down cleanly and the rejection is metered.
        assert!(outcome.outputs.is_empty());
        assert!(
            outcome
                .report
                .warnings
                .iter()
                .any(|(l, _)| l == "undecodable-frame"),
            "expected an undecodable-frame warning, got {:?}",
            outcome.report.warnings
        );
    }

    /// Regression for the TCP stall: the hub used to install a route
    /// only after the dialer had moved on, and dropped every frame for a
    /// peer without one. With registration held back 5 ms, both runs
    /// above lost their first frame on every attempt; the registration
    /// ack makes the window harmless.
    #[test]
    fn a_slow_route_registration_loses_no_frame() {
        tcp::REGISTER_DELAY.set(StdDuration::from_millis(5));
        ring_over_tcp();
        garbage_over_tcp();
        tcp::REGISTER_DELAY.set(StdDuration::ZERO);
    }

    /// Regression for runaway teardown: a run that hits `max_wait` with
    /// peers still live (armed timers, queued traffic) must still join
    /// every thread and hand all cores back, promptly.
    #[test]
    fn timed_out_runs_join_all_threads_within_the_deadline() {
        #[derive(Debug)]
        struct Idler;
        #[derive(Debug)]
        struct Tick;
        impl SansIo for Idler {
            type Msg = ();
            type Timer = Tick;
            type Output = ();
            fn on_event(
                &mut self,
                ev: NodeEvent<(), Tick>,
                _now: SimTime,
                _env: &dyn Membership,
                fx: &mut Effects<Self>,
            ) {
                // Re-arm forever; never deliver.
                if matches!(ev, NodeEvent::Start | NodeEvent::Timer { .. }) {
                    fx.set_timer(Duration::from_millis(10), Tick);
                }
            }
        }
        let started = std::time::Instant::now();
        let outcome = run_channel(
            (0..4).map(|_| Idler).collect(),
            1,
            StdDuration::from_millis(300),
        );
        assert!(outcome.outputs.is_empty());
        assert_eq!(outcome.nodes.len(), 4, "every core must be handed back");
        assert!(
            started.elapsed() < StdDuration::from_secs(10),
            "teardown took {:?} — threads did not join promptly",
            started.elapsed()
        );
    }

    #[test]
    fn uncancelled_timers_fire_and_warn() {
        #[derive(Debug)]
        struct Sleeper;
        #[derive(Debug)]
        struct Tick;
        impl SansIo for Sleeper {
            type Msg = ();
            type Timer = Tick;
            type Output = ();
            fn on_event(
                &mut self,
                ev: NodeEvent<(), Tick>,
                _now: SimTime,
                _env: &dyn Membership,
                fx: &mut Effects<Self>,
            ) {
                match ev {
                    NodeEvent::Start => {
                        fx.set_timer(Duration::from_millis(5), Tick);
                    }
                    NodeEvent::Timer { .. } => {
                        fx.warn("tick");
                        fx.deliver(());
                    }
                    NodeEvent::Message { .. } => {}
                }
            }
        }
        let outcome = run_channel(vec![Sleeper], 1, StdDuration::from_secs(10));
        assert_eq!(outcome.outputs.len(), 1);
        assert_eq!(outcome.report.warnings, vec![("tick".to_string(), 1)]);
    }
}
