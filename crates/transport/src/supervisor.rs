//! Connection supervision: capped exponential backoff with deterministic
//! jitter for the per-peer reconnect loop.
//!
//! The transport reuses the reliability envelope's retransmission
//! schedule (`ifi_sim::backoff_delay`, the exact math `ReliableLink`
//! applies to unacked frames) for its reconnect attempts: base RTO
//! doubled per attempt, capped, plus a deterministic salt-keyed jitter so
//! a fleet of peers severed by the same partition does not redial in
//! lockstep. A successful health-check round-trip resets the schedule to
//! the base delay.

use std::time::Duration as StdDuration;

use ifi_sim::{backoff_delay, RelConfig};

/// Per-peer reconnect backoff state.
#[derive(Debug, Clone)]
pub(crate) struct Backoff {
    cfg: RelConfig,
    salt: u64,
    attempt: u32,
}

impl Backoff {
    /// A fresh schedule. `salt` keys the jitter stream — use the peer id
    /// so concurrent reconnectors spread out deterministically.
    pub(crate) fn new(cfg: RelConfig, salt: u64) -> Self {
        Backoff {
            cfg,
            salt,
            attempt: 0,
        }
    }

    /// The delay to wait before the next reconnect attempt, advancing the
    /// schedule: `base_rto * 2^attempt`, capped at `max_rto`, plus a
    /// jitter of at most half the base RTO.
    pub(crate) fn next_delay(&mut self) -> StdDuration {
        let d = backoff_delay(&self.cfg, self.attempt, self.salt);
        self.attempt = self.attempt.saturating_add(1);
        StdDuration::from_micros(d.as_micros())
    }

    /// A successful health-check round-trip: the link is live again, so
    /// the schedule resets to the base delay.
    pub(crate) fn on_health_ok(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically_until_the_cap() {
        let cfg = RelConfig::default();
        let mut b = Backoff::new(cfg.clone(), 42);
        let mut prev = StdDuration::ZERO;
        let cap = StdDuration::from_micros(cfg.max_rto.as_micros())
            + StdDuration::from_micros(cfg.base_rto.as_micros()) / 2;
        for _ in 0..24 {
            let d = b.next_delay();
            assert!(d <= cap, "delay {d:?} exceeds cap {cap:?}");
            assert!(d >= prev.min(StdDuration::from_micros(cfg.max_rto.as_micros())));
            prev = d;
        }
    }

    #[test]
    fn health_ok_resets_the_schedule() {
        let mut b = Backoff::new(RelConfig::default(), 7);
        let first = b.next_delay();
        let _ = b.next_delay();
        let _ = b.next_delay();
        assert_eq!(b.attempt, 3);
        b.on_health_ok();
        assert_eq!(b.attempt, 0);
        assert_eq!(b.next_delay(), first, "reset must replay the schedule");
    }

    #[test]
    fn schedule_is_deterministic_per_salt() {
        let seq = |salt| {
            let mut b = Backoff::new(RelConfig::default(), salt);
            (0..10).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(seq(1), seq(1));
        assert_ne!(seq(1), seq(2), "different salts must jitter apart");
    }

    mod props {
        use super::*;
        use ifi_sim::Duration;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Every delay of every schedule stays within
            /// `max_rto + base_rto / 2` (cap plus maximal jitter), no
            /// matter the tuning, the salt, or how deep the attempt
            /// counter runs — including past the point where `2^attempt`
            /// would overflow.
            #[test]
            fn delays_never_exceed_the_cap(
                salt in any::<u64>(),
                base_ms in 1u64..=2_000,
                cap_mult in 1u64..=32,
                attempts in 1usize..=80,
            ) {
                let cfg = RelConfig {
                    base_rto: Duration::from_millis(base_ms),
                    max_rto: Duration::from_millis(base_ms * cap_mult),
                    ..RelConfig::default()
                };
                let cap = StdDuration::from_micros(
                    cfg.max_rto.as_micros() + cfg.base_rto.as_micros() / 2,
                );
                let mut b = Backoff::new(cfg, salt);
                for _ in 0..attempts {
                    prop_assert!(b.next_delay() <= cap);
                }
            }

            /// The schedule is a pure function of `(cfg, salt)`: replaying
            /// it yields identical delays, and a health-check reset makes
            /// the continuation replay the schedule from the start.
            #[test]
            fn schedule_replays_deterministically_and_resets(
                salt in any::<u64>(),
                reset_after in 1usize..=12,
            ) {
                let cfg = RelConfig::default();
                let fresh: Vec<_> = {
                    let mut b = Backoff::new(cfg.clone(), salt);
                    (0..reset_after).map(|_| b.next_delay()).collect()
                };
                let mut b = Backoff::new(cfg, salt);
                let before: Vec<_> = (0..reset_after).map(|_| b.next_delay()).collect();
                prop_assert_eq!(&before, &fresh, "same (cfg, salt) must replay");
                b.on_health_ok();
                prop_assert_eq!(b.attempt, 0);
                let after: Vec<_> = (0..reset_after).map(|_| b.next_delay()).collect();
                prop_assert_eq!(&after, &fresh, "reset must restart the schedule");
            }
        }
    }
}
