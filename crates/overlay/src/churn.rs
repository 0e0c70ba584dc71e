//! Peer churn: session-length models and churn schedules.
//!
//! The paper sidesteps churn during netFilter runs by recruiting "peers that
//! are more stable (e.g., being online for a longer time)" (§III-A), citing
//! the well-known observation that P2P session lengths are heavy-tailed so
//! long-lived peers exist and are identifiable. This module provides
//! session-length models, a way to score stability, and a concrete
//! [`ChurnSchedule`] of kill/revive events for the DES — used to exercise
//! hierarchy repair (§III-A.3) and failure-injection tests.

use ifi_sim::{DetRng, Duration, PeerId, SimTime};

/// A model of how long peers stay online and offline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionModel {
    /// Exponentially distributed on/off times with the given means — the
    /// memoryless baseline.
    Exponential {
        /// Mean online duration.
        mean_on: Duration,
        /// Mean offline duration.
        mean_off: Duration,
    },
    /// Pareto (heavy-tailed) online times with exponential offline times.
    /// This matches measured P2P session distributions: most sessions are
    /// short, a few are very long — exactly why stable peers exist.
    ParetoOn {
        /// Scale (minimum) online duration.
        scale: Duration,
        /// Tail index; must be `> 1` for a finite mean.
        alpha: f64,
        /// Mean offline duration.
        mean_off: Duration,
    },
    /// Weibull online times with exponential offline times — the classic
    /// fit for measured P2P session lengths (shape `< 1` gives the
    /// heavy-but-not-power-law tail; shape `= 1` degenerates to
    /// [`Exponential`](Self::Exponential)).
    Weibull {
        /// Scale parameter of the online-time distribution.
        scale: Duration,
        /// Shape parameter; `< 1` is heavy-tailed.
        shape: f64,
        /// Mean offline duration.
        mean_off: Duration,
    },
}

impl SessionModel {
    /// Samples one online-session length.
    pub(crate) fn sample_on(&self, rng: &mut DetRng) -> Duration {
        match *self {
            SessionModel::Exponential { mean_on, .. } => {
                Duration::from_micros(rng.exponential(mean_on.as_micros() as f64).max(1.0) as u64)
            }
            SessionModel::ParetoOn { scale, alpha, .. } => {
                assert!(alpha > 1.0, "pareto tail index must exceed 1");
                let u = (1.0 - rng.unit_f64()).max(f64::MIN_POSITIVE);
                let x = scale.as_micros() as f64 * u.powf(-1.0 / alpha);
                // Truncate at 1000x scale to bound event horizons.
                Duration::from_micros(x.min(scale.as_micros() as f64 * 1e3) as u64)
            }
            SessionModel::Weibull { scale, shape, .. } => {
                Duration::from_micros(rng.weibull(scale.as_micros() as f64, shape).max(1.0) as u64)
            }
        }
    }

    /// Samples one offline gap.
    pub(crate) fn sample_off(&self, rng: &mut DetRng) -> Duration {
        let mean_off = match *self {
            SessionModel::Exponential { mean_off, .. } => mean_off,
            SessionModel::ParetoOn { mean_off, .. } => mean_off,
            SessionModel::Weibull { mean_off, .. } => mean_off,
        };
        Duration::from_micros(rng.exponential(mean_off.as_micros() as f64).max(1.0) as u64)
    }
}

/// One churn event in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Peer goes down at this instant.
    Down(SimTime, PeerId),
    /// Peer comes back up at this instant.
    Up(SimTime, PeerId),
}

impl ChurnEvent {
    /// The instant the event fires.
    pub(crate) fn time(self) -> SimTime {
        match self {
            ChurnEvent::Down(t, _) | ChurnEvent::Up(t, _) => t,
        }
    }
}

/// A precomputed, time-ordered stream of churn events over a horizon,
/// together with each peer's total online time (its *stability score*).
#[derive(Debug, Clone)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
    online_time: Vec<Duration>,
    horizon: SimTime,
}

impl ChurnSchedule {
    /// Simulates on/off alternation for every peer up to `horizon`.
    /// All peers start online at `t = 0`.
    pub fn generate(n: usize, model: SessionModel, horizon: SimTime, rng: &mut DetRng) -> Self {
        let mut events = Vec::new();
        let mut online_time = vec![Duration::ZERO; n];
        #[allow(clippy::needless_range_loop)] // i indexes both peer ids and online_time
        for i in 0..n {
            let peer = PeerId::new(i);
            let mut t = SimTime::ZERO;
            let mut up = true;
            loop {
                let span = if up {
                    model.sample_on(rng)
                } else {
                    model.sample_off(rng)
                };
                let end = t + span;
                if up {
                    let credited = if end > horizon { horizon - t } else { span };
                    online_time[i] = online_time[i] + credited;
                }
                if end >= horizon {
                    break;
                }
                events.push(if up {
                    ChurnEvent::Down(end, peer)
                } else {
                    ChurnEvent::Up(end, peer)
                });
                t = end;
                up = !up;
            }
        }
        events.sort_by_key(|e| e.time());
        ChurnSchedule {
            events,
            online_time,
            horizon,
        }
    }

    /// The time-ordered events.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Peers ranked most-stable-first (by total online time, ties by id).
    pub(crate) fn stability_ranking(&self) -> Vec<PeerId> {
        let mut ids: Vec<PeerId> = (0..self.online_time.len()).map(PeerId::new).collect();
        ids.sort_by(|&a, &b| {
            self.online_time[b.index()]
                .cmp(&self.online_time[a.index()])
                .then(a.cmp(&b))
        });
        ids
    }

    /// The most stable `k` peers (the paper's netFilter participants).
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the peer count.
    pub fn most_stable(&self, k: usize) -> Vec<PeerId> {
        assert!(k <= self.online_time.len(), "k exceeds peer count");
        let mut top: Vec<PeerId> = self.stability_ranking().into_iter().take(k).collect();
        top.sort_unstable();
        top
    }

    /// Schedules every event directly into a [`World`](ifi_sim::World) as
    /// kill/revive kernel events, so a run executes under this schedule.
    pub fn install_world<P: ifi_sim::SansIo>(&self, world: &mut ifi_sim::World<ifi_sim::Des<P>>) {
        for &e in &self.events {
            match e {
                ChurnEvent::Down(t, p) => world.schedule_kill(t, p),
                ChurnEvent::Up(t, p) => world.schedule_revive(t, p),
            }
        }
    }

    /// A copy of this schedule with every event touching one of `peers`
    /// removed — the excluded peers stay online for the whole horizon (and
    /// score maximal stability). Used to protect peers whose failures the
    /// experiment injects explicitly (e.g. a root killed at a pinned time).
    pub fn excluding(&self, peers: &[PeerId]) -> ChurnSchedule {
        let events = self
            .events
            .iter()
            .copied()
            .filter(|e| match e {
                ChurnEvent::Down(_, p) | ChurnEvent::Up(_, p) => !peers.contains(p),
            })
            .collect();
        let mut online_time = self.online_time.clone();
        for p in peers {
            if p.index() < online_time.len() {
                online_time[p.index()] = self.horizon - SimTime::ZERO;
            }
        }
        ChurnSchedule {
            events,
            online_time,
            horizon: self.horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(77)
    }

    fn model() -> SessionModel {
        SessionModel::Exponential {
            mean_on: Duration::from_secs(100),
            mean_off: Duration::from_secs(50),
        }
    }

    #[test]
    fn events_are_ordered_and_alternate_per_peer() {
        let sched =
            ChurnSchedule::generate(20, model(), SimTime::from_micros(1_000_000_000), &mut rng());
        let ts: Vec<_> = sched.events().iter().map(|e| e.time()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "events out of order");

        // Per peer: strict Down/Up alternation starting with Down.
        for i in 0..20 {
            let p = PeerId::new(i);
            let mine: Vec<_> = sched
                .events()
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Down(_, q) | ChurnEvent::Up(_, q) if *q == p))
                .collect();
            for (k, e) in mine.iter().enumerate() {
                let is_down = matches!(e, ChurnEvent::Down(..));
                assert_eq!(is_down, k % 2 == 0, "peer {p} event {k} out of phase");
            }
        }
    }

    #[test]
    fn online_time_bounded_by_horizon() {
        let horizon = SimTime::from_micros(500_000_000);
        let sched = ChurnSchedule::generate(50, model(), horizon, &mut rng());
        for i in 0..50 {
            let ot = sched.online_time[i];
            assert!(ot <= horizon - SimTime::ZERO);
            assert!(ot > Duration::ZERO, "everyone starts online");
        }
    }

    #[test]
    fn most_stable_returns_highest_online_time() {
        let sched =
            ChurnSchedule::generate(30, model(), SimTime::from_micros(2_000_000_000), &mut rng());
        let top = sched.most_stable(5);
        assert_eq!(top.len(), 5);
        let worst_top = top
            .iter()
            .map(|&p| sched.online_time[p.index()])
            .min()
            .unwrap();
        let rest_best = (0..30)
            .map(PeerId::new)
            .filter(|p| !top.contains(p))
            .map(|p| sched.online_time[p.index()])
            .max()
            .unwrap();
        assert!(worst_top >= rest_best);
    }

    #[test]
    fn pareto_sessions_are_heavy_tailed() {
        let m = SessionModel::ParetoOn {
            scale: Duration::from_secs(10),
            alpha: 1.5,
            mean_off: Duration::from_secs(10),
        };
        let mut r = rng();
        let xs: Vec<u64> = (0..5000).map(|_| m.sample_on(&mut r).as_micros()).collect();
        let min = *xs.iter().min().unwrap();
        assert!(min >= Duration::from_secs(10).as_micros(), "below scale");
        // Tail: some sessions are at least 10x the scale.
        assert!(xs.iter().any(|&x| x > 100_000_000));
    }

    #[test]
    fn weibull_sessions_sample_and_alternate() {
        let m = SessionModel::Weibull {
            scale: Duration::from_secs(60),
            shape: 0.6,
            mean_off: Duration::from_secs(20),
        };
        let sched = ChurnSchedule::generate(25, m, SimTime::from_micros(2_000_000_000), &mut rng());
        assert!(
            !sched.events().is_empty(),
            "weibull churn produced no events"
        );
        for i in 0..25 {
            assert!(sched.online_time[i] > Duration::ZERO);
        }
    }

    #[test]
    fn excluding_removes_only_those_peers_and_maxes_their_stability() {
        let horizon = SimTime::from_micros(1_000_000_000);
        let sched = ChurnSchedule::generate(12, model(), horizon, &mut rng());
        let shielded = [PeerId::new(0), PeerId::new(7)];
        let filtered = sched.excluding(&shielded);
        for e in filtered.events() {
            let p = match e {
                ChurnEvent::Down(_, p) | ChurnEvent::Up(_, p) => *p,
            };
            assert!(!shielded.contains(&p), "event for excluded peer {p}");
        }
        for p in shielded {
            assert_eq!(filtered.online_time[p.index()], horizon - SimTime::ZERO);
        }
        // Everyone else keeps their original events and scores.
        let kept = |s: &ChurnSchedule| {
            s.events()
                .iter()
                .filter(|e| match e {
                    ChurnEvent::Down(_, p) | ChurnEvent::Up(_, p) => !shielded.contains(p),
                })
                .count()
        };
        assert_eq!(kept(&sched), filtered.events().len());
        assert_eq!(sched.online_time[3], filtered.online_time[3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ChurnSchedule::generate(
            15,
            model(),
            SimTime::from_micros(1e9 as u64),
            &mut DetRng::new(5),
        );
        let b = ChurnSchedule::generate(
            15,
            model(),
            SimTime::from_micros(1e9 as u64),
            &mut DetRng::new(5),
        );
        assert_eq!(a.events(), b.events());
    }
}
