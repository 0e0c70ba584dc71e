//! Seed-replayable fault injection for the threaded transport.
//!
//! [`ChaosPlan`] is the transport-side sibling of the simulator's
//! `FaultPlan`: the same declarative vocabulary (probabilistic drops and
//! time-windowed partitions) plus the fault only a real runtime can
//! express — peer-thread crashes with delayed restarts. A plan maps onto
//! the DES vocabulary via [`ChaosPlan::fault_plan`], which is what lets the chaos-equivalence
//! suite run *the same* failure scenario under both drivers and hold them
//! to the same certified answer and the same metered byte classes.
//!
//! Randomness comes from one seeded [`DetRng`] behind a mutex: the
//! *decision stream* (the sequence of drop draws) is a
//! pure function of the seed, replayable across runs. Which frame meets
//! which decision still depends on thread interleaving — real transports
//! have no deterministic event order, and the protocol's exactness must
//! not depend on one. Partition and crash windows consume no randomness
//! at all (mirroring `FaultPlan::partitioned`), so they hit deterministic
//! wall-clock windows regardless of the draw sequence.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration as StdDuration;

use ifi_sim::{DetRng, FaultPlan, PeerId, SimTime};

/// A wall-clock-windowed partition: while `[from, until)` is active
/// (measured from the run's epoch), frames with exactly one endpoint in
/// `group` are severed.
#[derive(Debug, Clone)]
pub(crate) struct ChaosPartition {
    /// Window start, relative to the run epoch.
    pub(crate) from: StdDuration,
    /// Window end (exclusive), relative to the run epoch.
    pub(crate) until: StdDuration,
    /// One side of the partition; the complement is the other side.
    pub(crate) group: BTreeSet<PeerId>,
}

impl ChaosPartition {
    fn severs(&self, elapsed: StdDuration, a: PeerId, b: PeerId) -> bool {
        elapsed >= self.from
            && elapsed < self.until
            && (self.group.contains(&a) != self.group.contains(&b))
    }
}

/// A scheduled peer-thread crash: at `at` the peer's thread is torn down
/// (mailbox and armed timers lost, connection severed); after
/// `restart_after` the supervisor respawns it and re-delivers `Start`,
/// which a crash-survivable core answers with its re-send path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrashPoint {
    /// The peer whose thread crashes.
    pub(crate) peer: PeerId,
    /// Crash instant, relative to the run epoch.
    pub(crate) at: StdDuration,
    /// Downtime before the supervisor restarts the peer.
    pub(crate) restart_after: StdDuration,
}

/// A declarative, seed-replayable description of the faults the transport
/// injects — the runtime sibling of the simulator's `FaultPlan`.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed of the fault decision stream.
    pub(crate) seed: u64,
    /// Probability that a routed frame is silently dropped.
    pub(crate) drop: f64,
    /// Wall-clock partition windows.
    partitions: Vec<ChaosPartition>,
    /// Scheduled peer-thread crashes.
    pub(crate) crashes: Vec<CrashPoint>,
}

impl ChaosPlan {
    /// An inert plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            drop: 0.0,
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// A plan that injects nothing (seed irrelevant).
    pub fn none() -> Self {
        ChaosPlan::new(0)
    }

    /// Sets the frame drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of [0,1]");
        self.drop = p;
        self
    }

    /// Adds a partition window `[from, until)` severing `group` from its
    /// complement.
    pub fn with_partition(
        mut self,
        from: StdDuration,
        until: StdDuration,
        group: impl IntoIterator<Item = PeerId>,
    ) -> Self {
        self.partitions.push(ChaosPartition {
            from,
            until,
            group: group.into_iter().collect(),
        });
        self
    }

    /// Schedules a peer-thread crash at `at` with a restart after
    /// `restart_after` of downtime.
    pub fn with_crash(mut self, peer: PeerId, at: StdDuration, restart_after: StdDuration) -> Self {
        self.crashes.push(CrashPoint {
            peer,
            at,
            restart_after,
        });
        self
    }

    /// Whether this plan can never perturb a run — the chaos path is
    /// skipped entirely in that case, so an inert run behaves exactly
    /// like the pre-chaos transport.
    pub(crate) fn is_inert(&self) -> bool {
        self.drop <= 0.0 && self.partitions.is_empty() && self.crashes.is_empty()
    }

    /// Whether an active partition window severs `(from, to)` at `elapsed`
    /// since the run epoch. Consumes no randomness.
    pub(crate) fn partitioned(&self, elapsed: StdDuration, from: PeerId, to: PeerId) -> bool {
        self.partitions.iter().any(|p| p.severs(elapsed, from, to))
    }

    /// The corresponding DES fault plan: the same drop probability and
    /// the same partition windows translated onto simulated time. Crashes
    /// have no `FaultPlan` analogue — the DES driver expresses them as
    /// `schedule_kill` / `schedule_revive` calls (see
    /// [`ChaosPlan::crash_schedule`]).
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none().with_drop(self.drop);
        for p in &self.partitions {
            plan = plan.with_partition(
                SimTime::from_micros(p.from.as_micros() as u64),
                SimTime::from_micros(p.until.as_micros() as u64),
                p.group.iter().copied(),
            );
        }
        plan
    }

    /// The crash timeline as DES `(kill_at, revive_at, peer)` triples, for
    /// the driver to install via `schedule_kill` / `schedule_revive`.
    pub fn crash_schedule(&self) -> Vec<(SimTime, SimTime, PeerId)> {
        self.crashes
            .iter()
            .map(|c| {
                let kill = SimTime::from_micros(c.at.as_micros() as u64);
                let revive = SimTime::from_micros((c.at + c.restart_after).as_micros() as u64);
                (kill, revive, c.peer)
            })
            .collect()
    }
}

/// What the chaos layer decides for one routed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Silently drop the frame.
    Drop,
}

/// Shared runtime state of a chaos plan: the plan plus the seeded
/// decision stream.
#[derive(Debug)]
pub(crate) struct ChaosState {
    pub(crate) plan: ChaosPlan,
    rng: Mutex<DetRng>,
    /// Cached so the hot path skips the lock entirely for inert plans.
    inert: bool,
    /// Frames dropped by this plan (probabilistic plus partition severs).
    dropped: AtomicU64,
}

impl ChaosState {
    pub(crate) fn new(plan: ChaosPlan) -> Self {
        let rng = Mutex::new(DetRng::new(plan.seed));
        let inert = plan.is_inert();
        ChaosState {
            plan,
            rng,
            inert,
            dropped: AtomicU64::new(0),
        }
    }

    /// Frames dropped so far.
    pub(crate) fn drops(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Judges one frame. Partitions are checked first and consume no
    /// randomness; then the drop draw (the `FaultPlan` composition
    /// order).
    pub(crate) fn judge(&self, elapsed: StdDuration, from: PeerId, to: PeerId) -> Verdict {
        if self.inert {
            return Verdict::Deliver;
        }
        if self.plan.partitioned(elapsed, from, to) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        let mut rng = self.rng.lock().expect("chaos rng poisoned");
        if self.plan.drop > 0.0 && rng.chance(self.plan.drop) {
            drop(rng);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        Verdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert_and_judges_deliver() {
        let plan = ChaosPlan::none();
        assert!(plan.is_inert());
        let state = ChaosState::new(plan);
        for i in 0..100 {
            assert_eq!(
                state.judge(StdDuration::from_millis(i), PeerId::new(0), PeerId::new(1)),
                Verdict::Deliver
            );
        }
    }

    #[test]
    fn every_knob_activates_the_plan() {
        let p = PeerId::new(0);
        assert!(!ChaosPlan::new(1).with_drop(0.1).is_inert());
        assert!(!ChaosPlan::new(1)
            .with_partition(StdDuration::ZERO, StdDuration::from_secs(1), [p])
            .is_inert());
        assert!(!ChaosPlan::new(1)
            .with_crash(p, StdDuration::ZERO, StdDuration::from_millis(50))
            .is_inert());
    }

    #[test]
    fn decision_stream_is_replayable_from_the_seed() {
        let draws = |seed| {
            let state = ChaosState::new(ChaosPlan::new(seed).with_drop(0.3));
            (0..200)
                .map(|_| state.judge(StdDuration::ZERO, PeerId::new(0), PeerId::new(1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8), "distinct seeds must diverge");
    }

    #[test]
    fn partitions_sever_deterministically_and_spend_no_randomness() {
        let state = ChaosState::new(ChaosPlan::new(3).with_partition(
            StdDuration::from_millis(10),
            StdDuration::from_millis(20),
            [PeerId::new(0)],
        ));
        let (a, b) = (PeerId::new(0), PeerId::new(1));
        assert_eq!(
            state.judge(StdDuration::from_millis(15), a, b),
            Verdict::Drop
        );
        assert_eq!(
            state.judge(StdDuration::from_millis(15), b, a),
            Verdict::Drop
        );
        assert_eq!(
            state.judge(StdDuration::from_millis(5), a, b),
            Verdict::Deliver
        );
        assert_eq!(
            state.judge(StdDuration::from_millis(20), a, b),
            Verdict::Deliver,
            "window is half-open"
        );
        // Same-side traffic unaffected mid-window.
        assert_eq!(
            state.judge(StdDuration::from_millis(15), PeerId::new(1), PeerId::new(2)),
            Verdict::Deliver
        );
    }

    #[test]
    fn fault_plan_mapping_preserves_the_drop_rate_and_windows() {
        let plan = ChaosPlan::new(11).with_drop(0.25).with_partition(
            StdDuration::from_millis(100),
            StdDuration::from_millis(200),
            [PeerId::new(2), PeerId::new(3)],
        );
        let des = plan.fault_plan();
        assert_eq!(des.drop, 0.25);
        assert!(des.partitioned(
            SimTime::from_micros(150_000),
            PeerId::new(2),
            PeerId::new(4)
        ));
        assert!(!des.partitioned(
            SimTime::from_micros(250_000),
            PeerId::new(2),
            PeerId::new(4)
        ));
    }

    #[test]
    fn crash_schedule_translates_to_kill_revive_pairs() {
        let plan = ChaosPlan::new(5).with_crash(
            PeerId::new(7),
            StdDuration::from_millis(40),
            StdDuration::from_millis(60),
        );
        assert_eq!(
            plan.crash_schedule(),
            vec![(
                SimTime::from_micros(40_000),
                SimTime::from_micros(100_000),
                PeerId::new(7)
            )]
        );
    }
}
