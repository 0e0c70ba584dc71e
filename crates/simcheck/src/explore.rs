//! The trial loop: run many perturbed schedules against a case's oracles.
//!
//! Trial 0 always runs the unperturbed schedule (the plain seeded run the
//! rest of the suite sees); subsequent trials install a fresh
//! `RandomStrategy` stream and a fresh set of scheduled message drops.
//! Every trial's schedule fingerprint is collected, so a case can assert
//! genuinely distinct interleavings were explored. The first violation —
//! an oracle `Err` or a captured handler panic — stops the loop and is
//! shrunk to a minimal replayable perturbation.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use ifi_sim::{Des, DetRng, Duration, SansIo, ScheduleDecision, ScheduleStrategy, SimTime, World};

use crate::oracle::{Checkpoint, Oracle, Violation};
use crate::strategy::{DecisionLog, RandomStrategy, ReplayStrategy, StrategyKnobs};

/// The stream id the explorer derives its per-trial rngs from.
const SIMCHECK_STREAM: u64 = 0x51c4_ec05;

/// How many trailing trace entries a violation carries into its artifact.
const TRACE_WINDOW: usize = 24;

/// One trial's complete deviation from the default schedule: the logged
/// strategy decisions plus any scheduled kernel-sequence drops composed
/// into the world's fault plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Perturbation {
    /// `(consultation index, decision)` pairs, ascending.
    pub(crate) decisions: Vec<(u64, ScheduleDecision)>,
    /// Kernel send-sequence numbers dropped on the wire.
    pub(crate) extra_drops: Vec<u64>,
}

impl Perturbation {
    /// Whether this is the unperturbed schedule.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty() && self.extra_drops.is_empty()
    }

    /// Number of atomic perturbation elements (shrinking units).
    pub fn len(&self) -> usize {
        self.decisions.len() + self.extra_drops.len()
    }
}

/// Parameters of one exploration campaign.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Base seed; trial rngs and world seeds derive from it.
    pub seed: u64,
    /// Number of schedules to try (including the unperturbed trial 0).
    pub trials: usize,
    /// Sim-time between interval oracle checkpoints.
    pub check_every: Duration,
    /// Stop time for protocols that never quiesce (`None` = run to
    /// quiescence; required for worlds with periodic timers).
    pub horizon: Option<SimTime>,
    /// Scheduled message drops per perturbed trial.
    pub drops_per_trial: usize,
    /// Drop sequence numbers are drawn from `1..=drop_seq_horizon`.
    pub drop_seq_horizon: u64,
    /// Random-strategy tuning.
    pub knobs: StrategyKnobs,
    /// Maximum replays the shrinker may spend minimizing a violation.
    pub shrink_budget: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed: 0,
            trials: 60,
            check_every: Duration::from_secs(1),
            horizon: None,
            drops_per_trial: 0,
            drop_seq_horizon: 400,
            knobs: StrategyKnobs::default(),
            shrink_budget: 400,
        }
    }
}

/// A violation found by [`explore`], with its original and shrunk repro.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// The trial index the violation first surfaced in.
    pub trial: usize,
    /// The violation as first observed.
    pub violation: Violation,
    /// The full perturbation of the violating trial.
    pub perturbation: Perturbation,
    /// The greedily minimized perturbation (replay-verified).
    pub shrunk: Perturbation,
    /// The violation the shrunk perturbation reproduces.
    pub shrunk_violation: Violation,
}

/// Outcome of an exploration campaign.
#[derive(Debug)]
pub struct ExploreReport {
    /// Trials actually run (short of `config.trials` iff a violation
    /// stopped the campaign).
    pub trials_run: usize,
    /// Distinct schedule fingerprints observed across completed trials.
    pub distinct_schedules: usize,
    /// The first violation, if any, with its shrunk repro.
    pub violation: Option<FoundViolation>,
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// Silences the default panic hook for the guard's lifetime, restoring
/// the previous hook on drop. Exploration of the pinned bug cases
/// provokes hundreds of expected panics; printing each backtrace would
/// drown the real output.
struct QuietPanics {
    prev: Option<PanicHook>,
}

impl QuietPanics {
    fn install() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(h) = self.prev.take() {
            std::panic::set_hook(h);
        }
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one trial: build the world (with `drops` composed into its fault
/// plan), install `strategy`, drive to quiescence or the horizon with
/// interval checkpoints, then run the end checkpoint. Returns the
/// schedule fingerprint on success.
pub(crate) fn run_one<P: SansIo>(
    build: &dyn Fn(&[u64]) -> World<Des<P>>,
    oracles: &dyn Fn() -> Vec<Box<dyn Oracle<P>>>,
    cfg: &ExploreConfig,
    strategy: Option<Box<dyn ScheduleStrategy>>,
    drops: &[u64],
) -> Result<u64, Violation> {
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut world = build(drops);
        if let Some(s) = strategy {
            world.install_strategy(s);
        }
        world.start();
        let mut oracles = oracles();
        let fail = |world: &World<Des<P>>, oracle: &'static str, detail: String| Violation {
            oracle: oracle.into(),
            detail,
            trace: world
                .trace()
                .map(|t| {
                    let skip = t.len().saturating_sub(TRACE_WINDOW);
                    t.entries().skip(skip).map(|e| format!("{e:?}")).collect()
                })
                .unwrap_or_default(),
        };
        while let Some(next) = world.next_event_time() {
            if cfg.horizon.is_some_and(|h| next > h) {
                break;
            }
            let mut target = world.now() + cfg.check_every;
            if let Some(h) = cfg.horizon {
                target = target.min(h);
            }
            world.run_until(target);
            for o in oracles.iter_mut() {
                if let Err(detail) = o.check(&world, Checkpoint::Interval) {
                    return Err(fail(&world, o.name(), detail));
                }
            }
        }
        if let Some(h) = cfg.horizon {
            world.run_until(h);
        }
        for o in oracles.iter_mut() {
            if let Err(detail) = o.check(&world, Checkpoint::End) {
                return Err(fail(&world, o.name(), detail));
            }
        }
        Ok(world.schedule_fingerprint())
    }));
    match outcome {
        Ok(r) => r,
        Err(payload) => Err(Violation {
            oracle: "panic".into(),
            detail: panic_text(payload),
            trace: Vec::new(),
        }),
    }
}

fn gen_drops(rng: &mut DetRng, cfg: &ExploreConfig) -> Vec<u64> {
    let mut drops = BTreeSet::new();
    let limit = cfg.drops_per_trial.min(cfg.drop_seq_horizon as usize);
    while drops.len() < limit {
        drops.insert(rng.range_inclusive(1, cfg.drop_seq_horizon));
    }
    drops.into_iter().collect()
}

/// Explores `cfg.trials` schedules; stops and shrinks at the first
/// violation.
pub fn explore<P: SansIo>(
    cfg: &ExploreConfig,
    build: &dyn Fn(&[u64]) -> World<Des<P>>,
    oracles: &dyn Fn() -> Vec<Box<dyn Oracle<P>>>,
) -> ExploreReport {
    let _quiet = QuietPanics::install();
    let mut fingerprints = BTreeSet::new();
    let base = DetRng::new(cfg.seed).derive(SIMCHECK_STREAM);
    for trial in 0..cfg.trials {
        let mut trial_rng = base.derive(trial as u64);
        let log: DecisionLog = Rc::new(RefCell::new(Vec::new()));
        let (strategy, drops): (Option<Box<dyn ScheduleStrategy>>, Vec<u64>) = if trial == 0 {
            // Trial 0 is the unperturbed baseline every other test sees.
            (None, Vec::new())
        } else {
            let drops = gen_drops(&mut trial_rng, cfg);
            let s = RandomStrategy::new(trial_rng.derive(1), cfg.knobs, log.clone());
            (Some(Box::new(s)), drops)
        };
        match run_one(build, oracles, cfg, strategy, &drops) {
            Ok(fp) => {
                fingerprints.insert(fp);
            }
            Err(violation) => {
                let perturbation = Perturbation {
                    decisions: log.borrow().clone(),
                    extra_drops: drops,
                };
                let (shrunk, shrunk_violation) =
                    crate::shrink::shrink(cfg, build, oracles, &perturbation, violation.clone());
                return ExploreReport {
                    trials_run: trial + 1,
                    distinct_schedules: fingerprints.len(),
                    violation: Some(FoundViolation {
                        trial,
                        violation,
                        perturbation,
                        shrunk,
                        shrunk_violation,
                    }),
                };
            }
        }
    }
    ExploreReport {
        trials_run: cfg.trials,
        distinct_schedules: fingerprints.len(),
        violation: None,
    }
}

/// Replays a recorded perturbation exactly; returns the violation it
/// reproduces, or `None` if the run is clean.
pub fn replay<P: SansIo>(
    cfg: &ExploreConfig,
    build: &dyn Fn(&[u64]) -> World<Des<P>>,
    oracles: &dyn Fn() -> Vec<Box<dyn Oracle<P>>>,
    pert: &Perturbation,
) -> Option<Violation> {
    let _quiet = QuietPanics::install();
    let strategy = ReplayStrategy::new(pert.decisions.iter().copied());
    run_one(
        build,
        oracles,
        cfg,
        Some(Box::new(strategy)),
        &pert.extra_drops,
    )
    .err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_sim::{
        sansio_world, Effects, FaultPlan, Membership, MsgClass, NodeEvent, PeerId, SimConfig,
    };

    /// A chatty ring: every peer forwards a hop counter around the ring a
    /// fixed number of times. Plenty of deliveries, then quiescence.
    #[derive(Debug, Clone)]
    struct Ring {
        next: PeerId,
        hops: u32,
    }

    impl SansIo for Ring {
        type Msg = u32;
        type Timer = ();
        type Output = ();

        fn on_event(
            &mut self,
            ev: NodeEvent<u32, ()>,
            _: SimTime,
            _: &dyn Membership,
            fx: &mut Effects<Self>,
        ) {
            match ev {
                NodeEvent::Start => fx.send(self.next, self.hops, 16, MsgClass::CONTROL),
                NodeEvent::Message { msg, .. } if msg > 0 => {
                    fx.send(self.next, msg - 1, 16, MsgClass::CONTROL)
                }
                _ => {}
            }
        }
    }

    fn ring_world(seed: u64, drops: &[u64]) -> World<Des<Ring>> {
        let peers = (0..4)
            .map(|i| Ring {
                next: PeerId::new((i + 1) % 4),
                hops: 12,
            })
            .collect();
        let sim = SimConfig::default()
            .with_seed(seed)
            .with_faults(FaultPlan::none().with_scheduled_drops(drops.iter().copied()));
        sansio_world(sim, peers)
    }

    /// An oracle that tolerates anything except dropped messages — used
    /// to verify that shrinking peels a perturbation down to the drops.
    struct NoDrops;

    impl Oracle<Ring> for NoDrops {
        fn name(&self) -> &'static str {
            "no-drops"
        }

        fn check(&mut self, world: &World<Des<Ring>>, _at: Checkpoint) -> Result<(), String> {
            let d = world.metrics().dropped_messages();
            if d > 0 {
                Err(format!("{d} messages dropped"))
            } else {
                Ok(())
            }
        }
    }

    struct AlwaysOk;

    impl Oracle<Ring> for AlwaysOk {
        fn name(&self) -> &'static str {
            "always-ok"
        }

        fn check(&mut self, _world: &World<Des<Ring>>, _at: Checkpoint) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn exploration_visits_many_distinct_schedules() {
        let cfg = ExploreConfig {
            seed: 11,
            trials: 30,
            ..ExploreConfig::default()
        };
        let report = explore(&cfg, &|drops| ring_world(11, drops), &|| {
            vec![Box::new(AlwaysOk) as Box<dyn Oracle<Ring>>]
        });
        assert!(report.violation.is_none());
        assert_eq!(report.trials_run, 30);
        assert!(
            report.distinct_schedules >= 25,
            "only {} distinct schedules in 30 trials",
            report.distinct_schedules
        );
    }

    #[test]
    fn violations_shrink_to_the_minimal_drop_and_replay() {
        let cfg = ExploreConfig {
            seed: 3,
            trials: 10,
            drops_per_trial: 3,
            drop_seq_horizon: 30,
            ..ExploreConfig::default()
        };
        let build = |drops: &[u64]| ring_world(3, drops);
        let oracles = || vec![Box::new(NoDrops) as Box<dyn Oracle<Ring>>];
        let report = explore(&cfg, &build, &oracles);
        let found = report.violation.expect("drops must violate the oracle");
        // Trial 0 is unperturbed, so the violation lands on trial 1.
        assert_eq!(found.trial, 1);
        assert_eq!(found.violation.oracle, "no-drops");
        // The minimal repro is one drop and zero strategy decisions.
        assert_eq!(found.shrunk.extra_drops.len(), 1);
        assert!(found.shrunk.decisions.is_empty());
        // And it replays.
        let v = replay(&cfg, &build, &oracles, &found.shrunk).expect("shrunk repro must re-fire");
        assert_eq!(v.oracle, "no-drops");
        assert_eq!(v.detail, "1 messages dropped");
    }

    #[test]
    fn replaying_the_empty_perturbation_matches_the_plain_run() {
        let mut w = ring_world(9, &[]);
        w.start();
        w.run_to_quiescence();
        let plain = w.schedule_fingerprint();

        let cfg = ExploreConfig {
            seed: 9,
            ..ExploreConfig::default()
        };
        let fp = run_one(
            &|drops| ring_world(9, drops),
            &|| vec![Box::new(AlwaysOk) as Box<dyn Oracle<Ring>>],
            &cfg,
            Some(Box::new(ReplayStrategy::new([]))),
            &[],
        )
        .expect("clean run");
        assert_eq!(fp, plain, "Take(0) replay must equal the plain schedule");
    }
}
