//! Random exploration and exact replay of schedule decisions.
//!
//! The contract that makes shrinking and artifacts work: a world's
//! execution is a pure function of (seed, fault plan, decision script).
//! `RandomStrategy` draws decisions from its own [`DetRng`] — separate
//! from the world's — and logs every non-default one as
//! `(consultation index, decision)`. `ReplayStrategy` re-applies such a
//! script, answering `Take(0)` everywhere else, which reproduces the
//! original execution exactly: the kernel consults the strategy at
//! deterministic points, so equal decision sequences yield equal runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ifi_sim::{DetRng, EventInfo, ScheduleDecision, ScheduleStrategy};

/// Shared log of the non-default decisions a [`RandomStrategy`] made,
/// keyed by consultation index. Shared via `Rc` so the explorer keeps a
/// handle that survives a handler panic inside `catch_unwind`.
pub(crate) type DecisionLog = Rc<RefCell<Vec<(u64, ScheduleDecision)>>>;

/// Tuning knobs for `RandomStrategy`.
#[derive(Debug, Clone, Copy)]
pub struct StrategyKnobs {
    /// Probability of taking a non-head event from a tied batch.
    pub(crate) reorder: f64,
    /// Probability of pushing one delivery of the batch later.
    pub(crate) delay: f64,
    /// Upper bound on a manufactured delivery delay, in microseconds.
    pub(crate) max_delay_micros: u64,
}

impl Default for StrategyKnobs {
    fn default() -> Self {
        StrategyKnobs {
            reorder: 0.5,
            delay: 0.03,
            max_delay_micros: 120_000,
        }
    }
}

/// Seeded schedule perturbation: reorders tied batches and manufactures
/// delivery delays, recording every non-default decision.
#[derive(Debug)]
pub(crate) struct RandomStrategy {
    rng: DetRng,
    knobs: StrategyKnobs,
    consultations: u64,
    log: DecisionLog,
}

impl RandomStrategy {
    /// Creates a strategy drawing from `rng`, logging into `log`.
    pub(crate) fn new(rng: DetRng, knobs: StrategyKnobs, log: DecisionLog) -> Self {
        RandomStrategy {
            rng,
            knobs,
            consultations: 0,
            log,
        }
    }
}

impl ScheduleStrategy for RandomStrategy {
    fn decide(&mut self, batch: &[EventInfo]) -> ScheduleDecision {
        let idx = self.consultations;
        self.consultations += 1;
        // Occasionally push one delivery later — a reordering no latency
        // sample would produce. Only deliveries are eligible (the kernel
        // degrades anything else to a take anyway).
        if self.rng.chance(self.knobs.delay) {
            let deliveries: Vec<usize> = batch
                .iter()
                .enumerate()
                .filter(|(_, e)| e.tag.is_deliver())
                .map(|(i, _)| i)
                .collect();
            if !deliveries.is_empty() {
                let index = deliveries[self.rng.below(deliveries.len() as u64) as usize];
                let micros = self
                    .rng
                    .range_inclusive(1, self.knobs.max_delay_micros.max(1));
                let d = ScheduleDecision::Delay { index, micros };
                self.log.borrow_mut().push((idx, d));
                return d;
            }
        }
        // Permute the tie-break: fire a non-head event of the batch.
        if batch.len() > 1 && self.rng.chance(self.knobs.reorder) {
            let i = self.rng.below(batch.len() as u64) as usize;
            if i != 0 {
                let d = ScheduleDecision::Take(i);
                self.log.borrow_mut().push((idx, d));
                return d;
            }
        }
        ScheduleDecision::Take(0)
    }
}

/// Replays a recorded decision script: the decision logged at each
/// consultation index, `Take(0)` (the unperturbed schedule) elsewhere.
#[derive(Debug)]
pub(crate) struct ReplayStrategy {
    decisions: BTreeMap<u64, ScheduleDecision>,
    consultations: u64,
}

impl ReplayStrategy {
    /// Creates a replayer for the given `(consultation, decision)` pairs.
    pub(crate) fn new(decisions: impl IntoIterator<Item = (u64, ScheduleDecision)>) -> Self {
        ReplayStrategy {
            decisions: decisions.into_iter().collect(),
            consultations: 0,
        }
    }
}

impl ScheduleStrategy for ReplayStrategy {
    fn decide(&mut self, _batch: &[EventInfo]) -> ScheduleDecision {
        let idx = self.consultations;
        self.consultations += 1;
        self.decisions
            .get(&idx)
            .copied()
            .unwrap_or(ScheduleDecision::Take(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_strategy_logs_exactly_its_non_default_decisions() {
        let log: DecisionLog = Rc::new(RefCell::new(Vec::new()));
        let knobs = StrategyKnobs {
            reorder: 1.0,
            delay: 0.0,
            max_delay_micros: 1,
        };
        let mut s = RandomStrategy::new(DetRng::new(7), knobs, log.clone());
        let batch = [
            EventInfo {
                time: ifi_sim::SimTime::ZERO,
                seq: 1,
                tag: ifi_sim::EventTag::Timer {
                    peer: ifi_sim::PeerId::new(0),
                },
            },
            EventInfo {
                time: ifi_sim::SimTime::ZERO,
                seq: 2,
                tag: ifi_sim::EventTag::Timer {
                    peer: ifi_sim::PeerId::new(1),
                },
            },
        ];
        let mut non_default = 0;
        for _ in 0..50 {
            if s.decide(&batch) != ScheduleDecision::Take(0) {
                non_default += 1;
            }
        }
        assert_eq!(log.borrow().len(), non_default);
        assert!(non_default > 0, "reorder=1.0 must perturb sometimes");
        // Consultation indices are strictly increasing.
        let idxs: Vec<u64> = log.borrow().iter().map(|&(i, _)| i).collect();
        assert!(idxs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn replay_strategy_applies_the_script_at_the_right_consultations() {
        let mut r = ReplayStrategy::new([
            (1, ScheduleDecision::Take(3)),
            (
                2,
                ScheduleDecision::Delay {
                    index: 0,
                    micros: 9,
                },
            ),
        ]);
        let batch = [EventInfo {
            time: ifi_sim::SimTime::ZERO,
            seq: 0,
            tag: ifi_sim::EventTag::Start {
                peer: ifi_sim::PeerId::new(0),
            },
        }];
        assert_eq!(r.decide(&batch), ScheduleDecision::Take(0));
        assert_eq!(r.decide(&batch), ScheduleDecision::Take(3));
        assert_eq!(
            r.decide(&batch),
            ScheduleDecision::Delay {
                index: 0,
                micros: 9
            }
        );
        assert_eq!(r.decide(&batch), ScheduleDecision::Take(0));
    }
}
