//! Greedy perturbation shrinking.
//!
//! A violating trial's perturbation often contains hundreds of irrelevant
//! reorderings next to the one or two that matter, so element-at-a-time
//! deletion would exhaust any replay budget before converging. The
//! shrinker instead runs ddmin-style chunked passes: it tries deleting
//! runs of half the list, keeps any deletion whose replay still violates
//! *some* oracle (classic shrinking practice — the minimal repro may
//! surface a different facet of the same bug), and halves the chunk size
//! whenever a sweep makes no progress, down to single elements. Every
//! accepted candidate has been verified by an actual replay, so the
//! result is a true repro by construction.

use ifi_sim::{Des, SansIo, World};

use crate::explore::{replay, ExploreConfig, Perturbation};
use crate::oracle::{Oracle, Violation};

struct Shrinker<'a, P: SansIo> {
    cfg: &'a ExploreConfig,
    build: &'a dyn Fn(&[u64]) -> World<Des<P>>,
    oracles: &'a dyn Fn() -> Vec<Box<dyn Oracle<P>>>,
    attempts: usize,
}

impl<P: SansIo> Shrinker<'_, P> {
    fn out_of_budget(&self) -> bool {
        self.attempts >= self.cfg.shrink_budget
    }

    fn try_replay(&mut self, cand: &Perturbation) -> Option<Violation> {
        self.attempts += 1;
        replay(self.cfg, self.build, self.oracles, cand)
    }

    /// One ddmin sweep family over one list of the perturbation:
    /// `select` projects the mutable list out of a candidate. Returns
    /// whether anything was removed.
    fn shrink_list<T: Clone>(
        &mut self,
        best: &mut Perturbation,
        best_v: &mut Violation,
        select: impl Fn(&mut Perturbation) -> &mut Vec<T>,
    ) -> bool {
        let mut improved = false;
        let mut chunk = select(best).len().div_ceil(2).max(1);
        loop {
            if select(best).is_empty() || self.out_of_budget() {
                return improved;
            }
            let mut removed_any = false;
            let mut i = 0;
            while i < select(best).len() {
                if self.out_of_budget() {
                    return improved;
                }
                let mut cand = best.clone();
                let list = select(&mut cand);
                let end = (i + chunk).min(list.len());
                list.drain(i..end);
                if let Some(v) = self.try_replay(&cand) {
                    *best = cand;
                    *best_v = v;
                    removed_any = true;
                    improved = true;
                    // The list shifted down; retry the same position.
                } else {
                    i += chunk;
                }
            }
            if !removed_any {
                if chunk == 1 {
                    return improved;
                }
                chunk = (chunk / 2).max(1);
            }
        }
    }
}

/// Minimizes `pert`, returning the smallest perturbation found and the
/// violation it reproduces. `violation` is the one originally observed;
/// it is returned unchanged if no smaller repro exists (or the empty
/// perturbation already violates — a schedule-independent bug).
pub fn shrink<P: SansIo>(
    cfg: &ExploreConfig,
    build: &dyn Fn(&[u64]) -> World<Des<P>>,
    oracles: &dyn Fn() -> Vec<Box<dyn Oracle<P>>>,
    pert: &Perturbation,
    violation: Violation,
) -> (Perturbation, Violation) {
    let mut best = pert.clone();
    let mut best_v = violation;
    let mut sh = Shrinker {
        cfg,
        build,
        oracles,
        attempts: 0,
    };

    // Fast path: schedule-independent bugs reproduce with no perturbation
    // at all, collapsing the chunked passes below to one replay.
    if !best.is_empty() && !sh.out_of_budget() {
        if let Some(v) = sh.try_replay(&Perturbation::default()) {
            return (Perturbation::default(), v);
        }
    }

    loop {
        let mut improved = false;
        improved |= sh.shrink_list(&mut best, &mut best_v, |p| &mut p.decisions);
        improved |= sh.shrink_list(&mut best, &mut best_v, |p| &mut p.extra_drops);
        if !improved || sh.out_of_budget() {
            return (best, best_v);
        }
    }
}
