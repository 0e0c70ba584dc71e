//! Blind search over the unstructured overlay.
//!
//! The paper's setting is an unstructured P2P system whose peers
//! "collaborate with each other to perform various tasks including
//! routing, indexing, and searching" (§I), and several Table I
//! applications ("frequent keywords", "popular peers") count events that
//! query traffic generates. This module provides the classic blind
//! search primitive of such systems, the bounded **random walk**, with
//! message accounting, so workloads can model realistic query traffic and
//! its cost.

use ifi_sim::{DetRng, PeerId};

use crate::topology::Topology;

/// Result of one search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Distinct holders discovered, sorted by peer id.
    pub found: Vec<PeerId>,
    /// Overlay messages spent.
    pub(crate) messages: u64,
    /// Hops from the origin to the first holder discovered, if any
    /// (0 when the origin itself holds the object).
    pub(crate) hops_to_first: Option<u32>,
}

/// `walkers` independent random walks of at most `max_steps` hops each,
/// stopping early once any walker finds a holder.
///
/// Finds *a* holder (probabilistically) at a message cost bounded by
/// `walkers · max_steps`, independent of node degrees.
pub fn random_walk(
    topology: &Topology,
    origin: PeerId,
    walkers: usize,
    max_steps: u32,
    holds: impl Fn(PeerId) -> bool,
    rng: &mut DetRng,
) -> SearchOutcome {
    let mut messages = 0u64;
    let mut found = Vec::new();
    let mut hops_to_first = None;

    if holds(origin) {
        return SearchOutcome {
            found: vec![origin],
            messages: 0,
            hops_to_first: Some(0),
        };
    }

    'walkers: for _ in 0..walkers.max(1) {
        let mut at = origin;
        for step in 1..=max_steps {
            let nbrs = topology.neighbors(at);
            if nbrs.is_empty() {
                break;
            }
            at = nbrs[rng.below(nbrs.len() as u64) as usize];
            messages += 1;
            if holds(at) {
                if !found.contains(&at) {
                    found.push(at);
                }
                hops_to_first.get_or_insert(step);
                break 'walkers;
            }
        }
    }
    found.sort_unstable();
    SearchOutcome {
        found,
        messages,
        hops_to_first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_holding_costs_nothing() {
        let topo = Topology::ring(5);
        let out = random_walk(
            &topo,
            PeerId::new(3),
            4,
            10,
            |p| p == PeerId::new(3),
            &mut DetRng::new(2),
        );
        assert_eq!(out.found, vec![PeerId::new(3)]);
        assert_eq!(out.messages, 0);
        assert_eq!(out.hops_to_first, Some(0));
    }

    #[test]
    fn random_walk_usually_finds_popular_objects_cheaply() {
        // 10% of peers hold the object; a few short walks find it.
        let mut rng = DetRng::new(3);
        let topo = Topology::random_regular(300, 4, &mut rng);
        let holds = |p: PeerId| p.index() % 10 == 1;
        let mut successes = 0;
        for seed in 0..20 {
            let out = random_walk(&topo, PeerId::new(0), 4, 32, holds, &mut DetRng::new(seed));
            if !out.found.is_empty() {
                successes += 1;
            }
        }
        assert!(successes >= 17, "only {successes}/20 walks succeeded");
    }

    #[test]
    fn random_walk_respects_budget() {
        let topo = Topology::ring(50);
        let out = random_walk(&topo, PeerId::new(0), 3, 8, |_| false, &mut DetRng::new(4));
        assert!(out.found.is_empty());
        assert_eq!(out.messages, 3 * 8);
        assert_eq!(out.hops_to_first, None);
    }
}
