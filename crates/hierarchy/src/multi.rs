//! Multiple redundant hierarchies.
//!
//! §III-A.1: *"the hierarchy is still vulnerable to single point of
//! failure. We can construct multiple hierarchies to alleviate this issue
//! similar to [13]."* A [`MultiHierarchy`] holds `k` BFS trees with
//! distinct roots over the same overlay; a query runs on the primary tree
//! and fails over to the next when the primary root is down.

use ifi_overlay::Topology;
use ifi_sim::{DetRng, PeerId};

use crate::tree::Hierarchy;

/// `k` independent BFS hierarchies with distinct random roots.
#[derive(Debug, Clone)]
pub struct MultiHierarchy {
    trees: Vec<Hierarchy>,
}

impl MultiHierarchy {
    /// Builds `k` hierarchies over `topology` with distinct roots chosen
    /// uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k` exceeds the peer count.
    pub fn build(topology: &Topology, k: usize, rng: &mut DetRng) -> Self {
        let n = topology.peer_count();
        assert!(k > 0, "need at least one hierarchy");
        assert!(k <= n, "more hierarchies than peers");
        let roots = rng.sample_indices(n, k);
        MultiHierarchy {
            trees: roots
                .into_iter()
                .map(|r| Hierarchy::bfs(topology, PeerId::new(r)))
                .collect(),
        }
    }

    /// Builds hierarchies from explicit roots (deterministic tests).
    ///
    /// # Panics
    ///
    /// Panics if `roots` is empty or contains duplicates.
    pub fn with_roots(topology: &Topology, roots: &[PeerId]) -> Self {
        assert!(!roots.is_empty(), "need at least one root");
        let mut dedup = roots.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), roots.len(), "duplicate roots");
        MultiHierarchy {
            trees: roots.iter().map(|&r| Hierarchy::bfs(topology, r)).collect(),
        }
    }

    /// Assembles a multi-hierarchy from already-built trees, primary
    /// first. This is the seam for parallel construction: at large `N` the
    /// per-root BFS dominates setup, and each tree is independent, so
    /// callers can fan the builds out (e.g. over `par_map`) and hand the
    /// results here.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or two trees share a root.
    pub fn from_trees(trees: Vec<Hierarchy>) -> Self {
        assert!(!trees.is_empty(), "need at least one hierarchy");
        let mut roots: Vec<PeerId> = trees.iter().map(|t| t.root()).collect();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(roots.len(), trees.len(), "duplicate roots");
        MultiHierarchy { trees }
    }

    /// All trees, primary first.
    pub fn trees(&self) -> &[Hierarchy] {
        &self.trees
    }

    /// The primary tree.
    pub fn primary(&self) -> &Hierarchy {
        &self.trees[0]
    }

    /// All roots in tree order (primary first) — the root-succession line
    /// used by live failover.
    pub fn roots(&self) -> Vec<PeerId> {
        self.trees.iter().map(|t| t.root()).collect()
    }

    /// The first tree whose root is alive according to `alive`, i.e. the
    /// failover choice for a new netFilter run.
    pub fn active(&self, alive: impl Fn(PeerId) -> bool) -> Option<&Hierarchy> {
        self.trees.iter().find(|t| alive(t.root()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_distinct_roots() {
        let topo = Topology::random_regular(50, 4, &mut DetRng::new(1));
        let mh = MultiHierarchy::build(&topo, 3, &mut DetRng::new(2));
        assert_eq!(mh.trees().len(), 3);
        let mut roots: Vec<PeerId> = mh.trees().iter().map(|t| t.root()).collect();
        roots.dedup();
        assert_eq!(roots.len(), 3, "roots must be distinct");
        for t in mh.trees() {
            t.check_invariants(Some(&topo));
            assert_eq!(t.member_count(), 50);
        }
    }

    #[test]
    fn active_fails_over_when_primary_root_dies() {
        let topo = Topology::ring(8);
        let mh = MultiHierarchy::with_roots(&topo, &[PeerId::new(0), PeerId::new(4)]);
        assert_eq!(mh.primary().root(), PeerId::new(0));
        let active = mh.active(|p| p != PeerId::new(0)).unwrap();
        assert_eq!(active.root(), PeerId::new(4));
        assert!(mh.active(|_| false).is_none());
    }

    #[test]
    fn with_roots_preserves_order_and_roots_accessor_matches() {
        let topo = Topology::ring(8);
        let order = [PeerId::new(5), PeerId::new(1), PeerId::new(3)];
        let mh = MultiHierarchy::with_roots(&topo, &order);
        assert_eq!(mh.roots(), order.to_vec());
        assert_eq!(mh.primary().root(), PeerId::new(5));
    }

    #[test]
    fn active_falls_through_multiple_dead_roots_in_order() {
        let topo = Topology::ring(8);
        let mh =
            MultiHierarchy::with_roots(&topo, &[PeerId::new(0), PeerId::new(4), PeerId::new(6)]);
        // Primary and first successor dead: the third tree is chosen.
        let dead = [PeerId::new(0), PeerId::new(4)];
        let active = mh.active(|p| !dead.contains(&p)).unwrap();
        assert_eq!(active.root(), PeerId::new(6));
        // Only the primary dead: the *first* live successor wins, not any
        // later one.
        let active = mh.active(|p| p != PeerId::new(0)).unwrap();
        assert_eq!(active.root(), PeerId::new(4));
    }

    #[test]
    #[should_panic(expected = "duplicate roots")]
    fn duplicate_roots_rejected() {
        let topo = Topology::ring(4);
        let _ = MultiHierarchy::with_roots(&topo, &[PeerId::new(1), PeerId::new(1)]);
    }

    #[test]
    fn from_trees_matches_with_roots() {
        let topo = Topology::random_regular(40, 4, &mut DetRng::new(9));
        let roots = [PeerId::new(3), PeerId::new(11)];
        let built = MultiHierarchy::with_roots(&topo, &roots);
        let assembled =
            MultiHierarchy::from_trees(roots.iter().map(|&r| Hierarchy::bfs(&topo, r)).collect());
        assert_eq!(assembled.roots(), built.roots());
        for (a, b) in assembled.trees().iter().zip(built.trees()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate roots")]
    fn from_trees_rejects_duplicate_roots() {
        let topo = Topology::ring(4);
        let t = Hierarchy::bfs(&topo, PeerId::new(0));
        let _ = MultiHierarchy::from_trees(vec![t.clone(), t]);
    }

    #[test]
    #[should_panic(expected = "more hierarchies than peers")]
    fn too_many_trees_rejected() {
        let topo = Topology::ring(4);
        let _ = MultiHierarchy::build(&topo, 5, &mut DetRng::new(3));
    }
}
