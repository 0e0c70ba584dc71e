//! The materialized aggregation tree.

use std::collections::VecDeque;

use ifi_overlay::Topology;
use ifi_sim::{DetRng, PeerId};

/// A rooted tree over (a subset of) the peers, used for hierarchical
/// aggregation.
///
/// Structure follows §III-A.1 of the paper: the root is at depth 0, a
/// peer's depth is its shortest-hop distance from the root in the overlay,
/// its *upstream neighbor* is its parent and its *downstream neighbors* are
/// its children. Peers that are unreachable from the root (or that a
/// maintained tree has detached) are simply not members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    root: PeerId,
    /// Sized to the full peer universe; `None` = non-member or root.
    parent: Vec<Option<PeerId>>,
    children: Vec<Vec<PeerId>>,
    depth: Vec<Option<u32>>,
}

impl Hierarchy {
    /// Builds the BFS hierarchy over the whole topology from `root`
    /// (§III-A.1: neighbors of the root become depth 1, their not-yet-
    /// included neighbors depth 2, and so on).
    pub fn bfs(topology: &Topology, root: PeerId) -> Self {
        let n = topology.peer_count();
        let mut h = Hierarchy {
            root,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            depth: vec![None; n],
        };
        h.depth[root.index()] = Some(0);
        let mut q = VecDeque::from([root]);
        while let Some(u) = q.pop_front() {
            let du = h.depth[u.index()].expect("queued member must have depth");
            for &v in topology.neighbors(u) {
                if h.depth[v.index()].is_none() {
                    h.depth[v.index()] = Some(du + 1);
                    h.parent[v.index()] = Some(u);
                    h.children[u.index()].push(v);
                    q.push_back(v);
                }
            }
        }
        h
    }

    /// Builds the paper's evaluation tree directly: a complete `b`-ary tree
    /// over peers `0..n` in breadth-first layout (Table III: "number of
    /// downstream neighbors per peer `b`", default 3). Peer 0 is the root
    /// and peer `i`'s parent is `(i-1)/b`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `b == 0`.
    pub fn balanced(n: usize, b: usize) -> Self {
        assert!(n > 0, "balanced hierarchy needs at least one peer");
        assert!(b > 0, "balanced hierarchy needs b > 0");
        let root = PeerId::new(0);
        let mut h = Hierarchy {
            root,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            depth: vec![None; n],
        };
        h.depth[0] = Some(0);
        for i in 1..n {
            let p = (i - 1) / b;
            h.parent[i] = Some(PeerId::new(p));
            h.children[p].push(PeerId::new(i));
            h.depth[i] = Some(h.depth[p].expect("parent precedes child") + 1);
        }
        h
    }

    /// Assembles a hierarchy from explicit `(peer, parent)` pairs, for
    /// protocol snapshots. `parents[i] = None` marks either the root
    /// (`i == root`) or a non-member.
    ///
    /// # Panics
    ///
    /// Panics if the structure contains a cycle or a parent that is not a
    /// member.
    pub fn from_parents(root: PeerId, parents: &[Option<PeerId>]) -> Self {
        let n = parents.len();
        let mut h = Hierarchy {
            root,
            parent: parents.to_vec(),
            children: vec![Vec::new(); n],
            depth: vec![None; n],
        };
        for (i, parent) in parents.iter().enumerate() {
            if let Some(p) = parent {
                h.children[p.index()].push(PeerId::new(i));
            }
        }
        for list in &mut h.children {
            list.sort_unstable();
        }
        // Compute depths by walking up; memoized by repeated passes.
        h.depth[root.index()] = Some(0);
        let mut q = VecDeque::from([root]);
        while let Some(u) = q.pop_front() {
            let du = h.depth[u.index()].expect("queued member must have depth");
            for &c in &h.children[u.index()] {
                assert!(h.depth[c.index()].is_none(), "cycle through {c}");
                h.depth[c.index()] = Some(du + 1);
                q.push_back(c);
            }
        }
        // Any peer with a parent but no depth is in a cycle or attached to
        // a subtree detached from the root.
        for (i, parent) in parents.iter().enumerate() {
            assert!(
                !(parent.is_some() && h.depth[i].is_none()),
                "peer P{i} has a parent but is not reachable from the root"
            );
        }
        h
    }

    /// The root peer.
    pub fn root(&self) -> PeerId {
        self.root
    }

    /// Whether `peer` is a member of the hierarchy.
    pub fn is_member(&self, peer: PeerId) -> bool {
        self.depth[peer.index()].is_some()
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.depth.iter().filter(|d| d.is_some()).count()
    }

    /// Size of the peer universe the hierarchy was built over.
    pub fn universe(&self) -> usize {
        self.depth.len()
    }

    /// All members, sorted by id.
    pub fn members(&self) -> Vec<PeerId> {
        let mut out = Vec::with_capacity(self.member_count());
        out.extend(
            (0..self.depth.len())
                .filter(|&i| self.depth[i].is_some())
                .map(PeerId::new),
        );
        out
    }

    /// The upstream neighbor (parent); `None` for the root and non-members.
    pub fn parent(&self, peer: PeerId) -> Option<PeerId> {
        self.parent[peer.index()]
    }

    /// The downstream neighbors (children).
    pub fn children(&self, peer: PeerId) -> &[PeerId] {
        &self.children[peer.index()]
    }

    /// The member's depth (`d(i)` in the paper); `None` for non-members.
    pub fn depth(&self, peer: PeerId) -> Option<u32> {
        self.depth[peer.index()]
    }

    /// Height `h` of the hierarchy: 1 + maximum depth (a lone root has
    /// height 1, matching the paper's use of `h` in the naive cost bound).
    pub fn height(&self) -> u32 {
        1 + self.depth.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Members with no children.
    pub fn leaves(&self) -> Vec<PeerId> {
        self.members()
            .into_iter()
            .filter(|&p| self.children(p).is_empty())
            .collect()
    }

    /// Members with at least one child, excluding the root.
    pub fn internal_nodes(&self) -> Vec<PeerId> {
        self.members()
            .into_iter()
            .filter(|&p| p != self.root && !self.children(p).is_empty())
            .collect()
    }

    /// Members in post-order (every child before its parent; root last).
    /// This is the evaluation order of the instant aggregation engines.
    pub fn post_order(&self) -> Vec<PeerId> {
        let mut out = Vec::with_capacity(self.member_count());
        // Iterative post-order to avoid recursion depth limits on
        // degenerate (line-shaped) hierarchies.
        let mut stack = vec![(self.root, false)];
        while let Some((u, expanded)) = stack.pop() {
            if expanded {
                out.push(u);
            } else {
                stack.push((u, true));
                for &c in self.children(u).iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        out
    }

    /// Number of members in the subtree rooted at `peer` (inclusive).
    pub fn subtree_size(&self, peer: PeerId) -> usize {
        let mut count = 0;
        let mut stack = vec![peer];
        while let Some(u) = stack.pop() {
            count += 1;
            stack.extend_from_slice(self.children(u));
        }
        count
    }

    /// A uniformly random root-to-leaf path ("branch"), for the sampling
    /// scheme of §IV-E ("randomly select a few branches in the hierarchy,
    /// e.g., the peers along the path from the root to the leaf nodes").
    pub fn random_branch(&self, rng: &mut DetRng) -> Vec<PeerId> {
        let mut path = vec![self.root];
        let mut cur = self.root;
        while !self.children(cur).is_empty() {
            let kids = self.children(cur);
            cur = kids[rng.below(kids.len() as u64) as usize];
            path.push(cur);
        }
        path
    }

    /// Verifies structural invariants; with a topology, additionally checks
    /// that the tree is a *BFS* tree of it (depths equal shortest-path
    /// hops, edges are overlay edges).
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn check_invariants(&self, topology: Option<&Topology>) {
        assert_eq!(self.depth[self.root.index()], Some(0), "root depth != 0");
        assert!(self.parent[self.root.index()].is_none(), "root has parent");
        let mut reachable = 0usize;
        let mut stack = vec![self.root];
        let mut seen = vec![false; self.depth.len()];
        while let Some(u) = stack.pop() {
            assert!(!seen[u.index()], "cycle through {u}");
            seen[u.index()] = true;
            reachable += 1;
            for &c in self.children(u) {
                assert_eq!(self.parent(c), Some(u), "child {c} disowns parent {u}");
                assert_eq!(
                    self.depth(c),
                    self.depth(u).map(|d| d + 1),
                    "depth of {c} is not parent+1"
                );
                stack.push(c);
            }
        }
        assert_eq!(reachable, self.member_count(), "unreachable members");
        if let Some(topo) = topology {
            let dist = topo.bfs_depths(self.root);
            for (i, &bfs_depth) in dist.iter().enumerate() {
                if let Some(d) = self.depth[i] {
                    assert_eq!(
                        bfs_depth,
                        Some(d),
                        "P{i}: tree depth {d} != BFS distance {bfs_depth:?}"
                    );
                }
                if let Some(p) = self.parent[i] {
                    assert!(
                        topo.has_edge(PeerId::new(i), p),
                        "tree edge P{i}-{p} is not an overlay edge"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_on_line_is_the_line() {
        let topo = Topology::line(5);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        h.check_invariants(Some(&topo));
        assert_eq!(h.height(), 5);
        assert_eq!(h.leaves(), vec![PeerId::new(4)]);
        assert_eq!(h.depth(PeerId::new(3)), Some(3));
    }

    #[test]
    fn bfs_depths_match_shortest_paths_on_random_graph() {
        let topo = Topology::random_regular(200, 4, &mut DetRng::new(3));
        let h = Hierarchy::bfs(&topo, PeerId::new(17));
        h.check_invariants(Some(&topo));
        assert_eq!(h.member_count(), 200);
        assert_eq!(h.root(), PeerId::new(17));
    }

    #[test]
    fn balanced_ternary_tree_shape() {
        // The paper's default: b = 3 downstream neighbors per peer.
        let h = Hierarchy::balanced(13, 3);
        h.check_invariants(None);
        assert_eq!(h.children(PeerId::new(0)).len(), 3);
        assert_eq!(h.children(PeerId::new(1)).len(), 3);
        assert_eq!(h.height(), 3);
        assert_eq!(h.leaves().len(), 9);
        // 1000 peers at b=3: height ⌈log3⌉ ≈ 7 (paper's Figure 3 shows 4
        // levels for a small example).
        let big = Hierarchy::balanced(1000, 3);
        assert_eq!(big.height(), 7);
    }

    #[test]
    fn from_parents_round_trips() {
        let topo = Topology::random_regular(50, 4, &mut DetRng::new(5));
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let mut parents = vec![None; 50];
        for p in h.members() {
            parents[p.index()] = h.parent(p);
        }
        let h2 = Hierarchy::from_parents(PeerId::new(0), &parents);
        assert_eq!(h, h2);
    }

    #[test]
    #[should_panic(expected = "not reachable from the root")]
    fn from_parents_detects_cycle() {
        // 1 -> 2 -> 1 cycle detached from root 0: its members end up with a
        // parent but no root-reachable depth.
        let parents = vec![None, Some(PeerId::new(2)), Some(PeerId::new(1))];
        let _ = Hierarchy::from_parents(PeerId::new(0), &parents);
    }

    #[test]
    fn post_order_visits_children_first() {
        let h = Hierarchy::balanced(13, 3);
        let order = h.post_order();
        assert_eq!(order.len(), 13);
        assert_eq!(*order.last().unwrap(), h.root());
        let pos: std::collections::HashMap<PeerId, usize> = order
            .iter()
            .copied()
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        for p in h.members() {
            for &c in h.children(p) {
                assert!(pos[&c] < pos[&p], "{c} not before parent {p}");
            }
        }
    }

    #[test]
    fn post_order_survives_deep_line() {
        // 100k-deep line would overflow a recursive implementation.
        let topo = Topology::line(100_000);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        assert_eq!(h.post_order().len(), 100_000);
    }

    #[test]
    fn subtree_sizes_sum_correctly() {
        let h = Hierarchy::balanced(13, 3);
        assert_eq!(h.subtree_size(h.root()), 13);
        assert_eq!(h.subtree_size(PeerId::new(1)), 4);
        assert_eq!(h.subtree_size(PeerId::new(12)), 1);
    }

    #[test]
    fn random_branch_is_root_to_leaf() {
        let topo = Topology::random_regular(100, 4, &mut DetRng::new(7));
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let mut rng = DetRng::new(8);
        for _ in 0..20 {
            let branch = h.random_branch(&mut rng);
            assert_eq!(branch[0], h.root());
            let last = *branch.last().unwrap();
            assert!(h.children(last).is_empty(), "branch must end at a leaf");
            for w in branch.windows(2) {
                assert_eq!(h.parent(w[1]), Some(w[0]));
            }
        }
    }

    #[test]
    fn internal_nodes_exclude_root_and_leaves() {
        let h = Hierarchy::balanced(13, 3);
        let internal = h.internal_nodes();
        assert!(!internal.contains(&h.root()));
        assert_eq!(internal.len(), 3); // peers 1, 2, 3
    }

    #[test]
    fn singleton_hierarchy() {
        let h = Hierarchy::balanced(1, 3);
        assert_eq!(h.height(), 1);
        assert_eq!(h.leaves(), vec![PeerId::new(0)]);
        assert_eq!(h.post_order(), vec![PeerId::new(0)]);
        assert_eq!(h.random_branch(&mut DetRng::new(1)), vec![PeerId::new(0)]);
    }
}
