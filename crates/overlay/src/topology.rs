//! Undirected overlay graphs.

use std::collections::VecDeque;

use ifi_sim::{DetRng, PeerId};

/// An undirected, simple graph over peers `0..n`.
///
/// Adjacency lists are kept sorted and duplicate-free; there are no
/// self-loops. All generators take an explicit PRNG so topologies are
/// reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    adj: Vec<Vec<PeerId>>,
}

impl Topology {
    /// An edgeless graph with `n` peers.
    pub fn empty(n: usize) -> Self {
        Topology {
            adj: vec![Vec::new(); n],
        }
    }

    /// A path `0 — 1 — … — n-1`. Deterministic; handy in tests.
    pub fn line(n: usize) -> Self {
        let mut t = Topology::empty(n);
        for i in 1..n {
            t.add_edge(PeerId::new(i - 1), PeerId::new(i));
        }
        t
    }

    /// A cycle over `n ≥ 3` peers.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring requires at least 3 peers");
        let mut t = Topology::line(n);
        t.add_edge(PeerId::new(n - 1), PeerId::new(0));
        t
    }

    /// A star with peer 0 at the center.
    pub fn star(n: usize) -> Self {
        let mut t = Topology::empty(n);
        for i in 1..n {
            t.add_edge(PeerId::new(0), PeerId::new(i));
        }
        t
    }

    /// A `rows × cols` grid in row-major order: peer `r·cols + c` links to
    /// its 4-neighborhood. Deterministic; the schedule-exploration harness
    /// uses small grids because they maximize same-time delivery ties
    /// (every interior peer has degree 4 and symmetric distances).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid requires rows > 0 and cols > 0");
        let mut t = Topology::empty(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    t.add_edge(PeerId::new(i), PeerId::new(i + 1));
                }
                if r + 1 < rows {
                    t.add_edge(PeerId::new(i), PeerId::new(i + cols));
                }
            }
        }
        t
    }

    /// An approximately `d`-regular random graph via the configuration
    /// model: `d` stubs per peer are paired uniformly; self-loops and
    /// parallel edges are discarded and patched by targeted rewiring, and a
    /// spanning pass guarantees connectivity.
    ///
    /// The result is connected with min degree ≥ `d - 1` in practice; exact
    /// regularity is not required by any consumer (the hierarchy only needs
    /// a connected unstructured overlay).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `d == 0` or `d >= n`.
    pub fn random_regular(n: usize, d: usize, rng: &mut DetRng) -> Self {
        assert!(n >= 2, "random_regular requires n >= 2");
        assert!(d > 0 && d < n, "random_regular requires 0 < d < n");
        let mut t = Topology::empty(n);
        let mut stubs: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, d)).collect();
        rng.shuffle(&mut stubs);
        for pair in stubs.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            if a != b {
                // add_edge ignores duplicates, so parallel pairings just
                // lower the degree slightly; we patch below.
                t.add_edge(PeerId::new(a), PeerId::new(b));
            }
        }
        // Patch low-degree peers by wiring them to random non-neighbors.
        for i in 0..n {
            let p = PeerId::new(i);
            let mut guard = 0;
            while t.degree(p) < d.saturating_sub(1).max(1) && guard < 16 * n {
                let q = PeerId::new(rng.below(n as u64) as usize);
                if q != p {
                    t.add_edge(p, q);
                }
                guard += 1;
            }
        }
        t.connect_components(rng);
        t
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.adj.len()
    }

    /// Iterates over all peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.adj.len()).map(PeerId::new)
    }

    /// The sorted neighbor list of `p`.
    pub fn neighbors(&self, p: PeerId) -> &[PeerId] {
        &self.adj[p.index()]
    }

    /// Degree of `p`.
    pub fn degree(&self, p: PeerId) -> usize {
        self.adj[p.index()].len()
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Whether the edge `{a, b}` exists.
    pub fn has_edge(&self, a: PeerId, b: PeerId) -> bool {
        self.adj[a.index()].binary_search(&b).is_ok()
    }

    /// Adds the undirected edge `{a, b}`. Returns `false` if it already
    /// existed (or `a == b`), `true` if newly added.
    pub(crate) fn add_edge(&mut self, a: PeerId, b: PeerId) -> bool {
        if a == b || self.has_edge(a, b) {
            return false;
        }
        let ai = self.adj[a.index()].binary_search(&b).unwrap_err();
        self.adj[a.index()].insert(ai, b);
        let bi = self.adj[b.index()].binary_search(&a).unwrap_err();
        self.adj[b.index()].insert(bi, a);
        true
    }

    /// BFS hop distance from `root` to every peer (`None` = unreachable).
    /// This is exactly the paper's `d(i)` — "the length of the shortest
    /// path in terms of logical hops from the root" (§III-A.1).
    pub fn bfs_depths(&self, root: PeerId) -> Vec<Option<u32>> {
        let mut depth = vec![None; self.adj.len()];
        depth[root.index()] = Some(0);
        let mut q = VecDeque::from([root]);
        while let Some(u) = q.pop_front() {
            let du = depth[u.index()].expect("queued peer must have a depth");
            for &v in self.neighbors(u) {
                if depth[v.index()].is_none() {
                    depth[v.index()] = Some(du + 1);
                    q.push_back(v);
                }
            }
        }
        depth
    }

    /// Connected components as lists of peers (each sorted; components
    /// ordered by smallest member).
    pub(crate) fn components(&self) -> Vec<Vec<PeerId>> {
        let n = self.adj.len();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            let mut comp = Vec::new();
            let mut q = VecDeque::from([PeerId::new(s)]);
            seen[s] = true;
            while let Some(u) = q.pop_front() {
                comp.push(u);
                for &v in self.neighbors(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        q.push_back(v);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// Joins all components by adding one random edge between consecutive
    /// components. No-op when already connected.
    pub(crate) fn connect_components(&mut self, rng: &mut DetRng) {
        let comps = self.components();
        for w in comps.windows(2) {
            let a = w[0][rng.below(w[0].len() as u64) as usize];
            let b = w[1][rng.below(w[1].len() as u64) as usize];
            self.add_edge(a, b);
        }
    }

    /// Eccentricity of `root`: the maximum BFS depth over reachable peers.
    pub fn eccentricity(&self, root: PeerId) -> u32 {
        self.bfs_depths(root)
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(0xDEAD_BEEF)
    }

    /// Whether the graph is connected (vacuously true for `n ≤ 1`).
    fn is_connected(t: &Topology) -> bool {
        if t.adj.len() <= 1 {
            return true;
        }
        t.bfs_depths(PeerId::new(0)).iter().all(Option::is_some)
    }

    /// Asserts internal invariants (sorted, symmetric, simple). Cheap
    /// enough to run in tests after every mutation burst.
    fn check_invariants(t: &Topology) {
        for (i, nbrs) in t.adj.iter().enumerate() {
            let p = PeerId::new(i);
            assert!(
                nbrs.windows(2).all(|w| w[0] < w[1]),
                "adjacency of {p} not sorted/unique"
            );
            for &q in nbrs {
                assert_ne!(q, p, "self-loop at {p}");
                assert!(
                    t.adj[q.index()].binary_search(&p).is_ok(),
                    "edge {p}-{q} not symmetric"
                );
            }
        }
    }

    #[test]
    fn line_ring_star_shapes() {
        let line = Topology::line(5);
        assert_eq!(line.edge_count(), 4);
        assert_eq!(line.degree(PeerId::new(0)), 1);
        assert_eq!(line.degree(PeerId::new(2)), 2);

        let ring = Topology::ring(5);
        assert_eq!(ring.edge_count(), 5);
        assert!(ring.peers().all(|p| ring.degree(p) == 2));

        let star = Topology::star(5);
        assert_eq!(star.degree(PeerId::new(0)), 4);
        assert!(is_connected(&star));
    }

    #[test]
    fn grid_shape_and_connectivity() {
        let g = Topology::grid(3, 4);
        assert_eq!(g.peer_count(), 12);
        // rows·(cols-1) horizontal + (rows-1)·cols vertical edges.
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        // Corner, edge, and interior degrees.
        assert_eq!(g.degree(PeerId::new(0)), 2);
        assert_eq!(g.degree(PeerId::new(1)), 3);
        assert_eq!(g.degree(PeerId::new(5)), 4);
        assert!(is_connected(&g));
        check_invariants(&g);
        // Degenerate 1×n grid is the line.
        assert_eq!(Topology::grid(1, 6), Topology::line(6));
    }

    #[test]
    fn add_edge_rejects_duplicates_and_self_loops() {
        let mut t = Topology::empty(3);
        assert!(t.add_edge(PeerId::new(0), PeerId::new(2)));
        assert!(!t.add_edge(PeerId::new(2), PeerId::new(0)), "duplicate");
        assert!(!t.add_edge(PeerId::new(1), PeerId::new(1)), "self-loop");
        assert!(t.has_edge(PeerId::new(0), PeerId::new(2)));
        assert_eq!(t.edge_count(), 1);
        check_invariants(&t);
    }

    #[test]
    fn random_regular_is_connected_and_near_regular() {
        let mut r = rng();
        for &(n, d) in &[(50usize, 4usize), (200, 3), (1000, 4)] {
            let t = Topology::random_regular(n, d, &mut r);
            check_invariants(&t);
            assert!(is_connected(&t), "n={n} d={d} disconnected");
            let min_deg = t.peers().map(|p| t.degree(p)).min().unwrap();
            assert!(min_deg >= 1, "isolated peer in n={n} d={d}");
            let avg: f64 = t.peers().map(|p| t.degree(p)).sum::<usize>() as f64 / n as f64;
            assert!(
                (avg - d as f64).abs() < 1.0,
                "avg degree {avg} far from {d}"
            );
        }
    }

    #[test]
    fn bfs_depths_on_line() {
        let t = Topology::line(4);
        let d = t.bfs_depths(PeerId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(t.eccentricity(PeerId::new(0)), 3);
        assert_eq!(t.eccentricity(PeerId::new(1)), 2);
    }

    #[test]
    fn components_and_connect() {
        let mut t = Topology::empty(6);
        t.add_edge(PeerId::new(0), PeerId::new(1));
        t.add_edge(PeerId::new(2), PeerId::new(3));
        assert_eq!(t.components().len(), 4); // {0,1},{2,3},{4},{5}
        let mut r = rng();
        t.connect_components(&mut r);
        assert!(is_connected(&t));
        check_invariants(&t);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        assert!(is_connected(&Topology::empty(0)));
        assert!(is_connected(&Topology::empty(1)));
        assert!(!is_connected(&Topology::empty(2)));
    }

    #[test]
    #[should_panic(expected = "ring requires")]
    fn ring_too_small_panics() {
        let _ = Topology::ring(2);
    }
}
