//! Hierarchical (bottom-up) aggregate computation — §III-A.2.
//!
//! *"the peers corresponding to the leaf nodes propagate the corresponding
//! local values to their upstream neighbors. A peer representing an
//! internal node merges its own local value … with the values received from
//! its downstream neighbors, and then forwards the merged result to its
//! upstream neighbor. Eventually, the root node has the final aggregate."*
//!
//! Two interchangeable engines:
//!
//! * [`aggregate`] — instant post-order evaluation over a materialized
//!   [`Hierarchy`], charging each non-root member the encoded size of the
//!   merged value it forwards upward;
//! * [`ConvergecastProtocol`] — the same computation as a message-level DES
//!   protocol (leaves send on start; internal nodes count down their
//!   children). A property test in the `netfilter` crate asserts both
//!   engines report identical values *and* identical byte totals.

use ifi_hierarchy::Hierarchy;
use ifi_sim::{Ctx, MsgClass, PeerId, Protocol};

use crate::merge::Aggregate;
use crate::wire::WireSizes;

/// Result of one hierarchical aggregation.
#[derive(Debug, Clone)]
pub struct AggregationOutcome<A> {
    /// The aggregate accumulated at the root.
    pub root_value: A,
    /// Bytes each peer propagated upward (`0` for the root and
    /// non-members); indexed by peer id.
    pub bytes_per_peer: Vec<u64>,
}

impl<A> AggregationOutcome<A> {
    /// Total bytes propagated by all peers.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_peer.iter().sum()
    }

    /// The paper's communication-cost metric: average bytes per peer, over
    /// all `n_peers` peers of the system.
    pub fn avg_bytes_per_peer(&self) -> f64 {
        if self.bytes_per_peer.is_empty() {
            0.0
        } else {
            self.total_bytes() as f64 / self.bytes_per_peer.len() as f64
        }
    }
}

/// Computes the aggregate of `local(p)` over all members of `hierarchy`,
/// instantly, with exact byte accounting.
///
/// `local` is called exactly once per member, in post-order.
pub fn aggregate<A: Aggregate>(
    hierarchy: &Hierarchy,
    sizes: &WireSizes,
    mut local: impl FnMut(PeerId) -> A,
) -> AggregationOutcome<A> {
    let universe = hierarchy.universe();
    let mut bytes_per_peer = vec![0u64; universe];
    // acc[p] = the merged value of p's subtree, once all children are in.
    let mut acc: Vec<Option<A>> = (0..universe).map(|_| None).collect();
    for p in hierarchy.post_order() {
        let mut value = local(p);
        for &c in hierarchy.children(p) {
            let child_value = acc[c.index()]
                .take()
                .expect("post-order guarantees children are evaluated first");
            value.merge_owned(child_value);
        }
        if p != hierarchy.root() {
            // The peer forwards its merged subtree value upward.
            bytes_per_peer[p.index()] = value.encoded_bytes(sizes);
        }
        acc[p.index()] = Some(value);
    }
    let root_value = acc[hierarchy.root().index()]
        .take()
        .expect("root is evaluated last");
    AggregationOutcome {
        root_value,
        bytes_per_peer,
    }
}

/// Message-level convergecast on the DES.
///
/// Each peer is seeded with its local aggregate; leaves send upward as soon
/// as they start, internal peers forward once every child has reported.
/// The final aggregate rests at the root (see
/// [`ConvergecastProtocol::result`]).
#[derive(Debug, Clone)]
pub struct ConvergecastProtocol<A> {
    parent: Option<PeerId>,
    pending_children: usize,
    acc: Option<A>,
    sizes: WireSizes,
    is_root: bool,
    done: bool,
}

impl<A: Aggregate + 'static> ConvergecastProtocol<A> {
    /// Creates the per-peer state from the peer's position in `hierarchy`
    /// and its local aggregate value.
    pub fn new(hierarchy: &Hierarchy, peer: PeerId, sizes: WireSizes, local: A) -> Self {
        ConvergecastProtocol {
            parent: hierarchy.parent(peer),
            pending_children: hierarchy.children(peer).len(),
            acc: Some(local),
            sizes,
            is_root: hierarchy.root() == peer,
            done: false,
        }
    }

    /// The final aggregate (root only, after the run quiesces).
    pub fn result(&self) -> Option<&A> {
        if self.is_root && self.done {
            self.acc.as_ref()
        } else {
            None
        }
    }

    fn maybe_forward(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.pending_children > 0 || self.done {
            return;
        }
        self.done = true;
        if let Some(parent) = self.parent {
            let value = self.acc.take().expect("value present until forwarded");
            let bytes = value.encoded_bytes(&self.sizes);
            ctx.send(parent, value, bytes, MsgClass::AGGREGATION);
        }
        // The root keeps `acc` as the final answer.
    }
}

impl<A: Aggregate + 'static> Protocol for ConvergecastProtocol<A> {
    type Msg = A;
    type Timer = ();
    type Scratch = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.maybe_forward(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, _from: PeerId, msg: A) {
        assert!(
            self.pending_children > 0,
            "received a child report after all children reported"
        );
        self.acc
            .as_mut()
            .expect("internal node still holds its accumulator")
            .merge_owned(msg);
        self.pending_children -= 1;
        self.maybe_forward(ctx);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _t: ()) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{MapSum, ScalarSum, VecSum};
    use ifi_overlay::Topology;
    use ifi_sim::{DetRng, SimConfig, World};
    use ifi_workload::ItemId;

    #[test]
    fn scalar_aggregate_sums_everything() {
        let h = Hierarchy::balanced(13, 3);
        let out = aggregate(&h, &WireSizes::default(), |p| ScalarSum(p.index() as u64));
        assert_eq!(out.root_value, ScalarSum((0..13).sum()));
        // Every non-root peer sends exactly 4 bytes.
        assert_eq!(out.total_bytes(), 12 * 4);
        assert_eq!(out.bytes_per_peer[0], 0, "root sends nothing");
    }

    #[test]
    fn vec_aggregate_is_elementwise() {
        let h = Hierarchy::balanced(4, 3);
        let out = aggregate(&h, &WireSizes::default(), |p| {
            let mut v = vec![0u64; 3];
            v[p.index() % 3] = 1;
            VecSum::from(v)
        });
        assert_eq!(out.root_value.to_dense().iter().sum::<u64>(), 4);
        // Fixed-width: every non-root sends sa * 3 = 12 bytes.
        assert_eq!(out.total_bytes(), 3 * 12);
    }

    #[test]
    fn map_aggregate_bytes_grow_toward_root() {
        // Line 0-1-2-3 (root 0): peer 3 sends 1 entry, peer 2 sends 2, …
        let topo = Topology::line(4);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let out = aggregate(&h, &WireSizes::default(), |p| {
            MapSum::from_pairs([(ItemId(p.index() as u64), 1)])
        });
        assert_eq!(out.root_value.len(), 4);
        assert_eq!(out.bytes_per_peer, vec![0, 8 * 3, 8 * 2, 8]);
    }

    #[test]
    fn convergecast_matches_instant_engine() {
        let topo = Topology::random_regular(80, 4, &mut DetRng::new(3));
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let sizes = WireSizes::default();

        let instant = aggregate(&h, &sizes, |p| {
            MapSum::from_pairs([(ItemId(p.index() as u64 % 7), p.index() as u64)])
        });

        let peers: Vec<ConvergecastProtocol<MapSum>> = (0..80)
            .map(|i| {
                let p = PeerId::new(i);
                ConvergecastProtocol::new(
                    &h,
                    p,
                    sizes,
                    MapSum::from_pairs([(ItemId(i as u64 % 7), i as u64)]),
                )
            })
            .collect();
        let mut w = World::new(SimConfig::default().with_seed(5), peers);
        w.start();
        w.run_to_quiescence();

        let root_result = w
            .peer(PeerId::new(0))
            .result()
            .expect("root must hold the final aggregate")
            .clone();
        assert_eq!(root_result, instant.root_value);
        assert_eq!(
            w.metrics().class_bytes(MsgClass::AGGREGATION),
            instant.total_bytes(),
            "DES and instant engines must charge identical bytes"
        );
    }

    #[test]
    fn convergecast_singleton_root_completes_immediately() {
        let h = Hierarchy::balanced(1, 3);
        let peers = vec![ConvergecastProtocol::new(
            &h,
            PeerId::new(0),
            WireSizes::default(),
            ScalarSum(42),
        )];
        let mut w = World::new(SimConfig::default(), peers);
        w.start();
        w.run_to_quiescence();
        assert_eq!(w.peer(PeerId::new(0)).result(), Some(&ScalarSum(42)));
        assert_eq!(w.metrics().total_bytes(), 0);
    }

    #[test]
    fn paper_v_and_n_cost_one_scalar_per_peer() {
        // §IV: "The aggregate computation for v and N … only need to
        // propagate one single value along the hierarchy."
        let h = Hierarchy::balanced(1000, 3);
        let out = aggregate(&h, &WireSizes::default(), |_| ScalarSum(1));
        assert_eq!(out.root_value, ScalarSum(1000)); // N
        assert_eq!(out.avg_bytes_per_peer(), 999.0 * 4.0 / 1000.0);
    }
}
