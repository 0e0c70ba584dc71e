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
//! * [`TreeSlot`] + [`Convergecast`] — the same computation as the sans-io
//!   building block every message-level engine of the workspace is built
//!   on: a peer's place in the tree with its per-child admission table,
//!   and one phase's accumulator over it. The block emits nothing itself;
//!   an engine feeds it child reports and forwards (or, at the root,
//!   finishes) what [`Convergecast::complete`] hands back. Property tests
//!   in the `netfilter` crate assert both engines report identical values
//!   *and* identical byte totals.

use ifi_hierarchy::Hierarchy;
use ifi_sim::PeerId;

use crate::merge::{Aggregate, Fold};
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

/// One downstream neighbor and which of its reports have been merged —
/// the idempotency guard that makes duplicate or replayed reports
/// harmless.
#[derive(Debug, Clone, Copy)]
struct Child {
    id: PeerId,
    /// Bit set of the `REPORT`s (see [`Convergecast`]) merged from it.
    seen: u8,
}

/// A peer's slot in a static hierarchy: who is upstream, who is downstream
/// and what each downstream neighbor has reported so far. Shared by every
/// [`Convergecast`] phase an engine runs over the tree.
#[derive(Debug, Clone)]
pub struct TreeSlot {
    parent: Option<PeerId>,
    /// Fixed at [`new`](Self::new), so a slice: no capacity word per peer.
    children: Box<[Child]>,
    is_member: bool,
    started: bool,
}

/// What a `Start` event means to the peer in a [`TreeSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boot {
    /// Not a member of the hierarchy (dead or detached when it was
    /// built): stays in the universe, takes no part in the run.
    Outsider,
    /// The first `Start`: begin the protocol.
    First,
    /// A later `Start`: a crash/revival. State survived; in-flight frames
    /// and armed timers did not.
    Revival,
}

impl TreeSlot {
    /// The slot of `peer` in `hierarchy`.
    pub fn new(hierarchy: &Hierarchy, peer: PeerId) -> Self {
        let children = hierarchy.children(peer);
        TreeSlot {
            parent: hierarchy.parent(peer),
            children: children.iter().map(|&id| Child { id, seen: 0 }).collect(),
            is_member: hierarchy.is_member(peer),
            started: false,
        }
    }

    /// The upstream neighbor; `None` at the root and for non-members.
    pub fn parent(&self) -> Option<PeerId> {
        self.parent
    }

    /// The downstream neighbors, ascending.
    pub fn children(&self) -> impl ExactSizeIterator<Item = PeerId> + '_ {
        self.children.iter().map(|c| c.id)
    }

    /// Whether this peer is the root: the one member with no parent.
    pub fn is_root(&self) -> bool {
        self.is_member && self.parent.is_none()
    }

    /// Classifies a `Start` event, remembering that it happened.
    pub fn boot(&mut self) -> Boot {
        if !self.is_member {
            Boot::Outsider
        } else if std::mem::replace(&mut self.started, true) {
            Boot::Revival
        } else {
            Boot::First
        }
    }

    /// The position of `from` among the children, or the warning label to
    /// drop its message under: only a downstream neighbor reports rootward.
    pub fn child(&self, from: PeerId) -> Result<usize, &'static str> {
        let at = self.children.iter().position(|c| c.id == from);
        at.ok_or("unexpected-sender")
    }

    /// Admission guard for a child's `report`: the sender must be a child
    /// and that report must not have been merged from it already.
    fn admit(&self, from: PeerId, report: u8) -> Result<usize, &'static str> {
        let child = self.child(from)?;
        if self.children[child].seen & report != 0 {
            return Err("duplicate-report");
        }
        Ok(child)
    }

    /// Whether every child's `report` has been merged.
    fn all_in(&self, report: u8) -> bool {
        self.children.iter().all(|c| c.seen & report != 0)
    }
}

/// One rootward aggregation phase at one peer: the subtree's value so far.
///
/// `REPORT` is the phase's bit in the [`TreeSlot`]'s per-child table, so
/// up to eight phases — each its own type — share one slot. The engine
/// [`open`](Self::open)s the phase with its local value, feeds every
/// child report through [`absorb`](Self::absorb), and gets the merged
/// value back from [`complete`](Self::complete) exactly once: when the
/// phase is open and every child is in. How reports combine in between is
/// the payload's [`Aggregate::Fold`].
#[derive(Debug, Clone)]
pub struct Convergecast<A: Aggregate, const REPORT: u8 = 1> {
    /// `Some` from `open` until `complete` takes it.
    acc: Option<A>,
    fold: A::Fold,
}

impl<A: Aggregate, const REPORT: u8> Default for Convergecast<A, REPORT> {
    fn default() -> Self {
        Convergecast {
            acc: None,
            fold: A::Fold::default(),
        }
    }
}

impl<A: Aggregate, const REPORT: u8> Convergecast<A, REPORT> {
    /// Opens the phase with this peer's own value.
    pub fn open(&mut self, local: A) {
        self.acc = Some(local);
    }

    /// Admits and merges the `report` a message from `from` carried, or
    /// returns the warning label to drop it under. `fits` is the payload's
    /// compatibility check against this peer's own value — a decodable
    /// report may still be one `merge` cannot take. Nothing is marked or
    /// merged unless every check passes, so a rejected report leaves the
    /// phase exactly as it was.
    pub fn absorb(
        &mut self,
        slot: &mut TreeSlot,
        from: PeerId,
        report: A,
        fits: impl FnOnce(&A, &A) -> bool,
    ) -> Result<(), &'static str> {
        let child = slot.admit(from, REPORT)?;
        let acc = self.acc.as_mut().ok_or("premature-report")?;
        if !fits(acc, &report) {
            return Err("malformed-report");
        }
        self.fold.arrive(acc, from, report);
        slot.children[child].seen |= REPORT;
        Ok(())
    }

    /// The value accumulated so far (under an [`Ascending`] fold: the
    /// local value only).
    ///
    /// [`Ascending`]: crate::merge::Ascending
    pub fn value(&self) -> Option<&A> {
        self.acc.as_ref()
    }

    /// Whether the phase is open and every child has reported.
    pub fn ready(&self, slot: &TreeSlot) -> bool {
        self.acc.is_some() && slot.all_in(REPORT)
    }

    /// The subtree's merged value, once [`ready`](Self::ready) — and then
    /// never again, so a forward or a finish fires exactly once.
    pub fn complete(&mut self, slot: &TreeSlot) -> Option<A> {
        if !self.ready(slot) {
            return None;
        }
        let mut acc = self.acc.take()?;
        std::mem::take(&mut self.fold).finish(&mut acc);
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{MapSum, ScalarSum, VecSum};
    use ifi_overlay::Topology;
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
    fn block_admits_each_child_once_and_completes_once() {
        // Root 0 with children 1, 2, 3; peer 4 hangs under 1.
        let h = Hierarchy::from_parents(
            PeerId::new(0),
            &[None, Some(0), Some(0), Some(0), Some(1)].map(|p| p.map(PeerId::new)),
        );
        let mut slot = TreeSlot::new(&h, PeerId::new(0));
        let mut phase: Convergecast<VecSum> = Convergecast::default();
        let same_len = |mine: &VecSum, v: &VecSum| mine.len() == v.len();
        type P1 = Convergecast<VecSum>;
        let absorb = |phase: &mut P1, slot: &mut TreeSlot, from: usize, len: usize| {
            let report = VecSum::from(vec![1; len]);
            phase.absorb(slot, PeerId::new(from), report, same_len)
        };

        assert_eq!(absorb(&mut phase, &mut slot, 1, 2), Err("premature-report"));
        phase.open(VecSum::from(vec![1, 0]));
        assert_eq!(
            absorb(&mut phase, &mut slot, 1, 2),
            Ok(()),
            "the rejection marked nothing"
        );
        assert_eq!(absorb(&mut phase, &mut slot, 1, 2), Err("duplicate-report"));
        assert_eq!(
            absorb(&mut phase, &mut slot, 4, 2),
            Err("unexpected-sender")
        );
        assert_eq!(absorb(&mut phase, &mut slot, 2, 3), Err("malformed-report"));
        assert_eq!(absorb(&mut phase, &mut slot, 2, 2), Ok(()));
        assert!(phase.complete(&slot).is_none(), "child 3 is still out");
        assert_eq!(absorb(&mut phase, &mut slot, 3, 2), Ok(()));
        assert_eq!(phase.complete(&slot), Some(VecSum::from(vec![4, 3])));
        assert!(phase.complete(&slot).is_none(), "completion fires once");
        assert_eq!(
            absorb(&mut phase, &mut slot, 3, 2),
            Err("duplicate-report"),
            "a surplus report"
        );

        // A second phase over the same slot keeps its own books.
        let mut riders: Convergecast<ScalarSum, 2> = Convergecast::default();
        riders.open(ScalarSum(1));
        let absorbed = riders.absorb(&mut slot, PeerId::new(3), ScalarSum(1), |_, _| true);
        assert_eq!((absorbed, riders.ready(&slot)), (Ok(()), false));
        assert_eq!((slot.boot(), slot.boot()), (Boot::First, Boot::Revival));
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
