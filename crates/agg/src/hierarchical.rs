//! Hierarchical (bottom-up) aggregate computation — §III-A.2.
//!
//! *"the peers corresponding to the leaf nodes propagate the corresponding
//! local values to their upstream neighbors. A peer representing an
//! internal node merges its own local value … with the values received from
//! its downstream neighbors, and then forwards the merged result to its
//! upstream neighbor. Eventually, the root node has the final aggregate."*
//!
//! * [`TreeSlot`] + [`Convergecast`] — the sans-io building block every
//!   message-level engine of the workspace is built on: a peer's place in
//!   the tree with its per-child admission table, and one phase's
//!   accumulator over it. The block emits nothing itself; an engine feeds
//!   it child reports and forwards (or, at the root, finishes) what
//!   [`Convergecast::complete`] hands back.
//! * [`ConvergecastProtocol`] — the one-pass engine over that block: every
//!   peer reports its subtree's merge rootward through the [`Envelope`],
//!   and the root's [`Finish`]er turns the merged value into the answer.
//!   The sketch, naive, count-min and gossip-verification engines run on it;
//!   [`ConvergecastProtocol::peers`] makes a [`OnePass`] query's population
//!   for any driver (`sansio_world(sim, peers)` on the DES).

use std::fmt::Debug;

use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    sansio_world, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId, RelConfig,
    ReliableMsg, RetransmitTimer, SansIo, SimConfig, SimTime,
};
use ifi_workload::{ItemId, SystemData};

use crate::merge::{Aggregate, Fold};
use crate::wire::WireSizes;

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

/// What the root of a [`ConvergecastProtocol`] makes of the merged `A` —
/// the one part of a one-pass engine that is the engine's own. The type
/// also fixes how `A` travels: its class and its admission check.
pub trait Finish<A: Aggregate>: Debug + Clone {
    /// The answer the root delivers.
    type Output: Debug + Clone;
    /// The class every forwarded value is metered in.
    const CLASS: MsgClass;

    /// Whether a child's `report` can merge into this peer's own value: a
    /// decodable report may still be one `merge` cannot take.
    fn fits(_mine: &A, _report: &A) -> bool {
        true
    }

    /// The answer for the root's merged value.
    fn finish(&self, value: A) -> Self::Output;
}

/// The identity finisher: the root keeps the merged value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Collect;

impl<A: Aggregate> Finish<A> for Collect {
    type Output = A;
    const CLASS: MsgClass = MsgClass::AGGREGATION;

    fn finish(&self, value: A) -> A {
        value
    }
}

/// A one-pass query over a workload: each peer's value from its local
/// items alone, and the finisher the root answers with.
pub trait OnePass {
    /// The value merged rootward.
    type Value: Aggregate;
    /// The root's finisher.
    type Finish: Finish<Self::Value>;
    /// Wire widths the forwarded values are priced with.
    fn sizes(&self) -> WireSizes;
    /// A peer's own value.
    fn local(&self, items: &[(ItemId, u64)]) -> Self::Value;
    /// The finisher for `data` (a threshold resolves against its total).
    fn finisher(&self, data: &SystemData) -> Self::Finish;
}

/// One peer of a one-pass convergecast: its own value merged with its
/// children's reports and forwarded rootward once every child is in; the
/// root finishes the merge into the answer it delivers.
#[derive(Debug, Clone)]
pub struct ConvergecastProtocol<A: Aggregate, F: Finish<A> = Collect> {
    slot: TreeSlot,
    /// Open from construction with the local value.
    phase: Convergecast<A>,
    env: Envelope<A>,
    sizes: WireSizes,
    /// The root's finisher and, once the merge completes, its answer.
    root: Option<Box<(F, Option<F::Output>)>>,
}

impl<A: Aggregate, F: Finish<A>> ConvergecastProtocol<A, F> {
    /// Every peer of `hierarchy`'s universe, opened with `local(peer)`;
    /// the root holds `finish`. `rel` turns the ack/retransmit envelope on.
    pub fn cores(
        hierarchy: &Hierarchy,
        sizes: WireSizes,
        finish: F,
        rel: Option<RelConfig>,
        mut local: impl FnMut(PeerId) -> A,
    ) -> Vec<Self> {
        let core = |p| {
            let slot = TreeSlot::new(hierarchy, p);
            let mut phase = Convergecast::default();
            phase.open(local(p));
            let root = slot.is_root().then(|| Box::new((finish.clone(), None)));
            let env = rel.clone().map_or(Envelope::plain(), Envelope::reliable);
            ConvergecastProtocol {
                slot,
                phase,
                env,
                sizes,
                root,
            }
        };
        (0..hierarchy.universe())
            .map(PeerId::new)
            .map(core)
            .collect()
    }

    /// The cores of `query` over `hierarchy` and `data`, for any driver;
    /// `rel` turns the ack/retransmit envelope on, which an answer under
    /// injected faults needs.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy and data universes differ.
    pub fn peers(
        query: &impl OnePass<Value = A, Finish = F>,
        hierarchy: &Hierarchy,
        data: &SystemData,
        rel: Option<RelConfig>,
    ) -> Vec<Self> {
        assert_eq!(
            hierarchy.universe(),
            data.peer_count(),
            "hierarchy and data peer universes differ"
        );
        let local = |p| query.local(data.local_items(p));
        Self::cores(hierarchy, query.sizes(), query.finisher(data), rel, local)
    }

    /// Runs `cores` to quiescence: the root's answer and the bytes each
    /// peer sent. Panics if the root never answered.
    pub fn run(cores: Vec<Self>, sim: SimConfig) -> (F::Output, Vec<u64>) {
        let mut w = sansio_world(sim, cores);
        w.start();
        w.run_to_quiescence();
        let m = w.metrics();
        let bytes = (0..m.peer_count()).map(|i| m.peer_bytes(PeerId::new(i)));
        let answer = w.peers().find_map(|p| p.result().cloned());
        (answer.expect("a quiescent run answers"), bytes.collect())
    }

    /// The root's answer, once the convergecast completes.
    pub fn result(&self) -> Option<&F::Output> {
        self.root.as_ref()?.1.as_ref()
    }
}

impl<A: Aggregate, F: Finish<A>> SansIo for ConvergecastProtocol<A, F> {
    type Msg = ReliableMsg<A>;
    type Timer = RetransmitTimer;
    type Output = F::Output;

    fn on_event(
        &mut self,
        ev: NodeEvent<Self::Msg, Self::Timer>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => match self.slot.boot() {
                Boot::Outsider => return,
                Boot::Revival => return self.env.revive(fx),
                Boot::First => {}
            },
            NodeEvent::Message { from, msg } => {
                let Some(report) = self.env.on_frame(fx, from, msg) else {
                    return;
                };
                if let Err(warn) = self.phase.absorb(&mut self.slot, from, report, F::fits) {
                    return fx.warn(warn);
                }
            }
            NodeEvent::Timer { tag } => {
                // A one-shot run has no coarser repair to escalate to.
                if self.env.on_retransmit(fx, tag).is_some() {
                    fx.warn("retransmit-gave-up");
                }
                return;
            }
        }
        let Some(acc) = self.phase.complete(&self.slot) else {
            return;
        };
        if let Some(parent) = self.slot.parent() {
            let bytes = acc.encoded_bytes(&self.sizes);
            self.env.send_retained(fx, parent, acc, bytes, F::CLASS);
        } else if let Some((finish, answer)) = self.root.as_deref_mut() {
            let out = answer.insert(finish.finish(acc)).clone();
            fx.deliver(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{MapSum, ScalarSum, VecSum};
    use ifi_overlay::Topology;

    /// One plain epoch of `local` over `h`: the root's value and the
    /// bytes each peer sent.
    fn collect<A: Aggregate>(h: &Hierarchy, local: impl FnMut(PeerId) -> A) -> (A, Vec<u64>) {
        let sizes = WireSizes::default();
        let cores = ConvergecastProtocol::cores(h, sizes, Collect, None, local);
        ConvergecastProtocol::run(cores, SimConfig::default())
    }

    #[test]
    fn scalar_aggregate_sums_everything() {
        let h = Hierarchy::balanced(13, 3);
        let (root, bytes) = collect(&h, |p| ScalarSum(p.index() as u64));
        assert_eq!(root, ScalarSum((0..13).sum()));
        // Every non-root peer sends exactly 4 bytes.
        assert_eq!(bytes.iter().sum::<u64>(), 12 * 4);
        assert_eq!(bytes[0], 0, "root sends nothing");
    }

    #[test]
    fn vec_aggregate_is_elementwise() {
        let h = Hierarchy::balanced(4, 3);
        let (root, bytes) = collect(&h, |p| {
            let mut v = vec![0u64; 3];
            v[p.index() % 3] = 1;
            VecSum::from(v)
        });
        assert_eq!(root.to_dense().iter().sum::<u64>(), 4);
        // Fixed-width: every non-root sends sa * 3 = 12 bytes.
        assert_eq!(bytes.iter().sum::<u64>(), 3 * 12);
    }

    #[test]
    fn map_aggregate_bytes_grow_toward_root() {
        // Line 0-1-2-3 (root 0): peer 3 sends 1 entry, peer 2 sends 2, …
        let topo = Topology::line(4);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let (root, bytes) = collect(&h, |p| MapSum::from_pairs([(ItemId(p.index() as u64), 1)]));
        assert_eq!(root.len(), 4);
        assert_eq!(bytes, vec![0, 8 * 3, 8 * 2, 8]);
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
        let (root, bytes) = collect(&h, |_| ScalarSum(1));
        assert_eq!(root, ScalarSum(1000)); // N
        assert_eq!(bytes.iter().sum::<u64>(), 999 * 4);
    }
}
