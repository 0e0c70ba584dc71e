//! Invariant oracles: small structs judging a [`World`] mid-run or at the
//! end of a trial.
//!
//! Oracles are pure observers — they read protocol state through public
//! accessors and never mutate the world. Each returns `Err(detail)` on
//! the first violated invariant; the explorer converts that (or a handler
//! panic) into a [`Violation`] and hands the schedule to the shrinker.

use std::collections::BTreeMap;

use ifi_hierarchy::{Hierarchy, MaintainProtocol};
use ifi_overlay::Topology;
use ifi_sim::{Des, PeerId, SansIo, World};
use ifi_workload::{GroundTruth, ItemId};
use netfilter::continuous::{window_totals_from_scratch, ContinuousProtocol};
use netfilter::local_threshold::LocalThresholdProtocol;
use netfilter::phases;
use netfilter::protocol::NetFilterProtocol;
use netfilter::resilient::ResilientProtocol;
use netfilter::sketch::SketchProtocol;
use netfilter::topk::TopKProtocol;
use netfilter::CostBreakdown;

/// When an oracle is being consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checkpoint {
    /// A periodic mid-run check (the world may be in a transient state).
    Interval,
    /// The end of the trial: quiescence, or the configured horizon.
    End,
}

/// One violated invariant (or a captured handler panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The oracle that fired — `"panic"` for a captured handler panic.
    pub oracle: String,
    /// Human-readable description of what went wrong.
    pub detail: String,
    /// A window of the world's event trace leading up to the violation
    /// (empty when tracing was off or the run died in a panic).
    pub trace: Vec<String>,
}

/// An invariant over a `World<Des<P>>`, checked at interval and end
/// checkpoints. Implementations may carry state across checkpoints (e.g.
/// the epoch-fence oracle remembers the last epoch seen per peer).
pub trait Oracle<P: SansIo> {
    /// Stable oracle name, used in artifacts and expectations.
    fn name(&self) -> &'static str;
    /// Checks the invariant; `Err` describes the first violation.
    fn check(&mut self, world: &World<Des<P>>, at: Checkpoint) -> Result<(), String>;
}

/// netFilter exactness: at the end of the run the root must hold exactly
/// the ground-truth frequent-item set, values included.
#[derive(Debug)]
pub struct ExactnessOracle {
    /// The query root.
    pub root: PeerId,
    /// The ground-truth IFI answer.
    pub expected: Vec<(ItemId, u64)>,
}

impl Oracle<NetFilterProtocol> for ExactnessOracle {
    fn name(&self) -> &'static str {
        "exactness"
    }

    fn check(
        &mut self,
        world: &World<Des<NetFilterProtocol>>,
        at: Checkpoint,
    ) -> Result<(), String> {
        if at != Checkpoint::End {
            return Ok(());
        }
        match world.peer(self.root).result() {
            None => Err("root never produced a result".into()),
            Some(got) if got == self.expected.as_slice() => Ok(()),
            Some(got) => Err(format!(
                "root answer diverges from ground truth: {} items reported, {} expected",
                got.len(),
                self.expected.len()
            )),
        }
    }
}

/// Cost reconciliation: each paper phase sends one message per edge of the
/// hierarchy, and the report holds the meter's per-peer phase bytes plus
/// retransmit overhead only — faults add retransmits, never a paper send.
#[derive(Debug)]
pub struct CostOracle(pub Hierarchy);

impl Oracle<NetFilterProtocol> for CostOracle {
    fn name(&self) -> &'static str {
        "cost-reconcile"
    }

    fn check(
        &mut self,
        world: &World<Des<NetFilterProtocol>>,
        at: Checkpoint,
    ) -> Result<(), String> {
        if at != Checkpoint::End {
            return Ok(());
        }
        let report = world.metrics_report();
        let edges = self.0.members().len() as u64 - 1;
        for label in phases::NETFILTER {
            let sent = report.phase(label).map_or(0, |p| p.messages());
            if sent != edges {
                return Err(format!("{label}: {sent} messages over {edges} tree edges"));
            }
        }
        CostBreakdown::from_metrics(world.metrics())
            .reconcile_with_overhead(&report, &[phases::RETRANSMIT])
    }
}

/// Hierarchy well-formedness at the end of a maintenance run: with the
/// root alive every live peer is attached and parent/depth links form a
/// consistent tree over topology edges (then double-checked through
/// [`Hierarchy::check_invariants`]); with the root dead every live peer
/// must have converged to the detached state — a frozen finite depth is
/// exactly the count-to-infinity failure.
#[derive(Debug)]
pub struct TreeOracle {
    /// The overlay the tree must be embedded in.
    pub topology: Topology,
    /// The hierarchy root.
    pub root: PeerId,
}

impl Oracle<MaintainProtocol> for TreeOracle {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn check(
        &mut self,
        world: &World<Des<MaintainProtocol>>,
        at: Checkpoint,
    ) -> Result<(), String> {
        if at != Checkpoint::End {
            return Ok(());
        }
        let n = world.peer_count();
        if !world.is_up(self.root) {
            // No live root anywhere: depth-following must have squeezed
            // every stale finite depth out of the system by now.
            for i in 0..n {
                let p = PeerId::new(i);
                if world.is_up(p) && !world.peer(p).is_detached() {
                    return Err(format!(
                        "root {} is dead but peer {p} still holds depth {:?} under parent {:?}",
                        self.root,
                        world.peer(p).depth(),
                        world.peer(p).parent()
                    ));
                }
            }
            return Ok(());
        }
        let mut parents: Vec<Option<PeerId>> = vec![None; n];
        for (i, slot) in parents.iter_mut().enumerate() {
            let p = PeerId::new(i);
            if !world.is_up(p) {
                continue;
            }
            let peer = world.peer(p);
            let Some(d) = peer.depth() else {
                return Err(format!("peer {p} is still detached with the root alive"));
            };
            if p == self.root {
                if d != 0 || peer.parent().is_some() {
                    return Err(format!(
                        "root {p} has depth {d} / parent {:?}",
                        peer.parent()
                    ));
                }
                continue;
            }
            if d == 0 {
                return Err(format!("non-root peer {p} claims depth 0"));
            }
            let Some(q) = peer.parent() else {
                return Err(format!("peer {p} has depth {d} but no parent"));
            };
            if !world.is_up(q) {
                return Err(format!("peer {p}'s parent {q} is dead"));
            }
            if !self.topology.neighbors(p).contains(&q) {
                return Err(format!("peer {p}'s parent {q} is not an overlay neighbor"));
            }
            let pd = world
                .peer(q)
                .depth()
                .ok_or_else(|| format!("peer {p}'s parent {q} is detached"))?;
            if pd + 1 != d {
                return Err(format!(
                    "depth mismatch: peer {p} at depth {d} under parent {q} at depth {pd}"
                ));
            }
            *slot = Some(q);
        }
        // Depth consistency makes parent chains strictly descend to the
        // unique depth-0 peer, so this cannot panic on a cycle. Structural
        // check only: repair re-attaches along whatever live edge is
        // available first, so post-crash depths are consistent but not
        // BFS-minimal, and edge membership was already checked above.
        let snapshot = Hierarchy::from_parents(self.root, &parents);
        snapshot.check_invariants(None);
        Ok(())
    }
}

/// Epoch-fence monotonicity: no peer's served epoch ever regresses.
#[derive(Debug, Default)]
pub struct EpochFenceOracle {
    last: Vec<u64>,
}

impl EpochFenceOracle {
    /// Creates the oracle with no epochs observed yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Oracle<ResilientProtocol> for EpochFenceOracle {
    fn name(&self) -> &'static str {
        "epoch-fence"
    }

    fn check(
        &mut self,
        world: &World<Des<ResilientProtocol>>,
        _at: Checkpoint,
    ) -> Result<(), String> {
        if self.last.is_empty() {
            self.last = vec![0; world.peer_count()];
        }
        for (i, peer) in world.peers().enumerate() {
            let e = peer.epoch();
            if e < self.last[i] {
                return Err(format!("peer {i} epoch regressed {} -> {e}", self.last[i]));
            }
            self.last[i] = e;
        }
        Ok(())
    }
}

/// Answer non-inflation: no completed epoch, complete *or* partial, may
/// report an item above its true global value. Double-merging a
/// duplicated aggregation frame violates this immediately, even though
/// the inflated census demotes the epoch's certificate to `Partial`.
#[derive(Debug)]
pub struct NoInflationOracle {
    /// The ground-truth fold of the workload.
    pub truth: GroundTruth,
}

impl Oracle<ResilientProtocol> for NoInflationOracle {
    fn name(&self) -> &'static str {
        "no-inflation"
    }

    fn check(
        &mut self,
        world: &World<Des<ResilientProtocol>>,
        _at: Checkpoint,
    ) -> Result<(), String> {
        for (i, peer) in world.peers().enumerate() {
            for er in peer.completed_epochs() {
                for &(item, v) in &er.answer {
                    let t = self.truth.value_of(item);
                    if v > t {
                        return Err(format!(
                            "peer {i} epoch {}: item {item:?} reported {v} > true value {t}",
                            er.epoch
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Certificate soundness: an epoch certified `Complete` must equal the
/// exact IFI over the full roster — the certified answer, the whole
/// answer, and nothing but the answer.
#[derive(Debug)]
pub struct CensusSoundnessOracle {
    /// The exact IFI answer over the full peer set.
    pub expected: Vec<(ItemId, u64)>,
}

impl Oracle<ResilientProtocol> for CensusSoundnessOracle {
    fn name(&self) -> &'static str {
        "census-soundness"
    }

    fn check(
        &mut self,
        world: &World<Des<ResilientProtocol>>,
        _at: Checkpoint,
    ) -> Result<(), String> {
        for (i, peer) in world.peers().enumerate() {
            for er in peer.completed_epochs() {
                if er.is_complete() && er.answer != self.expected {
                    let got: BTreeMap<ItemId, u64> = er.answer.iter().copied().collect();
                    let want: BTreeMap<ItemId, u64> = self.expected.iter().copied().collect();
                    let diff = got
                        .iter()
                        .find(|(k, v)| want.get(k) != Some(v))
                        .map(|(k, v)| format!("item {k:?} reported {v}"))
                        .unwrap_or_else(|| "an expected item is missing".into());
                    return Err(format!(
                        "peer {i} epoch {} certified Complete but diverges from ground truth: {diff}",
                        er.epoch
                    ));
                }
            }
        }
        Ok(())
    }
}

/// ε-bound accuracy of the sketch-merge engine: every reported estimate
/// must sit within `⌈ε·V⌉` of the exact global value (and never above
/// it — the deficit form only undercounts), and no truly frequent item
/// may be missing from the answer. An engine whose capacity cannot honor
/// its claimed ε violates one of the two immediately.
#[derive(Debug)]
pub struct EpsilonBoundOracle {
    /// The query root.
    pub root: PeerId,
    /// The ground-truth fold of the workload.
    pub truth: GroundTruth,
    /// The resolved frequency threshold `t`.
    pub threshold: u64,
    /// The ε the engine claims.
    pub claimed_epsilon: f64,
}

impl Oracle<SketchProtocol> for EpsilonBoundOracle {
    fn name(&self) -> &'static str {
        "epsilon-bound"
    }

    fn check(&mut self, world: &World<Des<SketchProtocol>>, at: Checkpoint) -> Result<(), String> {
        if at != Checkpoint::End {
            return Ok(());
        }
        let Some(answer) = world.peer(self.root).result() else {
            return Err("root never produced a summary answer".into());
        };
        let bound = (self.claimed_epsilon * self.truth.total_value() as f64).ceil() as u64;
        for &(item, est) in &answer.items {
            let exact = self.truth.value_of(item);
            if est > exact {
                return Err(format!(
                    "item {item:?} estimated {est} above its true value {exact}"
                ));
            }
            if exact - est > bound {
                return Err(format!(
                    "item {item:?} estimated {est}, true value {exact}: deficit {} exceeds the claimed \
                     bound {bound}",
                    exact - est
                ));
            }
        }
        for &(item, v) in self.truth.globals() {
            if v < self.threshold {
                break; // globals are sorted descending
            }
            if !answer.items.iter().any(|&(i, _)| i == item) {
                return Err(format!(
                    "frequent item {item:?} (value {v} ≥ t = {}) missing from the answer",
                    self.threshold
                ));
            }
        }
        Ok(())
    }
}

/// Top-k recall: the returned values must be exact, the returned set must
/// contain at least the claimed fraction of the true top-k, and a
/// `certified` answer must equal the true prefix outright.
#[derive(Debug)]
pub struct TopKRecallOracle {
    /// The query root.
    pub root: PeerId,
    /// The ground-truth fold of the workload.
    pub truth: GroundTruth,
    /// The true top-k prefix (ties broken like the engine: value
    /// descending, then id ascending).
    pub expected: Vec<(ItemId, u64)>,
    /// The recall the engine's tuning claims.
    pub claimed_recall: f64,
}

impl Oracle<TopKProtocol> for TopKRecallOracle {
    fn name(&self) -> &'static str {
        "topk-recall"
    }

    fn check(&mut self, world: &World<Des<TopKProtocol>>, at: Checkpoint) -> Result<(), String> {
        if at != Checkpoint::End {
            return Ok(());
        }
        let Some(answer) = world.peer(self.root).result() else {
            return Err("root never produced a top-k answer".into());
        };
        for &(item, v) in &answer.items {
            let exact = self.truth.value_of(item);
            if v != exact {
                return Err(format!(
                    "item {item:?} reported {v} but its true value is {exact}"
                ));
            }
        }
        if answer.certified && answer.items != self.expected {
            return Err(format!(
                "certified answer diverges from the true top-k: {} items reported, {} expected",
                answer.items.len(),
                self.expected.len()
            ));
        }
        if !self.expected.is_empty() {
            let hit = answer
                .items
                .iter()
                .filter(|(i, _)| self.expected.iter().any(|&(e, _)| e == *i))
                .count();
            let recall = hit as f64 / self.expected.len() as f64;
            if recall + 1e-9 < self.claimed_recall {
                return Err(format!(
                    "recall {recall:.3} ({hit}/{}) below the claimed {:.3}",
                    self.expected.len(),
                    self.claimed_recall
                ));
            }
        }
        Ok(())
    }
}

/// Window consistency of the continuous standing-query engine: every
/// epoch answer the root certifies must equal — query by query, row by
/// row — the answer a from-scratch windowed aggregation over the same
/// per-epoch schedules gives at that fence, and by the end of the run
/// every configured epoch must have certified. Dropping retirement diffs
/// (the planted `with_dropped_retirements` bug) inflates the standing
/// state the moment the window fills and violates this immediately.
///
/// Only meaningful for the unfaded engine ([`FadePolicy::None`]): under a
/// fade policy answer membership is decided by faded values the
/// from-scratch comparator does not model.
///
/// [`FadePolicy::None`]: netfilter::continuous::FadePolicy::None
#[derive(Debug, Clone)]
pub struct WindowConsistencyOracle {
    /// The query root.
    pub root: PeerId,
    /// Every peer's per-epoch record batches — the ground-truth input.
    pub schedules: Vec<Vec<Vec<(ItemId, u64)>>>,
    /// The window size `W` in buckets.
    pub window: usize,
    /// The configured epoch count: all must certify by the end.
    pub epochs: usize,
    /// The registered query thresholds, in registry order.
    pub thresholds: Vec<u64>,
}

impl Oracle<ContinuousProtocol> for WindowConsistencyOracle {
    fn name(&self) -> &'static str {
        "window-consistency"
    }

    fn check(
        &mut self,
        world: &World<Des<ContinuousProtocol>>,
        at: Checkpoint,
    ) -> Result<(), String> {
        let history = world.peer(self.root).delivered();
        if at == Checkpoint::End && history.len() != self.epochs {
            return Err(format!(
                "only {} of {} epochs certified by the end of the run",
                history.len(),
                self.epochs
            ));
        }
        for ans in history {
            if ans.contributors != self.schedules.len() {
                return Err(format!(
                    "epoch {} certified with {} contributors, roster holds {}",
                    ans.epoch,
                    ans.contributors,
                    self.schedules.len()
                ));
            }
            if ans.answers.len() != self.thresholds.len() {
                return Err(format!(
                    "epoch {}: {} query answers for {} registered queries",
                    ans.epoch,
                    ans.answers.len(),
                    self.thresholds.len()
                ));
            }
            let scratch = window_totals_from_scratch(&self.schedules, ans.epoch, self.window);
            for (qi, &t) in self.thresholds.iter().enumerate() {
                let mut want: Vec<(ItemId, u64)> = scratch
                    .iter()
                    .filter(|&(_, v)| *v >= t)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let got = &ans.answers[qi].items;
                if got != &want {
                    let diff = got
                        .iter()
                        .find(|row| !want.contains(row))
                        .or_else(|| want.iter().find(|row| !got.contains(row)))
                        .map(|(k, v)| format!("item {k:?} at value {v}"))
                        .unwrap_or_else(|| "row order".into());
                    return Err(format!(
                        "epoch {} query {qi} (t = {t}) diverges from the from-scratch \
                         window: {} rows reported, {} expected; first diff: {diff}",
                        ans.epoch,
                        got.len(),
                        want.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One-sided soundness of the local-thresholding comparator: at no point
/// may the root answer *yes* ("`v_x ≥ t`") while the truth sits below
/// `t`, and its running lower bound may never exceed the true value
/// (double-counting a relayed report violates this first).
#[derive(Debug)]
pub struct ThresholdSoundnessOracle {
    /// The query root.
    pub root: PeerId,
    /// The item's true global value.
    pub truth_value: u64,
}

impl Oracle<LocalThresholdProtocol> for ThresholdSoundnessOracle {
    fn name(&self) -> &'static str {
        "threshold-soundness"
    }

    fn check(
        &mut self,
        world: &World<Des<LocalThresholdProtocol>>,
        _at: Checkpoint,
    ) -> Result<(), String> {
        let v = world.peer(self.root).verdict();
        if v.lower_bound > self.truth_value {
            return Err(format!(
                "lower bound {} exceeds the true value {}",
                v.lower_bound, self.truth_value
            ));
        }
        if v.answer && self.truth_value < v.threshold {
            return Err(format!(
                "root answered yes at t = {} but the true value is {}",
                v.threshold, self.truth_value
            ));
        }
        Ok(())
    }
}
