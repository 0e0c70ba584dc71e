//! Zero-traffic local-thresholding comparator — the third member of the
//! approximate engine family.
//!
//! Answers the single-item question **"is `v_x ≥ t`?"** in the style of
//! the local-thresholding line of work (Wolff & Schuster's local L2 /
//! majority-voting protocols, PAPERS.md): split the global threshold into
//! per-peer budgets `b = ⌈t / n⌉` and stay **silent while local values sit
//! under budget**. Silence is informative — if every peer holds
//! `v_i^x ≤ b − 1`, then `v_x ≤ n·(b − 1) < t`, so a fully-quiet system
//! has proven the answer is *no* without sending a byte. Only peers whose
//! local value reaches the budget report it rootward; the root accumulates
//! a sound lower bound `L = Σ reported v_i^x ≤ v_x`.
//!
//! The comparator is **one-sidedly sound**: it answers *yes* only when
//! `L ≥ t`, which `L ≤ v_x` makes unconditionally safe — the simcheck
//! `threshold-soundness` oracle holds it to exactly that contract (never
//! *yes* while the truth is `< t`) across every explored schedule. The
//! price of zero traffic on quiet items is possible false *no*s when the
//! mass is spread thinly under budget; the [`ThresholdVerdict`] exposes
//! `lower_bound` and `silent` so callers can see how much head-room the
//! *no* carries.
//!
//! A deliberately unsound `optimistic` toggle (treating every silent peer
//! as holding `b − 1`) is kept `#[doc(hidden)]` as the negative-path
//! engine: the simcheck `threshold-soundness` oracle must demonstrably
//! catch it.

use ifi_agg::{Boot, TreeSlot};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    sansio_world, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId, PeerSet, RelConfig,
    ReliableMsg, RetransmitTimer, SansIo, SimConfig, SimTime,
};
use ifi_workload::{ItemId, SystemData};

use crate::{Threshold, WireSizes};

/// Tuning of the comparator.
#[derive(Debug, Clone)]
pub struct LocalThresholdConfig {
    /// The frequency threshold `t` the item is compared against.
    pub threshold: Threshold,
    /// Wire widths for byte pricing.
    pub sizes: WireSizes,
    /// Negative-path toggle: answer *yes* assuming every silent peer holds
    /// a full `b − 1` under-budget value. Unsound by construction — the
    /// `threshold-soundness` oracle exists to catch engines tuned like
    /// this.
    #[doc(hidden)]
    pub optimistic: bool,
}

impl LocalThresholdConfig {
    /// A sound comparator at the given threshold.
    pub fn new(threshold: Threshold) -> Self {
        LocalThresholdConfig {
            threshold,
            sizes: WireSizes::default(),
            optimistic: false,
        }
    }

    /// Enables the unsound optimistic mode (negative-path hook).
    #[doc(hidden)]
    pub fn with_optimism(mut self) -> Self {
        self.optimistic = true;
        self
    }
}

/// The root's decision, computable at any point of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdVerdict {
    /// The comparator's answer to "is `v_x ≥ t`?".
    pub answer: bool,
    /// The sound lower bound `L ≤ v_x` the answer rests on.
    pub lower_bound: u64,
    /// Peers whose reports reached the root.
    pub reporters: usize,
    /// Members still silent (under budget or in flight).
    pub silent: usize,
    /// The resolved threshold `t`.
    pub threshold: u64,
}

/// Wire message: one origin's over-budget local value, relayed rootward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetReport {
    /// The peer whose local value crossed the budget.
    pub origin: PeerId,
    /// Its exact local value.
    pub value: u64,
}

/// The sans-io comparator core for one peer and one item.
#[derive(Debug, Clone)]
pub struct LocalThresholdProtocol {
    threshold: u64,
    budget: u64,
    members: usize,
    sizes: WireSizes,
    me: PeerId,
    slot: TreeSlot,
    local_value: u64,
    optimistic: bool,
    /// Origins whose reports this node already relayed (or, at the root,
    /// accounted) — the per-hop dedup that keeps relays idempotent.
    seen_origins: PeerSet,
    lower_bound: u64,
    reporters: usize,
    delivered: bool,
    env: Envelope<BudgetReport>,
}

impl LocalThresholdProtocol {
    /// Creates the state for `peer` holding `local_value` of the queried
    /// item. `threshold` must already be resolved against the system's
    /// total value.
    pub fn new(
        config: &LocalThresholdConfig,
        hierarchy: &Hierarchy,
        peer: PeerId,
        local_value: u64,
        threshold: u64,
    ) -> Self {
        let members = hierarchy.member_count().max(1);
        LocalThresholdProtocol {
            threshold,
            budget: threshold.div_ceil(members as u64),
            members,
            sizes: config.sizes,
            me: peer,
            slot: TreeSlot::new(hierarchy, peer),
            local_value,
            optimistic: config.optimistic,
            seen_origins: PeerSet::new(),
            lower_bound: 0,
            reporters: 0,
            delivered: false,
            env: Envelope::plain(),
        }
    }

    /// Enables the ack/retransmit envelope with the given tuning.
    pub fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.env = Envelope::reliable(cfg);
        self
    }

    /// The root's current decision. Sound at any time: `lower_bound` only
    /// grows, so a *yes* can never be retracted and a *no* only means "not
    /// proven yet".
    pub fn verdict(&self) -> ThresholdVerdict {
        ThresholdVerdict {
            answer: self.decides_yes(),
            lower_bound: self.lower_bound,
            reporters: self.reporters,
            silent: self.members - self.reporters,
            threshold: self.threshold,
        }
    }

    fn decides_yes(&self) -> bool {
        if self.lower_bound >= self.threshold {
            return true;
        }
        // Unsound shortcut: pretend every silent peer holds b − 1.
        self.optimistic
            && self.reporters > 0
            && self.lower_bound + (self.members - self.reporters) as u64 * (self.budget - 1)
                >= self.threshold
    }

    /// The peer population as bare cores for any driver; `rel` turns the
    /// ack/retransmit envelope on every peer.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy and data universes differ.
    pub fn peers(
        config: &LocalThresholdConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        item: ItemId,
        rel: Option<RelConfig>,
    ) -> Vec<LocalThresholdProtocol> {
        assert_eq!(
            hierarchy.universe(),
            data.peer_count(),
            "hierarchy and data peer universes differ"
        );
        let t = config.threshold.resolve(data.total_value());
        (0..data.peer_count())
            .map(|i| {
                let p = PeerId::new(i);
                let core =
                    LocalThresholdProtocol::new(config, hierarchy, p, data.local_value(p, item), t);
                match &rel {
                    None => core,
                    Some(cfg) => core.with_reliability(cfg.clone()),
                }
            })
            .collect()
    }

    /// Accounts (root) or relays (interior) one origin's report.
    fn absorb(&mut self, fx: &mut Effects<Self>, report: BudgetReport) {
        if self.slot.is_root() {
            self.lower_bound += report.value;
            self.reporters += 1;
            if !self.delivered && self.decides_yes() {
                self.delivered = true;
                fx.deliver(self.verdict());
            }
        } else if let Some(parent) = self.slot.parent() {
            let bytes = self.sizes.pair();
            self.env
                .send_retained(fx, parent, report, bytes, MsgClass::THRESHOLD);
        }
    }
}

impl SansIo for LocalThresholdProtocol {
    type Msg = ReliableMsg<BudgetReport>;
    type Timer = RetransmitTimer;
    type Output = ThresholdVerdict;

    fn on_event(
        &mut self,
        ev: NodeEvent<Self::Msg, Self::Timer>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => match self.slot.boot() {
                Boot::Outsider => {}
                Boot::Revival => self.env.revive(fx),
                // Speak only when the local value reaches the budget
                // (resolved thresholds are ≥ 1, so the budget is too).
                Boot::First if self.local_value >= self.budget => {
                    let me = BudgetReport {
                        origin: self.me,
                        value: self.local_value,
                    };
                    self.seen_origins.insert(me.origin);
                    self.absorb(fx, me);
                }
                Boot::First => {}
            },
            NodeEvent::Message { from, msg } => {
                let Some(report) = self.env.on_frame(fx, from, msg) else {
                    return;
                };
                if let Err(warn) = self.slot.child(from) {
                    fx.warn(warn);
                } else if !self.seen_origins.insert(report.origin) {
                    fx.warn("duplicate-report");
                } else {
                    self.absorb(fx, report);
                }
            }
            NodeEvent::Timer { tag } => {
                if self.env.on_retransmit(fx, tag).is_some() {
                    fx.warn("retransmit-gave-up");
                }
            }
        }
    }
}

/// Result of an instant (DES-backed) comparison.
#[derive(Debug, Clone)]
pub struct CompareRun {
    /// The root's decision after quiescence.
    pub verdict: ThresholdVerdict,
    /// Total bytes spent — zero when every peer stayed under budget.
    pub total_bytes: u64,
}

/// Answers "is `v_item ≥ t`?" in one DES run of [`LocalThresholdProtocol`].
///
/// # Panics
///
/// Panics if the hierarchy and data universes differ.
pub fn compare(
    hierarchy: &Hierarchy,
    data: &SystemData,
    item: ItemId,
    config: &LocalThresholdConfig,
) -> CompareRun {
    let mut w = sansio_world(
        SimConfig::default(),
        LocalThresholdProtocol::peers(config, hierarchy, data, item, None),
    );
    w.start();
    w.run_to_quiescence();
    CompareRun {
        verdict: w.peer(hierarchy.root()).verdict(),
        total_bytes: w.metrics().total_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_sim::FaultPlan;
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn nine_peer_split() -> SystemData {
        // Seven peers hold 9 units each (budget for t = 70 over n = 9 is
        // ⌈70/9⌉ = 8, so all seven report); two hold nothing. v_x = 63.
        let mut sets: Vec<Vec<(ItemId, u64)>> = vec![vec![(ItemId(0), 9)]; 7];
        sets.push(vec![]);
        sets.push(vec![]);
        SystemData::from_local_sets(sets, 1)
    }

    #[test]
    fn heavy_item_is_confirmed() {
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: 30,
                items: 500,
                instances_per_item: 10,
                theta: 1.0,
            },
            41,
        );
        let h = Hierarchy::balanced(30, 3);
        let truth = GroundTruth::compute(&data);
        let (top, v_top) = truth.globals()[0];
        // Ask for a bar the head item clears with room: t = v_top / 2.
        let cfg = LocalThresholdConfig::new(Threshold::Absolute(v_top / 2));
        let run = compare(&h, &data, top, &cfg);
        assert!(run.verdict.answer, "the head item clears half its value");
        assert!(run.verdict.lower_bound >= v_top / 2);
        assert!(run.verdict.lower_bound <= v_top, "bound stays sound");
    }

    #[test]
    fn quiet_item_costs_zero_bytes() {
        let data = nine_peer_split();
        let h = Hierarchy::balanced(9, 3);
        // t = 100 → budget ⌈100/9⌉ = 12 > 9: everyone is under budget.
        let run = compare(
            &h,
            &data,
            ItemId(0),
            &LocalThresholdConfig::new(Threshold::Absolute(100)),
        );
        assert!(!run.verdict.answer, "63 < 100");
        assert_eq!(run.total_bytes, 0, "silence is the whole protocol");
        assert_eq!(run.verdict.reporters, 0);
    }

    #[test]
    fn sound_mode_never_overclaims() {
        let data = nine_peer_split();
        let h = Hierarchy::balanced(9, 3);
        // t = 70: all seven holders report (9 ≥ budget 8), L = 63 < 70.
        let run = compare(
            &h,
            &data,
            ItemId(0),
            &LocalThresholdConfig::new(Threshold::Absolute(70)),
        );
        assert_eq!(run.verdict.lower_bound, 63);
        assert_eq!(run.verdict.reporters, 7);
        assert!(!run.verdict.answer, "63 < 70 must stay a no");
    }

    #[test]
    fn optimistic_mode_overclaims_on_the_crafted_split() {
        let data = nine_peer_split();
        let h = Hierarchy::balanced(9, 3);
        // Same split, optimistic: L + 2·(8−1) = 77 ≥ 70 → an unsound yes
        // (the truth is 63). This is the negative the soundness oracle
        // must catch.
        let run = compare(
            &h,
            &data,
            ItemId(0),
            &LocalThresholdConfig::new(Threshold::Absolute(70)).with_optimism(),
        );
        assert!(run.verdict.answer, "optimism must overclaim here");
        assert!(run.verdict.lower_bound < run.verdict.threshold);
    }

    #[test]
    fn lossy_reliable_run_matches_the_clean_verdict() {
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: 40,
                items: 300,
                instances_per_item: 8,
                theta: 1.0,
            },
            43,
        );
        let h = Hierarchy::balanced(40, 3);
        let truth = GroundTruth::compute(&data);
        let (top, v_top) = truth.globals()[0];
        let cfg = LocalThresholdConfig::new(Threshold::Absolute(v_top / 2));

        let clean = compare(&h, &data, top, &cfg);
        let sim = SimConfig::default()
            .with_seed(9)
            .with_faults(FaultPlan::none().with_drop(0.15).with_duplication(0.1));
        let mut lossy = sansio_world(
            sim,
            LocalThresholdProtocol::peers(&cfg, &h, &data, top, Some(RelConfig::default())),
        );
        lossy.start();
        lossy.run_to_quiescence();
        let got = lossy.peer(h.root()).verdict();
        assert_eq!(got, clean.verdict, "loss must not change the verdict");
    }
}
