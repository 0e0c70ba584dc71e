//! Gossip-based candidate filtering — the paper's stated future work.
//!
//! §VI: *"In the future, we plan to investigate a fault-tolerant gossip
//! aggregation that can obtain the precise aggregates from the network and
//! extend the solutions proposed in this study on gossip aggregation."*
//!
//! This module is that extension. The key observation is that only
//! **candidate verification** needs precise aggregates; **candidate
//! filtering** is a pruning heuristic whose only correctness obligation is
//! to never drop a heavy item. Gossip gives approximate group aggregates
//! with a bounded relative error, so filtering against a *deflated*
//! threshold `t·(1 − margin)` preserves the no-false-negative guarantee
//! whenever the gossip error stays below `margin` — and verification then
//! restores exact values regardless.
//!
//! Structure of a [`run`]:
//!
//! 1. every peer computes its local `f·g` group vector (as in phase 1);
//! 2. the vectors are summed by **vector push-sum over the overlay** — no
//!    hierarchy is needed for this phase, so it tolerates churn that would
//!    break a tree mid-convergecast;
//! 3. each peer *locally* derives the heavy groups from its own gossip
//!    estimate against the deflated threshold — no dissemination phase is
//!    needed either (every peer already holds the estimate);
//! 4. candidate verification runs exactly as in the base algorithm, along
//!    the hierarchy, yielding exact global values.
//!
//! The trade-off measured by the `gossip_filter` ablation: phase 1 costs
//! `O(rounds · s_a · f · g)` per peer instead of `s_a·f·g`, and the
//! deflated threshold admits more false positives into verification — the
//! price of tolerating churn during filtering. This is exactly the
//! hierarchical-vs-gossip tension of §III-A, now quantified.
//!
//! One subtlety: peers may derive *different* heavy-group sets from their
//! own estimates. Verification stays correct because each peer
//! materializes candidates from its **own** heavy set (a superset of the
//! true heavies under the margin assumption), and the root thresholds
//! exact values; disagreement only perturbs which light items reach
//! verification.

use ifi_agg::gossip;
use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{DetRng, EventSink, MsgClass, PeerId, SimConfig};
use ifi_workload::{ItemId, SystemData};

use crate::config::NetFilterConfig;
use crate::filter::{HeavyGroups, LocalFilter};
use crate::hashing::HashFamily;
use crate::naive::{Frequent, NaiveProtocol};
use crate::phases;

/// Configuration of the gossip-filtered variant.
#[derive(Debug, Clone)]
pub struct GossipFilterConfig {
    /// The base netFilter parameters (`g`, `f`, threshold, sizes, seed).
    pub base: NetFilterConfig,
    /// Push-sum rounds for phase 1. [`gossip::recommended_rounds`] with a
    /// small `eps` is a good default.
    pub rounds: usize,
    /// Relative safety margin on the filtering threshold: groups are kept
    /// when the *estimated* aggregate is ≥ `t·(1 − margin)`. Must cover
    /// the worst-case gossip error for the no-false-negative guarantee to
    /// hold.
    pub margin: f64,
}

impl GossipFilterConfig {
    /// A conservative default: enough rounds for `eps = 10⁻⁴` diffusion
    /// error on `n` peers, with a 20 % threshold margin.
    pub fn conservative(base: NetFilterConfig, peers: usize) -> Self {
        GossipFilterConfig {
            base,
            rounds: gossip::recommended_rounds(peers, 1e-4),
            margin: 0.2,
        }
    }
}

/// Outcome of a gossip-filtered run.
#[derive(Debug, Clone)]
pub struct GossipFilterRun {
    frequent: Vec<(ItemId, u64)>,
    threshold: u64,
    /// Average gossip (phase 1) bytes per peer.
    pub gossip_bytes_per_peer: f64,
    /// Average verification (phase 2) bytes per peer.
    pub verification_bytes_per_peer: f64,
    /// Candidates that reached verification (root's view).
    pub candidates: usize,
    /// Worst relative error of the gossip estimates at any peer/group.
    pub gossip_error: f64,
}

impl GossipFilterRun {
    /// The frequent items with exact global values (same contract as the
    /// base engine).
    pub fn frequent_items(&self) -> &[(ItemId, u64)] {
        &self.frequent
    }

    /// The resolved absolute threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Total average bytes per peer across both phases.
    pub fn avg_bytes_per_peer(&self) -> f64 {
        self.gossip_bytes_per_peer + self.verification_bytes_per_peer
    }
}

/// Runs the gossip-filtered variant: push-sum filtering over `topology`,
/// exact verification over `hierarchy`. Phase 1 is charged into `sink`
/// under [`phases::GOSSIP_FILTERING`] (per sender per round) and phase 2
/// under [`phases::AGGREGATION`] (bulk per-peer vector); recording draws
/// no randomness, so [`EventSink::disabled`] yields the same outcome.
///
/// # Panics
///
/// Panics if the topology, hierarchy, and data universes differ, if
/// `margin ∉ [0, 1)`, or if an enabled `sink` was sized for a different
/// peer universe.
pub fn run(
    topology: &Topology,
    hierarchy: &Hierarchy,
    data: &SystemData,
    config: &GossipFilterConfig,
    rng: &mut DetRng,
    sink: &mut EventSink,
) -> GossipFilterRun {
    assert_eq!(
        topology.peer_count(),
        data.peer_count(),
        "universe mismatch"
    );
    assert_eq!(hierarchy.universe(), data.peer_count(), "universe mismatch");
    assert!(
        (0.0..1.0).contains(&config.margin),
        "margin must be in [0, 1)"
    );
    let base = &config.base;
    let sizes = base.sizes;
    let threshold = base.threshold.resolve(data.total_value());
    let family = HashFamily::new(base.filters, base.filter_size, base.hash_seed);
    let local_filter = LocalFilter::new(family.clone());
    let n = data.peer_count();

    // --- Phase 1 by gossip: all f·g group aggregates in one push-sum. ---
    let vectors: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            local_filter
                .group_vector(data.local_items(PeerId::new(i)))
                .to_dense()
                .iter()
                .map(|&v| v as f64)
                .collect()
        })
        .collect();
    let mut true_sums = vec![0.0f64; base.total_groups()];
    for v in &vectors {
        for (k, &x) in v.iter().enumerate() {
            true_sums[k] += x;
        }
    }
    sink.enter(phases::GOSSIP_FILTERING);
    let out = gossip::push_sum_vec_with_sink(topology, &vectors, config.rounds, &sizes, rng, sink);
    sink.exit();
    let gossip_error = out.max_relative_error(&true_sums);

    // --- Phase 2: exact verification along the hierarchy, each peer
    // materializing from the heavy groups of its own estimate. ---
    let deflated = (threshold as f64 * (1.0 - config.margin)).max(1.0);
    let local = |p: PeerId| {
        let est = out.sum_estimates(p.index());
        let heavy_in = |i| {
            let groups = 0..base.filter_size;
            groups
                .filter(|&g| est[family.slot(i, g)] >= deflated)
                .collect()
        };
        let lists: Vec<Vec<u32>> = (0..base.filters).map(heavy_in).collect();
        let heavy = HeavyGroups::from_lists(lists, base.filter_size);
        local_filter.partial_candidates(data.local_items(p), &heavy)
    };
    let cores = NaiveProtocol::cores(hierarchy, sizes, Frequent { threshold }, None, local);
    let (answer, phase2_bytes) = NaiveProtocol::run(cores, SimConfig::default());
    sink.record_vec(phases::AGGREGATION, MsgClass::AGGREGATION, &phase2_bytes);

    GossipFilterRun {
        frequent: answer.items,
        threshold,
        gossip_bytes_per_peer: out.avg_bytes_per_peer(),
        verification_bytes_per_peer: phase2_bytes.iter().sum::<u64>() as f64 / n as f64,
        candidates: answer.distinct,
        gossip_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetFilter, Threshold};
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn setup(seed: u64) -> (Topology, Hierarchy, SystemData, GroundTruth) {
        let n = 120;
        let mut rng = DetRng::new(seed);
        let topo = Topology::random_regular(n, 5, &mut rng);
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: n,
                items: 5_000,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        );
        let truth = GroundTruth::compute(&data);
        (topo, h, data, truth)
    }

    fn off() -> EventSink {
        EventSink::disabled()
    }

    fn base() -> NetFilterConfig {
        NetFilterConfig::builder()
            .filter_size(60)
            .filters(3)
            .threshold(Threshold::Ratio(0.01))
            .build()
    }

    #[test]
    fn gossip_variant_is_still_exact() {
        let (topo, h, data, truth) = setup(101);
        let cfg = GossipFilterConfig::conservative(base(), 120);
        let run = run(&topo, &h, &data, &cfg, &mut DetRng::new(5), &mut off());
        let t = truth.threshold_for_ratio(0.01);
        assert!(
            run.gossip_error < cfg.margin,
            "gossip error {} exceeded margin — increase rounds",
            run.gossip_error
        );
        assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
        assert_eq!(run.threshold(), t);
    }

    #[test]
    fn wider_margin_admits_more_candidates() {
        let (topo, h, data, _) = setup(103);
        let mut narrow = GossipFilterConfig::conservative(base(), 120);
        narrow.margin = 0.05;
        let mut wide = narrow.clone();
        wide.margin = 0.6;
        let a = run(&topo, &h, &data, &narrow, &mut DetRng::new(7), &mut off());
        let b = run(&topo, &h, &data, &wide, &mut DetRng::new(7), &mut off());
        assert!(b.candidates >= a.candidates);
        assert!(b.verification_bytes_per_peer >= a.verification_bytes_per_peer);
        // Both remain exact (verification fixes everything the margin
        // over-admits).
        assert_eq!(a.frequent_items(), b.frequent_items());
    }

    #[test]
    fn gossip_filtering_costs_more_than_hierarchical() {
        // Quantify the §III-A trade-off the paper resolves in favour of
        // hierarchies.
        let (topo, h, data, _) = setup(107);
        let cfg = GossipFilterConfig::conservative(base(), 120);
        let gossip_run = run(&topo, &h, &data, &cfg, &mut DetRng::new(9), &mut off());
        let tree_run = NetFilter::new(base()).run(&h, &data);
        assert!(
            gossip_run.gossip_bytes_per_peer > 3.0 * tree_run.cost().avg_filtering(),
            "gossip {} vs hierarchical {}",
            gossip_run.gossip_bytes_per_peer,
            tree_run.cost().avg_filtering()
        );
        // Same exact answer either way.
        assert_eq!(gossip_run.frequent_items(), tree_run.frequent_items());
    }

    #[test]
    fn sink_variant_matches_plain_and_splits_phases() {
        let (topo, h, data, _) = setup(111);
        let cfg = GossipFilterConfig::conservative(base(), 120);
        let plain = run(&topo, &h, &data, &cfg, &mut DetRng::new(11), &mut off());
        let mut sink = EventSink::new(120);
        let sunk = run(&topo, &h, &data, &cfg, &mut DetRng::new(11), &mut sink);
        assert_eq!(sunk.frequent_items(), plain.frequent_items());
        assert_eq!(sunk.candidates, plain.candidates);
        let report = sink.report();
        // Per-phase averages reconcile with the run's own accounting.
        let gossip_avg = report.phase_bytes(phases::GOSSIP_FILTERING) as f64 / 120.0;
        let verify_avg = report.phase_bytes(phases::AGGREGATION) as f64 / 120.0;
        assert!((gossip_avg - plain.gossip_bytes_per_peer).abs() < 1e-9);
        assert!((verify_avg - plain.verification_bytes_per_peer).abs() < 1e-9);
        assert!((report.avg_bytes_per_peer() - plain.avg_bytes_per_peer()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "margin must be in [0, 1)")]
    fn bad_margin_panics() {
        let (topo, h, data, _) = setup(109);
        let mut cfg = GossipFilterConfig::conservative(base(), 120);
        cfg.margin = 1.0;
        let _ = run(&topo, &h, &data, &cfg, &mut DetRng::new(1), &mut off());
    }
}
