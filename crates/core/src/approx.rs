//! An ε-approximate frequent-items comparator, in the style of the
//! related work the paper declines to compare against.
//!
//! §II/§V footnote 5: works like \[9], \[12] return an *approximate* set of
//! frequent items with (1) false positives and (2) errors on the reported
//! global values, at cost `O(a/ε)`. The paper argues such schemes are
//! inapplicable when exactness is required, and that for small ε their
//! cost exceeds netFilter's exact cost. This module provides a concrete
//! such scheme so both claims can be *measured* (see the
//! `approx_vs_exact` ablation and integration tests).
//!
//! The scheme reuses netFilter's own phase-1 machinery as a distributed
//! **count-min sketch**: the `f·g` group-aggregate vector at the root *is*
//! a count-min table (`f` rows of `g` counters), so
//!
//! ```text
//! v̂_x = min_i  agg[i][h_i(x)]   ≥  v_x        (one-sided overestimate)
//! ```
//!
//! With `g ≥ e/ε` and `f ≥ ln(1/δ)`, the classic bound gives
//! `v̂_x ≤ v_x + ε·v` with probability `1 − δ`. Reporting
//! `{x : v̂_x ≥ t}` then yields **no false negatives**, only false
//! positives and inflated values — exactly the error profile the paper
//! ascribes to the approximate competitors. Item identities are collected
//! by one identifier-only convergecast of the locally-qualifying items
//! (`s_i` bytes each), skipping the exact re-aggregation netFilter pays
//! for.

use ifi_agg::{Collect, ConvergecastProtocol, MapSum};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{PeerId, SimConfig};
use ifi_workload::{ItemId, SystemData};

use crate::config::NetFilterConfig;
use crate::filter::{HeavyGroups, LocalFilter};
use crate::hashing::HashFamily;
use crate::WireSizes;

/// Result of an approximate (count-min) frequent-items run.
#[derive(Debug, Clone)]
pub struct ApproxRun {
    /// Reported items with their **estimated** (over-)values, descending.
    pub items: Vec<(ItemId, u64)>,
    /// Average bytes per peer: sketch aggregation.
    pub(crate) sketch_bytes_per_peer: f64,
    /// Average bytes per peer: heavy-group dissemination + identifier
    /// collection.
    pub(crate) collect_bytes_per_peer: f64,
}

impl ApproxRun {
    /// Total average bytes per peer.
    pub fn avg_bytes_per_peer(&self) -> f64 {
        self.sketch_bytes_per_peer + self.collect_bytes_per_peer
    }

    /// Sketch dimensions guaranteeing `v̂ ≤ v + ε·total` with probability
    /// `1 − δ` per item: `g = ⌈e/ε⌉`, `f = ⌈ln(1/δ)⌉`.
    pub fn dimensions_for(epsilon: f64, delta: f64) -> (u32, u32) {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon out of (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta out of (0,1)");
        let g = (std::f64::consts::E / epsilon).ceil() as u32;
        let f = (1.0 / delta).ln().ceil().max(1.0) as u32;
        (g, f)
    }
}

/// Runs the approximate scheme with the dimensions in `config`
/// (`filter_size` = sketch width, `filters` = sketch depth).
///
/// # Panics
///
/// Panics if the hierarchy and data universes differ.
pub fn run(hierarchy: &Hierarchy, data: &SystemData, config: &NetFilterConfig) -> ApproxRun {
    assert_eq!(
        hierarchy.universe(),
        data.peer_count(),
        "hierarchy and data peer universes differ"
    );
    let sizes = config.sizes;
    let threshold = config.threshold.resolve(data.total_value());
    let family = HashFamily::new(config.filters, config.filter_size, config.hash_seed);
    let local_filter = LocalFilter::new(family.clone());

    // 1. Aggregate the sketch (identical traffic to netFilter's phase 1).
    let local = |p: PeerId| local_filter.group_vector(data.local_items(p));
    let cores = ConvergecastProtocol::cores(hierarchy, sizes, Collect, None, local);
    let (sketch, sketch_bytes) = ConvergecastProtocol::run(cores, SimConfig::default());

    // 2. Broadcast heavy groups; peers nominate local items whose sketch
    //    estimate could clear the threshold. A count-min estimate is the
    //    MIN over rows, so x can only qualify if every row's counter is
    //    ≥ t — precisely netFilter's candidate condition.
    let heavy = HeavyGroups::from_aggregate(&family, &sketch, threshold);
    //    One heavy-group list travels down every tree edge.
    let edges = hierarchy.member_count() as u64 - 1;
    let mut collect_total = sizes.sg * heavy.total_heavy() as u64 * edges;

    // 3. Identifier-only convergecast: each peer ships the ids (not the
    //    values — the sketch supplies those) of its qualifying items.
    //    Modeled with MapSum carrying values priced at zero width, so each
    //    entry costs s_i.
    let local = |p: PeerId| {
        let items = data.local_items(p).iter();
        let qualifying = items.filter(|&&(x, _)| heavy.is_candidate(&family, x));
        MapSum::from_pairs(qualifying.map(|&(x, _)| (x, 1u64)))
    };
    let id_sizes = WireSizes { sa: 0, ..sizes };
    let cores = ConvergecastProtocol::cores(hierarchy, id_sizes, Collect, None, local);
    let (ids, id_bytes) = ConvergecastProtocol::run(cores, SimConfig::default());
    collect_total += id_bytes.iter().sum::<u64>();

    // 4. Estimate values from the sketch (min over rows) and threshold.
    let counters = sketch.to_dense();
    let estimate = |x: ItemId| -> u64 {
        (0..config.filters)
            .map(|i| counters[family.slot(i, family.group_of(i, x))])
            .min()
            .unwrap_or(0)
    };
    let mut items: Vec<(ItemId, u64)> = ids
        .0
        .keys()
        .map(|&x| (x, estimate(x)))
        .filter(|&(_, v)| v >= threshold)
        .collect();
    items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let n = data.peer_count().max(1) as f64;
    ApproxRun {
        items,
        sketch_bytes_per_peer: sketch_bytes.iter().sum::<u64>() as f64 / n,
        collect_bytes_per_peer: collect_total as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetFilter, Threshold};
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn setup(seed: u64) -> (Hierarchy, SystemData, GroundTruth) {
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: 100,
                items: 8_000,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        );
        let truth = GroundTruth::compute(&data);
        (Hierarchy::balanced(100, 3), data, truth)
    }

    fn config(g: u32, f: u32) -> NetFilterConfig {
        NetFilterConfig::builder()
            .filter_size(g)
            .filters(f)
            .threshold(Threshold::Ratio(0.01))
            .build()
    }

    #[test]
    fn no_false_negatives_and_overestimates_only() {
        let (h, data, truth) = setup(201);
        let run = run(&h, &data, &config(100, 3));
        let t = truth.threshold_for_ratio(0.01);
        let exact = truth.frequent_items(t);
        // Every truly frequent item is reported.
        for &(x, v) in &exact {
            let found = run.items.iter().find(|&&(y, _)| y == x);
            let &(_, est) = found.expect("false negative");
            assert!(est >= v, "count-min must overestimate: {est} < {v}");
        }
        // Reported values never underestimate the truth.
        for &(x, est) in &run.items {
            assert!(est >= truth.value_of(x));
        }
    }

    #[test]
    fn error_bound_holds_at_cm_dimensions() {
        let (h, data, truth) = setup(203);
        let epsilon = 0.002;
        let (g, f) = ApproxRun::dimensions_for(epsilon, 0.01);
        let run = run(&h, &data, &config(g, f));
        let budget = (epsilon * truth.total_value() as f64) as u64;
        for &(x, est) in &run.items {
            let err = est - truth.value_of(x);
            assert!(
                err <= budget,
                "item {x}: error {err} exceeds ε·v = {budget}"
            );
        }
    }

    #[test]
    fn approximate_set_has_false_positives_the_exact_one_lacks() {
        // A small sketch makes the error profile visible.
        let (h, data, truth) = setup(205);
        let approx = run(&h, &data, &config(20, 2));
        let t = truth.threshold_for_ratio(0.01);
        let exact_len = truth.frequent_items(t).len();
        assert!(
            approx.items.len() > exact_len,
            "expected false positives: {} vs {}",
            approx.items.len(),
            exact_len
        );
    }

    #[test]
    fn small_epsilon_costs_more_than_exact_netfilter() {
        // Footnote 5: "when the given error tolerance is very small, the
        // communication cost incurred by these techniques is even higher
        // than the cost incurred to obtain a precise set … using our
        // technique."
        let (h, data, _) = setup(207);
        let (g, f) = ApproxRun::dimensions_for(0.0005, 0.01); // tiny ε
        let approx = run(&h, &data, &config(g, f));
        let exact = NetFilter::new(config(100, 3)).run(&h, &data);
        assert!(
            approx.avg_bytes_per_peer() > exact.cost().avg_total(),
            "approx {} !> exact {}",
            approx.avg_bytes_per_peer(),
            exact.cost().avg_total()
        );
    }

    #[test]
    fn dimensions_for_matches_cm_bounds() {
        let (g, f) = ApproxRun::dimensions_for(0.01, 0.05);
        assert_eq!(g, (std::f64::consts::E / 0.01).ceil() as u32);
        assert_eq!(f, 3); // ln(20) ≈ 3.0
    }

    #[test]
    #[should_panic(expected = "epsilon out of (0,1)")]
    fn bad_epsilon_panics() {
        let _ = ApproxRun::dimensions_for(0.0, 0.1);
    }
}
