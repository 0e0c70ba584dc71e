//! The naive baseline — §IV-B.
//!
//! *"the naive approach where the host nodes forward their local item sets
//! along the hierarchy."* Every peer merges its full local `(identifier,
//! value)` map with its children's maps and forwards the union upward; the
//! root ends up with the global value of every item and thresholds them.
//!
//! The paper's perhaps-surprising cost bound (Eq. 2),
//!
//! ```text
//! (s_a + s_i)·o  ≤  C_naive  ≤  (s_a + s_i)·o·(h − 1),
//! ```
//!
//! holds because a peer only forwards the items with nonzero values in its
//! subtree, whose expected distinct count per forwarding peer stays `O(o)`
//! on average. Our byte accounting measures the real union sizes, and the
//! bound ([`naive_bounds`](crate::analysis::naive_bounds)) is asserted in
//! this module's tests. A run is one epoch of the one-pass
//! [`ConvergecastProtocol`] under the DES, through
//! [`NaiveEngine`](crate::engines::NaiveEngine).

use ifi_agg::{ConvergecastProtocol, Finish, MapSum, OnePass};
use ifi_sim::MsgClass;
use ifi_workload::{ItemId, SystemData};

use crate::config::Threshold;
use crate::resilient::frequent_items;
use crate::WireSizes;

/// The naive approach as a one-pass query: every peer's full local item
/// map, thresholded at the root.
#[derive(Debug, Clone, Copy)]
pub struct NaiveConfig {
    /// The IFI threshold.
    pub threshold: Threshold,
    /// Wire widths for byte pricing.
    pub sizes: WireSizes,
}

impl OnePass for NaiveConfig {
    type Value = MapSum;
    type Finish = Frequent;

    fn sizes(&self) -> WireSizes {
        self.sizes
    }

    fn local(&self, items: &[(ItemId, u64)]) -> MapSum {
        MapSum::from_pairs(items.iter().copied())
    }

    fn finisher(&self, data: &SystemData) -> Frequent {
        Frequent {
            threshold: self.threshold.resolve(data.total_value()),
        }
    }
}

/// The root's side of an exact item-map convergecast (the naive approach,
/// gossip-filtered verification): the items at or over the threshold.
#[derive(Debug, Clone, Copy)]
pub struct Frequent {
    /// The resolved absolute threshold.
    pub(crate) threshold: u64,
}

/// What [`Frequent`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentAnswer {
    /// The frequent items with exact global values, descending by value
    /// (ties by ascending id).
    pub items: Vec<(ItemId, u64)>,
    /// Number of distinct items that reached the root.
    pub(crate) distinct: usize,
}

impl Finish<MapSum> for Frequent {
    type Output = FrequentAnswer;
    const CLASS: MsgClass = MsgClass::AGGREGATION;

    fn finish(&self, map: MapSum) -> FrequentAnswer {
        FrequentAnswer {
            items: frequent_items(&map, self.threshold),
            distinct: map.len(),
        }
    }
}

/// The sans-io core of the naive approach (and of any exact item-map
/// convergecast) for one peer.
pub type NaiveProtocol = ConvergecastProtocol<MapSum, Frequent>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::naive_bounds;
    use crate::engines::{Engine, EngineOutcome, NaiveEngine};
    use crate::phases;
    use ifi_hierarchy::Hierarchy;
    use ifi_sim::SimConfig;
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn workload(peers: usize, items: u64, seed: u64) -> SystemData {
        SystemData::generate(
            &WorkloadParams {
                peers,
                items,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        )
    }

    fn config() -> NaiveConfig {
        NaiveConfig {
            threshold: Threshold::Ratio(0.01),
            sizes: WireSizes::default(),
        }
    }

    fn run(h: &Hierarchy, data: &SystemData) -> EngineOutcome {
        let engine = NaiveEngine { config: config() };
        engine.run_des(h, data, SimConfig::default())
    }

    #[test]
    fn naive_is_exact() {
        let data = workload(60, 1_000, 3);
        let h = Hierarchy::balanced(60, 3);
        let out = run(&h, &data);
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(0.01);
        assert_eq!(out.items, truth.frequent_items(t));
        assert!(out.certified);
        let cores = NaiveProtocol::peers(&config(), &h, &data, None);
        let (answer, _) = NaiveProtocol::run(cores, SimConfig::default());
        assert_eq!(answer.distinct, data.distinct_items());
    }

    #[test]
    fn cost_respects_paper_bounds_eq2() {
        // (sa+si)·o ≤ C_naive ≤ (sa+si)·o·(h−1).
        let data = workload(100, 5_000, 5);
        let h = Hierarchy::balanced(100, 3);
        let c = run(&h, &data).avg_bytes_per_peer();
        let o = data.avg_distinct_per_peer();
        let (lower, upper) = naive_bounds(&WireSizes::default(), o, h.height());
        let lower = lower * 0.99; // slack: the root forwards nothing
        assert!(c >= lower, "C_naive = {c} below lower bound {lower}");
        assert!(c <= upper, "C_naive = {c} above upper bound {upper}");
    }

    #[test]
    fn leaves_pay_exactly_their_local_set() {
        let data = workload(13, 200, 7);
        let h = Hierarchy::balanced(13, 3);
        let out = run(&h, &data);
        let bytes = out.report.phase_peer_bytes(phases::AGGREGATION).unwrap();
        for p in h.leaves() {
            let expect = 8 * data.local_items(p).len() as u64;
            assert_eq!(bytes[p.index()], expect, "leaf {p}");
        }
        assert_eq!(bytes[0], 0, "root sends nothing");
    }

    #[test]
    fn skew_reduces_naive_cost() {
        // §V-C: "as the data skewness increases, the average number of
        // distinct items that a peer propagates … is reduced".
        let h = Hierarchy::balanced(100, 3);
        let cost = |theta| {
            let params = WorkloadParams {
                peers: 100,
                items: 20_000,
                instances_per_item: 10,
                theta,
            };
            run(&h, &SystemData::generate(&params, 9)).avg_bytes_per_peer()
        };
        let (flat, skewed) = (cost(0.0), cost(2.0));
        assert!(skewed < flat, "skewed {skewed} !< flat {flat}");
    }
}
