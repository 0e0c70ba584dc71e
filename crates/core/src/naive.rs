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
//! bound is asserted in this module's tests. A run is one epoch of the
//! one-pass [`ConvergecastProtocol`] under the DES.

use ifi_agg::{ConvergecastProtocol, Finish, MapSum, OnePass};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{MsgClass, SimConfig};
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
    pub threshold: u64,
}

/// What [`Frequent`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentAnswer {
    /// The frequent items with exact global values, descending by value
    /// (ties by ascending id).
    pub items: Vec<(ItemId, u64)>,
    /// Number of distinct items that reached the root.
    pub distinct: usize,
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

/// Result of a naive-approach run.
#[derive(Debug, Clone)]
pub struct NaiveRun {
    frequent: Vec<(ItemId, u64)>,
    threshold: u64,
    bytes_per_peer: Vec<u64>,
    distinct_items: usize,
}

impl NaiveRun {
    /// The frequent items with exact global values, descending by value
    /// (ties by ascending id) — same contract as netFilter's result.
    pub fn frequent_items(&self) -> &[(ItemId, u64)] {
        &self.frequent
    }

    /// The resolved absolute threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Bytes each peer propagated upward.
    pub fn bytes_per_peer(&self) -> &[u64] {
        &self.bytes_per_peer
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_peer.iter().sum()
    }

    /// The paper's metric: average bytes per peer.
    pub fn avg_bytes_per_peer(&self) -> f64 {
        self.total_bytes() as f64 / self.bytes_per_peer.len().max(1) as f64
    }

    /// Number of distinct items whose global value reached the root.
    pub fn distinct_items(&self) -> usize {
        self.distinct_items
    }
}

/// Runs the naive approach over `hierarchy` and `data`: one epoch of
/// [`NaiveProtocol`] under the DES.
///
/// # Panics
///
/// Panics if `hierarchy` and `data` cover different peer universes.
pub fn run(
    hierarchy: &Hierarchy,
    data: &SystemData,
    threshold: Threshold,
    sizes: &WireSizes,
) -> NaiveRun {
    let config = NaiveConfig {
        threshold,
        sizes: *sizes,
    };
    let cores = NaiveProtocol::peers(&config, hierarchy, data, None);
    let (answer, bytes_per_peer) = NaiveProtocol::run(cores, SimConfig::default());
    NaiveRun {
        frequent: answer.items,
        threshold: threshold.resolve(data.total_value()),
        distinct_items: answer.distinct,
        bytes_per_peer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn naive_is_exact() {
        let data = workload(60, 1_000, 3);
        let h = Hierarchy::balanced(60, 3);
        let run = run(&h, &data, Threshold::Ratio(0.01), &WireSizes::default());
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(0.01);
        assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
        assert_eq!(run.distinct_items(), data.distinct_items());
    }

    #[test]
    fn cost_respects_paper_bounds_eq2() {
        // (sa+si)·o ≤ C_naive ≤ (sa+si)·o·(h−1).
        let data = workload(100, 5_000, 5);
        let h = Hierarchy::balanced(100, 3);
        let run = run(&h, &data, Threshold::Ratio(0.01), &WireSizes::default());
        let o = data.avg_distinct_per_peer();
        let pair = 8.0;
        let c = run.avg_bytes_per_peer();
        let lower = pair * o * 0.99; // slack: the root forwards nothing
        let upper = pair * o * (h.height() as f64 - 1.0);
        assert!(c >= lower, "C_naive = {c} below lower bound {lower}");
        assert!(c <= upper, "C_naive = {c} above upper bound {upper}");
    }

    #[test]
    fn leaves_pay_exactly_their_local_set() {
        let data = workload(13, 200, 7);
        let h = Hierarchy::balanced(13, 3);
        let run = run(&h, &data, Threshold::Ratio(0.01), &WireSizes::default());
        for p in h.leaves() {
            let expect = 8 * data.local_items(p).len() as u64;
            assert_eq!(run.bytes_per_peer()[p.index()], expect, "leaf {p}");
        }
        assert_eq!(run.bytes_per_peer()[0], 0, "root sends nothing");
    }

    #[test]
    fn skew_reduces_naive_cost() {
        // §V-C: "as the data skewness increases, the average number of
        // distinct items that a peer propagates … is reduced".
        let h = Hierarchy::balanced(100, 3);
        let flat = run(
            &h,
            &SystemData::generate(
                &WorkloadParams {
                    peers: 100,
                    items: 20_000,
                    instances_per_item: 10,
                    theta: 0.0,
                },
                9,
            ),
            Threshold::Ratio(0.01),
            &WireSizes::default(),
        );
        let skewed = run(
            &h,
            &SystemData::generate(
                &WorkloadParams {
                    peers: 100,
                    items: 20_000,
                    instances_per_item: 10,
                    theta: 2.0,
                },
                9,
            ),
            Threshold::Ratio(0.01),
            &WireSizes::default(),
        );
        assert!(
            skewed.avg_bytes_per_peer() < flat.avg_bytes_per_peer(),
            "skewed {} !< flat {}",
            skewed.avg_bytes_per_peer(),
            flat.avg_bytes_per_peer()
        );
    }
}
