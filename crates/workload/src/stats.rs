//! Ground truth: centrally computed global values and exact IFI answers.
//!
//! Everything netFilter computes in-network is verified against this
//! oracle, and the statistics the paper's analysis needs (`v̄`, `v̄_light`,
//! `r`, …) are derived from it.

use std::collections::HashMap;

use crate::generator::{ItemId, SystemData};

/// Global values of every item present in the system, plus derived
/// statistics used throughout §IV of the paper.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// `(item, global value)` sorted by descending value, then item id.
    globals: Vec<(ItemId, u64)>,
    /// The same pairs sorted by item id.
    by_item: Vec<(ItemId, u64)>,
    /// `v` — total mass.
    total: u64,
    /// `n` universe size carried over from the data set.
    universe: u64,
}

impl GroundTruth {
    /// Sums local values across all peers: every local pair, sorted by
    /// item and coalesced. No sum can wrap, since each is bounded by the
    /// data set's total value, which was checked when it was built.
    pub fn compute(data: &SystemData) -> Self {
        let mut by_item = data.pairs().to_vec();
        by_item.sort_unstable_by_key(|&(id, _)| id);
        by_item.dedup_by(|next, kept| {
            next.0 == kept.0 && {
                kept.1 += next.1;
                true
            }
        });
        by_item.shrink_to_fit();
        let mut globals = by_item.clone();
        globals.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        GroundTruth {
            globals,
            by_item,
            total: data.total_value(),
            universe: data.universe(),
        }
    }

    /// `v` — the summation over all local values of all items.
    pub fn total_value(&self) -> u64 {
        self.total
    }

    /// Number of items with positive global value.
    pub fn present_items(&self) -> usize {
        self.globals.len()
    }

    /// The global value `v_x` of `item` (0 if absent).
    pub fn value_of(&self, item: ItemId) -> u64 {
        self.by_item
            .binary_search_by_key(&item, |&(id, _)| id)
            .map_or(0, |i| self.by_item[i].1)
    }

    /// All `(item, global value)` pairs, descending by value.
    pub fn globals(&self) -> &[(ItemId, u64)] {
        &self.globals
    }

    /// The paper's threshold `t = φ·v` for a threshold ratio `φ`, rounded
    /// up so that `v_x ≥ t ⇔ v_x / v ≥ φ` for integer values.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `(0, 1]`.
    pub fn threshold_for_ratio(&self, ratio: f64) -> u64 {
        assert!(ratio > 0.0 && ratio <= 1.0, "threshold ratio out of (0,1]");
        (ratio * self.total as f64).ceil() as u64
    }

    /// The exact answer to `IFI(A, t)`: items with `v_x ≥ t`, with their
    /// exact global values, descending by value.
    pub fn frequent_items(&self, t: u64) -> Vec<(ItemId, u64)> {
        self.globals
            .iter()
            .take_while(|&&(_, v)| v >= t)
            .copied()
            .collect()
    }

    /// `r` — number of heavy items at threshold `t`.
    pub fn heavy_count(&self, t: u64) -> usize {
        self.globals.partition_point(|&(_, v)| v >= t)
    }

    /// `v̄` — average global value over the item universe (`v / n`), the
    /// definition the paper's Eq. 3 uses (`v = n·v̄`).
    pub fn avg_value(&self) -> f64 {
        if self.universe == 0 {
            0.0
        } else {
            self.total as f64 / self.universe as f64
        }
    }

    /// `v̄_light` — average global value of *light* items (those below `t`)
    /// over the light part of the universe, counting never-seen items as
    /// zero-valued light items.
    pub fn avg_light_value(&self, t: u64) -> f64 {
        let heavy = self.heavy_count(t);
        let light_universe = self.universe.saturating_sub(heavy as u64);
        if light_universe == 0 {
            return 0.0;
        }
        let heavy_mass: u64 = self.globals[..heavy].iter().map(|&(_, v)| v).sum();
        (self.total - heavy_mass) as f64 / light_universe as f64
    }

    /// Checks a candidate answer set for exactness: returns
    /// `(false positives, false negatives, value errors)` versus the truth.
    pub fn verify(&self, t: u64, reported: &[(ItemId, u64)]) -> (usize, usize, usize) {
        let truth = self.frequent_items(t);
        let truth_map: HashMap<ItemId, u64> = truth.iter().copied().collect();
        let mut fp = 0;
        let mut value_errors = 0;
        let mut seen = 0;
        for &(id, v) in reported {
            match truth_map.get(&id) {
                None => fp += 1,
                Some(&tv) => {
                    seen += 1;
                    if tv != v {
                        value_errors += 1;
                    }
                }
            }
        }
        let fn_count = truth.len() - seen;
        (fp, fn_count, value_errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadParams;

    fn toy() -> GroundTruth {
        // Peer 0: a=3, b=1; Peer 1: a=2, c=4.
        let data = SystemData::from_local_sets(
            vec![
                vec![(ItemId(0), 3), (ItemId(1), 1)],
                vec![(ItemId(0), 2), (ItemId(2), 4)],
            ],
            5,
        );
        GroundTruth::compute(&data)
    }

    #[test]
    fn sums_across_peers() {
        let g = toy();
        assert_eq!(g.value_of(ItemId(0)), 5);
        assert_eq!(g.value_of(ItemId(2)), 4);
        assert_eq!(g.value_of(ItemId(1)), 1);
        assert_eq!(g.value_of(ItemId(4)), 0);
        assert_eq!(g.total_value(), 10);
        assert_eq!(g.present_items(), 3);
    }

    #[test]
    fn frequent_items_respect_threshold() {
        let g = toy();
        assert_eq!(g.frequent_items(4), vec![(ItemId(0), 5), (ItemId(2), 4)]);
        assert_eq!(g.frequent_items(5), vec![(ItemId(0), 5)]);
        assert_eq!(g.frequent_items(6), vec![]);
        assert_eq!(g.heavy_count(4), 2);
    }

    #[test]
    fn threshold_for_ratio_rounds_up() {
        let g = toy(); // v = 10
        assert_eq!(g.threshold_for_ratio(0.25), 3); // ceil(2.5)
        assert_eq!(g.threshold_for_ratio(0.4), 4);
        assert_eq!(g.threshold_for_ratio(1.0), 10);
    }

    #[test]
    fn averages_use_universe_including_absent_items() {
        let g = toy(); // universe 5, total 10
        assert_eq!(g.avg_value(), 2.0);
        // t=4: heavy = {a:5, c:4}, mass 9; light universe = 3 (b + two
        // absent items), light mass 1.
        assert!((g.avg_light_value(4) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn verify_detects_all_error_kinds() {
        let g = toy();
        // Truth at t=4: {(0,5), (2,4)}.
        let perfect = vec![(ItemId(0), 5), (ItemId(2), 4)];
        assert_eq!(g.verify(4, &perfect), (0, 0, 0));
        let with_fp = vec![(ItemId(0), 5), (ItemId(2), 4), (ItemId(1), 1)];
        assert_eq!(g.verify(4, &with_fp), (1, 0, 0));
        let with_fn = vec![(ItemId(0), 5)];
        assert_eq!(g.verify(4, &with_fn), (0, 1, 0));
        let with_value_err = vec![(ItemId(0), 6), (ItemId(2), 4)];
        assert_eq!(g.verify(4, &with_value_err), (0, 0, 1));
    }

    #[test]
    fn globals_sorted_descending() {
        let params = WorkloadParams {
            peers: 10,
            items: 200,
            instances_per_item: 10,
            theta: 1.0,
        };
        let g = GroundTruth::compute(&SystemData::generate(&params, 7));
        assert!(g.globals().windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(g.total_value(), 2000);
    }

    #[test]
    fn zipf_heavy_count_shrinks_with_threshold() {
        let params = WorkloadParams {
            peers: 20,
            items: 1000,
            instances_per_item: 10,
            theta: 1.0,
        };
        let g = GroundTruth::compute(&SystemData::generate(&params, 8));
        let t1 = g.threshold_for_ratio(0.001);
        let t2 = g.threshold_for_ratio(0.01);
        let t3 = g.threshold_for_ratio(0.1);
        assert!(g.heavy_count(t1) >= g.heavy_count(t2));
        assert!(g.heavy_count(t2) >= g.heavy_count(t3));
        assert!(g.heavy_count(t1) > 0);
    }

    #[test]
    #[should_panic(expected = "total value overflows")]
    fn a_global_value_past_u64_is_refused_before_it_is_summed() {
        // Item 0's global value would be 2^64: the data set refuses it, so
        // no sum `compute` takes can wrap.
        let data =
            SystemData::from_local_sets(vec![vec![(ItemId(0), u64::MAX)], vec![(ItemId(0), 1)]], 1);
        GroundTruth::compute(&data);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            /// Ids above the universe (composite scenario ids among them),
            /// an id repeated within and across peers, zero values and
            /// empty peers: `compute` agrees with a plain fold.
            #[test]
            fn compute_matches_a_naive_fold(
                local in prop::collection::vec(
                    prop::collection::vec(
                        ((0u64..24).prop_map(|k| if k < 20 { k } else { u64::MAX - k }), 0u64..5),
                        0..16,
                    ),
                    1..6,
                ),
                universe in 1u64..12,
            ) {
                let local: Vec<Vec<(ItemId, u64)>> = local
                    .into_iter()
                    .map(|items| items.into_iter().map(|(k, v)| (ItemId(k), v)).collect())
                    .collect();
                let mut naive: BTreeMap<ItemId, u64> = BTreeMap::new();
                for &(id, v) in local.iter().flatten().filter(|&&(_, v)| v > 0) {
                    *naive.entry(id).or_insert(0) += v;
                }
                let truth = GroundTruth::compute(&SystemData::from_local_sets(local, universe));

                let mut globals: Vec<(ItemId, u64)> = naive.iter().map(|(&id, &v)| (id, v)).collect();
                globals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                prop_assert_eq!(truth.globals(), &globals[..]);
                for id in (0..24).chain((u64::MAX - 5)..=u64::MAX).map(ItemId) {
                    prop_assert_eq!(truth.value_of(id), naive.get(&id).copied().unwrap_or(0));
                }
                prop_assert_eq!(truth.total_value(), naive.values().sum::<u64>());
                prop_assert_eq!(truth.present_items(), naive.len());
                prop_assert_eq!(truth.universe, universe);
            }
        }
    }
}
