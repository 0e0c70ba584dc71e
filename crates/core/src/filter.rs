//! Candidate filtering and candidate materialization — §III-B, §III-C.

use std::ops::Deref;
use std::sync::Arc;

use ifi_agg::{MapSum, VecSum};
use ifi_workload::ItemId;

use crate::hashing::{FilterHash, HashFamily};

/// Per-peer filtering logic: computing the local item-group aggregate
/// vector and, later, the peer's partial candidate set.
///
/// §III-B.1: *"Each peer obtains the local values for the item groups as
/// follows. It assigns each of its local items to one of the `g` item
/// groups and increases the local value of the corresponding item group
/// accordingly."*
#[derive(Debug, Clone)]
pub struct LocalFilter {
    family: HashFamily,
}

impl LocalFilter {
    /// Creates the local filter logic over the shared hash family.
    pub fn new(family: HashFamily) -> Self {
        LocalFilter { family }
    }

    /// The shared hash family.
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// The peer's local contribution to the `f·g` group-aggregate vector —
    /// `f` updates per local item, held as a run of them while that is
    /// smaller than the `f·g` array (see [`VecSum`]).
    pub fn group_vector(&self, local_items: &[(ItemId, u64)]) -> VecSum {
        let mut v = VecSum::zeros(self.family.total_groups());
        self.add_group_vector(&mut v, local_items);
        v
    }

    /// Adds the peer's [`group_vector`](Self::group_vector) into `acc`, an
    /// `f·g` vector, without building it first.
    pub fn add_group_vector(&self, acc: &mut VecSum, local_items: &[(ItemId, u64)]) {
        // Filter by filter, so each filter's seed is derived once.
        let rows = (0..self.family.filters()).map(|i| {
            let hash = self.family.filter(i);
            move |&(item, value): &(ItemId, u64)| (hash.slot_of(item), value)
        });
        acc.add_rows(local_items, rows);
    }

    /// §III-C: given the heavy groups, materializes the peer's **partial
    /// candidate set** — the local items all of whose `f` groups are heavy
    /// — with their local values.
    pub fn partial_candidates(&self, local_items: &[(ItemId, u64)], heavy: &HeavyGroups) -> MapSum {
        debug_assert_eq!(self.family.groups(), heavy.0.groups);
        // An item meets all `f` bitmaps before it meets the heap, so a
        // peer holding no candidate allocates nothing. Filter by filter
        // over 64 items at a time, the survivors held as a bit mask (and
        // narrowed without a branch per item): each filter's seed is
        // derived once per block, filter 0's once per call, a later one's
        // only while the block has a survivor for it to look at.
        let bitmap = &heavy.0.bitmap[..];
        let sift = move |hash: FilterHash, block: &[(ItemId, u64)], mut mask: u64| {
            let mut alive = 0u64;
            while mask != 0 {
                let j = mask.trailing_zeros();
                mask &= mask - 1;
                alive |= u64::from(bitmap[hash.slot_of(block[j as usize].0)]) << j;
            }
            alive
        };
        let first = self.family.filter(0);
        let candidates = local_items.chunks(64).flat_map(move |block| {
            let mut alive = sift(first, block, u64::MAX >> (64 - block.len()));
            for i in 1..self.family.filters() {
                if alive == 0 {
                    break;
                }
                alive = sift(self.family.filter(i), block, alive);
            }
            std::iter::from_fn(move || {
                let next = (alive != 0).then(|| block[alive.trailing_zeros() as usize]);
                alive &= alive.wrapping_sub(1);
                next
            })
        });
        MapSum::from_pairs(candidates)
    }
}

/// The sorted per-filter heavy lists with their membership bitmap.
#[derive(Debug, PartialEq, Eq)]
struct HeavyIndex {
    /// `per_filter[i]` = sorted heavy group ids of filter `i`.
    per_filter: Vec<Vec<u32>>,
    /// Dense membership bitmaps for `O(1)` candidate checks.
    bitmap: Vec<bool>,
    groups: u32,
}

/// The set of heavy item groups per filter, as determined at the root after
/// candidate filtering (aggregate ≥ `t`).
///
/// A cheap-to-clone handle on one immutable value: the root builds it,
/// the dissemination messages carry the handle ([`HeavyLists`]), and under
/// an in-memory driver every peer of a run reads the same lists and the
/// same bitmap instead of copying and re-indexing them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyGroups(Arc<HeavyIndex>);

impl HeavyGroups {
    /// Scans the aggregated `f·g` vector and marks every group with
    /// aggregate ≥ `threshold` as heavy.
    ///
    /// # Panics
    ///
    /// Panics if the vector length is not `f·g` for the given family.
    pub fn from_aggregate(family: &HashFamily, aggregate: &VecSum, threshold: u64) -> Self {
        let g = family.groups();
        assert_eq!(
            aggregate.len(),
            family.total_groups(),
            "aggregate vector has wrong dimension"
        );
        let aggregate = aggregate.to_dense();
        let bitmap: Vec<bool> = aggregate.iter().map(|&v| v >= threshold).collect();
        let per_filter = bitmap
            .chunks(g as usize)
            .map(|row| (0..g).filter(|&grp| row[grp as usize]).collect())
            .collect();
        HeavyGroups(Arc::new(HeavyIndex {
            per_filter,
            bitmap,
            groups: g,
        }))
    }

    /// Indexes `lists` over `groups` groups per filter (sorting and
    /// deduplicating them), or hands back the handle they already are.
    /// `Err` names the first group id that is out of range.
    fn index(lists: HeavyLists, groups: u32) -> Result<Self, u32> {
        let mut sorted = match lists.0 {
            Lists::Indexed(heavy) if heavy.0.groups == groups => return Ok(heavy),
            Lists::Indexed(heavy) => heavy.0.per_filter.clone(),
            Lists::Bare(lists) => lists,
        };
        let mut bitmap = vec![false; sorted.len() * groups as usize];
        for (i, list) in sorted.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            for &grp in list.iter() {
                if grp >= groups {
                    return Err(grp);
                }
                bitmap[i * groups as usize + grp as usize] = true;
            }
        }
        Ok(HeavyGroups(Arc::new(HeavyIndex {
            per_filter: sorted,
            bitmap,
            groups,
        })))
    }

    /// Rebuilds from explicit per-filter heavy lists (what the
    /// dissemination message carries).
    ///
    /// # Panics
    ///
    /// Panics if any group id is out of range.
    pub fn from_lists(per_filter: impl Into<HeavyLists>, groups: u32) -> Self {
        Self::index(per_filter.into(), groups)
            .unwrap_or_else(|grp| panic!("group id {grp} out of range"))
    }

    /// [`from_lists`](Self::from_lists) for lists a peer *received*:
    /// `None` unless there is exactly one list per filter of `family` and
    /// every group id is below its `g` — the two conditions
    /// [`is_candidate`](Self::is_candidate) relies on.
    pub fn for_family(family: &HashFamily, lists: HeavyLists) -> Option<Self> {
        if lists.len() != family.filters() as usize {
            return None;
        }
        Self::index(lists, family.groups()).ok()
    }

    /// `f` — number of filters covered.
    pub fn filters(&self) -> u32 {
        self.0.per_filter.len() as u32
    }

    /// The sorted heavy group ids of filter `i` (`w_i` entries).
    pub fn heavy_of(&self, filter: u32) -> &[u32] {
        &self.0.per_filter[filter as usize]
    }

    /// Total heavy-group count across filters, `Σ_i w_i` — what the
    /// dissemination message pays `s_g` bytes per entry for.
    pub fn total_heavy(&self) -> usize {
        self.0.per_filter.iter().map(Vec::len).sum()
    }

    /// §III-B.2: an item is a candidate iff **each** of the `f` item groups
    /// it belongs to is heavy.
    #[inline]
    pub fn is_candidate(&self, family: &HashFamily, item: ItemId) -> bool {
        debug_assert_eq!(family.groups(), self.0.groups);
        family.slots_of(item).all(|slot| self.0.bitmap[slot])
    }

    /// The per-filter lists, for serialization.
    pub fn lists(&self) -> &[Vec<u32>] {
        &self.0.per_filter
    }
}

/// The per-filter heavy-group lists as a dissemination message carries
/// them: bare lists (decoded off a wire, or spelled out by a caller), or
/// the sender's [`HeavyGroups`] handle, which an in-memory driver delivers
/// as is — one value per run, not one copy per hop. Dereferences to the
/// lists either way; equality is by the lists.
#[derive(Debug, Clone)]
pub struct HeavyLists(Lists);

#[derive(Debug, Clone)]
enum Lists {
    Bare(Vec<Vec<u32>>),
    Indexed(HeavyGroups),
}

impl Deref for HeavyLists {
    type Target = [Vec<u32>];

    fn deref(&self) -> &[Vec<u32>] {
        match &self.0 {
            Lists::Bare(lists) => lists,
            Lists::Indexed(heavy) => heavy.lists(),
        }
    }
}

impl PartialEq for HeavyLists {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for HeavyLists {}

impl From<Vec<Vec<u32>>> for HeavyLists {
    fn from(lists: Vec<Vec<u32>>) -> Self {
        HeavyLists(Lists::Bare(lists))
    }
}

impl From<HeavyGroups> for HeavyLists {
    fn from(heavy: HeavyGroups) -> Self {
        HeavyLists(Lists::Indexed(heavy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family() -> HashFamily {
        HashFamily::new(3, 10, 77)
    }

    #[test]
    fn group_vector_accumulates_values_per_filter() {
        let lf = LocalFilter::new(family());
        let items = vec![(ItemId(1), 5), (ItemId(2), 3)];
        let v = lf.group_vector(&items);
        assert_eq!(v.len(), 30);
        let v = v.to_dense();
        // Each filter's 10 slots sum to the local mass (every item counted
        // once per filter).
        for f in 0..3usize {
            let sum: u64 = v[f * 10..(f + 1) * 10].iter().sum();
            assert_eq!(sum, 8, "filter {f}");
        }
    }

    #[test]
    fn heavy_groups_from_aggregate_threshold() {
        let fam = family();
        let mut agg = VecSum::zeros(30);
        agg.add(fam.slot(0, 3), 10);
        agg.add(fam.slot(0, 4), 9);
        agg.add(fam.slot(2, 7), 25);
        let heavy = HeavyGroups::from_aggregate(&fam, &agg, 10);
        assert_eq!(heavy.heavy_of(0), &[3]);
        assert_eq!(heavy.heavy_of(1), &[] as &[u32]);
        assert_eq!(heavy.heavy_of(2), &[7]);
        assert_eq!(heavy.total_heavy(), 2);
    }

    #[test]
    fn candidate_requires_all_filters_heavy() {
        let fam = family();
        let item = ItemId(42);
        // Make exactly the item's own groups heavy → candidate.
        let lists: Vec<Vec<u32>> = (0..3).map(|i| vec![fam.group_of(i, item)]).collect();
        let heavy = HeavyGroups::from_lists(lists.clone(), 10);
        assert!(heavy.is_candidate(&fam, item));

        // Remove one filter's heavy group → no longer a candidate.
        let mut partial = lists;
        partial[1].clear();
        let heavy = HeavyGroups::from_lists(partial, 10);
        assert!(!heavy.is_candidate(&fam, item));
    }

    #[test]
    fn partial_candidates_filters_local_items() {
        let fam = family();
        let lf = LocalFilter::new(fam.clone());
        let keep = ItemId(5);
        let drop = ItemId(6);
        let lists: Vec<Vec<u32>> = (0..3).map(|i| vec![fam.group_of(i, keep)]).collect();
        let heavy = HeavyGroups::from_lists(lists, 10);
        // `drop` survives only if it collides with `keep` in all 3 filters
        // — astronomically unlikely here; assert it does not.
        assert!(!heavy.is_candidate(&fam, drop));
        let partial = lf.partial_candidates(&[(keep, 4), (drop, 100)], &heavy);
        assert_eq!(partial.len(), 1);
        assert_eq!(partial.value(keep), 4);
    }

    #[test]
    fn from_lists_round_trips_through_lists() {
        let lists = vec![vec![1, 5, 9], vec![], vec![0]];
        let heavy = HeavyGroups::from_lists(lists.clone(), 10);
        assert_eq!(heavy.lists(), &lists[..]);
        assert_eq!(heavy.filters(), 3);
    }

    #[test]
    fn from_lists_sorts_and_dedups() {
        let heavy = HeavyGroups::from_lists(vec![vec![5, 1, 5]], 10);
        assert_eq!(heavy.heavy_of(0), &[1, 5]);
        assert_eq!(heavy.total_heavy(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_group_panics() {
        let _ = HeavyGroups::from_lists(vec![vec![10]], 10);
    }

    #[test]
    fn received_lists_are_checked_against_the_family() {
        let fam = family();
        let ok = vec![vec![1, 5], vec![], vec![9]];
        assert!(HeavyGroups::for_family(&fam, ok.clone().into()).is_some());
        // A group id ≥ g, and a list count other than f.
        let wide = vec![vec![1, 5], vec![], vec![10]];
        assert!(HeavyGroups::for_family(&fam, wide.into()).is_none());
        assert!(HeavyGroups::for_family(&fam, ok[..2].to_vec().into()).is_none());
    }

    #[test]
    fn a_forwarded_handle_is_the_same_value_not_a_copy() {
        let fam = family();
        let root = HeavyGroups::from_lists(vec![vec![5, 1], vec![], vec![9]], 10);
        let carried = HeavyLists::from(root.clone());
        assert_eq!(*carried, [vec![1, 5], vec![], vec![9]]);
        let received = HeavyGroups::for_family(&fam, carried.clone()).expect("well-formed");
        assert!(Arc::ptr_eq(&root.0, &received.0));
        // Re-indexed, not trusted, when the receiver's `g` differs.
        let narrower = HeavyGroups::from_lists(carried.clone(), 12);
        assert!(!Arc::ptr_eq(&root.0, &narrower.0));
        assert_eq!(narrower.lists(), root.lists());
        // Equality is by the lists, whatever carries them.
        assert_eq!(carried, HeavyLists::from(vec![vec![1, 5], vec![], vec![9]]));
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_dimension_panics() {
        let fam = family();
        let _ = HeavyGroups::from_aggregate(&fam, &VecSum::zeros(29), 1);
    }

    #[test]
    fn single_filter_single_group_everything_is_candidate_when_heavy() {
        let fam = HashFamily::new(1, 1, 3);
        let heavy = HeavyGroups::from_lists(vec![vec![0]], 1);
        for i in 0..100u64 {
            assert!(heavy.is_candidate(&fam, ItemId(i)));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            /// The partial candidate set is the candidates' tree sum,
            /// whatever order the local items come in, however often one
            /// repeats, zero values included — and empty when there are
            /// none.
            #[test]
            fn partial_candidates_are_the_folded_candidates(
                filters in 1u32..4,
                seed in any::<u64>(),
                heavy_share in 0u32..=10,
                // Up to three 64-item blocks, the last one partial.
                items in prop::collection::vec((0u64..60, 0u64..50), 0..150),
            ) {
                let fam = HashFamily::new(filters, 10, seed);
                let lists: Vec<Vec<u32>> = (0..filters)
                    .map(|i| (0..10).filter(|g| (g + i) % 10 < heavy_share).collect())
                    .collect();
                let heavy = HeavyGroups::from_lists(lists, 10);
                let items: Vec<(ItemId, u64)> =
                    items.into_iter().map(|(k, v)| (ItemId(k), v)).collect();

                let mut want: BTreeMap<ItemId, u64> = BTreeMap::new();
                for &(item, v) in items.iter().filter(|p| heavy.is_candidate(&fam, p.0)) {
                    *want.entry(item).or_insert(0) += v;
                }
                let got = LocalFilter::new(fam).partial_candidates(&items, &heavy);
                prop_assert_eq!(got, MapSum(want));
            }
        }
    }
}
