//! Item partitioning by hashing — §III-B.1.
//!
//! *"Each of the `n` items is mapped to one of the `g` item groups through
//! a hashing function `h(x): A → B` … To further reduce the number of
//! false positives, we apply multiple (`f`) filters. Each filter is defined
//! by a hash function `h(x)_i`."*
//!
//! The family is seeded: every peer derives the same `f` functions from the
//! query's `hash_seed`, so partitioning needs no coordination — exactly the
//! property §III-B.1 wants ("a natural solution for item partitioning is
//! hashing").

use ifi_sim::mix64;
use ifi_workload::ItemId;

/// A family of `f` independent hash functions, each mapping items onto
/// `g` item groups.
///
/// The per-filter seeds are derived from `(seed, filter)` on use rather
/// than stored: the family is 16 plain bytes, so each of `N` protocol
/// peers can hold its own without a heap block apiece.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashFamily {
    seed: u64,
    filter_count: u32,
    group_count: u32,
}

impl HashFamily {
    /// Creates `filters` functions over `groups` item groups from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `filters == 0` or `groups == 0`.
    pub fn new(filters: u32, groups: u32, seed: u64) -> Self {
        assert!(filters > 0, "need at least one filter");
        assert!(groups > 0, "need at least one item group");
        HashFamily {
            seed,
            filter_count: filters,
            group_count: groups,
        }
    }

    /// `f` — the number of filters.
    pub(crate) fn filters(&self) -> u32 {
        self.filter_count
    }

    /// `g` — item groups per filter.
    pub(crate) fn groups(&self) -> u32 {
        self.group_count
    }

    /// `f·g` — the length of the group-aggregate vector.
    pub(crate) fn total_groups(&self) -> usize {
        self.filter_count as usize * self.group_count as usize
    }

    /// Filter `filter` on its own, with its seed derived once — what a loop
    /// over many items under one filter should hold.
    ///
    /// # Panics
    ///
    /// Panics if `filter ≥ f`.
    #[inline]
    pub(crate) fn filter(&self, filter: u32) -> FilterHash {
        assert!(filter < self.filter_count, "filter {filter} out of range");
        FilterHash {
            seed: mix64(self.seed ^ mix64(filter as u64 + 1)),
            groups: self.group_count as u64,
            base: filter as usize * self.group_count as usize,
        }
    }

    /// The group that `filter` assigns `item` to, in `0..g`.
    ///
    /// # Panics
    ///
    /// Panics if `filter ≥ f`.
    #[inline]
    pub(crate) fn group_of(&self, filter: u32, item: ItemId) -> u32 {
        self.filter(filter).group_of(item)
    }

    /// The flat slot index of `(filter, group)` in the `f·g` aggregate
    /// vector: `filter · g + group`.
    #[inline]
    pub(crate) fn slot(&self, filter: u32, group: u32) -> usize {
        debug_assert!(group < self.group_count);
        filter as usize * self.group_count as usize + group as usize
    }

    /// All `f` flat slots of an item, one per filter.
    pub(crate) fn slots_of(&self, item: ItemId) -> impl Iterator<Item = usize> + '_ {
        (0..self.filters()).map(move |i| self.filter(i).slot_of(item))
    }
}

/// One hash function of a [`HashFamily`]: items onto the `g` groups of
/// its filter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FilterHash {
    seed: u64,
    groups: u64,
    /// Flat slot of this filter's group 0.
    base: usize,
}

impl FilterHash {
    /// The group this filter assigns `item` to, in `0..g`.
    #[inline]
    pub(crate) fn group_of(&self, item: ItemId) -> u32 {
        (mix64(item.0 ^ self.seed) % self.groups) as u32
    }

    /// The flat slot of `item`'s group in the `f·g` aggregate vector.
    #[inline]
    pub(crate) fn slot_of(&self, item: ItemId) -> usize {
        self.base + self.group_of(item) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = HashFamily::new(4, 100, 42);
        let b = HashFamily::new(4, 100, 42);
        for i in 0..1000u64 {
            for f in 0..4 {
                assert_eq!(a.group_of(f, ItemId(i)), b.group_of(f, ItemId(i)));
            }
        }
    }

    #[test]
    fn different_filters_partition_differently() {
        let fam = HashFamily::new(2, 50, 7);
        let disagreements = (0..1000u64)
            .filter(|&i| fam.group_of(0, ItemId(i)) != fam.group_of(1, ItemId(i)))
            .count();
        // Two independent functions over 50 groups agree w.p. ~1/50.
        assert!(disagreements > 900, "only {disagreements} disagreements");
    }

    #[test]
    fn groups_are_in_range_and_roughly_uniform() {
        let fam = HashFamily::new(1, 20, 99);
        let mut counts = [0u32; 20];
        let n = 20_000u64;
        for i in 0..n {
            let grp = fam.group_of(0, ItemId(i));
            assert!(grp < 20);
            counts[grp as usize] += 1;
        }
        let expect = n as f64 / 20.0;
        for (grp, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 0.15 * expect,
                "group {grp}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn slot_layout_is_filter_major() {
        let fam = HashFamily::new(3, 10, 1);
        assert_eq!(fam.slot(0, 0), 0);
        assert_eq!(fam.slot(0, 9), 9);
        assert_eq!(fam.slot(1, 0), 10);
        assert_eq!(fam.slot(2, 7), 27);
        let slots: Vec<usize> = fam.slots_of(ItemId(5)).collect();
        assert_eq!(slots.len(), 3);
        for (f, &s) in slots.iter().enumerate() {
            assert!(s >= f * 10 && s < (f + 1) * 10);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = HashFamily::new(1, 1000, 1);
        let b = HashFamily::new(1, 1000, 2);
        let same = (0..500u64)
            .filter(|&i| a.group_of(0, ItemId(i)) == b.group_of(0, ItemId(i)))
            .count();
        assert!(same < 25, "{same} collisions across seeds");
    }

    #[test]
    fn single_group_maps_everything_to_zero() {
        let fam = HashFamily::new(2, 1, 3);
        assert_eq!(fam.group_of(0, ItemId(123)), 0);
        assert_eq!(fam.group_of(1, ItemId(456)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one filter")]
    fn zero_filters_panics() {
        let _ = HashFamily::new(0, 10, 1);
    }
}
