//! Dense, allocation-light containers keyed by [`PeerId`].
//!
//! At `N = 10^5` peers, tree-based maps (`BTreeMap<PeerId, _>`) and hashed
//! maps (`HashMap<PeerId, _>`) pay per-node allocations and pointer chases
//! on every hot-path touch (heartbeat bookkeeping, dedup windows, child
//! tables). Per-peer *neighbor-keyed* state is small — a handful of
//! entries, bounded by the overlay degree — so the right layout is a flat
//! sorted vector: O(log d) binary-search lookups in one cache line, O(d)
//! inserts that are a short `memmove`, and iteration in ascending
//! [`PeerId`] order, which is exactly the order `BTreeMap` iteration gave,
//! keeping every refactored call site behavior-identical.
//!
//! Universe-sized tables stay `Vec`-indexed by `PeerId::index` (see
//! `Hierarchy` and the kernel's `up`/`incarnation` vectors); these types
//! cover the *sparse, small* per-peer maps where a dense `Vec<Option<_>>`
//! would cost O(N) per peer — O(N²) overall.
//!
//! [`PeerMap`] tracks a **high-water mark** of its occupancy, which
//! the perf benches surface through report counters so state-layout bloat
//! trips the baseline gate like any op-count drift.

use crate::id::PeerId;

/// A map from [`PeerId`] to `V` backed by a sorted vector.
///
/// Iteration order is ascending peer id. Lookups are binary search;
/// inserts and removals shift the tail (fine for the neighbor-degree-sized
/// populations this is meant for).
#[derive(Debug, Clone, Default)]
pub struct PeerMap<V> {
    entries: Vec<(PeerId, V)>,
    high_water: usize,
}

impl<V> PeerMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PeerMap {
            entries: Vec::new(),
            high_water: 0,
        }
    }

    fn pos(&self, peer: PeerId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&peer, |&(p, _)| p)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most entries this map has ever held.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Removes every entry (the high-water mark is retained).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The value for `peer`, if present.
    pub fn get(&self, peer: PeerId) -> Option<&V> {
        self.pos(peer).ok().map(|i| &self.entries[i].1)
    }

    /// Inserts or replaces the value for `peer`; returns the old value.
    pub fn insert(&mut self, peer: PeerId, value: V) -> Option<V> {
        match self.pos(peer) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (peer, value));
                self.high_water = self.high_water.max(self.entries.len());
                None
            }
        }
    }

    /// Removes and returns the value for `peer`.
    pub fn remove(&mut self, peer: PeerId) -> Option<V> {
        match self.pos(peer) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The value for `peer`, inserting a default first if absent.
    pub(crate) fn entry_or_default(&mut self, peer: PeerId) -> &mut V
    where
        V: Default,
    {
        let i = match self.pos(peer) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (peer, V::default()));
                self.high_water = self.high_water.max(self.entries.len());
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Keeps only the entries for which `f` returns `true`.
    pub fn retain(&mut self, mut f: impl FnMut(PeerId, &mut V) -> bool) {
        self.entries.retain_mut(|(p, v)| f(*p, v));
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.entries.iter().map(|&(p, _)| p)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<V> FromIterator<(PeerId, V)> for PeerMap<V> {
    fn from_iter<I: IntoIterator<Item = (PeerId, V)>>(iter: I) -> Self {
        let mut m = PeerMap::new();
        m.extend(iter);
        m
    }
}

impl<V> Extend<(PeerId, V)> for PeerMap<V> {
    fn extend<I: IntoIterator<Item = (PeerId, V)>>(&mut self, iter: I) {
        for (p, v) in iter {
            self.insert(p, v);
        }
    }
}

/// A set of [`PeerId`]s backed by a sorted vector; ascending iteration.
#[derive(Debug, Clone, Default)]
pub struct PeerSet {
    members: Vec<PeerId>,
}

impl PeerSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PeerSet {
            members: Vec::new(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.members.clear();
    }

    /// Whether `peer` is a member.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.members.binary_search(&peer).is_ok()
    }

    /// Adds `peer`; returns `true` if it was not already a member.
    pub fn insert(&mut self, peer: PeerId) -> bool {
        match self.members.binary_search(&peer) {
            Ok(_) => false,
            Err(i) => {
                self.members.insert(i, peer);
                true
            }
        }
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.members.iter().copied()
    }
}

impl FromIterator<PeerId> for PeerSet {
    fn from_iter<I: IntoIterator<Item = PeerId>>(iter: I) -> Self {
        let mut s = PeerSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<PeerId> for PeerSet {
    fn extend<I: IntoIterator<Item = PeerId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PeerId {
        PeerId::new(i)
    }

    #[test]
    fn map_insert_get_remove_round_trip() {
        let mut m: PeerMap<u32> = PeerMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(p(3), 30), None);
        assert_eq!(m.insert(p(1), 10), None);
        assert_eq!(m.insert(p(3), 31), Some(30), "replace returns the old");
        assert_eq!(m.get(p(3)), Some(&31));
        assert_eq!(m.get(p(2)), None);
        assert_eq!(m.remove(p(1)), Some(10));
        assert_eq!(m.remove(p(1)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn map_iterates_in_ascending_peer_order() {
        let mut m: PeerMap<&str> = PeerMap::new();
        for i in [5usize, 0, 9, 2] {
            m.insert(p(i), "x");
        }
        let keys: Vec<usize> = m.keys().map(|k| k.index()).collect();
        assert_eq!(keys, vec![0, 2, 5, 9], "BTreeMap-compatible order");
    }

    #[test]
    fn map_entry_or_default_and_mutation() {
        let mut m: PeerMap<Vec<u8>> = PeerMap::new();
        m.entry_or_default(p(4)).push(1);
        m.entry_or_default(p(4)).push(2);
        assert_eq!(m.get(p(4)), Some(&vec![1, 2]));
        for v in m.values_mut() {
            v.push(7);
        }
        assert_eq!(m.values().next(), Some(&vec![1, 2, 7]));
    }

    #[test]
    fn map_retain_keeps_matching_entries_in_order() {
        let mut m: PeerMap<u32> = (0..6).map(|i| (p(i), i as u32)).collect();
        m.retain(|peer, v| {
            *v += 1;
            peer.index() % 2 == 0
        });
        let got: Vec<(usize, u32)> = m
            .keys()
            .map(|k| k.index())
            .zip(m.values().copied())
            .collect();
        assert_eq!(got, vec![(0, 1), (2, 3), (4, 5)]);
    }

    #[test]
    fn map_high_water_survives_clear_and_removals() {
        let mut m: PeerMap<u8> = PeerMap::new();
        for i in 0..5 {
            m.insert(p(i), 0);
        }
        m.remove(p(0));
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.high_water(), 5, "peak occupancy is sticky");
        m.insert(p(9), 1);
        assert_eq!(m.high_water(), 5);
    }

    #[test]
    fn set_insert_and_contains() {
        let mut s = PeerSet::new();
        assert!(s.insert(p(7)));
        assert!(!s.insert(p(7)), "duplicate insert reports false");
        assert!(s.insert(p(2)));
        assert!(s.contains(p(2)) && s.contains(p(7)));
        assert!(!s.contains(p(3)));
        let got: Vec<usize> = s.iter().map(|q| q.index()).collect();
        assert_eq!(got, vec![2, 7], "ascending iteration");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_collects_distinct_members() {
        let mut s: PeerSet = [p(3), p(1), p(3), p(8)].into_iter().collect();
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty());
    }
}
