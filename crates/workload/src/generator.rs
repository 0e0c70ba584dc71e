//! Data-set generation: the paper's §V workload.

use ifi_sim::{DetRng, PeerId};

use crate::zipf::ZipfSampler;

/// Identifier of a data item (a song, keyword, flow destination, …).
///
/// The paper represents item identifiers as 4-byte integers on the wire
/// (`s_i = 4` bytes, Table III); we use `u64` in memory so scenario
/// generators can encode composite items (e.g. keyword *pairs*) without
/// collisions, and let the wire-size configuration decide encoded width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u64);

impl std::fmt::Display for ItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item{}", self.0)
    }
}

/// Parameters of the synthetic workload (Table III defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// `N` — number of peers.
    pub peers: usize,
    /// `n` — number of distinct items in the universe.
    pub items: u64,
    /// Instances generated per distinct item (paper: `10·n` total).
    pub instances_per_item: u64,
    /// `θ` — Zipf skew of item frequencies.
    pub theta: f64,
}

impl Default for WorkloadParams {
    /// The paper's defaults: `N = 1000`, `n = 10^5`, `10·n` instances,
    /// `θ = 1`.
    fn default() -> Self {
        WorkloadParams {
            peers: 1000,
            items: 100_000,
            instances_per_item: 10,
            theta: 1.0,
        }
    }
}

/// The distributed data set: each peer's local item set `A_i` with local
/// values `v_i^x`.
///
/// §V: *"We generate `10·n` instances of these items with their frequencies
/// (global values) following zipf-distribution. We then randomly distribute
/// these `10·n` items to the `N` nodes."*
#[derive(Debug, Clone)]
pub struct SystemData {
    /// Every peer's sorted `(item, local value)` pairs with positive
    /// values, peer after peer in one array: a peer with few items costs
    /// its pairs and one offset, not a heap block of its own.
    pairs: Vec<(ItemId, u64)>,
    /// `ends[p]` = one past peer `p`'s last pair in `pairs`.
    ends: Vec<usize>,
    /// `v` — the sum of every local value, checked once at construction.
    total: u64,
    /// `n` — size of the item universe (≥ number of items actually drawn).
    universe: u64,
}

/// `items · instances_per_item`, the number of instances a generator
/// places; checks the parameters the generators share.
fn instances(params: &WorkloadParams) -> u64 {
    assert!(params.peers > 0, "need at least one peer");
    assert!(params.items > 0, "need at least one item");
    params
        .items
        .checked_mul(params.instances_per_item)
        .expect("items · instances_per_item overflows u64")
}

/// Counting-sort placement into the flat layout: built from every copy's
/// holder, it hands each peer its slots in order, so a peer's slice keeps
/// the order its copies were put in.
struct Placement<T> {
    slots: Vec<T>,
    /// `next[p]` = peer `p`'s next free slot; after the last copy, one
    /// past its last slot — the `ends` layout.
    next: Vec<usize>,
}

impl<T: Copy> Placement<T> {
    /// Slots for every holder `holders` yields, each filled with `blank`.
    fn new(peers: usize, holders: impl Iterator<Item = usize>, blank: T) -> Self {
        let mut next = vec![0usize; peers];
        for p in holders {
            next[p] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = start;
            start += count;
        }
        Placement {
            slots: vec![blank; start],
            next,
        }
    }

    fn put(&mut self, peer: usize, copy: T) {
        let slot = &mut self.next[peer];
        self.slots[*slot] = copy;
        *slot += 1;
    }
}

impl SystemData {
    /// Generates the paper's workload deterministically from `seed`.
    ///
    /// Each of the `instances_per_item · items` instances draws its item
    /// from `Zipf(θ)` over the universe and its holder uniformly over the
    /// peers; a peer's local value for an item is its instance count.
    ///
    /// # Panics
    ///
    /// Panics if `peers == 0`, `items == 0` or the instance count
    /// overflows `u64`.
    pub fn generate(params: &WorkloadParams, seed: u64) -> Self {
        let total = instances(params);
        let mut rng = DetRng::new(seed).derive(0x317E);
        let zipf = ZipfSampler::new(params.items as usize, params.theta);
        let peers = params.peers as u64;

        // Count each peer's instances on a replay of the stream that
        // skips the item draws (`ZipfSampler::sample` takes one
        // `unit_f64`), then place them in draw order.
        let mut replay = rng.clone();
        let holders = (0..total).map(|_| {
            replay.unit_f64();
            replay.below(peers) as usize
        });
        let mut place = Placement::new(params.peers, holders, 0);
        for _ in 0..total {
            let item = zipf.sample(&mut rng) as u64;
            place.put(rng.below(peers) as usize, item);
        }
        // Sort each peer's item ids and count them run by run.
        let Placement {
            slots: mut ids,
            next: mut ends,
        } = place;
        let mut pairs = Vec::with_capacity(ids.len());
        let mut start = 0;
        for end in &mut ends {
            let items = &mut ids[start..*end];
            items.sort_unstable();
            let runs = items.chunk_by(|a, b| a == b);
            pairs.extend(runs.map(|run| (ItemId(run[0]), run.len() as u64)));
            (start, *end) = (*end, pairs.len());
        }
        drop(ids);
        SystemData::from_sorted(pairs, ends, params.items)
    }

    /// Generates the workload with the paper's **replica-split** placement
    /// (the reading of §V that keeps "the number of items on each peer is
    /// `10·n/N`" true): every item's *global value* follows the Zipf
    /// apportionment of `instances_per_item · items` total mass (floored at
    /// 1 so all `n` items exist), and that value is split over up to
    /// `instances_per_item` equal-share instances placed at uniformly
    /// random peers.
    ///
    /// Compared with [`SystemData::generate`] (which draws each instance's
    /// item identity from the Zipf distribution), this keeps per-peer
    /// distinct counts — and hence the naive baseline's cost — from
    /// collapsing at high skew, matching the paper's Figure 7/8 setup.
    /// DESIGN.md discusses the two placements.
    ///
    /// # Panics
    ///
    /// Panics if `peers == 0`, `items == 0` or the instance count
    /// overflows `u64`.
    pub fn generate_paper(params: &WorkloadParams, seed: u64) -> Self {
        let total = instances(params);
        let mut rng = DetRng::new(seed).derive(0x9A_9E12);
        let zipf = ZipfSampler::new(params.items as usize, params.theta);
        let values = zipf.apportion(total);
        let peers = params.peers as u64;
        // Every item exists somewhere: its value is at least 1, split
        // over at most `instances_per_item` copies.
        let copies_of = |apportioned: u64| apportioned.max(1).min(params.instances_per_item).max(1);

        // Count each peer's copies on a replay of the holder draws, then
        // place them item by item: every slice arrives sorted.
        let mut replay = rng.clone();
        let holders = values
            .iter()
            .flat_map(|&v| 0..copies_of(v))
            .map(|_| replay.below(peers) as usize);
        let mut place = Placement::new(params.peers, holders, (ItemId(0), 0));
        for (k, &apportioned) in values.iter().enumerate() {
            let value = apportioned.max(1);
            let copies = copies_of(apportioned);
            let (base, remainder) = (value / copies, value % copies);
            for c in 0..copies {
                let share = base + u64::from(c < remainder);
                place.put(rng.below(peers) as usize, (ItemId(k as u64), share));
            }
        }
        SystemData::from_sorted(place.slots, place.next, params.items)
    }

    /// Wraps explicit per-peer local item sets (scenario generators use
    /// this). Each peer's list is sorted and coalesced; zero values are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if a local value or the total value overflows `u64`.
    pub fn from_local_sets(local: Vec<Vec<(ItemId, u64)>>, universe: u64) -> Self {
        let mut pairs = Vec::with_capacity(local.iter().map(Vec::len).sum());
        let mut ends = Vec::with_capacity(local.len());
        for mut items in local {
            items.sort_unstable_by_key(|&(id, _)| id);
            pairs.extend(items);
            ends.push(pairs.len());
        }
        SystemData::from_sorted(pairs, ends, universe)
    }

    /// Coalesces the flat array in place, every peer's slice sorted by item
    /// already: neighbours for one item summed, zero values dropped.
    fn from_sorted(mut pairs: Vec<(ItemId, u64)>, mut ends: Vec<usize>, universe: u64) -> Self {
        let (mut kept, mut start, mut total) = (0, 0, 0u64);
        for end in &mut ends {
            let first = kept;
            for i in start..*end {
                let (id, v) = pairs[i];
                if v == 0 {
                    continue;
                }
                match pairs[first..kept].last_mut() {
                    Some((last, acc)) if *last == id => {
                        *acc = acc.checked_add(v).expect("local value overflows u64");
                    }
                    _ => {
                        pairs[kept] = (id, v);
                        kept += 1;
                    }
                }
                total = total.checked_add(v).expect("total value overflows u64");
            }
            (start, *end) = (*end, kept);
        }
        pairs.truncate(kept);
        pairs.shrink_to_fit();
        SystemData {
            pairs,
            ends,
            total,
            universe,
        }
    }

    /// `N` — number of peers.
    pub fn peer_count(&self) -> usize {
        self.ends.len()
    }

    /// `n` — size of the item universe.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Peer `p`'s local item set, sorted by item id, values all positive.
    pub fn local_items(&self, p: PeerId) -> &[(ItemId, u64)] {
        let p = p.index();
        let start = p.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.pairs[start..self.ends[p]]
    }

    /// Peer `p`'s local value for `item` (0 if absent) — `v_i^x`.
    pub fn local_value(&self, p: PeerId, item: ItemId) -> u64 {
        let items = self.local_items(p);
        items
            .binary_search_by_key(&item, |&(id, _)| id)
            .map(|i| items[i].1)
            .unwrap_or(0)
    }

    /// `v` — the summation over all local values of all items (§IV).
    pub fn total_value(&self) -> u64 {
        self.total
    }

    /// Every peer's pairs, peer after peer.
    pub(crate) fn pairs(&self) -> &[(ItemId, u64)] {
        &self.pairs
    }

    /// `o` — average number of distinct items per peer.
    pub fn avg_distinct_per_peer(&self) -> f64 {
        if self.ends.is_empty() {
            return 0.0;
        }
        self.pairs.len() as f64 / self.ends.len() as f64
    }

    /// Number of distinct items present anywhere in the system.
    pub fn distinct_items(&self) -> usize {
        let mut ids: Vec<ItemId> = self.pairs.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorkloadParams {
        WorkloadParams {
            peers: 20,
            items: 500,
            instances_per_item: 10,
            theta: 1.0,
        }
    }

    #[test]
    fn conserves_total_mass() {
        let data = SystemData::generate(&small(), 1);
        assert_eq!(data.total_value(), 500 * 10);
    }

    #[test]
    fn per_peer_load_is_roughly_uniform() {
        let data = SystemData::generate(&small(), 2);
        let per_peer_mass: Vec<u64> = (0..20)
            .map(|i| {
                data.local_items(PeerId::new(i))
                    .iter()
                    .map(|&(_, v)| v)
                    .sum()
            })
            .collect();
        let expect = 5000 / 20;
        for (i, &m) in per_peer_mass.iter().enumerate() {
            assert!(
                (m as i64 - expect as i64).unsigned_abs() < 150,
                "peer {i} holds {m}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn local_sets_are_sorted_positive() {
        let data = SystemData::generate(&small(), 3);
        for i in 0..20 {
            let items = data.local_items(PeerId::new(i));
            assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(items.iter().all(|&(_, v)| v > 0));
        }
    }

    #[test]
    fn paper_o_parameter_matches() {
        // Table III: N=1000, n=1e5 → o ≈ 1000 (slightly below because
        // popular items collide within a peer).
        let params = WorkloadParams {
            peers: 100,
            items: 10_000,
            instances_per_item: 10,
            theta: 1.0,
        };
        let data = SystemData::generate(&params, 4);
        let o = data.avg_distinct_per_peer();
        let ideal = (10_000.0 * 10.0) / 100.0;
        // The paper quotes o = 10n/N exactly; in reality popular Zipf items
        // collide within a peer, so realized o sits below the ideal.
        assert!(o > 0.25 * ideal && o <= ideal, "o = {o}, ideal {ideal}");
    }

    #[test]
    fn skew_concentrates_mass_on_top_items() {
        let skewed = SystemData::generate(
            &WorkloadParams {
                theta: 2.0,
                ..small()
            },
            5,
        );
        // Item 0 (rank 1) should hold a large share of all 5000 units.
        let item0: u64 = (0..20)
            .map(|i| skewed.local_value(PeerId::new(i), ItemId(0)))
            .sum();
        assert!(item0 > 2500, "rank-1 item holds only {item0}");
    }

    #[test]
    fn local_value_lookup() {
        let data = SystemData::from_local_sets(
            vec![vec![(ItemId(5), 2), (ItemId(1), 3)], vec![(ItemId(5), 7)]],
            10,
        );
        assert_eq!(data.local_value(PeerId::new(0), ItemId(1)), 3);
        assert_eq!(data.local_value(PeerId::new(0), ItemId(5)), 2);
        assert_eq!(data.local_value(PeerId::new(0), ItemId(9)), 0);
        assert_eq!(data.local_value(PeerId::new(1), ItemId(5)), 7);
        assert_eq!(data.distinct_items(), 2);
    }

    #[test]
    fn from_local_sets_coalesces_and_drops_zeros() {
        let data = SystemData::from_local_sets(
            vec![vec![(ItemId(3), 1), (ItemId(3), 4), (ItemId(2), 0)]],
            5,
        );
        assert_eq!(data.local_items(PeerId::new(0)), &[(ItemId(3), 5)]);
    }

    #[test]
    fn paper_placement_keeps_all_items_present() {
        for &theta in &[0.0, 1.0, 3.0, 5.0] {
            let data = SystemData::generate_paper(&WorkloadParams { theta, ..small() }, 6);
            assert_eq!(
                data.distinct_items(),
                500,
                "θ = {theta}: every item must exist somewhere"
            );
            // Total mass ≥ the nominal 10·n (the floor can only add).
            assert!(data.total_value() >= 5_000);
        }
    }

    #[test]
    fn paper_placement_per_peer_distinct_does_not_collapse_at_high_skew() {
        let params = WorkloadParams {
            peers: 50,
            items: 5_000,
            instances_per_item: 10,
            theta: 5.0,
        };
        let replica = SystemData::generate_paper(&params, 8);
        let draw = SystemData::generate(&params, 8);
        // Replica split keeps o ≥ n/N; instance draw collapses to a handful.
        assert!(replica.avg_distinct_per_peer() >= 5_000.0 / 50.0 * 0.8);
        assert!(draw.avg_distinct_per_peer() < 20.0);
    }

    #[test]
    fn paper_placement_values_are_zipf_ordered() {
        let data = SystemData::generate_paper(&small(), 9);
        let global = |item: u64| -> u64 {
            (0..20)
                .map(|i| data.local_value(PeerId::new(i), ItemId(item)))
                .sum()
        };
        assert!(global(0) >= global(10));
        assert!(global(10) >= global(400));
    }

    #[test]
    fn paper_placement_splits_items_across_at_most_ten_peers() {
        let data = SystemData::generate_paper(&small(), 10);
        for item in 0..500u64 {
            let holders = (0..20)
                .filter(|&i| data.local_value(PeerId::new(i), ItemId(item)) > 0)
                .count();
            assert!(
                (1..=10).contains(&holders),
                "item {item}: {holders} holders"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SystemData::generate(&small(), 9);
        let b = SystemData::generate(&small(), 9);
        for i in 0..20 {
            assert_eq!(a.local_items(PeerId::new(i)), b.local_items(PeerId::new(i)));
        }
        let c = SystemData::generate(&small(), 10);
        let differs =
            (0..20).any(|i| a.local_items(PeerId::new(i)) != c.local_items(PeerId::new(i)));
        assert!(differs, "different seeds produced identical data");
    }

    #[test]
    #[should_panic(expected = "instances_per_item overflows")]
    fn generate_rejects_an_instance_count_past_u64() {
        let params = WorkloadParams {
            items: u64::MAX / 2,
            instances_per_item: 3,
            ..small()
        };
        SystemData::generate(&params, 1);
    }

    #[test]
    #[should_panic(expected = "instances_per_item overflows")]
    fn generate_paper_rejects_an_instance_count_past_u64() {
        let params = WorkloadParams {
            items: 1 << 33,
            instances_per_item: 1 << 31,
            ..small()
        };
        SystemData::generate_paper(&params, 1);
    }

    #[test]
    #[should_panic(expected = "local value overflows")]
    fn coalescing_a_local_value_past_u64_panics() {
        SystemData::from_local_sets(vec![vec![(ItemId(1), u64::MAX), (ItemId(1), 1)]], 2);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One `Vec` per peer, sorted, coalesced, zeros dropped — the
        /// layout the flat array replaced.
        fn nested(local: &[Vec<(ItemId, u64)>]) -> Vec<Vec<(ItemId, u64)>> {
            let coalesce = |items: &Vec<(ItemId, u64)>| {
                let mut items = items.clone();
                items.sort_by_key(|&(id, _)| id);
                let mut out: Vec<(ItemId, u64)> = Vec::new();
                for (id, v) in items.into_iter().filter(|&(_, v)| v != 0) {
                    match out.last_mut() {
                        Some((last, acc)) if *last == id => *acc += v,
                        _ => out.push((id, v)),
                    }
                }
                out
            };
            local.iter().map(coalesce).collect()
        }

        proptest! {
            /// Peer boundaries are unobservable: zero values, repeated
            /// items, empty peers and a lone peer all read as they do
            /// from one `Vec` per peer.
            #[test]
            fn flat_storage_matches_the_nested_model(
                local in prop::collection::vec(
                    prop::collection::vec((0u64..8, 0u64..4), 0..12),
                    1..6,
                ),
            ) {
                let local: Vec<Vec<(ItemId, u64)>> = local
                    .into_iter()
                    .map(|items| items.into_iter().map(|(k, v)| (ItemId(k), v)).collect())
                    .collect();
                let model = nested(&local);
                let data = SystemData::from_local_sets(local, 8);

                prop_assert_eq!(data.peer_count(), model.len());
                for (p, want) in model.iter().enumerate() {
                    let p = PeerId::new(p);
                    prop_assert_eq!(data.local_items(p), &want[..]);
                    for item in (0..9).map(ItemId) {
                        let held = want.iter().find(|&&(id, _)| id == item);
                        prop_assert_eq!(data.local_value(p, item), held.map_or(0, |h| h.1));
                    }
                }
                let all = || model.iter().flatten();
                prop_assert_eq!(data.total_value(), all().map(|&(_, v)| v).sum::<u64>());
                let distinct: std::collections::BTreeSet<ItemId> =
                    all().map(|&(id, _)| id).collect();
                prop_assert_eq!(data.distinct_items(), distinct.len());
                let o = all().count() as f64 / model.len() as f64;
                prop_assert_eq!(data.avg_distinct_per_peer(), o);
            }
        }
    }
}
