//! Property tests for the extension modules: sliding-window IFI and exact
//! top-k, checked against brute-force oracles on random inputs.

use ifi_agg::Aggregate;
use ifi_hierarchy::Hierarchy;
use ifi_workload::{GroundTruth, ItemId, SystemData, WorkloadParams};
use netfilter::sketch::SpaceSaving;
use netfilter::windowed::SlidingWindow;
use netfilter::{topk, NetFilterConfig, Threshold};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sliding window's totals equal a brute-force sum over the last
    /// `buckets` slices, for any record/advance interleaving.
    #[test]
    fn window_equals_bruteforce(
        buckets in 1usize..6,
        ops in prop::collection::vec(
            // (advance?, item, value)
            (prop::bool::weighted(0.2), 0u64..10, 1u64..50),
            1..120,
        ),
    ) {
        let mut w = SlidingWindow::new(buckets);
        // Oracle: a list of slices, the live window being the last
        // `buckets` of them.
        let mut slices: Vec<std::collections::BTreeMap<u64, u64>> =
            vec![Default::default()];
        for (advance, item, value) in ops {
            if advance {
                // The retired run is the oracle's slice that just left the
                // window (nothing while the window is still filling).
                slices.push(Default::default());
                let retired: Vec<(ItemId, u64)> = slices
                    .len()
                    .checked_sub(buckets + 1)
                    .into_iter()
                    .flat_map(|i| &slices[i])
                    .map(|(&k, &v)| (ItemId(k), v))
                    .collect();
                prop_assert_eq!(w.advance(), retired);
            } else {
                w.record(ItemId(item), value);
                *slices.last_mut().unwrap().entry(item).or_insert(0) += value;
            }
        }
        let live = &slices[slices.len().saturating_sub(buckets)..];
        for item in 0..10u64 {
            let expect: u64 = live.iter().filter_map(|s| s.get(&item)).sum();
            prop_assert_eq!(w.value(ItemId(item)), expect, "item {}", item);
        }
        prop_assert_eq!(w.tracked_items(), w.local_items().len());
        // local_items agrees with per-item values and omits zeros.
        for (id, v) in w.local_items() {
            prop_assert!(v > 0);
            prop_assert_eq!(w.value(id), v);
        }
    }

    /// Exact top-k equals the oracle prefix for random workloads and k.
    #[test]
    fn top_k_equals_oracle(
        peers in 2usize..30,
        items in 10u64..300,
        theta in 0.0f64..2.0,
        k in 1usize..40,
        seed in 0u64..300,
    ) {
        let data = SystemData::generate(
            &WorkloadParams { peers, items, instances_per_item: 8, theta },
            seed,
        );
        let h = Hierarchy::balanced(peers, 3);
        let truth = GroundTruth::compute(&data);
        let run = topk::top_k(&h, &data, k, &topk::TopKConfig::lossless(k));
        let expect: Vec<(ItemId, u64)> = truth.globals().iter().copied().take(k).collect();
        prop_assert!(run.certified, "lossless runs always certify");
        prop_assert_eq!(run.items, expect);
    }

    /// Space-Saving merge is exactly commutative: the deficit-form merge is
    /// a pointwise sum plus a deterministic prune, so operand order cannot
    /// matter at all.
    #[test]
    fn sketch_merge_is_commutative(
        capacity in 1usize..12,
        xs in prop::collection::vec((0u64..40, 1u64..100), 0..60),
        ys in prop::collection::vec((0u64..40, 1u64..100), 0..60),
    ) {
        let to_items = |v: &[(u64, u64)]| -> Vec<(ItemId, u64)> {
            v.iter().map(|&(i, w)| (ItemId(i), w)).collect()
        };
        let a = SpaceSaving::from_items(capacity, &to_items(&xs));
        let b = SpaceSaving::from_items(capacity, &to_items(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// Space-Saving merge is associative up to ε: either association keeps
    /// the full weight, stays below the true count, and the two estimates
    /// never diverge by more than the summary's own error bound.
    #[test]
    fn sketch_merge_is_associative_up_to_epsilon(
        capacity in 1usize..12,
        xs in prop::collection::vec((0u64..40, 1u64..100), 0..50),
        ys in prop::collection::vec((0u64..40, 1u64..100), 0..50),
        zs in prop::collection::vec((0u64..40, 1u64..100), 0..50),
    ) {
        let to_items = |v: &[(u64, u64)]| -> Vec<(ItemId, u64)> {
            v.iter().map(|&(i, w)| (ItemId(i), w)).collect()
        };
        let mut exact: std::collections::BTreeMap<u64, u64> = Default::default();
        for &(i, w) in xs.iter().chain(&ys).chain(&zs) {
            *exact.entry(i).or_insert(0) += w;
        }
        let a = SpaceSaving::from_items(capacity, &to_items(&xs));
        let b = SpaceSaving::from_items(capacity, &to_items(&ys));
        let c = SpaceSaving::from_items(capacity, &to_items(&zs));
        // left = (a ⊕ b) ⊕ c, right = a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right = b.clone();
        right.merge(&c);
        let mut ra = a.clone();
        ra.merge(&right);
        let right = ra;
        prop_assert_eq!(left.weight(), right.weight());
        let bound = left.error_bound();
        for item in 0..40u64 {
            let t = exact.get(&item).copied().unwrap_or(0);
            for s in [&left, &right] {
                let e = s.estimate(ItemId(item));
                prop_assert!(e <= t, "estimates never overshoot the truth");
                prop_assert!(t - e <= bound, "deficit beyond ε·V");
            }
            let (el, er) = (left.estimate(ItemId(item)), right.estimate(ItemId(item)));
            prop_assert!(el.abs_diff(er) <= bound, "associations diverge past ε·V");
        }
    }

    /// A certified top-k answer never drops a true top-k item, at any
    /// prune capacity: certification is only claimed when the bounds prove
    /// the candidate slate complete.
    #[test]
    fn certified_topk_never_drops_a_true_item(
        peers in 2usize..25,
        items in 5u64..120,
        theta in 0.0f64..2.0,
        k in 1usize..12,
        extra_cap in 0usize..40,
        seed in 0u64..300,
    ) {
        let data = SystemData::generate(
            &WorkloadParams { peers, items, instances_per_item: 6, theta },
            seed,
        );
        let h = Hierarchy::balanced(peers, 3);
        let truth = GroundTruth::compute(&data);
        let cfg = topk::TopKConfig::new(k).with_prune_cap(k + extra_cap);
        let run = topk::top_k(&h, &data, k, &cfg);
        // Returned values are always exact, certified or not.
        for &(item, v) in &run.items {
            prop_assert_eq!(v, truth.value_of(item));
        }
        if run.certified {
            let expect: Vec<(ItemId, u64)> =
                truth.globals().iter().copied().take(k).collect();
            prop_assert_eq!(run.items, expect, "certified answer missed a true top-k item");
        }
    }
}

#[test]
fn search_driven_popularity_feeds_ifi() {
    // Table I row 4, mechanistically: searches generate the workload, IFI
    // finds the de-facto content servers exactly.
    use ifi_overlay::Topology;
    use ifi_sim::DetRng;
    use ifi_workload::scenarios;
    use netfilter::NetFilter;

    let topo = Topology::random_regular(100, 4, &mut DetRng::new(21));
    let data = scenarios::popular_peers_by_search(&topo, 500, 10, 60, 1.3, 22);
    let truth = GroundTruth::compute(&data);
    let t = truth.threshold_for_ratio(0.02);
    let h = Hierarchy::balanced(100, 3);
    let run = NetFilter::new(
        NetFilterConfig::builder()
            .filter_size(30)
            .filters(3)
            .threshold(Threshold::Ratio(0.02))
            .build(),
    )
    .run(&h, &data);
    assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
    // The flagged "popular peers" are actual peer ids.
    for &(peer_item, _) in run.frequent_items() {
        assert!(peer_item.0 < 100);
    }
}
