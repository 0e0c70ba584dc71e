//! Property tests for netFilter's central guarantee (§I): the reported set
//! has **no false positives, no false negatives, and exact global values**
//! — for any workload, any topology, and any (g, f, φ) configuration.

use ifi_hierarchy::{Hierarchy, MultiHierarchy};
use ifi_overlay::Topology;
use ifi_sim::{sansio_world, DetRng, Duration, PeerId, SimConfig, SimTime};
use ifi_workload::{scenarios, GroundTruth, ItemId, SystemData, WorkloadParams};
use netfilter::continuous::ContinuousConfig;
use netfilter::engines::{
    reference_family, ContinuousEngine, Engine, ErrorClaim, ExactEngine, NaiveEngine,
    ThresholdEngine,
};
use netfilter::local_threshold::LocalThresholdConfig;
use netfilter::naive::NaiveConfig;
use netfilter::resilient::{Certificate, ResilientConfig, ResilientProtocol};
use netfilter::{NetFilter, NetFilterConfig, Threshold, WireSizes};
use proptest::prelude::*;

/// Builds a hierarchy of the requested shape over `peers` peers.
fn hierarchy_for(shape: u8, peers: usize, seed: u64) -> Hierarchy {
    match shape % 4 {
        0 => Hierarchy::balanced(peers, 3),
        1 => Hierarchy::balanced(peers, 1), // degenerate chain
        2 => {
            let topo = Topology::random_regular(
                peers.max(2),
                3.min(peers - 1).max(1),
                &mut DetRng::new(seed),
            );
            Hierarchy::bfs(&topo, PeerId::new(seed as usize % peers))
        }
        _ => {
            let topo = Topology::star(peers);
            Hierarchy::bfs(&topo, PeerId::new(0))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// netFilter == brute-force oracle for arbitrary configurations.
    #[test]
    fn netfilter_is_always_exact(
        peers in 2usize..40,
        items in 10u64..400,
        instances in 1u64..15,
        theta in 0.0f64..2.5,
        g in 1u32..150,
        f in 1u32..6,
        phi in prop::sample::select(vec![0.001, 0.005, 0.01, 0.05, 0.1, 0.3]),
        shape in 0u8..4,
        paper_placement in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let params = WorkloadParams { peers, items, instances_per_item: instances, theta };
        let data = if paper_placement {
            SystemData::generate_paper(&params, seed)
        } else {
            SystemData::generate(&params, seed)
        };
        let h = hierarchy_for(shape, peers, seed);
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(phi);

        let run = NetFilter::new(
            NetFilterConfig::builder()
                .filter_size(g)
                .filters(f)
                .threshold(Threshold::Ratio(phi))
                .hash_seed(seed ^ 0xF00D)
                .build(),
        )
        .run(&h, &data);

        prop_assert_eq!(run.threshold(), t);
        prop_assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
        let (fp, fn_, verr) = truth.verify(t, run.frequent_items());
        prop_assert_eq!((fp, fn_, verr), (0, 0, 0));
    }

    /// The naive baseline is exact too (it had better be — it ships
    /// everything), and always agrees with netFilter.
    #[test]
    fn naive_and_netfilter_agree(
        peers in 2usize..30,
        items in 10u64..300,
        theta in 0.0f64..2.0,
        phi in prop::sample::select(vec![0.005, 0.01, 0.1]),
        seed in 0u64..1_000,
    ) {
        let params = WorkloadParams { peers, items, instances_per_item: 10, theta };
        let data = SystemData::generate_paper(&params, seed);
        let h = Hierarchy::balanced(peers, 3);

        let nf = NetFilter::new(
            NetFilterConfig::builder()
                .threshold(Threshold::Ratio(phi))
                .build(),
        )
        .run(&h, &data);
        let config = NaiveConfig { threshold: Threshold::Ratio(phi), sizes: WireSizes::default() };
        let nv = NaiveEngine { config }.run_des(&h, &data, SimConfig::default());
        prop_assert_eq!(nf.frequent_items(), &nv.items[..]);
    }

    /// Candidate counts always bound the result: every heavy item is a
    /// candidate (no false negatives can even enter verification).
    #[test]
    fn candidate_set_superset_invariant(
        peers in 2usize..25,
        items in 20u64..300,
        g in 1u32..80,
        f in 1u32..5,
        seed in 0u64..500,
    ) {
        let params = WorkloadParams { peers, items, instances_per_item: 8, theta: 1.0 };
        let data = SystemData::generate(&params, seed);
        let h = Hierarchy::balanced(peers, 2);
        let run = NetFilter::new(
            NetFilterConfig::builder().filter_size(g).filters(f).build(),
        )
        .run(&h, &data);
        let c = run.counts();
        prop_assert!(c.candidates_at_root >= c.heavy_items);
        prop_assert_eq!(c.heavy_items + c.false_positives(), c.candidates_at_root);
        prop_assert_eq!(c.heavy_items, run.frequent_items().len());
    }
}

#[test]
fn every_table_i_scenario_reduces_to_exact_ifi() {
    // One pass over each Table I application generator.
    let cases: Vec<(&str, SystemData, f64)> = vec![
        (
            "keywords",
            scenarios::keyword_queries(40, 2_000, 60, 3, 1.0, 1),
            0.01,
        ),
        (
            "pairs",
            scenarios::cooccurring_pairs(30, 200, 40, 3, 1.0, 2),
            0.01,
        ),
        (
            "documents",
            scenarios::document_replicas(40, 1_000, 8_000, 1.0, 3),
            0.01,
        ),
        ("peers", scenarios::popular_peers(40, 150, 1.0, 4), 0.05),
        (
            "contacted-pairs",
            scenarios::contacted_pairs(40, 200, 1.3, 7),
            0.01,
        ),
        (
            "flows",
            scenarios::flow_traffic(40, 3_000, 2_000, 3, 5_000, 1.2, 5),
            0.01,
        ),
        (
            "sequences",
            scenarios::byte_sequences(40, 5_000, 100, 0.7, 6),
            0.05,
        ),
    ];
    for (name, data, phi) in cases {
        let peers = data.peer_count();
        let h = Hierarchy::balanced(peers, 3);
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(phi);
        let run = NetFilter::new(
            NetFilterConfig::builder()
                .filter_size(60)
                .filters(3)
                .threshold(Threshold::Ratio(phi))
                .build(),
        )
        .run(&h, &data);
        assert_eq!(
            run.frequent_items(),
            &truth.frequent_items(t)[..],
            "scenario {name} not exact"
        );
    }
}

/// `reference_family` with every engine that takes a threshold asking for
/// the absolute threshold `t` instead of its reference ratio.
fn family_at(t: u64, item: ItemId) -> Vec<Box<dyn Engine>> {
    let t = Threshold::Absolute(t);
    reference_family(item)
        .into_iter()
        .map(|engine| -> Box<dyn Engine> {
            match engine.name() {
                "netfilter-exact" => Box::new(ExactEngine {
                    config: NetFilterConfig::builder()
                        .filter_size(50)
                        .filters(3)
                        .threshold(t)
                        .build(),
                }),
                "naive" => Box::new(NaiveEngine {
                    config: NaiveConfig {
                        threshold: t,
                        sizes: WireSizes::default(),
                    },
                }),
                "threshold-local" => Box::new(ThresholdEngine {
                    config: LocalThresholdConfig::new(t),
                    item,
                }),
                _ => engine,
            }
        })
        .collect()
}

/// Every engine of the family, the continuous and the resilient one
/// included, on the corner inputs: none may panic, and the exact engines
/// must equal the ground truth.
#[test]
fn degenerate_workloads() {
    let one =
        |item, value| SystemData::from_local_sets(vec![vec![(ItemId(item), value)]], item + 1);
    // The last field is whether the continuous engine certifies: it
    // carries each epoch's delta per item as an `i64`, so one past
    // `i64::MAX` is refused and the run answers nothing, uncertified.
    let corners = [
        ("one peer, one item", one(3, 7), true),
        (
            "two peers, one empty",
            SystemData::from_local_sets(vec![vec![(ItemId(1), 5)], vec![]], 4),
            true,
        ),
        (
            "every peer empty",
            SystemData::from_local_sets(vec![vec![], vec![]], 10),
            true,
        ),
        (
            "duplicate ids on one peer",
            SystemData::from_local_sets(
                vec![
                    vec![(ItemId(2), 3), (ItemId(0), 1), (ItemId(2), 4)],
                    vec![(ItemId(2), 1)],
                ],
                5,
            ),
            true,
        ),
        ("one item at i64::MAX", one(0, i64::MAX as u64), true),
        (
            "one item at i64::MAX + 1",
            one(0, i64::MAX as u64 + 1),
            false,
        ),
        ("one item at u64::MAX - 1", one(0, u64::MAX - 1), false),
    ];
    let continuous = ContinuousEngine {
        config: ContinuousConfig::new(3, 2),
        threshold: 1,
    };
    for (input, data, certifies) in &corners {
        let h = Hierarchy::balanced(data.peer_count(), 3);
        let truth = GroundTruth::compute(data);
        let want = truth.frequent_items(Threshold::Ratio(0.01).resolve(data.total_value()));
        let heavy = truth.globals().first().map_or(ItemId(0), |&(item, _)| item);
        for engine in &reference_family(heavy) {
            let out = engine.run_des(&h, data, SimConfig::default());
            if out.claim == ErrorClaim::Exact {
                assert_eq!(out.items, want, "{input}: {}", out.engine);
            }
        }
        let out = continuous.run_des(&h, data, SimConfig::default());
        let want = if *certifies {
            truth.frequent_items(1)
        } else {
            Vec::new()
        };
        assert_eq!(
            (out.items, out.certified),
            (want, *certifies),
            "{input}: continuous"
        );
    }

    // Duplicate ids on one peer are coalesced on input, so every engine
    // answers exactly as it does on the merged sets.
    let duplicated = &corners[3].1;
    let merged = SystemData::from_local_sets(
        vec![vec![(ItemId(0), 1), (ItemId(2), 7)], vec![(ItemId(2), 1)]],
        5,
    );
    let h = Hierarchy::balanced(2, 3);
    for engine in &reference_family(ItemId(2)) {
        let dup = engine.run_des(&h, duplicated, SimConfig::default());
        let one_each = engine.run_des(&h, &merged, SimConfig::default());
        assert_eq!(dup.items, one_each.items, "duplicate ids: {}", dup.engine);
        assert_eq!(
            dup.certified, one_each.certified,
            "duplicate ids: {}",
            dup.engine
        );
    }

    // The threshold exactly at the single value, and above it: the item,
    // then an empty answer from every engine that takes a threshold (a
    // local-threshold *yes* above the value would be a lie).
    let h = Hierarchy::balanced(1, 3);
    for (t, want) in [(7, vec![(ItemId(3), 7)]), (8, vec![])] {
        for engine in &family_at(t, ItemId(3)) {
            let out = engine.run_des(&h, &one(3, 7), SimConfig::default());
            if out.claim == ErrorClaim::Exact || (t > 7 && out.engine == "threshold-local") {
                assert_eq!(out.items, want, "t = {t}: {}", out.engine);
            }
        }
    }

    // The resilient engine on the small corners: its first epoch is exact
    // and certified complete.
    let rc = ResilientConfig {
        query_period: Duration::from_secs(4),
        epoch_timeout: Duration::from_secs(12),
        ..ResilientConfig::default()
    };
    for (input, data, _) in &corners[..3] {
        let n = data.peer_count();
        let topo = Topology::line(n);
        let mh = MultiHierarchy::with_roots(&topo, &[PeerId::new(0)]);
        let config = NetFilterConfig::builder()
            .filter_size(50)
            .filters(3)
            .build();
        let t = config.threshold.resolve(data.total_value());
        let want = GroundTruth::compute(data).frequent_items(t);
        let mut w = sansio_world(
            SimConfig::default(),
            ResilientProtocol::peers(&config, rc, &topo, &mh, data, None),
        );
        w.start();
        w.run_until(SimTime::from_micros(10_000_000));
        let done = w.peer(PeerId::new(0)).completed_epochs();
        assert!(!done.is_empty(), "{input}: resilient completed no epoch");
        for er in done {
            assert_eq!(er.answer, want, "{input}: resilient epoch {}", er.epoch);
            assert_eq!(
                er.certificate,
                Certificate::Complete,
                "{input}: resilient epoch {}",
                er.epoch
            );
        }
    }
}
