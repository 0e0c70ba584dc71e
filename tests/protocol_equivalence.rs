//! The message-level protocol and the instant engine are the same
//! algorithm: identical answers and identical per-phase byte totals, under
//! any latency model — plus the algebraic properties (commutative,
//! associative merges) that make out-of-order convergecasts safe.

use ifi_agg::{Aggregate, MapSum, VecSum};
use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{DetRng, Duration, LatencyModel, MsgClass, PeerId, SimConfig};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::{NetFilter, NetFilterConfig, Threshold};
use proptest::prelude::*;

fn latency_for(kind: u8) -> LatencyModel {
    match kind % 3 {
        0 => LatencyModel::Constant(Duration::from_millis(50)),
        1 => LatencyModel::Uniform {
            lo: Duration::from_millis(1),
            hi: Duration::from_millis(400),
        },
        _ => LatencyModel::Exponential {
            mean: Duration::from_millis(80),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DES protocol ≡ instant engine, bytes included.
    #[test]
    fn protocol_equals_instant_engine(
        peers in 3usize..50,
        items in 20u64..400,
        g in 2u32..100,
        f in 1u32..5,
        latency_kind in 0u8..3,
        seed in 0u64..500,
    ) {
        let params = WorkloadParams { peers, items, instances_per_item: 10, theta: 1.0 };
        let data = SystemData::generate(&params, seed);
        let degree = 3.min(peers - 1).max(1);
        let topo = Topology::random_regular(peers, degree, &mut DetRng::new(seed));
        let h = Hierarchy::bfs(&topo, PeerId::new(seed as usize % peers));
        let cfg = NetFilterConfig::builder()
            .filter_size(g)
            .filters(f)
            .threshold(Threshold::Ratio(0.01))
            .build();

        let instant = NetFilter::new(cfg.clone()).run(&h, &data);

        let sim = SimConfig::default()
            .with_seed(seed ^ 0xD15C)
            .with_latency(latency_for(latency_kind));
        let mut w = NetFilterProtocol::build_world(&cfg, &h, &data, sim);
        w.start();
        w.run_to_quiescence();

        let root = h.root();
        prop_assert_eq!(
            w.peer(root).result().expect("root must finish"),
            instant.frequent_items()
        );
        let m = w.metrics();
        prop_assert_eq!(
            m.class_bytes(MsgClass::FILTERING),
            instant.cost().filtering.iter().sum::<u64>()
        );
        prop_assert_eq!(
            m.class_bytes(MsgClass::DISSEMINATION),
            instant.cost().dissemination.iter().sum::<u64>()
        );
        prop_assert_eq!(
            m.class_bytes(MsgClass::AGGREGATION),
            instant.cost().aggregation.iter().sum::<u64>()
        );
    }

    /// MapSum merge is commutative and associative — the property that
    /// makes child-report order irrelevant.
    #[test]
    fn map_sum_merge_is_commutative_associative(
        a in prop::collection::vec((0u64..50, 1u64..100), 0..20),
        b in prop::collection::vec((0u64..50, 1u64..100), 0..20),
        c in prop::collection::vec((0u64..50, 1u64..100), 0..20),
    ) {
        let mk = |v: &[(u64, u64)]| {
            MapSum::from_pairs(v.iter().map(|&(k, val)| (ItemId(k), val)))
        };
        let (ma, mb, mc) = (mk(&a), mk(&b), mk(&c));

        let mut ab = ma.clone();
        ab.merge(&mb);
        let mut ba = mb.clone();
        ba.merge(&ma);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&mc);
        let mut bc = mb.clone();
        bc.merge(&mc);
        let mut a_bc = ma.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    /// VecSum merge is commutative and associative.
    #[test]
    fn vec_sum_merge_is_commutative_associative(
        dims in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let mut rng = DetRng::new(seed);
        let mk = |rng: &mut DetRng| VecSum::from((0..dims).map(|_| rng.below(1000)).collect::<Vec<u64>>());
        let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    /// The DES answer is independent of the latency model (same seed data,
    /// different network conditions).
    #[test]
    fn answer_is_latency_invariant(
        peers in 3usize..30,
        seed in 0u64..200,
    ) {
        let params = WorkloadParams { peers, items: 100, instances_per_item: 10, theta: 1.0 };
        let data = SystemData::generate(&params, seed);
        let h = Hierarchy::balanced(peers, 2);
        let cfg = NetFilterConfig::builder().filter_size(20).filters(2).build();

        let mut results = Vec::new();
        for kind in 0u8..3 {
            let sim = SimConfig::default()
                .with_seed(seed)
                .with_latency(latency_for(kind));
            let mut w = NetFilterProtocol::build_world(&cfg, &h, &data, sim);
            w.start();
            w.run_to_quiescence();
            results.push(w.peer(h.root()).result().expect("finished").to_vec());
        }
        prop_assert_eq!(&results[0], &results[1]);
        prop_assert_eq!(&results[1], &results[2]);
    }
}

#[test]
fn convergecast_scalar_matches_over_every_topology_shape() {
    // ScalarSum aggregation agreement between instant and DES engines on
    // deliberately awkward shapes.
    use ifi_agg::{hierarchical, ConvergecastProtocol, ScalarSum, WireSizes};
    use ifi_sim::World;

    let shapes: Vec<Hierarchy> = vec![
        Hierarchy::balanced(1, 3),
        Hierarchy::balanced(2, 1),
        Hierarchy::balanced(50, 1),  // chain
        Hierarchy::balanced(50, 49), // star
        Hierarchy::bfs(&Topology::ring(20), PeerId::new(5)),
    ];
    for h in shapes {
        let n = h.universe();
        let instant = hierarchical::aggregate(&h, &WireSizes::default(), |p| {
            ScalarSum(p.index() as u64 + 1)
        });
        let peers: Vec<ConvergecastProtocol<ScalarSum>> = (0..n)
            .map(|i| {
                ConvergecastProtocol::new(
                    &h,
                    PeerId::new(i),
                    WireSizes::default(),
                    ScalarSum(i as u64 + 1),
                )
            })
            .collect();
        let mut w = World::new(SimConfig::default().with_seed(9), peers);
        w.start();
        w.run_to_quiescence();
        assert_eq!(
            w.peer(h.root()).result(),
            Some(&instant.root_value),
            "disagreement on {n}-peer shape"
        );
    }
}
