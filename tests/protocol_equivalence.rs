//! The message-level engines are held to two references: ground truth for
//! their answer, and — per peer and per phase, bytes included — an instant
//! reference walk that evaluates the same convergecasts and the
//! dissemination by post-order walks over the hierarchy, under any latency
//! model. Plus the algebraic properties (commutative, associative merges)
//! that make out-of-order convergecasts safe.

use ifi_agg::{Aggregate, Collect, ConvergecastProtocol, MapSum, ScalarSum, VecSum, WireSizes};
use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{
    sansio_world, Des, DetRng, Duration, FaultPlan, LatencyModel, MsgClass, PeerId, RelConfig,
    ReliableMsg, SimConfig, SimTime, World,
};
use ifi_workload::{GroundTruth, ItemId, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::sketch::SpaceSaving;
use netfilter::{
    CostBreakdown, HashFamily, HeavyGroups, LocalFilter, NetFilter, NetFilterConfig, Threshold,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

/// The instant reference convergecast: a post-order walk over `h` that
/// merges every member's `local` value into its parent's and charges each
/// non-root member the encoded size of the merged value it forwards.
/// Returns the root's value and the bytes per peer.
fn walk<A: Aggregate>(
    h: &Hierarchy,
    sizes: &WireSizes,
    mut local: impl FnMut(PeerId) -> A,
) -> (A, Vec<u64>) {
    let mut bytes = vec![0u64; h.universe()];
    let mut acc: Vec<Option<A>> = (0..h.universe()).map(|_| None).collect();
    for p in h.post_order() {
        let mut value = local(p);
        for &c in h.children(p) {
            let child = acc[c.index()].take();
            value.merge_owned(child.expect("post-order visits children first"));
        }
        if p != h.root() {
            bytes[p.index()] = value.encoded_bytes(sizes);
        }
        acc[p.index()] = Some(value);
    }
    let root = acc[h.root().index()].take();
    (root.expect("the root is visited last"), bytes)
}

/// The instant reference: Algorithm 1 + 2 by two post-order walks. Each
/// member charges the encoded size of the group vector and of the partial
/// candidate set it forwards, and one heavy-group list per child. Returns
/// the per-peer costs, the heavy groups summed over filters, and the
/// root's candidate map.
fn reference_walk(
    cfg: &NetFilterConfig,
    h: &Hierarchy,
    data: &SystemData,
) -> (CostBreakdown, usize, MapSum) {
    let sizes = cfg.sizes;
    let family = HashFamily::new(cfg.filters, cfg.filter_size, cfg.hash_seed);
    let filter = LocalFilter::new(family.clone());
    let threshold = cfg.threshold.resolve(data.total_value());
    let (groups, filtering) = walk(h, &sizes, |p| filter.group_vector(data.local_items(p)));
    let heavy = HeavyGroups::from_aggregate(&family, &groups, threshold);
    let list = sizes.sg * heavy.total_heavy() as u64;
    let dissemination = (0..h.universe())
        .map(|i| list * h.children(PeerId::new(i)).len() as u64)
        .collect();
    let (candidates, aggregation) = walk(h, &sizes, |p| {
        filter.partial_candidates(data.local_items(p), &heavy)
    });
    let cost = CostBreakdown {
        filtering,
        dissemination,
        aggregation,
    };
    (cost, heavy.total_heavy(), candidates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DES protocol ≡ ground truth and the instant reference walk, every
    /// peer's bytes in every phase included; the engine's counts are the
    /// walk's.
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
        let t = cfg.threshold.resolve(data.total_value());
        let truth = GroundTruth::compute(&data).frequent_items(t);
        let (cost, heavy_groups, candidates) = reference_walk(&cfg, &h, &data);

        let sim = SimConfig::default()
            .with_seed(seed ^ 0xD15C)
            .with_latency(latency_for(latency_kind));
        let mut w = NetFilterProtocol::build_world(&cfg, &h, &data, sim);
        w.start();
        w.run_to_quiescence();
        prop_assert_eq!(w.peer(h.root()).result().expect("root must finish"), &truth[..]);
        prop_assert_eq!(&CostBreakdown::from_metrics(w.metrics()), &cost);

        let run = NetFilter::new(cfg).run(&h, &data);
        prop_assert_eq!(run.frequent_items(), &truth[..]);
        prop_assert_eq!(run.cost(), &cost);
        prop_assert_eq!(run.counts().heavy_groups_total, heavy_groups);
        prop_assert_eq!(run.counts().candidates_at_root, candidates.len());
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

/// Runs one epoch of the library core over `h`, each peer opened with
/// `local(peer)`, to quiescence — after `meddle` had its way with the
/// world. Returns the root's value and the bytes charged to the
/// aggregation class.
fn converge<A: Aggregate>(
    h: &Hierarchy,
    sim: SimConfig,
    rel: Option<RelConfig>,
    local: impl Fn(PeerId) -> A,
    meddle: impl FnOnce(&mut World<Des<ConvergecastProtocol<A>>>),
) -> (Option<A>, u64) {
    let sizes = WireSizes::default();
    let cores = ConvergecastProtocol::cores(h, sizes, Collect, rel, local);
    let mut w = sansio_world(sim, cores);
    meddle(&mut w);
    w.start();
    w.run_to_quiescence();
    let bytes = w.metrics().class_bytes(MsgClass::AGGREGATION);
    (w.peer(h.root()).result().cloned(), bytes)
}

#[test]
fn convergecast_matches_instant_engine() {
    let topo = Topology::random_regular(80, 4, &mut DetRng::new(3));
    let h = Hierarchy::bfs(&topo, PeerId::new(0));
    let local = |p: PeerId| MapSum::from_pairs([(ItemId(p.index() as u64 % 7), p.index() as u64)]);
    let (root, per_peer) = walk(&h, &WireSizes::default(), local);
    let (root_value, bytes) = converge(&h, SimConfig::default().with_seed(5), None, local, |_| {});
    assert_eq!(root_value, Some(root));
    assert_eq!(bytes, per_peer.iter().sum(), "DES and instant bytes differ");
}

#[test]
fn convergecast_singleton_root_completes_immediately() {
    let h = Hierarchy::balanced(1, 3);
    let got = converge(&h, SimConfig::default(), None, |_| ScalarSum(42), |_| {});
    assert_eq!(got, (Some(ScalarSum(42)), 0));
}

#[test]
fn convergecast_scalar_matches_over_every_topology_shape() {
    // ScalarSum aggregation agreement between instant and DES engines on
    // deliberately awkward shapes.
    let shapes: Vec<Hierarchy> = vec![
        Hierarchy::balanced(1, 3),
        Hierarchy::balanced(2, 1),
        Hierarchy::balanced(50, 1),  // chain
        Hierarchy::balanced(50, 49), // star
        Hierarchy::bfs(&Topology::ring(20), PeerId::new(5)),
    ];
    for h in shapes {
        let local = |p: PeerId| ScalarSum(p.index() as u64 + 1);
        let (root, per_peer) = walk(&h, &WireSizes::default(), local);
        assert_eq!(
            converge(&h, SimConfig::default().with_seed(9), None, local, |_| {}),
            (Some(root), per_peer.iter().sum()),
            "disagreement on {}-peer shape",
            h.universe()
        );
    }
}

/// The instant walk ≡ the library core under everything a network can
/// do to it: arrivals shuffled by latency, frames dropped and duplicated,
/// a stranger's report, and a peer crashing and reviving mid-run.
fn core_survives_the_network<A: Aggregate + PartialEq>(
    parents: &[usize],
    seed: u64,
    local: impl Fn(PeerId) -> A + Copy,
) -> Result<(), TestCaseError> {
    // Peer i + 1 hangs under some peer ≤ i: every such vector is a tree.
    let parent = |(i, &r): (usize, &usize)| Some(PeerId::new(r % (i + 1)));
    let parents: Vec<_> = [None]
        .into_iter()
        .chain(parents.iter().enumerate().map(parent))
        .collect();
    let h = Hierarchy::from_parents(PeerId::new(0), &parents);
    let n = h.universe();
    let (root, per_peer) = walk(&h, &WireSizes::default(), local);

    let sim = SimConfig::default()
        .with_seed(seed)
        .with_latency(latency_for(1))
        .with_faults(FaultPlan::none().with_drop(0.1).with_duplication(0.2));
    let got = converge(&h, sim, Some(RelConfig::default()), local, |w| {
        // The last peer is nobody's parent, so its report is a stranger's
        // to everyone but its own.
        let (stranger, target) = (PeerId::new(n - 1), PeerId::new((seed / 7) as usize % n));
        if h.parent(stranger) != Some(target) {
            let frame = ReliableMsg::Plain(local(stranger));
            w.inject(stranger, target, frame, 0, MsgClass::DATA);
        }
        let victim = PeerId::new(seed as usize % n);
        if victim != h.root() {
            w.schedule_kill(SimTime::from_micros(100 + seed % 300_000), victim);
            w.schedule_revive(SimTime::from_micros(900_000), victim);
        }
    });
    prop_assert_eq!(got, (Some(root), per_peer.iter().sum()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn convergecast_block_equals_instant_engine_under_faults(
        parents in prop::collection::vec(0usize..1000, 0..40),
        seed in 0u64..10_000,
    ) {
        let idx = |p: PeerId| p.index() as u64;
        core_survives_the_network(&parents, seed, |p| ScalarSum(idx(p) + 1))?;
        core_survives_the_network(&parents, seed, |p| {
            MapSum::from_pairs([(ItemId(idx(p) % 7), idx(p)), (ItemId(idx(p) % 3), 1)])
        })?;
        // Order-sensitive: a capacity this small prunes at every merge.
        core_survives_the_network(&parents, seed, |p| {
            let item = |j: u64| (ItemId((idx(p) * 5 + j * 3) % 11), 1 + j);
            SpaceSaving::from_items(3, &(0..6).map(item).collect::<Vec<_>>())
        })?;
    }
}
