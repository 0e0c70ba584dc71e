//! Micro-benchmarks of the substrates the paper's system is built on:
//! topology generation, BFS hierarchy construction, hierarchical
//! aggregation, gossip rounds, Zipf workload generation, and the hash
//! family — the building blocks whose costs every experiment inherits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ifi_agg::{gossip, hierarchical, ScalarSum, WireSizes};
use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{DetRng, PeerId};
use ifi_workload::{ItemId, SystemData, WorkloadParams, ZipfSampler};
use netfilter::codec::Codec;
use netfilter::protocol::{NetFilterProtocol, NfMsg};
use netfilter::{HashFamily, NetFilterConfig, Threshold};

fn bench_topology(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    group.sample_size(10);
    for &n in &[1000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("random_regular", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = DetRng::new(1);
                Topology::random_regular(n, 4, &mut rng)
            })
        });
    }
    group.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut rng = DetRng::new(2);
    let topo = Topology::random_regular(10_000, 4, &mut rng);
    c.bench_function("hierarchy/bfs_10k", |b| {
        b.iter(|| Hierarchy::bfs(&topo, PeerId::new(0)))
    });
}

fn bench_aggregation(c: &mut Criterion) {
    let h = Hierarchy::balanced(1000, 3);
    c.bench_function("aggregation/scalar_1k_peers", |b| {
        b.iter(|| {
            hierarchical::aggregate(&h, &WireSizes::default(), |p| ScalarSum(p.index() as u64))
                .root_value
        })
    });
}

fn bench_gossip(c: &mut Criterion) {
    let mut rng = DetRng::new(3);
    let topo = Topology::random_regular(1000, 6, &mut rng);
    let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
    let rounds = gossip::recommended_rounds(1000, 1e-3);
    c.bench_function("gossip/push_sum_1k_peers", |b| {
        b.iter(|| {
            let mut r = DetRng::new(4);
            gossip::push_sum(&topo, &values, rounds, &WireSizes::default(), &mut r).total_bytes
        })
    });
}

fn bench_workload(c: &mut Criterion) {
    let params = WorkloadParams {
        peers: 1000,
        items: 100_000,
        instances_per_item: 10,
        theta: 1.0,
    };
    let mut group = c.benchmark_group("workload");
    group.sample_size(10);
    group.bench_function("zipf_sampler_build_100k", |b| {
        b.iter(|| ZipfSampler::new(100_000, 1.0).len())
    });
    group.bench_function("generate_paper_100k", |b| {
        b.iter(|| SystemData::generate_paper(&params, 5).total_value())
    });
    group.finish();
}

fn bench_hashing(c: &mut Criterion) {
    let fam = HashFamily::new(3, 100, 7);
    c.bench_function("hashing/3filters_1k_items", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..1000u64 {
                acc += fam.slots_of(ItemId(i)).sum::<usize>();
            }
            acc
        })
    });
}

fn bench_codec(c: &mut Criterion) {
    let codec = Codec::new(WireSizes::default());
    let msg = NfMsg::GroupAgg(ifi_agg::VecSum::from((0..300).collect::<Vec<u64>>()));
    let encoded = codec.encode(&msg).expect("encodes");
    let mut group = c.benchmark_group("codec");
    group.bench_function("encode_group_vector_300", |b| {
        b.iter(|| codec.encode(&msg).unwrap().len())
    });
    group.bench_function("decode_group_vector_300", |b| {
        b.iter(|| codec.decode(&encoded).unwrap())
    });
    group.finish();
}

fn bench_des_protocol(c: &mut Criterion) {
    // Full message-level netFilter run on a 200-peer tree: measures the
    // simulator + protocol overhead relative to the instant engine.
    let params = WorkloadParams {
        peers: 200,
        items: 5_000,
        instances_per_item: 10,
        theta: 1.0,
    };
    let data = SystemData::generate_paper(&params, 7);
    let h = Hierarchy::balanced(200, 3);
    let cfg = NetFilterConfig::builder()
        .filter_size(50)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build();
    let mut group = c.benchmark_group("des_protocol");
    group.sample_size(10);
    group.bench_function("netfilter_200_peers", |b| {
        b.iter(|| {
            let mut w = NetFilterProtocol::build_world(
                &cfg,
                &h,
                &data,
                ifi_sim::SimConfig::default().with_seed(1),
            );
            w.start();
            w.run_to_quiescence();
            w.peer(PeerId::new(0)).result().expect("finished").len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_topology,
    bench_hierarchy,
    bench_aggregation,
    bench_gossip,
    bench_workload,
    bench_hashing,
    bench_codec,
    bench_des_protocol
);
criterion_main!(benches);
