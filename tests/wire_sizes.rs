//! The wire-size model end to end: changing `s_a`/`s_g`/`s_i` must scale
//! every cost component consistently across the engine, the DES protocol
//! under any seed, and the codec — and never change the answer.

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, MsgClass, PeerId, SimConfig};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::{NetFilter, NetFilterConfig, Threshold, WireSizes};
use proptest::prelude::*;

fn system(seed: u64) -> (Hierarchy, SystemData) {
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: 60,
            items: 2_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    (Hierarchy::balanced(60, 3), data)
}

fn config(sizes: WireSizes) -> NetFilterConfig {
    NetFilterConfig::builder()
        .filter_size(40)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .sizes(sizes)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The answer is wire-size independent; the costs scale exactly with
    /// the configured widths.
    #[test]
    fn costs_scale_answer_does_not(
        sa in 1u64..=8,
        sg in 1u64..=8,
        si in 1u64..=8,
        seed in 0u64..100,
    ) {
        let (h, data) = system(seed);
        let base = NetFilter::new(config(WireSizes::default())).run(&h, &data);
        let sized = NetFilter::new(config(WireSizes { sa, sg, si })).run(&h, &data);

        prop_assert_eq!(base.frequent_items(), sized.frequent_items());

        // Filtering: sa per slot — exact ratio sa/4.
        let f_base: u64 = base.cost().filtering.iter().sum();
        let f_sized: u64 = sized.cost().filtering.iter().sum();
        prop_assert_eq!(f_sized * 4, f_base * sa);

        // Dissemination: sg per heavy id — heavy sets are identical
        // (hashing ignores wire sizes), so the ratio is exact too.
        let d_base: u64 = base.cost().dissemination.iter().sum();
        let d_sized: u64 = sized.cost().dissemination.iter().sum();
        prop_assert_eq!(d_sized * 4, d_base * sg);

        // Aggregation: (sa + si) per pair.
        let a_base: u64 = base.cost().aggregation.iter().sum();
        let a_sized: u64 = sized.cost().aggregation.iter().sum();
        prop_assert_eq!(a_sized * 8, a_base * (sa + si));
    }
}

#[test]
fn des_protocol_honours_wire_sizes() {
    let (h, data) = system(7);
    let sizes = WireSizes {
        sa: 2,
        sg: 1,
        si: 8,
    };
    let cfg = config(sizes);
    let base = NetFilter::new(config(WireSizes::default())).run(&h, &data);
    let mut w = sansio_world(
        SimConfig::default().with_seed(3),
        NetFilterProtocol::peers(&cfg, &h, &data, None),
    );
    w.start();
    w.run_to_quiescence();
    let truth = GroundTruth::compute(&data);
    let t = cfg.threshold.resolve(data.total_value());
    assert_eq!(
        w.peer(PeerId::new(0)).result().expect("finished"),
        truth.frequent_items(t)
    );
    // Against the default widths: s_a 2 of 4, s_g 1 of 4, a pair 10 of 8.
    let class = |c| w.metrics().class_bytes(c);
    let sum = |v: &[u64]| v.iter().sum::<u64>();
    assert_eq!(class(MsgClass::FILTERING) * 2, sum(&base.cost().filtering));
    assert_eq!(
        class(MsgClass::DISSEMINATION) * 4,
        sum(&base.cost().dissemination)
    );
    assert_eq!(
        class(MsgClass::AGGREGATION) * 8,
        sum(&base.cost().aggregation) * 10
    );
}

#[test]
fn eight_byte_identifiers_cover_the_full_item_space() {
    // With si = 8 the codec can carry any u64 item id; verify a workload
    // with huge composite ids (keyword pairs) flows through the full stack.
    use ifi_workload::scenarios;
    let data = scenarios::cooccurring_pairs(30, 50_000, 40, 3, 1.0, 9);
    let truth = GroundTruth::compute(&data);
    let t = truth.threshold_for_ratio(0.01);
    let h = Hierarchy::balanced(30, 3);
    let cfg = NetFilterConfig::builder()
        .filter_size(60)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .sizes(WireSizes {
            sa: 4,
            sg: 4,
            si: 8,
        })
        .build();
    let run = NetFilter::new(cfg).run(&h, &data);
    assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
}
