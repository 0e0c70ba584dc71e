//! The full paper pipeline, end to end: churn-scored stable-peer
//! recruitment → overlay attachment → hierarchy over participants →
//! sampling-based tuning → netFilter — verified against ground truth over
//! **all** peers' data, exactly as §III-A prescribes ("other peers forward
//! their local item sets to one of these peers participating in
//! netFilter").

use ifi_agg::{gossip, Collect, ConvergecastProtocol, ScalarSum};
use ifi_hierarchy::Hierarchy;
use ifi_overlay::churn::{ChurnSchedule, SessionModel};
use ifi_overlay::{Overlay, StableSelection, Topology};
use ifi_sim::{DetRng, Duration, PeerId, SimConfig, SimTime};
use ifi_workload::{GroundTruth, ItemId, SystemData, WorkloadParams};
use netfilter::recruitment::RecruitedSystem;
use netfilter::{tuning, NetFilter, Threshold, WireSizes};

#[test]
fn recruited_pipeline_answers_over_all_peers_data() {
    let n = 150;
    let seed = 71;
    let mut rng = DetRng::new(seed);
    let topo = Topology::random_regular(n, 4, &mut rng);

    // Stability scoring from a churn history; recruit the top 40%.
    let sched = ChurnSchedule::generate(
        n,
        SessionModel::ParetoOn {
            scale: Duration::from_secs(60),
            alpha: 1.5,
            mean_off: Duration::from_secs(120),
        },
        SimTime::from_micros(3_600_000_000),
        &mut rng,
    );
    let overlay = Overlay::recruit(topo, &sched, StableSelection::TopFraction(0.4), &mut rng);
    overlay.check_invariants();
    assert_eq!(overlay.participants().len(), 60);

    // The workload lives on ALL peers; RecruitedSystem folds the
    // non-participants' data into their attachment targets and builds the
    // hierarchy over the (connected) participant subgraph.
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: n,
            items: 5_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    let sys = RecruitedSystem::assemble(overlay, &data, &WireSizes::default(), &mut rng);
    sys.hierarchy.check_invariants(None);
    assert_eq!(sys.folded.total_value(), data.total_value(), "no mass lost");
    assert!(sys.avg_report_bytes() > 0.0);

    // Tune (g, f) by sampling, then run.
    let tuned = tuning::tune(
        &sys.hierarchy,
        &sys.folded,
        Threshold::Ratio(0.01),
        &ifi_agg::sampling::SamplingConfig {
            branches: 12,
            items_per_peer: 150,
        },
        &WireSizes::default(),
        &mut rng,
    );
    let run = NetFilter::new(tuned.to_config(WireSizes::default(), seed))
        .run(&sys.hierarchy, &sys.folded);

    // The answer covers every peer's data exactly.
    let truth = GroundTruth::compute(&data);
    let t = truth.threshold_for_ratio(0.01);
    assert_eq!(run.threshold(), t);
    assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
}

#[test]
fn preliminary_aggregates_v_and_n_by_both_methods() {
    // §IV: v and N come from "simple aggregate computation"; the paper's
    // future work is gossip. Compare both on the same system.
    let n = 200;
    let mut rng = DetRng::new(81);
    let topo = Topology::random_regular(n, 5, &mut rng);
    let h = Hierarchy::bfs(&topo, PeerId::new(0));
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: n,
            items: 3_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        82,
    );
    let v_true = data.total_value() as f64;

    // Exact hierarchical scalar aggregation: one convergecast epoch.
    let local = |p| ScalarSum(data.local_items(p).iter().map(|&(_, v)| v).sum());
    let cores = ConvergecastProtocol::cores(&h, WireSizes::default(), Collect, None, local);
    let (root, bytes) = ConvergecastProtocol::run(cores, SimConfig::default());
    assert_eq!(root.0 as f64, v_true);
    let tree_bytes_per_peer = bytes.iter().sum::<u64>() as f64 / n as f64;

    // Gossip approximation converges close to the same value.
    let values: Vec<f64> = (0..n)
        .map(|i| {
            data.local_items(PeerId::new(i))
                .iter()
                .map(|&(_, v)| v as f64)
                .sum()
        })
        .collect();
    let rounds = gossip::recommended_rounds(n, 1e-4);
    let g = gossip::push_sum(&topo, &values, rounds, &WireSizes::default(), &mut rng);
    assert!(
        g.max_relative_error(&[v_true]) < 0.05,
        "gossip error {}",
        g.max_relative_error(&[v_true])
    );
    // …but at a far higher byte cost than the exact convergecast.
    assert!(g.avg_bytes_per_peer() > 10.0 * tree_bytes_per_peer);
}

#[test]
fn threshold_monotonicity_over_one_system() {
    // Same data, falling thresholds: result sets are nested and costs grow.
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: 100,
            items: 10_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        91,
    );
    let h = Hierarchy::balanced(100, 3);
    let mut previous: Option<Vec<(ItemId, u64)>> = None;
    for &phi in &[0.1, 0.05, 0.01, 0.005] {
        let run = NetFilter::new(
            netfilter::NetFilterConfig::builder()
                .filter_size(100)
                .filters(3)
                .threshold(Threshold::Ratio(phi))
                .build(),
        )
        .run(&h, &data);
        if let Some(prev) = &previous {
            // Every previously frequent item stays frequent at the lower
            // threshold.
            for item in prev {
                assert!(
                    run.frequent_items().contains(item),
                    "item {item:?} vanished when threshold fell to {phi}"
                );
            }
            assert!(run.frequent_items().len() >= prev.len());
        }
        previous = Some(run.frequent_items().to_vec());
    }
}
