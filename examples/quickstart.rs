//! Quickstart: identify frequent items in a simulated P2P system.
//!
//! Builds an unstructured overlay of 1000 peers, forms the BFS hierarchy
//! the paper describes, generates the Table III workload, and runs
//! netFilter side by side with the naive baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{DetRng, PeerId, SimConfig};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::engines::{Engine, NaiveEngine};
use netfilter::naive::NaiveConfig;
use netfilter::{NetFilter, NetFilterConfig, Threshold, WireSizes};

fn main() {
    let seed = 2008;

    // 1. An unstructured P2P overlay (random regular graph, degree 4) and
    //    the BFS aggregation hierarchy over it (§III-A.1).
    let mut rng = DetRng::new(seed);
    let topology = Topology::random_regular(1000, 4, &mut rng);
    let hierarchy = Hierarchy::bfs(&topology, PeerId::new(0));
    println!(
        "overlay: {} peers, {} edges; hierarchy height {}",
        topology.peer_count(),
        topology.edge_count(),
        hierarchy.height()
    );

    // 2. The paper's workload: n = 10^5 items, Zipf(θ = 1) global values,
    //    ~10 instances per item scattered over the peers.
    let params = WorkloadParams {
        peers: 1000,
        items: 100_000,
        instances_per_item: 10,
        theta: 1.0,
    };
    let data = SystemData::generate_paper(&params, seed);
    println!(
        "workload: n = {}, total mass v = {}, o ≈ {:.0} items/peer",
        params.items,
        data.total_value(),
        data.avg_distinct_per_peer()
    );

    // 3. Run netFilter at threshold ratio φ = 0.01 with the paper's tuned
    //    setting (g = 100, f = 3).
    let config = NetFilterConfig::builder()
        .filter_size(100)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build();
    let run = NetFilter::new(config).run(&hierarchy, &data);

    println!("\nfrequent items (global value ≥ {}):", run.threshold());
    for &(item, value) in run.frequent_items().iter().take(10) {
        println!("  {item:>12}  {value:>10}");
    }
    if run.frequent_items().len() > 10 {
        println!("  … and {} more", run.frequent_items().len() - 10);
    }

    // 4. The answer is exact — verify against centrally computed truth.
    let truth = GroundTruth::compute(&data);
    let (fp, fn_, verr) = truth.verify(run.threshold(), run.frequent_items());
    assert_eq!((fp, fn_, verr), (0, 0, 0), "netFilter must be exact");
    println!("\nverified: no false positives, no false negatives, exact values");

    // 5. Compare communication cost against the naive approach (§IV-B).
    let config = NaiveConfig {
        threshold: Threshold::Ratio(0.01),
        sizes: WireSizes::default(),
    };
    let nv = NaiveEngine { config }.run_des(&hierarchy, &data, SimConfig::default());
    let cost = run.cost();
    println!("\ncommunication cost (average bytes per peer):");
    println!("  netFilter total   {:>10.1}", cost.avg_total());
    println!("    filtering       {:>10.1}", cost.avg_filtering());
    println!("    dissemination   {:>10.1}", cost.avg_dissemination());
    println!("    aggregation     {:>10.1}", cost.avg_aggregation());
    println!("  naive             {:>10.1}", nv.avg_bytes_per_peer());
    println!(
        "  netFilter / naive = {:.1}%",
        100.0 * cost.avg_total() / nv.avg_bytes_per_peer()
    );
}
