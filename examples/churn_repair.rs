//! Heartbeat maintenance and repair of the BFS hierarchy under churn
//! (§III-A), end to end on the discrete-event simulator.
//!
//! 1. Peers form an unstructured overlay and the BFS hierarchy over it.
//! 2. The maintenance protocol heartbeats (with the DEPTH counter) while
//!    an internal peer crashes; orphaned subtrees set depth ∞ and
//!    re-attach to the first finite-depth neighbor they hear (§III-A.3).
//! 3. netFilter runs on the repaired hierarchy over the surviving peers
//!    and still returns the exact answer for the surviving data.
//!
//! ```text
//! cargo run --release --example churn_repair
//! ```

use ifi_hierarchy::{Hierarchy, MaintainProtocol};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{sansio_world, DetRng, Duration, MsgClass, PeerId, SimConfig, SimTime};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::{NetFilterConfig, Threshold};

fn main() {
    let n = 300;
    let mut rng = DetRng::new(5);
    let topology = Topology::random_regular(n, 4, &mut rng);
    let root = PeerId::new(0);

    // --- 1. BFS construction. ---
    let hierarchy = Hierarchy::bfs(&topology, root);
    hierarchy.check_invariants(Some(&topology));
    println!(
        "construction: {} peers joined, height {}",
        hierarchy.member_count(),
        hierarchy.height(),
    );

    // --- 2. Maintenance + a crash. ---
    let hb = HeartbeatConfig {
        interval: Duration::from_millis(500),
        timeout: Duration::from_millis(1600),
        bytes: 8,
    };
    let peers: Vec<MaintainProtocol> = topology
        .peers()
        .map(|p| MaintainProtocol::new(&hierarchy, p, topology.neighbors(p).to_vec(), hb))
        .collect();
    let mut maintain = sansio_world(SimConfig::default().with_seed(2), peers);
    maintain.start();

    let victim = *hierarchy
        .internal_nodes()
        .iter()
        .max_by_key(|&&p| hierarchy.subtree_size(p))
        .expect("a 300-peer tree has internal nodes");
    let orphans = hierarchy.children(victim).len();
    println!(
        "\ncrashing internal peer {victim} (depth {:?}, {} direct children, subtree {})",
        hierarchy.depth(victim).unwrap(),
        orphans,
        hierarchy.subtree_size(victim)
    );
    maintain.schedule_kill(SimTime::from_micros(3_000_000), victim);
    maintain.run_until(SimTime::from_micros(40_000_000));

    let repaired = MaintainProtocol::snapshot(
        root,
        (0..n).map(|i| {
            (
                maintain.peer(PeerId::new(i)),
                maintain.is_up(PeerId::new(i)),
            )
        }),
    );
    repaired.check_invariants(None);
    let detaches: u32 = maintain.peers().map(|p| p.detach_count()).sum();
    println!(
        "repair: tree spans {}/{} alive peers again; {} detach events; {} heartbeat bytes",
        repaired.member_count(),
        n - 1,
        detaches,
        maintain.metrics().class_bytes(MsgClass::HEARTBEAT),
    );
    assert_eq!(repaired.member_count(), n - 1);

    // --- 3. netFilter on the repaired hierarchy. ---
    // The victim's local data left with it; the query now covers the
    // surviving peers' data.
    let params = WorkloadParams {
        peers: n,
        items: 20_000,
        instances_per_item: 10,
        theta: 1.0,
    };
    let full = SystemData::generate_paper(&params, 3);
    let surviving = SystemData::from_local_sets(
        (0..n)
            .map(|i| {
                if PeerId::new(i) == victim {
                    Vec::new()
                } else {
                    full.local_items(PeerId::new(i)).to_vec()
                }
            })
            .collect(),
        params.items,
    );
    let config = NetFilterConfig::builder()
        .filter_size(100)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build();
    let mut query = sansio_world(
        SimConfig::default(),
        NetFilterProtocol::peers(&config, &repaired, &surviving, None),
    );
    query.start();
    query.run_to_quiescence();
    let result = query.peer(root).result().expect("root finishes").to_vec();

    let truth = GroundTruth::compute(&surviving);
    let t = truth.threshold_for_ratio(0.01);
    assert_eq!(
        result,
        truth.frequent_items(t),
        "post-repair answer must be exact"
    );
    println!(
        "\nquery on repaired tree: {} frequent items at t = {t}, exact — {} bytes/peer",
        result.len(),
        (query.metrics().class_bytes(MsgClass::FILTERING)
            + query.metrics().class_bytes(MsgClass::DISSEMINATION)
            + query.metrics().class_bytes(MsgClass::AGGREGATION)) as f64
            / n as f64
    );
}
