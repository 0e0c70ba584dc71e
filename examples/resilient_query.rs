//! Continuous frequent-item monitoring under churn, with the resilient
//! protocol (the repo's extension of the paper's §VI future-work
//! direction).
//!
//! The root re-issues the IFI query every few seconds as *epochs* over a
//! self-repairing hierarchy; peers crash mid-stream, the affected epochs
//! stall and are superseded, and once repair converges the answers are
//! exact again — all in one message-level simulation.
//!
//! ```text
//! cargo run --release --example resilient_query
//! ```

use ifi_hierarchy::MultiHierarchy;
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{sansio_world, DetRng, Duration, PeerId, SimConfig, SimTime};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::resilient::{ResilientConfig, ResilientProtocol};
use netfilter::{NetFilterConfig, Threshold};

fn main() {
    let n = 150;
    let mut rng = DetRng::new(42);
    let topology = Topology::random_regular(n, 5, &mut rng);
    // One tree: a single root and no failover.
    let tree = MultiHierarchy::with_roots(&topology, &[PeerId::new(0)]);
    let hierarchy = tree.primary();
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: n,
            items: 10_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        42,
    );

    let config = NetFilterConfig::builder()
        .filter_size(80)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build();
    let rc = ResilientConfig {
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_millis(1600),
            bytes: 8,
        },
        query_period: Duration::from_secs(8),
        epoch_timeout: Duration::from_secs(24),
        ..ResilientConfig::default()
    };
    let mut w = sansio_world(
        SimConfig::default().with_seed(7),
        ResilientProtocol::peers(&config, rc, &topology, &tree, &data, None),
    );
    w.start();

    // Two staggered crashes while queries are flowing.
    let victims: Vec<PeerId> = hierarchy.internal_nodes().into_iter().take(2).collect();
    for (k, &v) in victims.iter().enumerate() {
        let at = SimTime::from_micros(11_000_000 + 9_000_000 * k as u64);
        println!(
            "scheduling crash of {v} (subtree of {}) at {at}",
            hierarchy.subtree_size(v)
        );
        w.schedule_kill(at, v);
    }

    w.run_until(SimTime::from_micros(120_000_000));

    let root = w.peer(PeerId::new(0));
    println!("\ncompleted epochs at the root:");
    for er in root.completed_epochs() {
        println!(
            "  epoch {:>2}: {} frequent items, top = {:?}, certificate = {:?}",
            er.epoch,
            er.answer.len(),
            er.answer.first(),
            er.certificate
        );
    }

    // Steady state: the last epoch is exact over the survivors' data.
    let surviving = SystemData::from_local_sets(
        (0..n)
            .map(|i| {
                let p = PeerId::new(i);
                if victims.contains(&p) {
                    Vec::new()
                } else {
                    data.local_items(p).to_vec()
                }
            })
            .collect(),
        data.universe(),
    );
    let truth = GroundTruth::compute(&surviving);
    let t = config.threshold.resolve(data.total_value());
    let (last_epoch, last) = root.last_result().expect("epochs completed");
    assert_eq!(
        last,
        &truth.frequent_items(t)[..],
        "steady-state epoch must be exact over survivors"
    );
    println!(
        "\nepoch {last_epoch} verified exact over the {} surviving peers' data \
         ({} frequent items at t = {t})",
        n - victims.len(),
        last.len()
    );
    println!(
        "total traffic: {:.1} bytes/peer across {} epochs (incl. heartbeats)",
        w.metrics().avg_bytes_per_peer(),
        root.completed_epochs().len()
    );
}
