//! Schedule pins where the event queue's FIFO lanes and its overflow heap
//! interleave.
//!
//! `engine_fingerprints.rs` pins every engine under the default constant
//! latency, where each delivery is scheduled at or after the one before
//! and the queue's lanes take every push. Here the exact epoch runs at
//! `N = 300` under latency models and faults that schedule deliveries out
//! of order, so pushes spill into the heap and pops alternate between the
//! sources. Each scenario asserts `[schedule_fingerprint,
//! events_processed, queue_high_water, total_bytes]`.
//!
//! The constants were recorded at commit f1c962b, when the queue was one
//! binary heap plus the timer wheel.

use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    Des, Duration, FaultPlan, LatencyModel, PeerId, RelConfig, SimConfig, SimTime, World,
};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::{NetFilterConfig, Threshold};

const N: usize = 300;

fn data() -> SystemData {
    let params = WorkloadParams {
        peers: N,
        items: 6_000,
        instances_per_item: 10,
        theta: 1.0,
    };
    SystemData::generate_paper(&params, 23)
}

fn filters() -> NetFilterConfig {
    NetFilterConfig::builder()
        .filter_size(50)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build()
}

fn run(mut w: World<Des<NetFilterProtocol>>) -> ([u64; 4], u64) {
    w.start();
    w.run_to_quiescence();
    assert!(w.peer(PeerId::new(0)).result().is_some(), "epoch finishes");
    let pins = [
        w.schedule_fingerprint(),
        w.events_processed(),
        w.queue_high_water() as u64,
        w.metrics().total_bytes(),
    ];
    (pins, w.queue_heap_pushes())
}

fn plain(latency: LatencyModel) -> World<Des<NetFilterProtocol>> {
    let sim = SimConfig::default().with_seed(31).with_latency(latency);
    NetFilterProtocol::build_world(&filters(), &Hierarchy::balanced(N, 3), &data(), sim)
}

#[test]
fn uniform_latency() {
    let (pins, heap_pushes) = run(plain(LatencyModel::Uniform {
        lo: Duration::from_millis(10),
        hi: Duration::from_millis(90),
    }));
    assert_eq!(pins, UNIFORM);
    assert!(heap_pushes > 0, "the scenario must reach the overflow heap");
}

#[test]
fn exponential_latency() {
    let (pins, heap_pushes) = run(plain(LatencyModel::Exponential {
        mean: Duration::from_millis(50),
    }));
    assert_eq!(pins, EXPONENTIAL);
    assert!(heap_pushes > 0, "the scenario must reach the overflow heap");
}

#[test]
fn drop_duplication_and_spikes_with_a_leaf_bounce() {
    let faults = FaultPlan::none()
        .with_drop(0.10)
        .with_duplication(0.05)
        .with_delay_spikes(0.1, Duration::from_millis(400));
    let sim = SimConfig::default().with_seed(32).with_faults(faults);
    let (cfg, h, rel) = (filters(), Hierarchy::balanced(N, 3), RelConfig::default());
    let mut w = NetFilterProtocol::build_world_reliable(&cfg, &h, &data(), sim, rel);
    // The last leaf goes down 40 ms in — after it reported — for a second,
    // so its revival re-sends into retransmits already in flight.
    w.schedule_kill(SimTime::from_micros(40_000), PeerId::new(N - 1));
    w.schedule_revive(SimTime::from_micros(1_040_000), PeerId::new(N - 1));
    assert_eq!(run(w).0, FAULTED);
}

const UNIFORM: [u64; 4] = [5432674253306859007, 1197, 300, 638644];
const EXPONENTIAL: [u64; 4] = [13915661337340183307, 1197, 300, 638644];
const FAULTED: [u64; 4] = [36789903858346904, 3738, 462, 877628];
