//! Working set proportional to live data: the per-peer memory budget of
//! one exact epoch under the DES, on the counting allocator.
//!
//! One test in this binary, so nothing else allocates inside the window
//! and the counts are a function of the seed alone.

use ifi_hierarchy::Hierarchy;
use ifi_perf::alloc::{self, Counting};
use ifi_sim::{PeerId, SimConfig};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::{NetFilterConfig, Threshold};

#[global_allocator]
static ALLOC: Counting = Counting;

const PEERS: usize = 5_000;
const SEED: u64 = 20080617;

/// Most an epoch's live heap may rise above the pre-built world, per
/// peer: every peer's local group vector as a run of updates, the reports
/// in flight, the event queue. Measured 564 B, budgeted with 10 %
/// head-room; a dense `f·g` vector per peer needs 2 688 B here.
const BURST_BYTES_PER_PEER: usize = 620;
/// Most an epoch may leave allocated once it has quiesced, per peer — the
/// event queue's high-water capacity and little else. Measured 131 B;
/// 1 020 B when every peer kept its own copy of the heavy lists, its seen
/// sets and an effect scratch.
const RETAINED_BYTES_PER_PEER: usize = 145;

#[test]
fn an_exact_epoch_stays_within_its_per_peer_memory_budget() {
    // The ROADMAP scale point's shape at a twentieth of its size.
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 2 * PEERS as u64,
            instances_per_item: 10,
            theta: 1.0,
        },
        SEED,
    );
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = NetFilterConfig::builder()
        .filter_size(100)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .hash_seed(SEED)
        .build();
    let sim = SimConfig::default().with_seed(SEED);
    let mut w = NetFilterProtocol::build_world(&cfg, &h, &data, sim);

    alloc::reset();
    w.start();
    w.run_to_quiescence();
    let op = alloc::snapshot();

    let truth = GroundTruth::compute(&data);
    let t = cfg.threshold.resolve(data.total_value());
    assert_eq!(
        w.peer(PeerId::new(0)).result().expect("root finishes"),
        &truth.frequent_items(t)[..]
    );
    assert!(
        op.peak <= BURST_BYTES_PER_PEER * PEERS,
        "the epoch peaked {} B/peer above its pre-built world (budget {BURST_BYTES_PER_PEER})",
        op.peak / PEERS
    );
    assert!(
        op.retained <= RETAINED_BYTES_PER_PEER * PEERS,
        "the epoch left {} B/peer allocated (budget {RETAINED_BYTES_PER_PEER})",
        op.retained / PEERS
    );
}
