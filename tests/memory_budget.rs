//! Working set proportional to live data: the per-peer memory budget of
//! one exact epoch's world and of the epoch under the DES, on the counting
//! allocator.
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

/// Most a built world may hold before it starts, per peer (its inputs
/// aside): the 232-byte DES slot, the peer's own items, its child list,
/// the event ring and the meter columns. Measured 355.5 B, budgeted with
/// 10 % head-room; 419.5 B when every slot was 296 B and carried the
/// root's answer, threshold and heavy-group count.
const WORLD_BYTES_PER_PEER: usize = 391;
/// Most an epoch's live heap may rise above the pre-built world, per
/// peer: the leaves' group vectors as runs of 12-byte updates, interior
/// accumulators that are a child's report taken over, the reports in
/// flight, the event ring, the meter columns of the classes charged.
/// Measured 310.0 B, budgeted with 10 % head-room; 528.9 B when an update
/// took 16 bytes and every peer built its own vector at `Start`; a dense
/// `f·g` vector per peer needs 2 688 B here.
const BURST_BYTES_PER_PEER: usize = 341;
/// Most an epoch may leave allocated once it has quiesced, per peer — the
/// event ring at one slot per peer (80 B), three meter columns (48 B)
/// and little else. Measured 128 B; 1 020 B when every peer kept its own
/// copy of the heavy lists, its seen sets and an effect scratch.
const RETAINED_BYTES_PER_PEER: usize = 141;
/// Most allocator calls an epoch may make, per hundred peers: a group
/// vector per leaf, an exact regrowth per appended run or a switch to the
/// dense array at each interior peer, a map where a peer holds a
/// candidate — and nothing for a peer that holds none. Measured 171.2;
/// 190.4 when every peer built its own vector at `Start`; 269.0 when every
/// peer with an item in a heavy group of filter 0 took a buffer and the
/// ring doubled its way up.
const ALLOCS_PER_HUNDRED_PEERS: u64 = 189;

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
    alloc::reset();
    let mut w = NetFilterProtocol::build_world(&cfg, &h, &data, sim);
    let world = alloc::snapshot();

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
        world.retained <= WORLD_BYTES_PER_PEER * PEERS,
        "the built world holds {} B/peer (budget {WORLD_BYTES_PER_PEER})",
        world.retained / PEERS
    );
    assert!(
        op.peak <= BURST_BYTES_PER_PEER * PEERS,
        "the epoch peaked {} B/peer above its pre-built world (budget {BURST_BYTES_PER_PEER})",
        op.peak / PEERS
    );
    assert!(
        op.count * 100 <= ALLOCS_PER_HUNDRED_PEERS * PEERS as u64,
        "the epoch made {} allocations per hundred peers (budget {ALLOCS_PER_HUNDRED_PEERS})",
        op.count * 100 / PEERS as u64
    );
    assert!(
        op.retained <= RETAINED_BYTES_PER_PEER * PEERS,
        "the epoch left {} B/peer allocated (budget {RETAINED_BYTES_PER_PEER})",
        op.retained / PEERS
    );
}
