//! The standing engine's per-peer memory budget: the continuous world in
//! the shape of the `des_standing_n1000` benchmark workload, built and run
//! through all its fences on the counting allocator.
//!
//! One test in this binary, so nothing else allocates inside the window
//! and the counts are a function of the seed alone.

use ifi_hierarchy::Hierarchy;
use ifi_perf::alloc::{self, Counting};
use ifi_sim::{sansio_world, PeerId, SimConfig};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::continuous::{
    schedule_from_data, window_totals_from_scratch, ContinuousConfig, ContinuousProtocol,
    QueryRegistry, StandingQuery,
};

#[global_allocator]
static ALLOC: Counting = Counting;

const PEERS: usize = 1_000;
const FENCES: usize = 24;
const WINDOW: usize = 4;
const QUERIES: u32 = 8;
const SEED: u64 = 20080617;

/// Most a built world may hold before it starts, per peer (its inputs
/// aside): the 256-byte core in its DES slot, the peer's schedule as one
/// slice of pairs and one of fence ends, its child list, the root's
/// registry, the event ring and the meter columns. Measured 1 441.6 B,
/// budgeted with 10 % head-room; 1 889.6 B when each peer cloned its
/// schedule as a `Vec` per fence.
const WORLD_BYTES_PER_PEER: usize = 1_586;
/// Most the run's live heap may rise above the built world, per peer: the
/// window's slices, the pending runs, the deltas in flight and the root's
/// standing state. Measured 1 371.9 B, budgeted with 10 % head-room;
/// 2 187.1 B when pending epochs were B-tree entries whose deltas were
/// concatenated and sorted at completion.
const BURST_BYTES_PER_PEER: usize = 1_509;
/// Most the run may leave allocated once it has quiesced, per peer: the
/// live window's slices, the pending ring (four 40-byte entries) and the
/// root's standing state. Measured 931.6 B, budgeted with 10 % head-room;
/// 1 657.0 B when every peer kept a B-tree leaf of pending epochs.
const RETAINED_BYTES_PER_PEER: usize = 1_025;
/// Most allocator calls the run may make per peer per fence: the window's
/// new slice, the peer's own delta and one buffer per child delta summed
/// in. Measured 3.149; 3.304 when every peer cloned a `Vec` per fence and
/// each pending buffer grew by doubling before its sort.
const ALLOCS_PER_PEER_FENCE: f64 = 3.46;

#[test]
fn a_standing_run_stays_within_its_per_peer_memory_budget() {
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 20_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        SEED,
    );
    let schedules = schedule_from_data(&data, FENCES);
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = ContinuousConfig::new(WINDOW, FENCES);
    let mut registry = QueryRegistry::new();
    for id in 0..QUERIES {
        registry.register(StandingQuery {
            id,
            threshold: 1_000 + 250 * u64::from(id),
            subscriber: PeerId::new(PEERS - 1),
        });
    }
    let sim = SimConfig::default().with_seed(SEED);
    alloc::reset();
    let cores = ContinuousProtocol::peers(&cfg, &h, &registry, &schedules, None);
    let mut w = sansio_world(sim, cores);
    let world = alloc::snapshot();

    alloc::reset();
    w.start();
    w.run_to_quiescence();
    let op = alloc::snapshot();

    let root = w.peer(h.root());
    assert_eq!(root.delivered().len(), FENCES, "every fence certifies");
    let last = window_totals_from_scratch(&schedules, FENCES as u64 - 1, WINDOW);
    assert!(root.standing().iter().copied().eq(last));
    let per_peer = |bytes: usize| bytes as f64 / PEERS as f64;
    eprintln!(
        "MEASURE world {:.1} burst {:.1} retained {:.1} allocs {:.3}",
        per_peer(world.retained),
        per_peer(op.peak),
        per_peer(op.retained),
        op.count as f64 / (PEERS * FENCES) as f64
    );
    assert!(
        world.retained <= WORLD_BYTES_PER_PEER * PEERS,
        "the built world holds {:.1} B/peer (budget {WORLD_BYTES_PER_PEER})",
        per_peer(world.retained)
    );
    assert!(
        op.peak <= BURST_BYTES_PER_PEER * PEERS,
        "the run peaked {:.1} B/peer above its built world (budget {BURST_BYTES_PER_PEER})",
        per_peer(op.peak)
    );
    assert!(
        op.retained <= RETAINED_BYTES_PER_PEER * PEERS,
        "the run left {:.1} B/peer allocated (budget {RETAINED_BYTES_PER_PEER})",
        per_peer(op.retained)
    );
    let allocs = op.count as f64 / (PEERS * FENCES) as f64;
    assert!(
        allocs <= ALLOCS_PER_PEER_FENCE,
        "the run made {allocs:.2} allocations per peer per fence (budget {ALLOCS_PER_PEER_FENCE})"
    );
}
