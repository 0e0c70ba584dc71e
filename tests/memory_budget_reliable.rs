//! The per-peer memory budget of one certified, reliable epoch under the
//! DES: the exact epoch behind the ack/retransmit envelope and the
//! contributor census, on a lossy network, on the counting allocator.
//!
//! Its own binary beside `memory_budget.rs`: one test per binary, so
//! nothing else allocates inside the window and the counts are a function
//! of the seed alone.

use ifi_hierarchy::Hierarchy;
use ifi_perf::alloc::{self, Counting};
use ifi_sim::{sansio_world, FaultPlan, PeerId, RelConfig, SimConfig};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::protocol::{NetFilterProtocol, NfDelivery};
use netfilter::resilient::Certificate;
use netfilter::{NetFilterConfig, Threshold};

#[global_allocator]
static ALLOC: Counting = Counting;

const PEERS: usize = 1_000;
const SEED: u64 = 20080617;

/// Most the epoch's live heap may rise above the pre-built world, per
/// peer: the group vectors (dense here: a peer's few hundred updates
/// outweigh the 300-slot array), each report once in flight and once
/// retained for a revival (one copy, which retransmissions share), the
/// dedup windows, the armed retransmit timers and the event ring.
/// Measured 4 328.8 B, budgeted with 10 % head-room; 5 350.5 B when the
/// in-flight table kept a second retained copy of each report inline,
/// 6 488.1 B when every interior peer held its own vector from `Start`
/// to phase-1 completion.
const BURST_BYTES_PER_PEER: usize = 4_770;
/// Most allocator calls the epoch may make, per hundred peers: the
/// vectors, the retained backlogs and their timers, the census riders'
/// messages and what a dropped or duplicated frame costs to recover.
/// Measured 1 452.3; 1 648 when the in-flight table copied each retained
/// report again; 1 671 before interior peers adopted a child's report.
const ALLOCS_PER_HUNDRED_PEERS: u64 = 1_600;

#[test]
fn a_certified_lossy_epoch_stays_within_its_per_peer_memory_budget() {
    // `des_lossy_n1000`'s shape: the paper's workload, a ternary tree,
    // 10 % drop and 2 % duplication, envelope and census on.
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 20 * PEERS as u64,
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
    let faults = FaultPlan::none().with_drop(0.10).with_duplication(0.02);
    let sim = SimConfig::default().with_seed(SEED).with_faults(faults);
    let roster = NetFilterProtocol::roster(&h);
    let peers = NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default()));
    let certified = peers.into_iter().map(|core| core.with_census(roster));
    let mut w = sansio_world(sim, certified.collect());

    alloc::reset();
    w.start();
    w.run_to_quiescence();
    let op = alloc::snapshot();

    let t = cfg.threshold.resolve(data.total_value());
    let answer = GroundTruth::compute(&data).frequent_items(t);
    assert_eq!(
        w.peer(PeerId::new(0)).delivered(),
        [NfDelivery {
            answer,
            certificate: Some(Certificate::Complete),
        }]
    );
    assert!(w.metrics().dropped_messages() > 0, "the network is lossy");
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
}
