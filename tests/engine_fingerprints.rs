//! Byte-stream pins for every message-level core.
//!
//! One small seeded scenario per engine, each with the reliability
//! envelope on under drop + duplication and a crash/revival. Every
//! scenario asserts three numbers: the kernel's
//! [`World::schedule_fingerprint`] (which event fired in which order), a
//! digest of `MetricsReport::to_json_stable` (every metered byte per class,
//! phase and peer, plus warnings), and a digest of what every peer
//! delivered. A change to the shared convergecast or envelope plumbing
//! that moves a single effect moves at least one of them.
//!
//! The constants were recorded at commit bbd546b, before the engines were
//! rebuilt on `ifi_agg::Convergecast` and `ifi_sim::Envelope`; the
//! one-tree resilient row at commit 3d256a0, before the resilient engine's
//! one-tree constructor folded into its succession-line one.

use ifi_hierarchy::{Hierarchy, MaintainProtocol, MultiHierarchy};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{
    mix64, sansio_world, Des, DetRng, Duration, FaultPlan, LatencyModel, PeerId, RelConfig, SansIo,
    SimConfig, SimTime, World,
};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::continuous::{
    schedule_from_data, ContinuousConfig, ContinuousProtocol, QueryRegistry,
};
use netfilter::local_threshold::{LocalThresholdConfig, LocalThresholdProtocol};
use netfilter::protocol::NetFilterProtocol;
use netfilter::resilient::{ResilientConfig, ResilientProtocol};
use netfilter::sketch::{SketchConfig, SketchProtocol};
use netfilter::topk::{TopKConfig, TopKProtocol};
use netfilter::{NetFilterConfig, Threshold};

const N: usize = 30;

fn data(seed: u64) -> SystemData {
    let params = WorkloadParams {
        peers: N,
        items: 600,
        instances_per_item: 10,
        theta: 1.0,
    };
    SystemData::generate_paper(&params, seed)
}

fn tree() -> Hierarchy {
    Hierarchy::balanced(N, 3)
}

fn filters() -> NetFilterConfig {
    NetFilterConfig::builder()
        .filter_size(24)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build()
}

fn heartbeat() -> HeartbeatConfig {
    HeartbeatConfig {
        interval: Duration::from_millis(500),
        timeout: Duration::from_millis(1600),
        bytes: 8,
    }
}

/// 10 % drop and 5 % duplication under the given kernel seed.
fn lossy(seed: u64) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_faults(FaultPlan::none().with_drop(0.10).with_duplication(0.05))
}

fn digest(text: &str) -> u64 {
    text.bytes().fold(0, |acc, b| mix64(acc ^ u64::from(b)))
}

/// Kills `peer` at `kill_at` µs and revives it `down` µs later, then runs
/// `w` — to quiescence, or to `until` µs for engines that never go quiet.
/// Returns `[schedule, metrics, outputs]`.
fn prints<P: SansIo>(
    mut w: World<Des<P>>,
    (peer, kill_at, down): (usize, u64, u64),
    until: Option<u64>,
) -> [u64; 3] {
    w.schedule_kill(SimTime::from_micros(kill_at), PeerId::new(peer));
    w.schedule_revive(SimTime::from_micros(kill_at + down), PeerId::new(peer));
    w.enable_metrics_sink();
    w.start();
    match until {
        Some(t) => w.run_until(SimTime::from_micros(t)),
        None => drop(w.run_to_quiescence()),
    }
    let outputs: String = w
        .peers()
        .map(|p| format!("{:?}\n", p.delivered()))
        .collect();
    [
        w.schedule_fingerprint(),
        digest(&w.metrics_report().to_json_stable()),
        digest(&outputs),
    ]
}

/// Bounces the last peer of the balanced tree — a leaf — 40 ms in, for a
/// second: after it reported, so its revival has a backlog to re-send.
const LEAF: (usize, u64, u64) = (N - 1, 40_000, 1_000_000);

#[test]
fn netfilter_certified_reliable_with_a_leaf_bounce() {
    let (h, rel) = (tree(), Some(RelConfig::default()));
    let roster = NetFilterProtocol::roster(&h);
    let peers = NetFilterProtocol::peers(&filters(), &h, &data(1), rel);
    let w = sansio_world(
        lossy(11),
        peers.into_iter().map(|c| c.with_census(roster)).collect(),
    );
    assert_eq!(prints(w, LEAF, None), NETFILTER);
}

#[test]
fn resilient_multi_root_reliable_with_a_root_bounce() {
    let topo = Topology::random_regular(N, 4, &mut DetRng::new(2));
    let mh = MultiHierarchy::with_roots(&topo, &[PeerId::new(0), PeerId::new(7)]);
    let rc = ResilientConfig {
        heartbeat: heartbeat(),
        query_period: Duration::from_secs(4),
        epoch_timeout: Duration::from_secs(12),
        takeover_grace: Duration::from_secs(4),
        takeover_stagger: Duration::from_secs(3),
    };
    let (cfg, data, sim) = (filters(), data(2), lossy(12));
    let rel = RelConfig::default();
    let w = sansio_world(
        sim,
        ResilientProtocol::peers(&cfg, rc, &topo, &mh, &data, Some(rel)),
    );
    // The primary root dies 50 ms into its second epoch; rank 1 takes
    // over, and the ex-root comes back as a plain member.
    let got = prints(w, (0, 4_050_001, 15_950_000), Some(40_000_000));
    assert_eq!(got, RESILIENT);
}

#[test]
fn resilient_single_tree_reliable_with_a_leaf_bounce() {
    let topo = Topology::random_regular(N, 4, &mut DetRng::new(8));
    let one = MultiHierarchy::with_roots(&topo, &[PeerId::new(0)]);
    let leaf = *one.primary().leaves().last().expect("a tree has leaves");
    let rc = ResilientConfig {
        heartbeat: heartbeat(),
        query_period: Duration::from_secs(4),
        epoch_timeout: Duration::from_secs(12),
        ..ResilientConfig::default()
    };
    let (cfg, data, sim) = (filters(), data(8), lossy(18));
    let rel = RelConfig::default();
    let w = sansio_world(
        sim,
        ResilientProtocol::peers(&cfg, rc, &topo, &one, &data, Some(rel)),
    );
    // The leaf is down when the first epoch is issued at 4 s: that epoch
    // stalls until its timeout, and the next one, over the repaired tree
    // with the revived leaf re-attached, completes.
    let got = prints(w, (leaf.index(), 3_000_001, 2_000_000), Some(20_000_000));
    assert_eq!(got, RESILIENT_SINGLE);
}

#[test]
fn maintain_reliable_with_a_root_bounce() {
    let topo = Topology::random_regular(N, 4, &mut DetRng::new(3));
    let h = Hierarchy::bfs(&topo, PeerId::new(0));
    let peer = |p| {
        MaintainProtocol::new(&h, p, topo.neighbors(p).to_vec(), heartbeat())
            .with_reliability(RelConfig::default())
    };
    let sim = lossy(13).with_latency(LatencyModel::Constant(Duration::from_millis(20)));
    let w = sansio_world(sim, topo.peers().map(peer).collect());
    // The root's death detaches everyone: the widest Detach cascade.
    let got = prints(w, (0, 3_000_001, 6_000_000), Some(20_000_000));
    assert_eq!(got, MAINTAIN);
}

#[test]
fn sketch_reliable_with_a_leaf_bounce() {
    let (cfg, rel) = (SketchConfig::new(16), RelConfig::default());
    let w = sansio_world(
        lossy(14),
        SketchProtocol::peers(&cfg, &tree(), &data(4), Some(rel)),
    );
    assert_eq!(prints(w, LEAF, None), SKETCH);
}

#[test]
fn topk_reliable_with_a_leaf_bounce() {
    let (cfg, rel) = (TopKConfig::new(8), RelConfig::default());
    let w = sansio_world(
        lossy(15),
        TopKProtocol::peers(&cfg, &tree(), &data(5), Some(rel)),
    );
    assert_eq!(prints(w, LEAF, None), TOPK);
}

#[test]
fn local_threshold_reliable_with_a_speaker_bounce() {
    let (data, sim, rel) = (data(6), lossy(16), RelConfig::default());
    let (top, v_top) = GroundTruth::compute(&data).globals()[0];
    let t = v_top / 2;
    let cfg = LocalThresholdConfig::new(Threshold::Absolute(t));
    let w = sansio_world(
        sim,
        LocalThresholdProtocol::peers(&cfg, &tree(), &data, top, Some(rel)),
    );
    // Only a peer at or over its budget ⌈t/n⌉ ever speaks, so only such
    // a peer has a backlog for its revival to re-send.
    let speaker = (0..N)
        .rfind(|&p| data.local_value(PeerId::new(p), top) >= t.div_ceil(N as u64))
        .expect("someone holds the head item");
    assert_eq!(prints(w, (speaker, LEAF.1, LEAF.2), None), THRESHOLD);
}

#[test]
fn continuous_reliable_with_a_leaf_bounce() {
    let schedules = schedule_from_data(&data(7), 6);
    let w = sansio_world(
        lossy(17),
        ContinuousProtocol::peers(
            &ContinuousConfig::new(3, 6),
            &tree(),
            &QueryRegistry::single(40, PeerId::new(N - 2)),
            &schedules,
            Some(RelConfig::default()),
        ),
    );
    // Down across the third fence: the revival resumes the cadence.
    assert_eq!(prints(w, (N - 1, 450_000, 1_000_000), None), CONTINUOUS);
}

// `[schedule, metrics, outputs]` per scenario, recorded at commit bbd546b
// (`RESILIENT_SINGLE` at 3d256a0).
const NETFILTER: [u64; 3] = [
    657337767742314736,
    8288931627456545268,
    11922148377257448770,
];
const RESILIENT: [u64; 3] = [
    2400785937547300361,
    1757690046126369390,
    17381592913143453414,
];
const RESILIENT_SINGLE: [u64; 3] = [
    7678438644220763219,
    5658556463313315840,
    2277666703424414658,
];
const MAINTAIN: [u64; 3] = [
    2160642548144039384,
    17910318831907030771,
    3872715572559588223,
];
const SKETCH: [u64; 3] = [21684414929343867, 9689195235216794666, 4032240869606193680];
const TOPK: [u64; 3] = [
    15611217878008728789,
    4542845926911782384,
    18011664015588430808,
];
const THRESHOLD: [u64; 3] = [
    13157387177559935645,
    16446703489917209364,
    996349953244314407,
];
const CONTINUOUS: [u64; 3] = [
    1484864725361007526,
    10920618767146081385,
    9594751385676608710,
];
