//! Failure handling across the stack: hierarchy repair under churn
//! schedules, multi-hierarchy failover when the root dies, and re-running
//! netFilter on a repaired tree.

use ifi_hierarchy::{Hierarchy, MaintainProtocol, MultiHierarchy};
use ifi_overlay::churn::{ChurnEvent, ChurnSchedule, SessionModel};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{sansio_world, Des, DetRng, Duration, PeerId, SimConfig, SimTime, World};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::resilient::{ResilientConfig, ResilientProtocol};
use netfilter::{NetFilter, NetFilterConfig, Threshold};

fn maintain_world(topo: &Topology, h: &Hierarchy, seed: u64) -> World<Des<MaintainProtocol>> {
    let hb = HeartbeatConfig {
        interval: Duration::from_millis(500),
        timeout: Duration::from_millis(1600),
        bytes: 8,
    };
    let peers = topo
        .peers()
        .map(|p| MaintainProtocol::new(h, p, topo.neighbors(p).to_vec(), hb))
        .collect();
    sansio_world(SimConfig::default().with_seed(seed), peers)
}

#[test]
fn repair_converges_under_a_burst_of_failures() {
    let n = 120;
    let topo = Topology::random_regular(n, 5, &mut DetRng::new(31));
    let root = PeerId::new(0);
    let h = Hierarchy::bfs(&topo, root);
    let mut w = maintain_world(&topo, &h, 32);
    w.start();

    // Kill 10 random non-root peers at staggered times.
    let mut rng = DetRng::new(33);
    let mut victims = Vec::new();
    while victims.len() < 10 {
        let v = PeerId::new(rng.below(n as u64) as usize);
        if v != root && !victims.contains(&v) {
            victims.push(v);
        }
    }
    for (k, &v) in victims.iter().enumerate() {
        w.schedule_kill(SimTime::from_micros(2_000_000 + 400_000 * k as u64), v);
    }
    w.run_until(SimTime::from_micros(90_000_000));

    let snap = MaintainProtocol::snapshot(
        root,
        (0..n).map(|i| (w.peer(PeerId::new(i)), w.is_up(PeerId::new(i)))),
    );
    snap.check_invariants(None);
    // Degree-5 random graphs stay connected after 10 removals whp; every
    // surviving peer must have re-attached.
    assert_eq!(snap.member_count(), n - victims.len());
}

#[test]
fn repair_follows_a_generated_churn_schedule() {
    // Use the overlay churn model end-to-end: generate a schedule, install
    // the *down* events (revived peers would need a re-join protocol run;
    // netFilter's recruitment avoids churn-prone peers instead).
    let n = 80;
    let topo = Topology::random_regular(n, 5, &mut DetRng::new(41));
    let root = PeerId::new(0);
    let h = Hierarchy::bfs(&topo, root);
    let horizon = SimTime::from_micros(60_000_000);
    let sched = ChurnSchedule::generate(
        n,
        SessionModel::Exponential {
            mean_on: Duration::from_secs(400),
            mean_off: Duration::from_secs(400),
        },
        horizon,
        &mut DetRng::new(42),
    );

    let mut w = maintain_world(&topo, &h, 43);
    w.start();
    let mut downed = std::collections::BTreeSet::new();
    for &e in sched.events() {
        if let ChurnEvent::Down(t, p) = e {
            if p != root && downed.insert(p) {
                w.schedule_kill(t, p);
            }
        }
    }
    // Let repairs settle well past the last failure.
    w.run_until(SimTime::from_micros(200_000_000));

    let snap = MaintainProtocol::snapshot(
        root,
        (0..n).map(|i| (w.peer(PeerId::new(i)), w.is_up(PeerId::new(i)))),
    );
    snap.check_invariants(None);
    let alive = (0..n).filter(|&i| w.is_up(PeerId::new(i))).count();
    // Every alive peer that can reach the root through alive peers must be
    // a member; with degree 5 and moderate churn the graph stays connected.
    assert_eq!(snap.member_count(), alive);
}

#[test]
fn multi_hierarchy_masks_root_failure() {
    let n = 60;
    let topo = Topology::random_regular(n, 4, &mut DetRng::new(51));
    let mh = MultiHierarchy::build(&topo, 3, &mut DetRng::new(52));
    let primary_root = mh.primary().root();

    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: n,
            items: 2_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        53,
    );
    let truth = GroundTruth::compute(&data);
    let t = truth.threshold_for_ratio(0.01);

    // Primary root dies: fail over to the next tree and answer there.
    let fallback = mh
        .active(|p| p != primary_root)
        .expect("three trees with distinct roots");
    assert_ne!(fallback.root(), primary_root);
    let run = NetFilter::new(
        NetFilterConfig::builder()
            .filter_size(40)
            .filters(3)
            .threshold(Threshold::Ratio(0.01))
            .build(),
    )
    .run(fallback, &data);
    assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
}

fn resilient_rc() -> ResilientConfig {
    ResilientConfig {
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_millis(1600),
            bytes: 8,
        },
        query_period: Duration::from_secs(8),
        epoch_timeout: Duration::from_secs(24),
        takeover_grace: Duration::from_secs(4),
        takeover_stagger: Duration::from_secs(3),
    }
}

fn resilient_setup(n: usize, seed: u64) -> (Topology, SystemData, NetFilterConfig) {
    let topo = Topology::random_regular(n, 5, &mut DetRng::new(seed));
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: n,
            items: 2_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    let cfg = NetFilterConfig::builder()
        .filter_size(40)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build();
    (topo, data, cfg)
}

#[test]
fn single_hierarchy_root_kill_stalls_epochs_forever() {
    // The pinned single-point-of-failure regression: without a succession
    // line, killing the root stops the query stream permanently — no peer
    // may promote itself, so no epoch ever completes again. This is the
    // exact vulnerability §III-A.1 calls out and that
    // `live_failover_keeps_epochs_coming_past_a_dead_root` (below) fixes.
    let n = 60;
    let (topo, data, cfg) = resilient_setup(n, 71);
    let mh = MultiHierarchy::with_roots(&topo, &[PeerId::new(0)]);
    let mut w = sansio_world(
        SimConfig::default().with_seed(72),
        ResilientProtocol::peers(&cfg, resilient_rc(), &topo, &mh, &data, None),
    );
    w.start();
    let kill_at = SimTime::from_micros(12_300_000);
    w.schedule_kill(kill_at, PeerId::new(0));
    w.run_until(SimTime::from_micros(90_000_000));

    let root = w.peer(PeerId::new(0));
    let done = root.completed_epochs();
    assert!(!done.is_empty(), "pre-kill epochs must have completed");
    assert!(
        done.iter().all(|er| er.started_at < kill_at),
        "no epoch may start after the lone root dies"
    );
    // Nobody else stepped up: with one hierarchy there is no succession.
    assert!((1..n).all(|i| !w.peer(PeerId::new(i)).is_active_root()));
    assert!(
        (1..n).all(|i| w.peer(PeerId::new(i)).completed_epochs().is_empty()),
        "no other peer may complete epochs"
    );
}

#[test]
fn live_failover_keeps_epochs_coming_past_a_dead_root() {
    // The flipped assertion: the same kill against a 3-deep succession
    // line keeps the epoch stream alive — the rank-1 successor detects the
    // death (continuous detachment past its staggered grace), promotes
    // itself, and certifies Complete epochs over the survivors.
    let n = 60;
    let (topo, data, cfg) = resilient_setup(n, 71);
    let mh = MultiHierarchy::with_roots(&topo, &[PeerId::new(0), PeerId::new(9), PeerId::new(31)]);
    let mut w = sansio_world(
        SimConfig::default().with_seed(72),
        ResilientProtocol::peers(&cfg, resilient_rc(), &topo, &mh, &data, None),
    );
    w.start();
    let kill_at = SimTime::from_micros(12_300_000);
    w.schedule_kill(kill_at, PeerId::new(0));
    w.run_until(SimTime::from_micros(90_000_000));

    let successor = w.peer(PeerId::new(9));
    assert!(successor.is_active_root(), "rank-1 successor takes over");
    let post = successor
        .completed_epochs()
        .iter()
        .filter(|er| er.started_at > kill_at)
        .count();
    assert!(post >= 2, "only {post} post-failover epochs completed");

    // Steady state certifies Complete and is exact over the survivors.
    let surviving = SystemData::from_local_sets(
        (0..n)
            .map(|i| {
                if i == 0 {
                    Vec::new()
                } else {
                    data.local_items(PeerId::new(i)).to_vec()
                }
            })
            .collect(),
        data.universe(),
    );
    let truth = GroundTruth::compute(&surviving);
    let t = cfg.threshold.resolve(data.total_value());
    let lc = successor
        .last_complete()
        .expect("a post-failover epoch certifies Complete");
    assert_eq!(lc.roster.count as usize, n - 1);
    assert_eq!(lc.answer, truth.frequent_items(t));
}

#[test]
fn query_on_repaired_tree_is_exact_for_surviving_data() {
    let n = 90;
    let topo = Topology::random_regular(n, 4, &mut DetRng::new(61));
    let root = PeerId::new(0);
    let h = Hierarchy::bfs(&topo, root);
    let mut w = maintain_world(&topo, &h, 62);
    w.start();

    let victim = *h
        .internal_nodes()
        .iter()
        .max_by_key(|&&p| h.subtree_size(p))
        .expect("internal nodes exist");
    w.schedule_kill(SimTime::from_micros(2_000_000), victim);
    w.run_until(SimTime::from_micros(60_000_000));
    let repaired = MaintainProtocol::snapshot(
        root,
        (0..n).map(|i| (w.peer(PeerId::new(i)), w.is_up(PeerId::new(i)))),
    );
    assert_eq!(repaired.member_count(), n - 1);

    let full = SystemData::generate_paper(
        &WorkloadParams {
            peers: n,
            items: 3_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        63,
    );
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
        3_000,
    );
    let truth = GroundTruth::compute(&surviving);
    let t = truth.threshold_for_ratio(0.01);
    let run = NetFilter::new(
        NetFilterConfig::builder()
            .filter_size(60)
            .filters(3)
            .threshold(Threshold::Ratio(0.01))
            .build(),
    )
    .run(&repaired, &surviving);
    assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
}
