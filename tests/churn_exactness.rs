//! Exactness under churn: live root failover plus certified-complete
//! epochs, end to end.
//!
//! The contract under test: a multi-root resilient world keeps producing
//! epochs through root deaths (including the death of the first successor
//! itself), and every epoch the acting root certifies
//! [`Certificate::Complete`] is the *exact* IFI answer over the peers that
//! were alive when the epoch was issued — a `Complete` certificate never
//! lies, no matter how adversarially the kills are timed against epoch
//! boundaries.

use ifi_hierarchy::MultiHierarchy;
use ifi_overlay::churn::{ChurnEvent, ChurnSchedule, SessionModel};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{sansio_world, Des, DetRng, Duration, PeerId, SimConfig, SimTime, World};
use ifi_workload::ItemId;
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::resilient::{Certificate, ResilientConfig, ResilientProtocol};
use netfilter::{NetFilterConfig, Threshold};

fn rc() -> ResilientConfig {
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

fn setup(n: usize, seed: u64) -> (Topology, SystemData, NetFilterConfig) {
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

/// Ground-truth IFI over the peers in `alive`, at the threshold the
/// protocol resolved against the *full* workload (it holds the threshold
/// fixed across churn).
fn expected_over(
    data: &SystemData,
    cfg: &NetFilterConfig,
    alive: &dyn Fn(PeerId) -> bool,
) -> Vec<(ItemId, u64)> {
    let n = data.peer_count();
    let surviving = SystemData::from_local_sets(
        (0..n)
            .map(|i| {
                let p = PeerId::new(i);
                if alive(p) {
                    data.local_items(p).to_vec()
                } else {
                    Vec::new()
                }
            })
            .collect(),
        data.universe(),
    );
    let t = cfg.threshold.resolve(data.total_value());
    GroundTruth::compute(&surviving).frequent_items(t)
}

/// Checks every epoch any succession peer completed: `Complete` epochs
/// must be exactly the IFI over the peers alive at issue time (as decided
/// by the pinned `kills`/`revives` event lists), with a matching roster
/// count. Returns `(complete, partial)` epoch counts.
fn audit_epochs(
    w: &World<Des<ResilientProtocol>>,
    succession: &[PeerId],
    data: &SystemData,
    cfg: &NetFilterConfig,
    kills: &[(SimTime, PeerId)],
    revives: &[(SimTime, PeerId)],
) -> (usize, usize) {
    let mut complete = 0;
    let mut partial = 0;
    for &r in succession {
        for er in w.peer(r).completed_epochs() {
            let at = er.started_at;
            let alive = |p: PeerId| {
                let killed = kills
                    .iter()
                    .filter(|&&(t, v)| v == p && t <= at)
                    .map(|&(t, _)| t)
                    .max();
                let revived = revives
                    .iter()
                    .filter(|&&(t, v)| v == p && t <= at)
                    .map(|&(t, _)| t)
                    .max();
                match (killed, revived) {
                    (None, _) => true,
                    (Some(k), Some(u)) => u > k,
                    (Some(_), None) => false,
                }
            };
            match er.certificate {
                Certificate::Complete => {
                    complete += 1;
                    let n_alive = (0..data.peer_count())
                        .filter(|&i| alive(PeerId::new(i)))
                        .count();
                    assert_eq!(
                        er.roster.count as usize, n_alive,
                        "epoch {} at {at}: roster disagrees with the kill schedule",
                        er.epoch
                    );
                    assert_eq!(
                        er.answer,
                        expected_over(data, cfg, &alive),
                        "epoch {} (root {r}, started {at}) certified Complete \
                         but is not the exact IFI over the live peers",
                        er.epoch
                    );
                }
                Certificate::Partial { missing } => {
                    partial += 1;
                    assert!(
                        missing.count > 0 || missing.digest != 0,
                        "epoch {}: Partial must name a non-empty missing set",
                        er.epoch
                    );
                }
            }
        }
    }
    (complete, partial)
}

#[test]
fn killing_root_and_first_successor_mid_epoch_keeps_epochs_coming() {
    // The primary root dies just after issuing an epoch; later the rank-1
    // successor — by then the acting root — dies too. The rank-2
    // candidate must end up running the query stream, and every Complete
    // certificate along the way must be honest.
    let n = 50;
    let (topo, data, cfg) = setup(n, 211);
    let succession = [PeerId::new(0), PeerId::new(7), PeerId::new(23)];
    let mh = MultiHierarchy::with_roots(&topo, &succession);
    let mut w = sansio_world(
        SimConfig::default().with_seed(212),
        ResilientProtocol::peers(&cfg, rc(), &topo, &mh, &data, None),
    );
    w.start();
    // Epoch 3 is issued at t = 8 s; kill the root 50 ms into it.
    let kills = [
        (SimTime::from_micros(8_050_001), PeerId::new(0)),
        (SimTime::from_micros(45_000_001), PeerId::new(7)),
    ];
    for &(t, p) in &kills {
        w.schedule_kill(t, p);
    }
    w.run_until(SimTime::from_micros(150_000_000));

    let last = w.peer(PeerId::new(23));
    assert!(
        last.is_active_root(),
        "rank-2 candidate must hold the root role after both deaths"
    );
    let post = last
        .completed_epochs()
        .iter()
        .filter(|er| er.started_at > kills[1].0)
        .count();
    assert!(post >= 2, "only {post} epochs after the second death");

    let (complete, _) = audit_epochs(&w, &succession, &data, &cfg, &kills, &[]);
    assert!(complete >= 2, "only {complete} Complete epochs in the run");
    // The final regime certifies Complete over exactly the 48 survivors.
    let lc = last.last_complete().expect("steady state re-certifies");
    assert_eq!(lc.roster.count as usize, n - 2);
}

#[test]
fn complete_certificates_never_lie_under_adversarial_kill_timing() {
    // Property test: sweep kills jittered around epoch boundaries (the
    // worst moments — a kill right after issue leaves a maximally
    // half-reported epoch in flight) across many seeds; *every* Complete
    // certificate must be the exact live-set IFI. Partials must occur too,
    // or the certificate would be vacuous.
    let n = 40;
    let mut total_complete = 0;
    let mut total_partial = 0;
    for seed in 0..12u64 {
        let (topo, data, cfg) = setup(n, 300 + seed);
        let succession = [PeerId::new(0), PeerId::new(5), PeerId::new(11)];
        let mh = MultiHierarchy::with_roots(&topo, &succession);
        let mut w = sansio_world(
            SimConfig::default().with_seed(400 + seed),
            ResilientProtocol::peers(&cfg, rc(), &topo, &mh, &data, None),
        );
        w.start();
        let mut rng = DetRng::new(500 + seed);
        // Root killed within ±300 ms of an epoch boundary (8 s grid).
        let boundary = 8_000_000 * (1 + rng.below(2));
        let root_kill = SimTime::from_micros((boundary - 300_000 + rng.below(600_000)) | 1);
        // Plus one non-succession casualty near a later boundary, so some
        // epochs lose a contributor mid-flight.
        let bystander = loop {
            let p = PeerId::new(rng.below(n as u64) as usize);
            if !succession.contains(&p) {
                break p;
            }
        };
        let by_kill = SimTime::from_micros((24_000_000 - 300_000 + rng.below(600_000)) | 1);
        let kills = [(root_kill, PeerId::new(0)), (by_kill, bystander)];
        for &(t, p) in &kills {
            w.schedule_kill(t, p);
        }
        w.run_until(SimTime::from_micros(90_000_000));

        let (c, p) = audit_epochs(&w, &succession, &data, &cfg, &kills, &[]);
        assert!(
            c + p > 0,
            "seed {seed}: the run must complete at least one epoch"
        );
        total_complete += c;
        total_partial += p;
    }
    assert!(total_complete > 0, "no Complete epoch across any seed");
    assert!(
        total_partial > 0,
        "no Partial epoch across any seed — the certificate discriminates nothing"
    );
}

#[test]
fn weibull_churn_schedule_runs_end_to_end_with_failover() {
    // Churn-driven execution: a heavy-tailed Weibull session schedule is
    // installed into the world (kills *and* revivals), the succession line
    // is exempted as the stability-recruited peers the paper assumes —
    // except the primary root, which we kill explicitly on top. The run
    // must keep certifying honest epochs throughout.
    let n = 50;
    let (topo, data, cfg) = setup(n, 601);
    let succession = [PeerId::new(0), PeerId::new(13), PeerId::new(37)];
    let mh = MultiHierarchy::with_roots(&topo, &succession);
    let horizon = SimTime::from_micros(120_000_000);
    let sched = ChurnSchedule::generate(
        n,
        SessionModel::Weibull {
            scale: Duration::from_secs(60),
            shape: 0.6,
            mean_off: Duration::from_secs(30),
        },
        horizon,
        &mut DetRng::new(602),
    )
    .excluding(&succession);

    let mut w = sansio_world(
        SimConfig::default().with_seed(603),
        ResilientProtocol::peers(&cfg, rc(), &topo, &mh, &data, None),
    );
    w.start();
    sched.install_world(&mut w);
    let root_kill = (SimTime::from_micros(20_200_001), PeerId::new(0));
    w.schedule_kill(root_kill.0, root_kill.1);
    w.run_until(horizon);

    // Replay the schedule into pinned kill/revive lists for the audit.
    let mut kills = vec![root_kill];
    let mut revives = Vec::new();
    for &e in sched.events() {
        match e {
            ChurnEvent::Down(t, p) => kills.push((t, p)),
            ChurnEvent::Up(t, p) => revives.push((t, p)),
        }
    }

    let successor = w.peer(PeerId::new(13));
    assert!(
        successor.is_active_root(),
        "rank-1 successor must take over under Weibull churn"
    );
    let post = successor
        .completed_epochs()
        .iter()
        .filter(|er| er.started_at > root_kill.0)
        .count();
    assert!(post >= 1, "no post-failover epoch under Weibull churn");

    let (complete, _partial) = audit_epochs(&w, &succession, &data, &cfg, &kills, &revives);
    assert!(
        complete >= 1,
        "churn never paused long enough for a Complete epoch — soften the model"
    );
}
