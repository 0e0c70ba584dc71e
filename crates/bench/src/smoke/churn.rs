//! Scenarios of the `churn` smoke row (its gate: [`super`]): root
//! failover and epoch certificates on the multi-root resilient engine.

use ifi_hierarchy::MultiHierarchy;
use ifi_overlay::churn::{ChurnEvent, ChurnSchedule, SessionModel};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{sansio_world, Des, DetRng, Duration, MsgClass, PeerId, SimConfig, SimTime, World};
use ifi_workload::{GroundTruth, ItemId, SystemData, WorkloadParams};
use netfilter::phases;
use netfilter::resilient::{ResilientConfig, ResilientProtocol};
use netfilter::{NetFilterConfig, Threshold};

use super::SmokeRun;
use crate::ShapeCheck;

/// Peers in each smoke scenario (small enough for a CI smoke lane).
const PEERS: usize = 50;

fn workload(seed: u64) -> SystemData {
    SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 1_500,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    )
}

fn config() -> NetFilterConfig {
    NetFilterConfig::builder()
        .filter_size(40)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build()
}

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

/// The paper's message classes plus the maintenance classes — everything
/// the failover machinery must NOT perturb on a churn-free run.
const PROTECTED: [MsgClass; 5] = [
    MsgClass::FILTERING,
    MsgClass::DISSEMINATION,
    MsgClass::AGGREGATION,
    MsgClass::HEARTBEAT,
    MsgClass::CONTROL,
];

fn class_profile(w: &World<Des<ResilientProtocol>>) -> [u64; 5] {
    PROTECTED.map(|c| w.metrics().class_bytes(c))
}

/// Zero-churn control: multi-root failover must be metering-invisible in
/// the paper's classes, and every epoch certifies `Complete`.
fn control(seed: u64) -> SmokeRun {
    let topo = Topology::random_regular(PEERS, 5, &mut DetRng::new(seed));
    let data = workload(seed);
    let cfg = config();
    let truth = GroundTruth::compute(&data);
    let expected = truth.frequent_items(cfg.threshold.resolve(data.total_value()));
    let horizon = SimTime::from_micros(40_000_000);

    let one_tree = MultiHierarchy::with_roots(&topo, &[PeerId::new(0)]);
    let mut single = sansio_world(
        SimConfig::default().with_seed(seed),
        ResilientProtocol::peers(&cfg, rc(), &topo, &one_tree, &data, None),
    );
    single.start();
    single.run_until(horizon);
    let single_profile = class_profile(&single);

    let mh = crate::par::build_multi_hierarchy(&topo, &[PeerId::new(0), PeerId::new(17)]);
    let mut multi = sansio_world(
        SimConfig::default().with_seed(seed),
        ResilientProtocol::peers(&cfg, rc(), &topo, &mh, &data, None),
    );
    multi.enable_metrics_sink();
    multi.start();
    multi.run_until(horizon);
    let report = multi.sink().report();

    let mut checks = Vec::new();
    checks.push(ShapeCheck::new(
        "zero-churn multi-root run is byte-identical to single-root in paper + maintenance classes",
        class_profile(&multi) == single_profile,
        format!("classes {PROTECTED:?}"),
    ));
    let failover_class = multi.metrics().class_bytes(MsgClass::FAILOVER);
    checks.push(ShapeCheck::new(
        "failover machinery is metered in its own class and phase, and they agree",
        failover_class > 0 && report.phase_bytes(phases::FAILOVER) == failover_class,
        format!(
            "{failover_class} failover B (class) vs {} B (phase)",
            report.phase_bytes(phases::FAILOVER)
        ),
    ));
    let done = multi.peer(PeerId::new(0)).completed_epochs();
    checks.push(ShapeCheck::new(
        "every zero-churn epoch certifies Complete with the exact answer",
        done.len() >= 3
            && done
                .iter()
                .all(|er| er.is_complete() && er.answer == expected),
        format!("{} epochs over {PEERS} peers", done.len()),
    ));

    SmokeRun {
        name: "churn-control",
        report: Some(report),
        checks,
    }
}

/// Exact IFI over the peers `alive`, at the threshold resolved against
/// the full workload (the protocol holds it fixed across churn).
fn expected_over(
    data: &SystemData,
    cfg: &NetFilterConfig,
    alive: impl Fn(PeerId) -> bool,
) -> Vec<(ItemId, u64)> {
    let surviving = SystemData::from_local_sets(
        (0..data.peer_count())
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

/// Weibull churn plus an explicit mid-run root kill: the succession line
/// must keep certified epochs flowing.
fn weibull_failover(seed: u64) -> SmokeRun {
    let topo = Topology::random_regular(PEERS, 5, &mut DetRng::new(seed ^ 0xc0ffee));
    let data = workload(seed ^ 0xc0ffee);
    let cfg = config();
    let succession = [PeerId::new(0), PeerId::new(13), PeerId::new(37)];
    let mh = crate::par::build_multi_hierarchy(&topo, &succession);
    let horizon = SimTime::from_micros(120_000_000);

    // Heavy-tailed sessions for a flaky minority (the last fifth of the
    // peer ids); the stable majority — including the succession line, the
    // stability-recruited spine the paper assumes — sits the churn out.
    // The primary root is killed explicitly below instead. With the whole
    // population churning, some roster peer is mid-flap during nearly
    // every epoch and nothing ever certifies Complete; the gate needs
    // quiet windows to discriminate.
    let stable: Vec<PeerId> = (0..PEERS * 4 / 5).map(PeerId::new).collect();
    let sched = ChurnSchedule::generate(
        PEERS,
        SessionModel::Weibull {
            scale: Duration::from_secs(60),
            shape: 0.6,
            mean_off: Duration::from_secs(30),
        },
        horizon,
        &mut DetRng::new(seed.wrapping_mul(3) + 1),
    )
    .excluding(&stable);

    let mut w = sansio_world(
        SimConfig::default().with_seed(seed),
        ResilientProtocol::peers(&cfg, rc(), &topo, &mh, &data, None),
    );
    w.enable_metrics_sink();
    w.start();
    sched.install_world(&mut w);
    let root_kill = SimTime::from_micros(20_200_001);
    w.schedule_kill(root_kill, PeerId::new(0));
    w.run_until(horizon);
    let report = w.sink().report();

    let successor = w.peer(PeerId::new(13));
    let mut checks = Vec::new();
    checks.push(ShapeCheck::new(
        "the rank-1 successor holds the root role after the primary dies",
        successor.is_active_root(),
        format!("primary killed at {root_kill}"),
    ));
    let post_complete: Vec<_> = successor
        .completed_epochs()
        .iter()
        .filter(|er| er.started_at > root_kill && er.is_complete())
        .collect();
    checks.push(ShapeCheck::new(
        "at least one post-failover epoch certifies Complete",
        !post_complete.is_empty(),
        format!(
            "{} certified of {} post-failover epochs",
            post_complete.len(),
            successor
                .completed_epochs()
                .iter()
                .filter(|er| er.started_at > root_kill)
                .count()
        ),
    ));
    // The certified answer is the exact IFI over the peers alive at issue
    // time, replayed from the pinned schedule.
    let honest = post_complete.iter().all(|er| {
        let at = er.started_at;
        let alive = |p: PeerId| {
            if p == PeerId::new(0) {
                return at < root_kill;
            }
            let mut up = true;
            for &e in sched.events() {
                match e {
                    ChurnEvent::Down(t, q) if q == p && t <= at => up = false,
                    ChurnEvent::Up(t, q) if q == p && t <= at => up = true,
                    _ => {}
                }
            }
            up
        };
        er.answer == expected_over(&data, &cfg, alive)
    });
    checks.push(ShapeCheck::new(
        "every post-failover Complete certificate is the exact live-set IFI",
        honest,
        format!("{} certificates audited", post_complete.len()),
    ));
    checks.push(ShapeCheck::new(
        "failover traffic (takeover, stamps, censuses) is metered in its class",
        w.metrics().class_bytes(MsgClass::FAILOVER) > 0,
        format!("{} failover B", w.metrics().class_bytes(MsgClass::FAILOVER)),
    ));

    SmokeRun {
        name: "churn-weibull-failover",
        report: Some(report),
        checks,
    }
}

/// Runs both churn scenarios.
pub(crate) fn run_smoke(seed: u64) -> Vec<SmokeRun> {
    vec![control(seed), weibull_failover(seed)]
}
