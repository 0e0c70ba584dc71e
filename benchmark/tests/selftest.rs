//! Self-tests of the benchmark itself, each workload at `--quick` scale.
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use ifi_benchmark::json::Json;
use ifi_benchmark::run::{run_workload, Budget, RunResult, END_TO_END};
use ifi_benchmark::spanned::Spanned;
use ifi_benchmark::workloads::NAMES;
use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    sansio_world, AllUp, Effects, FaultPlan, NodeEvent, PeerId, RelConfig, SansIo, SimConfig,
    SimTime,
};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::protocol::{NetFilterProtocol, NfTimer};
use netfilter::{NetFilterConfig, Threshold};

/// The allocator counters and the wall clock are process-wide, so every
/// test takes its turn: none may allocate while another measures.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/selftest")
}

fn quick(name: &str, seed: u64, trace: bool) -> RunResult {
    let r = run_workload(name, seed, Budget::Quick, trace, &out_dir()).expect("workload runs");
    assert_eq!(r.failed, 0, "{name}: {:?}", r.first_failure);
    r
}

/// Certified, reliable cores at N = 200 — every effect kind in play.
fn certified_cores(seed: u64) -> (Hierarchy, Vec<NetFilterProtocol>) {
    const PEERS: usize = 200;
    let params = WorkloadParams {
        peers: PEERS,
        items: 4_000,
        instances_per_item: 10,
        theta: 1.0,
    };
    let data = SystemData::generate_paper(&params, seed);
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = NetFilterConfig::builder()
        .filter_size(100)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .hash_seed(seed)
        .build();
    let threshold = cfg.threshold.resolve(data.total_value());
    let roster = NetFilterProtocol::roster(&h);
    let cores = (0..PEERS)
        .map(|i| {
            let p = PeerId::new(i);
            NetFilterProtocol::new(&cfg, &h, p, data.local_items(p).to_vec(), threshold)
                .with_reliability(RelConfig::default())
                .with_census(roster)
        })
        .collect();
    (h, cores)
}

#[test]
fn spanned_is_transparent_under_the_des() {
    let _turn = serial();
    let lossy = || {
        SimConfig::default()
            .with_seed(7)
            .with_faults(FaultPlan::none().with_drop(0.10).with_duplication(0.02))
    };
    let (h, cores) = certified_cores(11);
    let mut bare = sansio_world(lossy(), cores.clone());
    let wrapped = cores.into_iter().map(|c| Spanned::new(c, true));
    let mut spanned = sansio_world(lossy(), wrapped.collect());
    bare.enable_metrics_sink();
    spanned.enable_metrics_sink();
    bare.start();
    bare.run_to_quiescence();
    spanned.start();
    spanned.run_to_quiescence();

    let root = h.root();
    assert!(!bare.peer(root).delivered().is_empty());
    assert_eq!(bare.peer(root).delivered(), spanned.peer(root).delivered());
    assert_eq!(bare.events_processed(), spanned.events_processed());
    assert_eq!(bare.now(), spanned.now());
    assert_eq!(
        bare.metrics_report().to_json_stable(),
        spanned.metrics_report().to_json_stable()
    );
}

#[test]
fn spanned_re_derives_the_same_timer_tokens() {
    let _turn = serial();
    fn effects<P: SansIo>(
        core: &mut P,
        fx: Effects<P>,
        ev: NodeEvent<P::Msg, P::Timer>,
    ) -> (String, Effects<P>) {
        let (buf, token) = fx.into_parts();
        let mut fx = Effects::from_parts(buf, token);
        core.on_event(ev, SimTime::ZERO, &AllUp(200), &mut fx);
        let (buf, token) = fx.into_parts();
        (
            format!("{buf:?} next={token}"),
            Effects::from_parts(buf, token),
        )
    }
    // A leaf: `Start` sends its report and census, arming two timers; the
    // retransmit timers then fire and re-arm with fresh tokens.
    let (_, mut cores) = certified_cores(11);
    let mut bare = cores.pop().expect("200 cores");
    let mut wrapped = Spanned::new(bare.clone(), false);
    let (mut fx_bare, mut fx_wrapped) = (Effects::new(), Effects::new());
    let events = || {
        [
            NodeEvent::Start,
            NodeEvent::Timer {
                tag: NfTimer::Retransmit(0),
            },
            NodeEvent::Timer {
                tag: NfTimer::Retransmit(1),
            },
        ]
    };
    for (a, b) in events().into_iter().zip(events()) {
        let (seen_bare, next_bare) = effects(&mut bare, fx_bare, a);
        let (seen_wrapped, next_wrapped) = effects(&mut wrapped, fx_wrapped, b);
        assert!(seen_bare.contains("SetTimer"), "no timer in {seen_bare}");
        assert_eq!(seen_bare, seen_wrapped);
        (fx_bare, fx_wrapped) = (next_bare, next_wrapped);
    }
}

fn spec() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    let list = list.as_arr().expect("a list");
    list.iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn reported(r: &RunResult) -> Vec<(String, String)> {
    let pair = |m: &ifi_benchmark::run::Metric| (m.name.to_string(), m.unit.to_string());
    r.metrics.iter().map(pair).collect()
}

#[test]
fn every_workload_reports_the_declared_metrics_and_its_ledger_reconciles() {
    let _turn = serial();
    let spec = spec();
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    let declared: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(declared, NAMES);
    let end_to_end = names_and_units(spec.get("end_to_end").expect("end_to_end"));
    let per_layer = names_and_units(spec.get("per_layer").expect("per_layer"));
    let table: Vec<_> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(end_to_end, table);

    let mut bytes = Vec::new();
    for name in NAMES {
        let untraced = quick(name, 20080617, false);
        assert_eq!(reported(&untraced), end_to_end, "{name}");
        assert!(untraced.metrics.iter().all(|m| m.value > 0.0), "{name}");
        bytes.push(untraced.get("bytes_per_peer"));

        let traced = quick(name, 20080617, true);
        assert_eq!(reported(&traced), per_layer, "{name}");
        let get = |m: &str| traced.get(m).expect(m);
        let rows = if name.starts_with("des_") {
            assert_eq!(get("transport.spawn_ms"), 0.0);
            assert_eq!(get("core.codec.frames"), 0.0);
            get("core.handler_ms") + get("sim.kernel_ms")
        } else {
            assert_eq!(get("sim.kernel_ms"), 0.0);
            assert!(get("transport.spawn_ms") <= get("transport.answer_ms_p50"));
            get("transport.answer_ms_p50") + get("transport.teardown_ms")
        };
        let wall = get("trace.op_ms");
        assert!(
            (rows - wall).abs() <= 1e-6 * wall,
            "{name}: {rows} vs {wall}"
        );
        assert_eq!(get("core.codec.frames") > 0.0, name == "tcp_query_n64");
        assert_eq!(
            get("core.continuous.fence_ms") > 0.0,
            name == "des_standing_n1000"
        );
        assert_eq!(
            get("sim.reliable.retransmits") > 0.0,
            name == "des_lossy_n1000"
        );
        let ledger = out_dir().join(format!("ledger_{name}.json"));
        let ledger = Json::parse(&std::fs::read_to_string(ledger).expect("ledger written"))
            .expect("ledger parses");
        let gap = ledger.get("reconcile").and_then(|r| r.get("gap_share"));
        assert!(
            gap.and_then(Json::as_f64).expect("gap_share") < 0.02,
            "{name}"
        );
    }
    // Same inputs, same protocol: the channel fabric, the TCP fabric (and
    // the DES twin both are gated on) charge identical bytes.
    assert_eq!(bytes[3], bytes[4]);
}

#[test]
fn exact_metrics_repeat_for_a_seed_and_differ_between_seeds() {
    let _turn = serial();
    const EXACT_END_TO_END: [&str; 2] = ["bytes_per_peer", "sim_answer_ms_p50"];
    const EXACT_PER_LAYER: [&str; 6] = [
        "alloc.count_per_op",
        "alloc.bytes_per_op",
        "core.events",
        "sim.queue_high_water",
        "sim.timers_set",
        "agg.merges",
    ];
    let pick = |r: &RunResult, names: &[&str]| -> Vec<f64> {
        names.iter().map(|n| r.get(n).expect(n)).collect()
    };
    for name in ["des_lossy_n1000", "des_standing_n1000"] {
        let both = |seed| {
            let mut v = pick(&quick(name, seed, false), &EXACT_END_TO_END);
            v.extend(pick(&quick(name, seed, true), &EXACT_PER_LAYER));
            v
        };
        let (first, again, other) = (both(5), both(5), both(6));
        assert_eq!(first, again, "{name}: same seed, different exact metrics");
        assert_ne!(
            first[..2],
            other[..2],
            "{name}: seed does not reach the inputs"
        );
        assert_ne!(
            first[2], other[2],
            "{name}: alloc.count_per_op ignores the seed"
        );
    }
}
