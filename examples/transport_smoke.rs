//! Answer an IFI query over a *real* transport — and reconcile its bytes
//! against the simulator.
//!
//! The protocol cores are sans-io: `NetFilterProtocol` never touches a
//! socket, a clock, or a channel; it turns events into effects. The DES
//! drives those cores against simulated time, and `ifi-transport` drives
//! the *same* cores with one thread per peer over in-process channels or
//! TCP loopback sockets. This example runs one query three ways — DES,
//! channel fabric, TCP fabric — and shows that all three produce the same
//! frequent-item answer and the same per-phase byte totals, which is what
//! makes the simulator's cost curves statements about a real deployment.
//!
//! ```text
//! cargo run --release --example transport_smoke
//! ```

use std::time::Duration as StdDuration;

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{sansio_world, DetRng, MetricsReport, PeerId, SimConfig};
use ifi_transport::{run_channel, run_tcp};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::wire::NfWire;
use netfilter::{NetFilterConfig, Threshold};

const PAPER_PHASES: [&str; 3] = ["filtering", "dissemination", "aggregation"];

fn main() {
    let seed = 2008;
    let peers = 60;

    // 1. Overlay, hierarchy, workload — the usual paper setup, sized for
    //    a demo.
    let mut rng = DetRng::new(seed);
    let topology = Topology::random_regular(peers, 4, &mut rng);
    let hierarchy = Hierarchy::bfs(&topology, PeerId::new(0));
    let data = SystemData::generate(
        &WorkloadParams {
            peers,
            items: 500,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    let config = NetFilterConfig::builder()
        .filter_size(32)
        .filters(2)
        .threshold(Threshold::Ratio(0.01))
        .build();
    let threshold = config.threshold.resolve(data.total_value());
    let cores = || NetFilterProtocol::peers(&config, &hierarchy, &data, None);

    // 2. Reference run under the DES.
    let mut w = sansio_world(SimConfig::default().with_seed(seed), cores());
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let des_answer = w
        .peer(hierarchy.root())
        .result()
        .expect("root must finish")
        .to_vec();
    let des_report = w.metrics_report();
    println!(
        "DES:     {:>2} frequent items (threshold {threshold}), {} B metered",
        des_answer.len(),
        des_report.total_bytes()
    );

    // 3. The same cores, driven by real threads.
    let wait = StdDuration::from_secs(30);

    let channel = run_channel(cores(), 1, wait);
    println!(
        "channel: {:>2} frequent items, {} B metered, {} frames, {:.1} ms",
        channel.outputs[0].1.answer.len(),
        channel.report.total_bytes(),
        channel.frames_sent,
        channel.elapsed.as_secs_f64() * 1e3
    );

    let tcp = run_tcp(cores(), NfWire::new(config.sizes), 1, wait)
        .expect("tcp loopback fabric setup failed");
    println!(
        "tcp:     {:>2} frequent items, {} B metered, {} frames, {:.1} ms",
        tcp.outputs[0].1.answer.len(),
        tcp.report.total_bytes(),
        tcp.frames_sent,
        tcp.elapsed.as_secs_f64() * 1e3
    );

    // 4. Reconcile: same answer, same bytes in every paper phase.
    assert_eq!(channel.outputs[0].1.answer, des_answer);
    assert_eq!(tcp.outputs[0].1.answer, des_answer);
    println!("\nper-phase byte reconciliation (DES / channel / tcp):");
    let phase = |r: &MetricsReport, p: &str| r.phase_bytes(p);
    for p in PAPER_PHASES {
        let (d, c, t) = (
            phase(&des_report, p),
            phase(&channel.report, p),
            phase(&tcp.report, p),
        );
        assert_eq!(d, c, "channel bytes diverge in {p}");
        assert_eq!(d, t, "tcp bytes diverge in {p}");
        println!("  {p:<13} {d:>8} B = {c:>8} B = {t:>8} B");
    }
    println!("\nall three drivers agree — answer and bytes are driver-invariant");
}
