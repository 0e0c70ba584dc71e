//! Transport smoke: one IFI query answered over the *real* threaded
//! transport, reconciled byte-for-byte against a DES run — as a CI gate.
//!
//! Two fabrics drive the very same sans-io `NetFilterProtocol` cores the
//! simulator runs:
//!
//! * **transport-channel** — one thread per peer, in-process mpsc
//!   channels as the message fabric.
//! * **transport-tcp** — the same peers behind a TCP-loopback hub, every
//!   frame serialized through the paper-width [`netfilter::wire::NfWire`]
//!   codec.
//!
//! The gate for each: the root delivers exactly the DES answer (which the
//! `exactness` suite in turn pins to ground truth), and the metered bytes
//! in each paper phase — filtering, dissemination, aggregation — equal the
//! DES run's to the byte. That reconciliation is what licenses reading the
//! simulator's cost curves as statements about a deployed system.
//!
//! `experiments transport-smoke [--metrics-out dir]` prints the checks
//! and writes each fabric's full [`MetricsReport`] as
//! `<dir>/<name>.metrics.json`, the same artifact shape the other smoke
//! lanes upload.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration as StdDuration;

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{DetRng, MetricsReport, PeerId, SimConfig};
use ifi_transport::{run_channel, run_tcp, RunOutcome};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::wire::NfWire;
use netfilter::{NetFilterConfig, Threshold};

use crate::ShapeCheck;

/// Peers in the smoke scenario (small enough for a CI smoke lane, deep
/// enough for a multi-level convergecast).
const PEERS: usize = 40;

/// The paper's three metered phases.
const PAPER_PHASES: [&str; 3] = ["filtering", "dissemination", "aggregation"];

/// Generous wall-clock bound; loopback runs finish in milliseconds.
const MAX_WAIT: StdDuration = StdDuration::from_secs(60);

/// One transport scenario: its metrics report plus the checks it must
/// pass.
#[derive(Debug)]
pub struct TransportRun {
    /// Scenario name; the metrics artifact is `<name>.metrics.json`.
    pub name: &'static str,
    /// Full per-phase / per-peer metrics of the run.
    pub report: MetricsReport,
    /// Exactness and byte-reconciliation checks.
    pub checks: Vec<ShapeCheck>,
}

struct Scenario {
    cfg: NetFilterConfig,
    hierarchy: Hierarchy,
    data: SystemData,
}

fn scenario(seed: u64) -> Scenario {
    let data = SystemData::generate(
        &WorkloadParams {
            peers: PEERS,
            items: 400,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    let topo = Topology::random_regular(PEERS, 3, &mut DetRng::new(seed));
    let hierarchy = Hierarchy::bfs(&topo, PeerId::new(0));
    let cfg = NetFilterConfig::builder()
        .filter_size(32)
        .filters(2)
        .threshold(Threshold::Ratio(0.01))
        .build();
    Scenario {
        cfg,
        hierarchy,
        data,
    }
}

fn des_run(s: &Scenario, seed: u64) -> (Vec<(ItemId, u64)>, MetricsReport) {
    let sim = SimConfig::default().with_seed(seed);
    let mut w = NetFilterProtocol::build_world(&s.cfg, &s.hierarchy, &s.data, sim);
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let answer = w
        .peer(s.hierarchy.root())
        .result()
        .expect("DES root must finish")
        .to_vec();
    (answer, w.metrics_report())
}

fn peers(s: &Scenario) -> Vec<NetFilterProtocol> {
    let threshold = s.cfg.threshold.resolve(s.data.total_value());
    (0..s.data.peer_count())
        .map(|i| {
            let p = PeerId::new(i);
            NetFilterProtocol::new(
                &s.cfg,
                &s.hierarchy,
                p,
                s.data.local_items(p).to_vec(),
                threshold,
            )
        })
        .collect()
}

/// Renders a warning tally as `label (Nx), ...` — or `none`.
pub(crate) fn render_warnings(warnings: &[(String, u64)]) -> String {
    if warnings.is_empty() {
        return "none".to_string();
    }
    warnings
        .iter()
        .map(|(label, count)| format!("`{label}` ({count}x)"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Checks one fabric's outcome against the DES reference.
fn reconcile(
    name: &'static str,
    s: &Scenario,
    des_answer: &[(ItemId, u64)],
    des_report: &MetricsReport,
    outcome: RunOutcome<NetFilterProtocol>,
) -> TransportRun {
    let mut checks = Vec::new();

    let root = s.hierarchy.root();
    let answer_ok = outcome.outputs.len() == 1
        && outcome.outputs[0].0 == root
        && outcome.outputs[0].1.answer == des_answer;
    checks.push(ShapeCheck::new(
        "root delivers exactly the DES answer over the real transport",
        answer_ok,
        format!(
            "deliveries {}, {} frequent items expected",
            outcome.outputs.len(),
            des_answer.len()
        ),
    ));

    let mut detail = Vec::new();
    let mut bytes_ok = true;
    for phase in PAPER_PHASES {
        let got = outcome.report.phase_bytes(phase);
        let want = des_report.phase_bytes(phase);
        bytes_ok &= got == want;
        detail.push(format!("{phase}: transport {got} B vs DES {want} B"));
    }
    checks.push(ShapeCheck::new(
        "per-phase bytes reconcile with the DES to the byte",
        bytes_ok,
        detail.join(", "),
    ));

    // Surface every warning the run metered — a clean lane prints
    // nothing, a dirty one says exactly what went wrong, and the same
    // text rides in the failing check so the non-zero exit is
    // self-explaining.
    for (label, count) in &outcome.report.warnings {
        println!("  {name}: warning `{label}` ({count}x)");
    }
    checks.push(ShapeCheck::new(
        "no dropped-frame or stray-timer warnings",
        outcome.report.warnings.is_empty(),
        format!("warnings: {}", render_warnings(&outcome.report.warnings)),
    ));

    println!(
        "  {name}: {} frames on the fabric, {:.1} ms wall clock",
        outcome.frames_sent,
        outcome.elapsed.as_secs_f64() * 1e3
    );

    TransportRun {
        name,
        report: outcome.report,
        checks,
    }
}

/// Runs the transport smoke: DES reference, then the channel and TCP
/// fabrics against it.
pub fn run_smoke(seed: u64) -> Vec<TransportRun> {
    let s = scenario(seed);
    let (des_answer, des_report) = des_run(&s, seed);
    println!(
        "  DES reference: {} frequent items, {} B total",
        des_answer.len(),
        des_report.total_bytes()
    );

    let channel = run_channel(peers(&s), 1, MAX_WAIT);
    let channel_run = reconcile("transport-channel", &s, &des_answer, &des_report, channel);

    let tcp_run = match run_tcp(peers(&s), NfWire::new(s.cfg.sizes), 1, MAX_WAIT) {
        Ok(outcome) => reconcile("transport-tcp", &s, &des_answer, &des_report, outcome),
        Err(e) => TransportRun {
            name: "transport-tcp",
            report: ifi_sim::EventSink::new(PEERS).report(),
            checks: vec![ShapeCheck::new(
                "TCP loopback fabric sets up",
                false,
                format!("setup failed: {e}"),
            )],
        },
    };

    vec![channel_run, tcp_run]
}

/// Writes each run's full report as `<dir>/<name>.metrics.json`.
///
/// # Errors
///
/// Fails if the directory cannot be created or a file cannot be written.
pub fn write_metrics(dir: &Path, runs: &[TransportRun]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(runs.len());
    for run in runs {
        let path = dir.join(format!("{}.metrics.json", run.name));
        std::fs::write(&path, run.report.to_json())?;
        paths.push(path);
    }
    Ok(paths)
}
