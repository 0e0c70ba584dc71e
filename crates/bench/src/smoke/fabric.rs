//! Scenarios of the `transport` and `chaos` smoke rows (their gates:
//! [`super`]): one IFI query over the real threaded transport — channel
//! fabric and TCP loopback hub — reconciled with a DES run of the same
//! workload, clean or under the equivalent fault plan.
//!
//! Both fabrics drive the very same sans-io `NetFilterProtocol` cores the
//! simulator runs, so matching answers and per-phase bytes license
//! reading the simulator's cost curves as statements about a deployed
//! system.

use std::io;
use std::time::Duration as StdDuration;

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{sansio_world, DetRng, MetricsReport, MsgClass, PeerId, RelConfig, SimConfig};
use ifi_transport::{run_channel_chaos, run_tcp_chaos, ChaosPlan, RunOutcome};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::resilient::Certificate;
use netfilter::wire::NfWire;
use netfilter::{NetFilterConfig, Threshold};

use super::SmokeRun;
use crate::ShapeCheck;

/// The paper's three metered phases.
const PAPER_PHASES: [&str; 3] = ["filtering", "dissemination", "aggregation"];

/// Generous wall-clock bound against a wedged fabric; clean loopback runs
/// finish in milliseconds, chaos runs in a few seconds (reconnect backoff
/// and the 400 ms restart delay).
const MAX_WAIT: StdDuration = StdDuration::from_secs(60);

/// One fabric lane: the workload, tree and tuning both fabrics and the
/// DES reference share, plus the chaos plan (`None` on clean runs).
struct Lane {
    cfg: NetFilterConfig,
    hierarchy: Hierarchy,
    data: SystemData,
    chaos: Option<ChaosPlan>,
}

/// The clean lane: 40 peers, deep enough for a multi-level convergecast.
pub fn transport(seed: u64) -> Vec<SmokeRun> {
    Lane::new(seed, 40, 400, 32).run(seed, ["transport-channel", "transport-tcp"])
}

/// The chaos lane: 24 peers, deep enough that the crashed peer has a
/// subtree to strand.
pub fn chaos(seed: u64) -> Vec<SmokeRun> {
    let mut lane = Lane::new(seed, 24, 200, 24);
    lane.chaos = Some(lane.chaos_plan());
    lane.run(seed, ["chaos-channel", "chaos-tcp"])
}

/// Renders a warning tally as `label (Nx), ...` — or `none`.
fn render_warnings(warnings: &[(String, u64)]) -> String {
    if warnings.is_empty() {
        return "none".to_string();
    }
    warnings
        .iter()
        .map(|(label, count)| format!("`{label}` ({count}x)"))
        .collect::<Vec<_>>()
        .join(", ")
}

impl Lane {
    fn new(seed: u64, peers: usize, items: u64, filter_size: u32) -> Lane {
        let data = SystemData::generate(
            &WorkloadParams {
                peers,
                items,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        );
        let topo = Topology::random_regular(peers, 3, &mut DetRng::new(seed));
        let hierarchy = Hierarchy::bfs(&topo, PeerId::new(0));
        let cfg = NetFilterConfig::builder()
            .filter_size(filter_size)
            .filters(2)
            .threshold(Threshold::Ratio(0.01))
            .build();
        Lane {
            cfg,
            hierarchy,
            data,
            chaos: None,
        }
    }

    /// The reference chaos scenario from the robustness acceptance gate:
    /// ≥10% frame drop, one mid-epoch crash + delayed restart, one
    /// transient partition. Crash and partition avoid the root so the
    /// result delivery is exercised *under* recovery rather than torn
    /// down with it.
    fn chaos_plan(&self) -> ChaosPlan {
        let root = self.hierarchy.root();
        let crash = (0..self.data.peer_count())
            .map(PeerId::new)
            .find(|&p| p != root)
            .expect("scenario has a non-root peer");
        let islander = (0..self.data.peer_count())
            .map(PeerId::new)
            .find(|&p| p != root && p != crash)
            .expect("scenario has a third peer");
        ChaosPlan::new(0xC4A05)
            .with_drop(0.10)
            .with_crash(
                crash,
                StdDuration::from_millis(150),
                StdDuration::from_millis(400),
            )
            .with_partition(
                StdDuration::from_millis(50),
                StdDuration::from_millis(650),
                [islander],
            )
    }

    /// The DES reference: plain, or certified under the chaos plan's
    /// translated fault plan and crash schedule.
    fn des_run(&self, seed: u64) -> (Vec<(ItemId, u64)>, MetricsReport) {
        let mut sim = SimConfig::default().with_seed(seed);
        if let Some(plan) = &self.chaos {
            sim = sim.with_faults(plan.fault_plan());
        }
        let mut w = sansio_world(sim, self.peers());
        for (kill, revive, peer) in self.chaos.iter().flat_map(ChaosPlan::crash_schedule) {
            w.schedule_kill(kill, peer);
            w.schedule_revive(revive, peer);
        }
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();
        let root = self.hierarchy.root();
        if self.chaos.is_some() {
            assert_eq!(
                w.peer(root).certificate(),
                Some(Certificate::Complete),
                "DES run under faults must certify complete coverage"
            );
        }
        let answer = w.peer(root).result().expect("DES root must finish");
        (answer.to_vec(), w.metrics_report())
    }

    /// The peer population for the DES and both fabrics; the chaos lane's
    /// cores carry the reliability envelope and census.
    fn peers(&self) -> Vec<NetFilterProtocol> {
        let (cfg, h, data) = (&self.cfg, &self.hierarchy, &self.data);
        if self.chaos.is_none() {
            return NetFilterProtocol::peers(cfg, h, data, None);
        }
        let roster = NetFilterProtocol::roster(h);
        NetFilterProtocol::peers(cfg, h, data, Some(RelConfig::default()))
            .into_iter()
            .map(|core| core.with_census(roster))
            .collect()
    }

    /// The DES reference, then the channel and TCP fabrics against it.
    fn run(&self, seed: u64, names: [&'static str; 2]) -> Vec<SmokeRun> {
        let des = self.des_run(seed);
        println!(
            "  DES reference: {} frequent items, {} B total, {} B retransmit class",
            des.0.len(),
            des.1.total_bytes(),
            des.1.class_bytes(MsgClass::RETRANSMIT),
        );
        let plan = self.chaos.clone().unwrap_or_else(ChaosPlan::none);
        let channel = run_channel_chaos(self.peers(), 1, MAX_WAIT, plan.clone());
        let channel = self.reconcile(names[0], &des, Ok(channel));
        let wire = NfWire::new(self.cfg.sizes);
        let tcp = run_tcp_chaos(self.peers(), wire, 1, MAX_WAIT, plan);
        vec![channel, self.reconcile(names[1], &des, tcp)]
    }

    /// Checks one fabric's outcome against the DES reference.
    fn reconcile(
        &self,
        name: &'static str,
        (des_answer, des_report): &(Vec<(ItemId, u64)>, MetricsReport),
        outcome: io::Result<RunOutcome<NetFilterProtocol>>,
    ) -> SmokeRun {
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                return SmokeRun {
                    name,
                    report: None,
                    checks: vec![ShapeCheck::new(
                        "TCP loopback fabric sets up",
                        false,
                        format!("setup failed: {e}"),
                    )],
                }
            }
        };
        let chaos = self.chaos.is_some();
        let mut checks = Vec::new();

        let root = self.hierarchy.root();
        let answer_ok = outcome.outputs.len() == 1
            && outcome.outputs[0].0 == root
            && outcome.outputs[0].1.answer == *des_answer;
        checks.push(ShapeCheck::new(
            if chaos {
                "root delivers exactly the faulted-DES answer under chaos"
            } else {
                "root delivers exactly the DES answer over the real transport"
            },
            answer_ok,
            format!(
                "deliveries {}, {} frequent items expected",
                outcome.outputs.len(),
                des_answer.len()
            ),
        ));

        // Census (`FAILOVER`) bytes are zero on both sides of a clean run.
        let mut detail = Vec::new();
        let mut bytes_ok = true;
        for phase in PAPER_PHASES {
            let got = outcome.report.phase_bytes(phase);
            let want = des_report.phase_bytes(phase);
            bytes_ok &= got == want;
            detail.push(format!("{phase}: transport {got} B vs DES {want} B"));
        }
        let got = outcome.report.class_bytes(MsgClass::FAILOVER);
        let want = des_report.class_bytes(MsgClass::FAILOVER);
        bytes_ok &= got == want;
        detail.push(format!("census: transport {got} B vs DES {want} B"));
        checks.push(ShapeCheck::new(
            if chaos {
                "paper-phase and census bytes reconcile with the faulted DES"
            } else {
                "per-phase bytes reconcile with the DES to the byte"
            },
            bytes_ok,
            detail.join(", "),
        ));

        let warnings = render_warnings(&outcome.report.warnings);
        if chaos {
            let cert = outcome.outputs.first().and_then(|(_, d)| d.certificate);
            checks.push(ShapeCheck::new(
                "census certificate is Complete — every loss was recovered",
                cert == Some(Certificate::Complete),
                format!("certificate: {cert:?}"),
            ));
            checks.push(ShapeCheck::new(
                "the chaos layer actually bit: drops > 0 and exactly one restart",
                outcome.chaos_drops > 0 && outcome.restarts == 1,
                format!(
                    "chaos drops {}, restarts {}, shed frames {}",
                    outcome.chaos_drops, outcome.restarts, outcome.shed_frames
                ),
            ));
        } else {
            checks.push(ShapeCheck::new(
                "no dropped-frame or stray-timer warnings",
                outcome.report.warnings.is_empty(),
                format!("warnings: {warnings}"),
            ));
        }

        println!(
            "  {name}: {} frames on the fabric, {} dropped by chaos, {} restart(s), \
             retransmit class {} B, {:.1} ms wall clock (warnings: {warnings})",
            outcome.frames_sent,
            outcome.chaos_drops,
            outcome.restarts,
            outcome.report.class_bytes(MsgClass::RETRANSMIT),
            outcome.elapsed.as_secs_f64() * 1e3,
        );

        SmokeRun {
            name,
            report: Some(outcome.report),
            checks,
        }
    }
}
