//! Back-to-back transport runs in one process: the fabric's helper
//! threads are pooled and reused from run to run, so a run must carry no
//! state into the next. Fifty channel and fifty TCP runs at N = 64 each
//! reproduce the DES twin's answer and per-phase bytes, and shed nothing.

use std::time::Duration as StdDuration;

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, SimConfig};
use ifi_transport::{run_channel, run_tcp, RunOutcome};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::wire::NfWire;
use netfilter::{NetFilterConfig, Threshold};

const PAPER_PHASES: [&str; 3] = ["filtering", "dissemination", "aggregation"];
const RUNS: usize = 50;
const MAX_WAIT: StdDuration = StdDuration::from_secs(60);

#[test]
fn fifty_back_to_back_runs_per_fabric_match_the_des_twin() {
    let peers = 64;
    let data = SystemData::generate(
        &WorkloadParams {
            peers,
            items: 1280,
            instances_per_item: 10,
            theta: 1.0,
        },
        20080617,
    );
    let hierarchy = Hierarchy::balanced(peers, 3);
    let cfg = NetFilterConfig::builder()
        .filter_size(100)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build();
    let cores = || NetFilterProtocol::peers(&cfg, &hierarchy, &data, None);

    let mut w = sansio_world(SimConfig::default(), cores());
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let answer = w
        .peer(hierarchy.root())
        .result()
        .expect("DES root must finish");
    assert!(!answer.is_empty(), "scenario must have frequent items");
    let twin = w.metrics_report();

    let check = |run: usize, fabric: &str, o: &RunOutcome<NetFilterProtocol>| {
        let at = format!("{fabric} run {run}");
        assert_eq!(o.outputs.len(), 1, "{at}: exactly the root delivers");
        assert_eq!(o.outputs[0].0, hierarchy.root(), "{at}");
        assert_eq!(o.outputs[0].1.answer, answer, "{at}: answer diverges");
        assert_eq!(o.shed_frames, 0, "{at}: shed frames");
        assert!(
            o.report.warnings.is_empty(),
            "{at}: {:?}",
            o.report.warnings
        );
        for phase in PAPER_PHASES {
            assert_eq!(
                o.report.phase_bytes(phase),
                twin.phase_bytes(phase),
                "{at}: phase `{phase}` bytes diverge"
            );
        }
    };
    for run in 0..RUNS {
        check(run, "channel", &run_channel(cores(), 1, MAX_WAIT));
        let tcp =
            run_tcp(cores(), NfWire::new(cfg.sizes), 1, MAX_WAIT).expect("tcp fabric setup failed");
        check(run, "tcp", &tcp);
    }
}
