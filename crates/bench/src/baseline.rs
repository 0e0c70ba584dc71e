//! Committed [`MetricsReport`] baselines and regression checking.
//!
//! A fixed set of tiny deterministic scenarios (`N = 100`, `n = 1000`)
//! exercises every instrumented path — the netFilter engine, the
//! gossip-filtered variant, and §IV-E sampling — and snapshots each
//! scenario's *stable* report JSON (wall-clock fields excluded) under a
//! baselines directory committed to the repository.
//!
//! `experiments -- write-baselines` refreshes the snapshots;
//! `experiments -- check-baselines` (run in CI) re-runs the scenarios and
//! compares field-by-field:
//!
//! * **structure and counts are exact** — phase labels, message counts,
//!   event counts, peer counts, and the scenario's answer digest
//!   (threshold, result size, item checksum) must match byte-for-byte;
//!   any difference is an exactness regression;
//! * **byte fields tolerate bounded drift** — `bytes`, `total_bytes`,
//!   `avg_bytes_per_peer`, and `max_peer_bytes` may move by a relative
//!   `tolerance` (default 1 %) before failing, so deliberate wire-format
//!   tweaks fail loudly while float formatting noise does not.

use std::path::{Path, PathBuf};

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{DetRng, EventSink, MetricsReport, PeerId};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::continuous::ContinuousConfig;
use netfilter::engines::{ContinuousEngine, Engine, SketchEngine, ThresholdEngine, TopKEngine};
use netfilter::local_threshold::LocalThresholdConfig;
use netfilter::sketch::SketchConfig;
use netfilter::topk::TopKConfig;
use netfilter::{gossip_filter, NetFilter, NetFilterConfig, Threshold, WireSizes};

/// Seed shared by every baseline scenario (the harness default).
pub const BASELINE_SEED: u64 = 20080617;
/// Peers in every baseline scenario.
const PEERS: usize = 100;
/// Distinct items in every baseline scenario.
const ITEMS: u64 = 1_000;

/// One reproducible scenario: a name plus the stable snapshot of its run.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Scenario name (also the snapshot's file stem).
    pub name: &'static str,
    /// The run's metrics report (with wall-clock data — strip via
    /// [`MetricsReport::to_json_stable`] for snapshots).
    pub report: MetricsReport,
    /// Resolved absolute threshold of the query (0 where not applicable).
    pub threshold: u64,
    /// Result size of the query (0 where not applicable).
    pub result_items: usize,
    /// Order-sensitive digest of the result `(id, value)` pairs.
    pub result_checksum: u64,
}

impl BaselineRun {
    /// The snapshot file contents: answer digest header + stable report.
    pub fn snapshot(&self) -> String {
        format!(
            "{{\n\"scenario\": {:?},\n\"threshold\": {},\n\"result_items\": {},\n\"result_checksum\": {},\n\"report\": {}}}\n",
            self.name,
            self.threshold,
            self.result_items,
            self.result_checksum,
            self.report.to_json_stable()
        )
    }
}

fn digest(items: &[(ifi_workload::ItemId, u64)]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &(id, v) in items {
        acc = ifi_sim::mix64(acc ^ id.0);
        acc = ifi_sim::mix64(acc ^ v);
    }
    acc
}

fn workload(theta: f64) -> SystemData {
    SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: ITEMS,
            instances_per_item: 10,
            theta,
        },
        BASELINE_SEED,
    )
}

fn engine_scenario(name: &'static str, theta: f64, g: u32, f: u32, phi: f64) -> BaselineRun {
    let data = workload(theta);
    let h = Hierarchy::balanced(PEERS, 3);
    let config = NetFilterConfig::builder()
        .filter_size(g)
        .filters(f)
        .threshold(Threshold::Ratio(phi))
        .hash_seed(BASELINE_SEED)
        .build();
    let (run, report) = NetFilter::new(config).run_instrumented(&h, &data);
    BaselineRun {
        name,
        report,
        threshold: run.threshold(),
        result_items: run.frequent_items().len(),
        result_checksum: digest(run.frequent_items()),
    }
}

fn gossip_scenario() -> BaselineRun {
    let data = workload(1.0);
    let mut rng = DetRng::new(BASELINE_SEED);
    let topo = Topology::random_regular(PEERS, 5, &mut rng);
    let h = Hierarchy::bfs(&topo, PeerId::new(0));
    let base = NetFilterConfig::builder()
        .filter_size(40)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .hash_seed(BASELINE_SEED)
        .build();
    let cfg = gossip_filter::GossipFilterConfig::conservative(base, PEERS);
    let mut sink = EventSink::new(PEERS);
    let run = gossip_filter::run_with_sink(&topo, &h, &data, &cfg, &mut rng, &mut sink);
    BaselineRun {
        name: "gossip-filter",
        report: sink.report(),
        threshold: run.threshold(),
        result_items: run.frequent_items().len(),
        result_checksum: digest(run.frequent_items()),
    }
}

fn sampling_scenario() -> BaselineRun {
    let data = workload(1.0);
    let h = Hierarchy::balanced(PEERS, 3);
    let t = Threshold::Ratio(0.01).resolve(data.total_value());
    let mut sink = EventSink::new(PEERS);
    let stats = ifi_agg::sampling::estimate_with_sink(
        &h,
        &data,
        t,
        &ifi_agg::sampling::SamplingConfig {
            branches: 6,
            items_per_peer: 40,
        },
        &WireSizes::default(),
        &mut DetRng::new(BASELINE_SEED),
        &mut sink,
    );
    BaselineRun {
        name: "sampling",
        report: sink.report(),
        threshold: t,
        result_items: stats.sampled_items,
        result_checksum: ifi_sim::mix64(stats.n_hat ^ stats.r_hat.rotate_left(32)),
    }
}

/// One approximate-engine scenario: the engine's reference tuning run
/// to quiescence under the seeded DES; the snapshot pins its per-class
/// traffic and answer digest.
fn approx_scenario(name: &'static str, engine: &dyn Engine, threshold: u64) -> BaselineRun {
    let data = workload(1.0);
    let h = Hierarchy::balanced(PEERS, 3);
    let sim = ifi_sim::SimConfig::default().with_seed(BASELINE_SEED);
    let out = engine.run_des(&h, &data, sim);
    BaselineRun {
        name,
        report: out.report,
        threshold,
        result_items: out.items.len(),
        result_checksum: digest(&out.items),
    }
}

fn approx_scenarios() -> Vec<BaselineRun> {
    let data = workload(1.0);
    let truth = ifi_workload::GroundTruth::compute(&data);
    let t = Threshold::Ratio(0.01).resolve(data.total_value());
    let heavy = truth.globals()[0].0;
    vec![
        approx_scenario(
            "approx-sketch-c32",
            &SketchEngine {
                config: SketchConfig::new(32),
            },
            t,
        ),
        approx_scenario(
            "approx-topk-k10",
            &TopKEngine::new(TopKConfig::lossless(10)),
            0,
        ),
        approx_scenario(
            "approx-threshold",
            &ThresholdEngine {
                config: LocalThresholdConfig::new(Threshold::Ratio(0.01)),
                item: heavy,
            },
            t,
        ),
    ]
}

/// The continuous standing-query scenarios: the delta convergecast over
/// an eight-fence run, plain-windowed and time-faded. Appended *after*
/// every pre-existing scenario so their committed snapshots never move.
fn continuous_scenarios() -> Vec<BaselineRun> {
    vec![
        approx_scenario(
            "continuous-delta-w4",
            &ContinuousEngine {
                config: ContinuousConfig::new(4, 8),
                threshold: 40,
            },
            40,
        ),
        approx_scenario(
            "continuous-faded",
            &ContinuousEngine {
                config: ContinuousConfig::new(4, 8).with_fade(1, 2),
                threshold: 20,
            },
            20,
        ),
    ]
}

/// Runs every baseline scenario. Deterministic: two invocations in the
/// same build produce identical [`BaselineRun::snapshot`] strings.
pub fn run_all() -> Vec<BaselineRun> {
    let mut runs = vec![
        engine_scenario("netfilter-g100-f3", 1.0, 100, 3, 0.01),
        engine_scenario("netfilter-g20-f2", 1.0, 20, 2, 0.01),
        engine_scenario("netfilter-theta08", 0.8, 100, 3, 0.01),
        gossip_scenario(),
        sampling_scenario(),
    ];
    runs.extend(approx_scenarios());
    runs.extend(continuous_scenarios());
    runs
}

/// Writes (or refreshes) every scenario snapshot as
/// `<dir>/<name>.baseline.json`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_baselines(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for run in run_all() {
        let path = dir.join(format!("{}.baseline.json", run.name));
        std::fs::write(&path, run.snapshot())?;
        written.push(path);
    }
    Ok(written)
}

/// Splits a snapshot into `(key, value)` pairs in order of appearance.
/// The snapshot format is one field per line, so line-based extraction is
/// exact; array brackets and braces contribute no pairs.
fn fields(snapshot: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in snapshot.lines() {
        let line = line.trim().trim_end_matches(',');
        // `{ "class": "x", "bytes": 1, "messages": 2 }` packs one class
        // entry per line; split it into its parts.
        for part in line
            .trim_start_matches("{ ")
            .trim_end_matches(" }")
            .split("\", \"")
            .flat_map(|p| p.split(", \""))
        {
            let part = part.trim().trim_start_matches('"').trim_end_matches(',');
            if let Some((k, v)) = part.split_once(':') {
                let key = k.trim().trim_matches('"').to_string();
                let val = v.trim().to_string();
                if !key.is_empty() && !val.is_empty() && val != "[" && val != "{" {
                    out.push((key, val));
                }
            }
        }
    }
    out
}

/// Whether drift in `key` is tolerated (byte magnitudes) rather than
/// required to be exact (structure, counts, digests).
fn is_byte_field(key: &str) -> bool {
    matches!(
        key,
        "bytes" | "total_bytes" | "avg_bytes_per_peer" | "max_peer_bytes"
    )
}

/// Compares a fresh snapshot against the committed one. Returns the list
/// of discrepancies (empty = pass).
pub fn compare_snapshots(name: &str, committed: &str, fresh: &str, tolerance: f64) -> Vec<String> {
    let mut problems = Vec::new();
    let want = fields(committed);
    let got = fields(fresh);
    if want.len() != got.len() {
        problems.push(format!(
            "{name}: field count changed ({} committed vs {} fresh) — structure drifted",
            want.len(),
            got.len()
        ));
        return problems;
    }
    for ((wk, wv), (gk, gv)) in want.iter().zip(&got) {
        if wk != gk {
            problems.push(format!(
                "{name}: field order changed (committed {wk:?} vs fresh {gk:?})"
            ));
            return problems;
        }
        if wv == gv {
            continue;
        }
        if is_byte_field(wk) {
            let (w, g): (f64, f64) = match (wv.parse(), gv.parse()) {
                (Ok(w), Ok(g)) => (w, g),
                _ => {
                    problems.push(format!("{name}: {wk} unparsable ({wv:?} vs {gv:?})"));
                    continue;
                }
            };
            let denom = w.abs().max(1.0);
            let drift = (g - w).abs() / denom;
            if drift > tolerance {
                problems.push(format!(
                    "{name}: {wk} drifted {:.2}% (committed {w}, fresh {g}, tolerance {:.2}%)",
                    drift * 100.0,
                    tolerance * 100.0
                ));
            }
        } else {
            problems.push(format!(
                "{name}: exact field {wk} changed (committed {wv}, fresh {gv})"
            ));
        }
    }
    problems
}

/// Re-runs every scenario and checks it against `<dir>/<name>.baseline.json`.
/// Returns human-readable problem lines (empty = pass). A missing snapshot
/// file is itself a problem (run `write-baselines` first).
pub fn check_baselines(dir: &Path, tolerance: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for run in run_all() {
        let path = dir.join(format!("{}.baseline.json", run.name));
        match std::fs::read_to_string(&path) {
            Ok(committed) => {
                problems.extend(compare_snapshots(
                    run.name,
                    &committed,
                    &run.snapshot(),
                    tolerance,
                ));
            }
            Err(e) => problems.push(format!(
                "{}: cannot read {} ({e}) — run `experiments -- write-baselines` and commit the result",
                run.name,
                path.display()
            )),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        let a: Vec<String> = run_all().iter().map(BaselineRun::snapshot).collect();
        let b: Vec<String> = run_all().iter().map(BaselineRun::snapshot).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_names_are_unique_and_reports_nonempty() {
        let runs = run_all();
        let names: std::collections::HashSet<_> = runs.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), runs.len());
        for r in &runs {
            assert!(r.report.total_bytes() > 0, "{} moved no bytes", r.name);
            assert!(
                !r.snapshot().contains("wall"),
                "{} leaked wall time",
                r.name
            );
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let run = &run_all()[0];
        let snap = run.snapshot();
        assert!(compare_snapshots(run.name, &snap, &snap, 0.0).is_empty());
    }

    #[test]
    fn count_change_is_an_exactness_failure_regardless_of_tolerance() {
        let run = &run_all()[0];
        let snap = run.snapshot();
        let tweaked = snap.replacen("\"events\": ", "\"events\": 9", 1);
        let problems = compare_snapshots(run.name, &snap, &tweaked, 1.0);
        assert!(!problems.is_empty());
        assert!(problems[0].contains("exact field"), "{problems:?}");
    }

    #[test]
    fn small_byte_drift_passes_large_fails() {
        let run = &run_all()[0];
        let snap = run.snapshot();
        let total = run.report.total_bytes();
        let nudged = snap.replacen(
            &format!("\"total_bytes\": {total}"),
            &format!("\"total_bytes\": {}", total + total / 200),
            1,
        );
        assert_ne!(snap, nudged, "nudge must apply");
        // 0.5 % drift: inside a 1 % tolerance, outside a 0.1 % tolerance.
        assert!(compare_snapshots(run.name, &nudged, &snap, 0.01).is_empty());
        assert!(!compare_snapshots(run.name, &nudged, &snap, 0.001).is_empty());
    }

    #[test]
    fn write_then_check_roundtrips() {
        let dir = std::env::temp_dir().join(format!("ifi_baselines_{}", std::process::id()));
        write_baselines(&dir).expect("writable temp dir");
        let problems = check_baselines(&dir, 0.0);
        assert!(problems.is_empty(), "{problems:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_reported() {
        let dir =
            std::env::temp_dir().join(format!("ifi_baselines_missing_{}", std::process::id()));
        let problems = check_baselines(&dir, 0.01);
        assert_eq!(problems.len(), run_all().len());
        assert!(problems[0].contains("write-baselines"));
    }
}
