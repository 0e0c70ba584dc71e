//! Every committed snapshot under `baselines/`, as the rows of one
//! registry, and the one exact gate over them.
//!
//! Each row of `REGISTRY` names one file and produces its text:
//!
//! * ten **metric** scenarios (`N = 100`, `n = 1000`) exercise every
//!   instrumented path — the netFilter engine at three tunings, the
//!   gossip-filtered variant, §IV-E sampling, the three approximate
//!   engines and the continuous engine plain and faded. Each snapshots
//!   its answer digest (threshold, result size, item checksum) and its
//!   *stable* report JSON (wall-clock fields excluded) as
//!   `<name>.baseline.json`;
//! * six default **perf** benches and three scale benches
//!   (`crate::perfbench`) snapshot their exact counters as
//!   `perf/<name>.json`. The scale rows run only when named with `--only`.
//!
//! `experiments write-baselines [--only <rows>]` writes each row's text.
//! `experiments check-baselines [--only <rows>]` regenerates each row and
//! compares it with the committed file **byte for byte**: every field,
//! the paper's byte cost included, is counter-exact, so there is no
//! tolerance. A mismatch names the first differing line. The full check
//! (no `--only`) also fails every file under the baselines directory that
//! no row writes.

use std::io;
use std::path::{Path, PathBuf};

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_perf::Sample;
use ifi_sim::{DetRng, EventSink, MetricsReport, PeerId};
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::continuous::ContinuousConfig;
use netfilter::engines::{ContinuousEngine, Engine, SketchEngine, ThresholdEngine, TopKEngine};
use netfilter::local_threshold::LocalThresholdConfig;
use netfilter::sketch::SketchConfig;
use netfilter::topk::TopKConfig;
use netfilter::{gossip_filter, NetFilter, NetFilterConfig, Threshold, WireSizes};

use crate::{perfbench, select, ShapeCheck};
use Snapshot::{Metric, Perf};

/// Seed shared by every baseline scenario (the harness default).
pub(crate) const BASELINE_SEED: u64 = 20080617;
/// Peers in every baseline scenario.
const PEERS: usize = 100;
/// Distinct items in every baseline scenario.
const ITEMS: u64 = 1_000;

/// One metric scenario's run: a name plus what its snapshot pins.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Scenario name (also the snapshot's file stem).
    pub(crate) name: &'static str,
    /// The run's metrics report (with wall-clock data — strip via
    /// [`MetricsReport::to_json_stable`] for snapshots).
    pub report: MetricsReport,
    /// Resolved absolute threshold of the query (0 where not applicable).
    pub(crate) threshold: u64,
    /// Result size of the query (0 where not applicable).
    pub(crate) result_items: usize,
    /// Order-sensitive digest of the result `(id, value)` pairs.
    pub(crate) result_checksum: u64,
}

impl BaselineRun {
    /// The snapshot file contents: answer digest header + stable report.
    pub(crate) fn snapshot(&self) -> String {
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

fn gossip_scenario(name: &'static str) -> BaselineRun {
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
    let run = gossip_filter::run(&topo, &h, &data, &cfg, &mut rng, &mut sink);
    BaselineRun {
        name,
        report: sink.report(),
        threshold: run.threshold(),
        result_items: run.frequent_items().len(),
        result_checksum: digest(run.frequent_items()),
    }
}

fn sampling_scenario(name: &'static str) -> BaselineRun {
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
        name,
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

/// The threshold `Ratio(0.01)` resolves to on the baseline workload.
fn ratio_threshold() -> u64 {
    Threshold::Ratio(0.01).resolve(workload(1.0).total_value())
}

fn sketch_scenario(name: &'static str) -> BaselineRun {
    let engine = SketchEngine {
        config: SketchConfig::new(32),
    };
    approx_scenario(name, &engine, ratio_threshold())
}

fn threshold_scenario(name: &'static str) -> BaselineRun {
    let heavy = ifi_workload::GroundTruth::compute(&workload(1.0)).globals()[0].0;
    let engine = ThresholdEngine {
        config: LocalThresholdConfig::new(Threshold::Ratio(0.01)),
        item: heavy,
    };
    approx_scenario(name, &engine, ratio_threshold())
}

/// The delta convergecast of a continuous standing query over an
/// eight-fence run.
fn continuous_scenario(
    name: &'static str,
    config: ContinuousConfig,
    threshold: u64,
) -> BaselineRun {
    approx_scenario(name, &ContinuousEngine { config, threshold }, threshold)
}

/// How a registry row produces its snapshot, and where the snapshot lives.
#[derive(Debug, Clone, Copy)]
pub enum Snapshot {
    /// A metric scenario, committed as `<name>.baseline.json`.
    Metric(fn(&'static str) -> BaselineRun),
    /// A perf bench, committed as `perf/<name>.json`.
    Perf(fn(&str) -> Sample),
}

impl Snapshot {
    /// The row's file, relative to the baselines directory.
    pub(crate) fn path(self, name: &str) -> String {
        match self {
            Metric(_) => format!("{name}.baseline.json"),
            Perf(_) => format!("perf/{name}.json"),
        }
    }

    /// Runs the row and renders the text its file must hold.
    pub(crate) fn text(self, name: &'static str) -> String {
        match self {
            Metric(run) => run(name).snapshot(),
            Perf(bench) => bench(name).to_json(name),
        }
    }
}

/// One registry row: its name (what `--only` selects) and its snapshot.
pub type Row = (&'static str, Snapshot);

/// Every committed snapshot: the metric scenarios, then the default perf
/// benches, then the scale benches.
const REGISTRY: [Row; 19] = [
    (
        "netfilter-g100-f3",
        Metric(|n| engine_scenario(n, 1.0, 100, 3, 0.01)),
    ),
    (
        "netfilter-g20-f2",
        Metric(|n| engine_scenario(n, 1.0, 20, 2, 0.01)),
    ),
    (
        "netfilter-theta08",
        Metric(|n| engine_scenario(n, 0.8, 100, 3, 0.01)),
    ),
    ("gossip-filter", Metric(gossip_scenario)),
    ("sampling", Metric(sampling_scenario)),
    ("approx-sketch-c32", Metric(sketch_scenario)),
    (
        "approx-topk-k10",
        Metric(|n| approx_scenario(n, &TopKEngine::new(TopKConfig::lossless(10)), 0)),
    ),
    ("approx-threshold", Metric(threshold_scenario)),
    (
        "continuous-delta-w4",
        Metric(|n| continuous_scenario(n, ContinuousConfig::new(4, 8), 40)),
    ),
    (
        "continuous-faded",
        Metric(|n| continuous_scenario(n, ContinuousConfig::new(4, 8).with_fade(1, 2), 20)),
    ),
    ("event_queue", Perf(perfbench::event_queue)),
    ("codec", Perf(perfbench::codec)),
    ("epoch_n1000", Perf(|n| perfbench::epoch(n, 1_000, 20_000))),
    ("maintain_tick", Perf(perfbench::maintain_tick)),
    ("fig7_quick", Perf(perfbench::fig7_quick)),
    ("epoch_delta_n1000", Perf(perfbench::epoch_delta_n1000)),
    (
        "epoch_n100000",
        Perf(|n| perfbench::epoch(n, 100_000, 200_000)),
    ),
    (
        "epoch_n1000000",
        Perf(|n| perfbench::epoch(n, 1_000_000, 2_000_000)),
    ),
    ("fig7_n10000", Perf(perfbench::fig7_n10000)),
];

/// How many of `REGISTRY`'s leading rows run when no `--only` is given:
/// all but the three scale benches.
const DEFAULT_ROWS: usize = 16;

/// The rows named in `only`, in that order, or every default row.
///
/// # Errors
///
/// Names the first unknown row and lists the registered ones.
pub fn rows(only: Option<&[&str]>) -> Result<Vec<Row>, String> {
    let registry = if only.is_some() {
        &REGISTRY[..]
    } else {
        &REGISTRY[..DEFAULT_ROWS]
    };
    Ok(select(registry, only, "baseline row")?
        .into_iter()
        .copied()
        .collect())
}

/// Writes (or refreshes) each row's snapshot under `dir`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write(dir: &Path, rows: &[Row]) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    for &(name, snap) in rows {
        let path = dir.join(snap.path(name));
        std::fs::create_dir_all(path.parent().unwrap_or(dir))?;
        std::fs::write(&path, snap.text(name))?;
        written.push(path);
    }
    Ok(written)
}

/// Regenerates each row and compares it with its file under `dir`, byte
/// for byte: one check per row. A missing file fails its row.
pub fn check(dir: &Path, rows: &[Row]) -> Vec<ShapeCheck> {
    rows.iter()
        .map(|&(name, snap)| {
            let path = dir.join(snap.path(name));
            let problem = match std::fs::read_to_string(&path) {
                Ok(committed) => first_difference(&committed, &snap.text(name)),
                Err(e) => Some(format!(
                    "cannot read {}: {e} — run `experiments write-baselines` and commit",
                    path.display()
                )),
            };
            let holds = problem.is_none();
            let detail = problem.unwrap_or_else(|| format!("{} is byte-identical", path.display()));
            ShapeCheck::new(name, holds, detail)
        })
        .collect()
}

/// Where two snapshot texts first part, or `None` when they are identical.
fn first_difference(committed: &str, fresh: &str) -> Option<String> {
    if committed == fresh {
        return None;
    }
    let show = |line: Option<&str>| line.map_or("end of file".to_string(), |l| format!("{l:?}"));
    let (mut want, mut got) = (committed.lines(), fresh.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) if w == g => {}
            (w, g) => {
                return Some(format!(
                    "line {line}: committed {}, fresh {}",
                    show(w),
                    show(g)
                ))
            }
        }
    }
    Some("the texts differ only in line endings".to_string())
}

/// The full check's orphan scan: every file under `dir` must be some
/// row's snapshot, scale rows included, so a stale or misnamed file fails.
pub fn orphans(dir: &Path) -> ShapeCheck {
    fn files(dir: &Path, prefix: &str, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let name = format!("{prefix}{}", entry.file_name().to_string_lossy());
            if entry.path().is_dir() {
                files(&entry.path(), &format!("{name}/"), out);
            } else {
                out.push(name);
            }
        }
    }
    let mut found = Vec::new();
    files(dir, "", &mut found);
    let orphans: Vec<String> = found
        .iter()
        .filter(|f| !REGISTRY.iter().any(|&(n, snap)| snap.path(n) == **f))
        .cloned()
        .collect();
    let detail = if orphans.is_empty() {
        format!("{} files", found.len())
    } else {
        format!("no row writes {}", orphans.join(", "))
    };
    ShapeCheck::new(
        format!("every file under {} is a registry row", dir.display()),
        orphans.is_empty(),
        detail,
    )
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// The committed snapshots, at the repository root.
    fn committed() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines")
    }

    /// A fresh scratch directory for one test.
    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ifi-baselines-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `dir`'s copy of the committed `row` file, with `from` replaced by
    /// `to` once.
    fn plant(dir: &Path, row: &str, from: &str, to: &str) {
        let rows = rows(Some(&[row])).expect("registered row");
        let (name, snap) = rows[0];
        let text = std::fs::read_to_string(committed().join(snap.path(name))).expect("committed");
        assert!(text.contains(from), "{row} has no {from:?}");
        let path = dir.join(snap.path(name));
        std::fs::create_dir_all(path.parent().expect("file in a directory")).expect("writable");
        std::fs::write(path, text.replacen(from, to, 1)).expect("writable");
    }

    fn failures(dir: &Path, row: &str) -> Vec<ShapeCheck> {
        check(dir, &rows(Some(&[row])).expect("registered row"))
            .into_iter()
            .filter(|c| !c.holds)
            .collect()
    }

    #[test]
    fn metric_scenarios_are_deterministic_and_leak_no_wall_time() {
        for &(name, snap) in &REGISTRY {
            let Metric(run) = snap else {
                continue;
            };
            let run = run(name);
            assert_eq!(run.name, name);
            assert!(run.report.total_bytes() > 0, "{name} moved no bytes");
            assert_eq!(
                run.snapshot(),
                snap.text(name),
                "{name} is nondeterministic"
            );
            assert!(!run.snapshot().contains("wall"), "{name} leaked wall time");
        }
    }

    #[test]
    fn every_committed_file_is_exactly_one_row() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|&(n, _)| n).collect();
        let paths: BTreeSet<String> = REGISTRY.iter().map(|&(n, s)| s.path(n)).collect();
        assert_eq!((names.len(), paths.len()), (REGISTRY.len(), REGISTRY.len()));
        let full = orphans(&committed());
        assert!(full.holds, "{}", full.detail);
        assert_eq!(full.detail, format!("{} files", REGISTRY.len()));
    }

    #[test]
    fn the_default_rows_exclude_the_scale_benches() {
        let default: Vec<&str> = rows(None)
            .expect("no selection")
            .iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(default.len(), 16);
        assert!(default.contains(&"sampling") && default.contains(&"epoch_delta_n1000"));
        for scale in ["epoch_n100000", "epoch_n1000000", "fig7_n10000"] {
            assert!(!default.contains(&scale), "{scale}");
            assert_eq!(rows(Some(&[scale])).expect("registered")[0].0, scale);
        }
    }

    #[test]
    fn an_unknown_row_is_named() {
        let err = rows(Some(&["codec", "nope"])).unwrap_err();
        assert!(err.contains("unknown baseline row \"nope\""), "{err}");
        assert!(err.contains("epoch_n100000"), "{err}");
    }

    #[test]
    fn write_then_check_roundtrips() {
        let dir = scratch("roundtrip");
        let rows = rows(Some(&["sampling", "codec"])).expect("registered rows");
        let written = write(&dir, &rows).expect("writable temp dir");
        assert!(written[1].ends_with("perf/codec.json"), "{written:?}");
        assert!(check(&dir, &rows).iter().all(|c| c.holds));
        assert!(orphans(&dir).holds);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_committed_snapshots_match_byte_for_byte() {
        let rows = rows(Some(&["netfilter-g100-f3", "codec"])).expect("registered rows");
        for c in check(&committed(), &rows) {
            assert!(c.holds, "{}: {}", c.claim, c.detail);
        }
    }

    #[test]
    fn one_more_byte_in_a_metric_snapshot_fails() {
        let dir = scratch("bytes");
        plant(
            &dir,
            "netfilter-g100-f3",
            "\"total_bytes\": 149128,",
            "\"total_bytes\": 149129,",
        );
        let failed = failures(&dir, "netfilter-g100-f3");
        assert_eq!(failed.len(), 1);
        let detail = &failed[0].detail;
        assert!(
            detail.contains("149129") && detail.contains("149128"),
            "{detail}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_more_op_in_a_perf_snapshot_fails() {
        let dir = scratch("ops");
        plant(&dir, "codec", "\"ops\": 4000,", "\"ops\": 4001,");
        let failed = failures(&dir, "codec");
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].detail.starts_with("line 3: committed"),
            "{}",
            failed[0].detail
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_file_fails() {
        let dir = scratch("missing");
        let failed = failures(&dir, "sampling");
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].detail.contains("write-baselines"),
            "{}",
            failed[0].detail
        );
    }

    #[test]
    fn a_planted_orphan_fails_the_full_check() {
        let dir = scratch("orphan");
        write(&dir, &rows(Some(&["codec"])).expect("registered row")).expect("writable");
        assert!(orphans(&dir).holds);
        std::fs::write(dir.join("orphan.baseline.json"), "{}\n").expect("writable");
        let full = orphans(&dir);
        assert!(!full.holds);
        assert_eq!(full.detail, "no row writes orphan.baseline.json");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
