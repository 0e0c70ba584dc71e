//! The measurement loops: set-up, the untraced pass (end-to-end metrics),
//! the traced pass (per-layer metrics), and the ledger files.

use std::path::Path;
use std::time::Instant;

use ifi_sim::SimConfig;

use crate::json::Json;
use crate::layers::{self, Replay};
use crate::spanned::{self, Kind};
use crate::stats::{hi_percentile, median, percentile};
use crate::workloads::{self, OpStats, SetupParts, TraceOut, Workload};

/// End-to-end metric names and units, in reporting order. `failed_share`
/// is not among them because it is 0 on every healthy run (a metric that
/// is 0 has no relative bound); it travels as `failed` / `attempted`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("op_ms_p50", "ms"),
    ("bytes_per_peer", "B"),
    ("sim_answer_ms_p50", "ms"),
    ("peak_mem_mb", "MB"),
    ("setup_s", "s"),
];

/// Ops discarded before the untraced pass starts counting.
const WARMUP: u64 = 2;
/// Rep numbers of warm-up ops (kept clear of the counted reps' fault seeds).
const WARMUP_REP: u64 = 1 << 32;
/// Most ops in one traced pass (its time share usually stops it earlier at
/// `N` = 10^5).
const TRACED_OPS: usize = 5;
/// Spans kept for `spans_<workload>.csv`: whole traced ops, the first
/// always, later ones while they fit (every op still feeds the ledger).
const SPAN_ROWS: usize = 500_000;

/// How long to measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// The untraced pass (or, with tracing, all passes together) lasts
    /// about this many seconds.
    Seconds(f64),
    /// Fixed, small op counts: for the self-tests and smoke runs.
    Quick,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one `(workload, trace)` run — the contract's last line.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Ops behind `op_ms_p50`.
    pub samples: usize,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let v = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name, v)
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Prints one `workload metric value unit` line per metric.
    pub fn print(&self) {
        for m in &self.metrics {
            let note = if m.name == "op_ms_p50" {
                format!(" samples={}", self.samples)
            } else {
                String::new()
            };
            println!("{} {} {} {}{note}", self.workload, m.name, m.value, m.unit);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{} failed_share {share} ratio failed={} attempted={}",
            self.workload, self.failed, self.attempted
        );
        if let Some(why) = &self.first_failure {
            println!("{} first_failure {why}", self.workload);
        }
    }
}

struct Passes {
    warmup: u64,
    untraced_s: f64,
    untraced_min: usize,
    traced_s: f64,
    sinkless_s: f64,
}

impl Passes {
    fn plan(budget: Budget, trace: bool, w: &dyn Workload) -> Passes {
        match budget {
            Budget::Quick => Passes {
                warmup: 1,
                untraced_s: 0.0,
                untraced_min: 3,
                traced_s: 0.0,
                sinkless_s: 0.0,
            },
            Budget::Seconds(s) => Passes {
                warmup: WARMUP,
                untraced_s: if trace { 0.5 * s } else { s },
                untraced_min: w.exact_prefix().max(5),
                traced_s: 0.3 * s,
                sinkless_s: 0.1 * s,
            },
        }
    }
}

/// Runs ops while `keep_going(ops so far, seconds so far)`.
fn ops_while(
    mut op: impl FnMut(u64) -> OpStats,
    keep_going: impl Fn(usize, f64) -> bool,
) -> Vec<OpStats> {
    let t = Instant::now();
    let mut ops = Vec::new();
    while keep_going(ops.len(), t.elapsed().as_secs_f64()) {
        ops.push(op(ops.len() as u64));
    }
    ops
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn op_ms(ops: &[OpStats]) -> Vec<f64> {
    ops.iter().map(|o| ms(o.op_ns() as f64)).collect()
}

fn med<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// Runs workload `name` once — set-up, untraced pass and, with `trace`,
/// the traced pass — and returns its metrics: every end-to-end metric
/// without `trace`, every per-layer metric with it. Traced runs write
/// `ledger_<name>.json` and `spans_<name>.csv` into `out_dir`.
///
/// # Errors
///
/// Unknown workload names and filesystem errors.
pub fn run_workload(
    name: &str,
    seed: u64,
    budget: Budget,
    trace: bool,
    out_dir: &Path,
) -> Result<RunResult, String> {
    // One-time set-up, several times over so its median is steady — five
    // times, and on for up to a second where it takes a millisecond. The
    // last instance is the one measured.
    let mut setup_s = Vec::new();
    let mut built = None;
    let (least, most) = if budget == Budget::Quick {
        (2, 2)
    } else {
        (5, 40)
    };
    while setup_s.len() < least || (setup_s.len() < most && setup_s.iter().sum::<f64>() < 1.0) {
        drop(built.take());
        let t = Instant::now();
        built = Some(workloads::setup(name, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (w, parts) = built.expect("at least one set-up ran");
    let w = w.as_ref();
    let plan = Passes::plan(budget, trace, w);

    for i in 0..plan.warmup {
        w.op(WARMUP_REP + i, true);
    }
    let ops = ops_while(
        |rep| w.op(rep, true),
        |n, s| n < plan.untraced_min || s < plan.untraced_s,
    );

    let traced = trace.then(|| traced_pass(w, &plan, &ops));
    let all_ops = || ops.iter().chain(traced.iter().flat_map(|t| &t.ops));
    let mut result = RunResult {
        workload: w.name(),
        attempted: all_ops().count() as u64,
        failed: all_ops().filter(|o| o.failure.is_some()).count() as u64,
        first_failure: all_ops().find_map(|o| o.failure.clone()),
        samples: ops.len(),
        metrics: Vec::new(),
    };
    if let Some(traced) = &traced {
        result.metrics = per_layer(w, &parts, &ops, traced);
        write_ledger(w, seed, &result, &ops, traced, out_dir)
            .map_err(|e| format!("writing the ledger under {}: {e}", out_dir.display()))?;
    } else {
        let n = w.peers() as f64;
        let exact = &ops[..w.exact_prefix().min(ops.len())];
        let values = [
            median(&op_ms(&ops)),
            med(exact, |o| o.total_bytes as f64 / n),
            med(exact, |o| o.sim_answer_us as f64 / 1e3),
            med(&ops, |o| o.alloc.peak as f64 / 1e6),
            median(&setup_s) + med(&ops, |o| o.build_ns as f64 / 1e9),
        ];
        result.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect();
    }
    Ok(result)
}

// ---------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------

/// One traced op reduced to its ledger rows.
#[derive(Debug, Default)]
struct OpLedger {
    wall_ns: f64,
    handler_ns: f64,
    kind_ns: [f64; 3],
    events: f64,
    effects: f64,
    timers_set: f64,
    timers_cancelled: f64,
    deliveries: f64,
    vec_merges: f64,
    map_merges: f64,
    /// Op start → the last peer's first activation.
    spawn_ns: f64,
    /// Op start → end of the activation that delivered the (last) answer.
    answer_ns: f64,
    hop_ns_p50: f64,
    encode_ns: f64,
    encodes: f64,
    decode_ns: f64,
    decodes: f64,
    codec_bytes: f64,
}

impl OpLedger {
    fn of(variants: &[&str], stats: &OpStats, out: &TraceOut) -> OpLedger {
        let is = |v: u8, label: &str| variants.get(v as usize) == Some(&label);
        let mut l = OpLedger {
            wall_ns: stats.op_ns() as f64,
            ..OpLedger::default()
        };
        let mut hops = Vec::new();
        for s in &out.spans {
            let ns = s.ns() as f64;
            l.handler_ns += ns;
            l.kind_ns[s.kind as usize] += ns;
            l.events += 1.0;
            l.effects += f64::from(s.effects);
            l.timers_set += f64::from(s.timers_set);
            l.timers_cancelled += f64::from(s.timers_cancelled);
            if s.kind == Kind::Message {
                if is(s.variant, "group_agg") {
                    l.vec_merges += 1.0;
                } else if is(s.variant, "candidate_agg") || is(s.variant, "delta") {
                    l.map_merges += 1.0;
                }
            }
            if s.seq == 0 {
                l.spawn_ns = l
                    .spawn_ns
                    .max(s.start_ns.saturating_sub(stats.start_ns) as f64);
            }
            if s.delivered {
                l.deliveries += 1.0;
                l.answer_ns = l
                    .answer_ns
                    .max(s.end_ns.saturating_sub(stats.start_ns) as f64);
            }
            hops.extend(s.hop_ns.map(|h| h as f64));
        }
        l.hop_ns_p50 = median(&hops);
        for c in &out.codec {
            let ns = (c.end_ns - c.start_ns) as f64;
            if c.encode {
                l.encode_ns += ns;
                l.encodes += 1.0;
                l.codec_bytes += f64::from(c.bytes);
            } else {
                l.decode_ns += ns;
                l.decodes += 1.0;
            }
        }
        l
    }
}

struct Traced {
    /// Timing ops (no payload capture) and what each recorded.
    ops: Vec<OpStats>,
    ledgers: Vec<OpLedger>,
    spans: Vec<spanned::Span>,
    /// From one extra capturing op whose timings are discarded.
    replay: Replay,
    /// Untraced ops without the metrics sink (DES only).
    sinkless_ms: Vec<f64>,
    kernel_null_ns: f64,
    null_lifecycle_ms: f64,
    link_ns: f64,
    metering_ns: f64,
}

fn traced_pass(w: &dyn Workload, plan: &Passes, untraced: &[OpStats]) -> Traced {
    let t = Instant::now();
    let (mut ops, mut ledgers, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    while ops.is_empty() || (ops.len() < TRACED_OPS && t.elapsed().as_secs_f64() < plan.traced_s) {
        let id = ops.len() as u32;
        let (stats, out) = w.traced_op(id, u64::from(id), false);
        ledgers.push(OpLedger::of(w.variants(), &stats, &out));
        ops.push(stats);
        if spans.is_empty() || spans.len() + out.spans.len() <= SPAN_ROWS {
            spans.extend(out.spans);
        }
    }
    let (_, capture) = w.traced_op(ops.len() as u32, 0, true);

    let sinkless = if w.is_des() {
        ops_while(
            |rep| w.op(rep, false),
            |n, s| n == 0 || (n < TRACED_OPS && s < plan.sinkless_s),
        )
    } else {
        Vec::new()
    };
    let events = untraced.first().map_or(0, |o| o.events);
    let kernel_null_ns = if w.is_des() {
        layers::kernel_null_ns_per_event(w.peers(), events, SimConfig::default())
    } else {
        0.0
    };
    let lifecycles: Vec<f64> = (0..TRACED_OPS)
        .map(|_| ms(w.null_lifecycle_ns() as f64))
        .collect();
    Traced {
        ops,
        ledgers,
        spans,
        replay: capture.replay.unwrap_or_default(),
        sinkless_ms: op_ms(&sinkless),
        kernel_null_ns,
        null_lifecycle_ms: median(&lifecycles),
        link_ns: layers::link_ns_per_frame(),
        metering_ns: layers::metering_ns_per_send(w.peers()),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in the order of `BENCHMARK.json`. A layer a
/// workload does not exercise reports 0 — that is its "must not move".
fn per_layer(
    w: &dyn Workload,
    parts: &SetupParts,
    untraced: &[OpStats],
    traced: &Traced,
) -> Vec<Metric> {
    let l = |f: fn(&OpLedger) -> f64| med(&traced.ledgers, f);
    let first = &traced.ops[0];
    let r = &traced.replay;
    let des = w.is_des();
    let transport = |v: f64| if des { 0.0 } else { v };
    let untraced_ms = op_ms(untraced);
    let untraced_p50 = median(&untraced_ms);
    let hi = hi_percentile(untraced_ms.len());
    let stalls = untraced_ms.iter().filter(|&&x| x > 3.0 * untraced_p50);

    let handler_ns = l(|l| l.handler_ns);
    let events = l(|l| l.events);
    // Differences of medians, so the self-time rows sum to `trace.op_ms`.
    let wall_ns = l(|l| l.wall_ns);
    let kernel_ns = if des { wall_ns - handler_ns } else { 0.0 };
    let timer_ns = l(|l| l.kind_ns[Kind::Timer as usize]);
    let replayed_ns = r.group_vector_ns as f64
        + r.materialize_ns as f64
        + r.vecsum_merge_ns * l(|l| l.vec_merges)
        + r.mapsum_merge_ns * l(|l| l.map_merges);
    let standing = first.delta_bytes > 0;

    let values: Vec<(&'static str, f64, &'static str)> = vec![
        ("workload.generate_ms", ms(parts.generate_ns as f64), "ms"),
        ("hierarchy.build_ms", ms(parts.hierarchy_ns as f64), "ms"),
        (
            "core.build_peers_ms",
            med(untraced, |o| ms(o.build_ns as f64)),
            "ms",
        ),
        ("core.handler_ms", ms(handler_ns), "ms"),
        ("core.handler_ns_per_event", ratio(handler_ns, events), "ns"),
        ("core.events", events, "count"),
        (
            "core.effects_per_event",
            ratio(l(|l| l.effects), events),
            "ratio",
        ),
        (
            "core.handler_start_ms",
            ms(l(|l| l.kind_ns[Kind::Start as usize])),
            "ms",
        ),
        (
            "core.handler_msg_ms",
            ms(l(|l| l.kind_ns[Kind::Message as usize])),
            "ms",
        ),
        ("core.handler_timer_ms", ms(timer_ns), "ms"),
        (
            "core.filter.group_vector_ms",
            ms(r.group_vector_ns as f64),
            "ms",
        ),
        (
            "core.filter.materialize_ms",
            ms(r.materialize_ns as f64),
            "ms",
        ),
        ("agg.vecsum_merge_ns", r.vecsum_merge_ns, "ns"),
        ("agg.mapsum_merge_ns", r.mapsum_merge_ns, "ns"),
        ("agg.merges", l(|l| l.vec_merges + l.map_merges), "count"),
        (
            "core.continuous.fence_ms",
            if standing { ms(timer_ns) } else { 0.0 },
            "ms",
        ),
        (
            "core.continuous.delta_bytes_per_fence",
            ratio(first.delta_bytes as f64, l(|l| l.deliveries)),
            "B",
        ),
        (
            "core.codec.encode_ns_per_frame",
            ratio(l(|l| l.encode_ns), l(|l| l.encodes)),
            "ns",
        ),
        (
            "core.codec.decode_ns_per_frame",
            ratio(l(|l| l.decode_ns), l(|l| l.decodes)),
            "ns",
        ),
        (
            "core.codec.bytes_per_frame",
            ratio(l(|l| l.codec_bytes), l(|l| l.encodes)),
            "B",
        ),
        ("core.codec.frames", l(|l| l.encodes), "count"),
        ("sim.kernel_ms", ms(kernel_ns), "ms"),
        ("sim.kernel_ns_per_event", ratio(kernel_ns, events), "ns"),
        (
            "sim.queue_high_water",
            first.queue_high_water as f64,
            "count",
        ),
        ("sim.kernel_null_ns_per_event", traced.kernel_null_ns, "ns"),
        ("sim.timers_set", l(|l| l.timers_set), "count"),
        ("sim.timers_cancelled", l(|l| l.timers_cancelled), "count"),
        (
            "sim.reliable.retransmits",
            first.retransmit_msgs as f64,
            "count",
        ),
        (
            "sim.reliable.goodput_share",
            1.0 - ratio(first.overhead_bytes as f64, first.total_bytes as f64),
            "ratio",
        ),
        (
            "sim.fault.dropped_share",
            ratio(first.dropped_msgs as f64, first.total_msgs as f64),
            "ratio",
        ),
        ("sim.reliable.link_ns_per_frame", traced.link_ns, "ns"),
        ("sim.metering_ns_per_send", traced.metering_ns, "ns"),
        (
            "sim.metering_overhead_share",
            if des {
                ratio(untraced_p50 - median(&traced.sinkless_ms), untraced_p50)
            } else {
                0.0
            },
            "ratio",
        ),
        ("transport.spawn_ms", transport(ms(l(|l| l.spawn_ns))), "ms"),
        (
            "transport.answer_ms_p50",
            transport(ms(l(|l| l.answer_ns))),
            "ms",
        ),
        (
            "transport.teardown_ms",
            transport(ms(wall_ns - l(|l| l.answer_ns))),
            "ms",
        ),
        (
            "transport.null_lifecycle_ms",
            traced.null_lifecycle_ms,
            "ms",
        ),
        (
            "transport.hop_us_p50",
            transport(l(|l| l.hop_ns_p50) / 1e3),
            "us",
        ),
        ("transport.frames", first.frames as f64, "count"),
        ("transport.shed_frames", first.shed_frames as f64, "count"),
        (
            "transport.tcp.stall_share",
            transport(ratio(stalls.count() as f64, untraced_ms.len() as f64)),
            "ratio",
        ),
        (
            "alloc.count_per_op",
            med(untraced, |o| o.alloc.count as f64),
            "count",
        ),
        (
            "alloc.bytes_per_op",
            med(untraced, |o| o.alloc.bytes as f64),
            "B",
        ),
        ("trace.op_ms", ms(wall_ns), "ms"),
        (
            "trace.overhead_share",
            ratio(ms(wall_ns) - untraced_p50, untraced_p50),
            "ratio",
        ),
        (
            "trace.unattributed_share",
            ratio(handler_ns - replayed_ns, handler_ns),
            "ratio",
        ),
        ("driver.op_ms_hi", percentile(&untraced_ms, hi), "ms"),
        ("driver.hi_percentile", hi, "pct"),
        ("driver.samples", untraced_ms.len() as f64, "count"),
    ];
    values
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect()
}

/// Writes `ledger_<workload>.json` (the per-layer rows, how they
/// reconcile, every metric) and `spans_<workload>.csv` (the kept spans).
fn write_ledger(
    w: &dyn Workload,
    seed: u64,
    result: &RunResult,
    untraced: &[OpStats],
    traced: &Traced,
    out_dir: &Path,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let get = |name: &str| result.get(name).unwrap_or(0.0);
    let wall = get("trace.op_ms");
    let row = |layer: &str, what: &str, ms: f64, under: Option<&str>| {
        Json::obj([
            ("layer", Json::str(layer)),
            ("what", Json::str(what)),
            ("ms", Json::Num(ms)),
            ("share_of_traced_op", Json::Num(ratio(ms, wall))),
            ("under", under.map_or(Json::Null, Json::str)),
        ])
    };
    // Self-time rows sum to the traced op wall; replay rows sit under one.
    let self_rows: Vec<Json> = if w.is_des() {
        vec![
            row("core", "core.handler_ms", get("core.handler_ms"), None),
            row("sim", "sim.kernel_ms", get("sim.kernel_ms"), None),
        ]
    } else {
        let spawn = get("transport.spawn_ms");
        let to_answer = get("transport.answer_ms_p50") - spawn;
        let teardown = get("transport.teardown_ms");
        vec![
            row("transport", "spawn: transport.spawn_ms", spawn, None),
            row(
                "transport",
                "spawn to answer: answer_ms_p50 - spawn_ms",
                to_answer,
                None,
            ),
            row(
                "transport",
                "tear-down: transport.teardown_ms",
                teardown,
                None,
            ),
        ]
    };
    let sum: f64 = self_rows
        .iter()
        .filter_map(|r| r.get("ms").and_then(Json::as_f64))
        .sum();
    let merges_ms = |per_merge: &str, merges: fn(&OpLedger) -> f64| {
        get(per_merge) * med(&traced.ledgers, merges) / 1e6
    };
    let (start, msg) = ("core.handler_start_ms", "core.handler_msg_ms");
    let replay_rows = vec![
        row(
            "core.filter",
            "group_vector",
            get("core.filter.group_vector_ms"),
            Some(start),
        ),
        row(
            "core.filter",
            "materialize",
            get("core.filter.materialize_ms"),
            Some(msg),
        ),
        row(
            "agg",
            "vecsum_merge_ns x merges",
            merges_ms("agg.vecsum_merge_ns", |l| l.vec_merges),
            Some(msg),
        ),
        row(
            "agg",
            "mapsum_merge_ns x merges",
            merges_ms("agg.mapsum_merge_ns", |l| l.map_merges),
            Some(msg),
        ),
    ];
    let under_sum = |parent: &str| -> f64 {
        replay_rows
            .iter()
            .filter(|r| r.get("under").and_then(Json::as_str) == Some(parent))
            .filter_map(|r| r.get("ms").and_then(Json::as_f64))
            .sum()
    };
    let within = [start, msg].iter().all(|p| under_sum(p) <= get(p));
    let ledger = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(seed as f64)),
        ("peers", Json::Num(w.peers() as f64)),
        ("untraced_ops", Json::Num(untraced.len() as f64)),
        ("traced_ops", Json::Num(traced.ops.len() as f64)),
        ("untraced_op_ms_p50", Json::Num(median(&op_ms(untraced)))),
        ("traced_op_ms_p50", Json::Num(wall)),
        // The wrappers' own cost; under the DES it sits in the `sim` row.
        (
            "tracing_overhead_ms",
            Json::Num(wall - median(&op_ms(untraced))),
        ),
        ("self_time_rows", Json::Arr(self_rows)),
        ("replayed_rows", Json::Arr(replay_rows)),
        (
            "reconcile",
            Json::obj([
                ("self_time_sum_ms", Json::Num(sum)),
                ("traced_op_ms", Json::Num(wall)),
                ("gap_share", Json::Num(ratio((sum - wall).abs(), wall))),
                ("replays_within_parents", Json::Bool(within)),
            ]),
        ),
        ("per_layer", result.to_json()),
    ]);
    std::fs::write(
        out_dir.join(format!("ledger_{}.json", w.name())),
        ledger.to_pretty(),
    )?;
    spanned::write_csv(
        &out_dir.join(format!("spans_{}.csv", w.name())),
        w.variants(),
        &traced.spans,
    )
}
