//! The five workloads: inputs from a seed, one op, its correctness gate.
//!
//! Every reference (ground truth, per-fence from-scratch windows, the DES
//! twin of a transport input) is computed once in [`setup`]; the timed
//! region of an op holds no construction, no verification and no drop of
//! the world. A wrong answer is counted in [`OpStats::failure`], never
//! panicked on.

use std::time::{Duration as StdDuration, Instant};

use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    mix64, sansio_world, Des, Duration, FaultPlan, LatencyModel, MetricsReport, MsgClass, PeerId,
    RelConfig, ReliableMsg, SansIo, SimConfig, World,
};
use ifi_transport::{run_channel, run_tcp, RunOutcome};
use ifi_workload::{GroundTruth, ItemId, SystemData, WorkloadParams};
use netfilter::continuous::{
    schedule_from_data, window_totals_from_scratch, ContinuousConfig, ContinuousProtocol,
    EpochAnswer, EpochDelta, QueryAnswer, QueryRegistry, StandingQuery,
};
use netfilter::protocol::{NetFilterProtocol, NfDelivery, NfMsg};
use netfilter::resilient::Certificate;
use netfilter::wire::NfWire;
use netfilter::{NetFilterConfig, Threshold};

use crate::alloc::{self, AllocStats};
use crate::layers::{self, Replay};
use crate::spanned::{self, now_ns, CodecSpan, Span, Spanned, SpannedWire, Traced};

/// Workload names, in the order the one command runs them.
pub const NAMES: [&str; 5] = [
    "des_exact_n100k",
    "des_lossy_n1000",
    "des_standing_n1000",
    "chan_query_n64",
    "tcp_query_n64",
];

/// Filter size `g`, filter count `f` and threshold ratio `φ` of every
/// netFilter workload (the paper's defaults).
const G: u32 = 100;
const F: u32 = 3;
const PHI: f64 = 0.01;

/// One-way link delay of every DES run: constant within a run, as the
/// kernel's default is (the level-order schedule of the ROADMAP scale
/// point), but drawn from the seed within 1 % of that default's 50 ms —
/// the delay is an input like any other, so simulated times differ
/// between seeds instead of being `depth × phases × 50 ms` on all of them.
fn latency(seed: u64) -> LatencyModel {
    LatencyModel::Constant(Duration::from_micros(49_500 + mix64(seed) % 1_001))
}

/// Fences and standing queries of `des_standing_n1000`.
const FENCES: usize = 24;
const WINDOW: usize = 4;
const QUERIES: u32 = 8;

/// Input sets a transport workload draws from its seed and cycles its ops
/// through. One input set is not enough: op time differs by up to 60 %
/// between input sets of the same shape (thread wake-up order follows the
/// data), so a run on a single set reads the luck of the draw.
const QUERY_MIX: u64 = 16;

/// A transport op that has not answered by then counts as failed.
const MAX_WAIT: StdDuration = StdDuration::from_secs(10);

/// Wall time of the three one-time input constructors (last set-up).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    pub generate_ns: u64,
    pub hierarchy_ns: u64,
    pub reference_ns: u64,
}

/// Everything one op yields, traced or not.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Per-op construction: cores, world, sink (outside the op).
    pub build_ns: u64,
    /// Op interval on the span clock.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Why the op failed its correctness gate, if it did.
    pub failure: Option<String>,
    /// All classes, all peers.
    pub total_bytes: u64,
    /// Simulated time from `World::start` to the root's (last) answer;
    /// the DES twin's on the transport workloads.
    pub sim_answer_us: u64,
    /// Allocator window over the op.
    pub alloc: AllocStats,
    pub events: u64,
    pub queue_high_water: u64,
    pub total_msgs: u64,
    pub dropped_msgs: u64,
    pub retransmit_msgs: u64,
    /// Retransmit + failover class bytes (everything but query payload).
    pub overhead_bytes: u64,
    pub delta_bytes: u64,
    pub frames: u64,
    pub shed_frames: u64,
}

impl OpStats {
    /// Wall nanoseconds of the op.
    pub fn op_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a traced op adds to its [`OpStats`].
#[derive(Debug, Default)]
pub struct TraceOut {
    pub spans: Vec<Span>,
    pub codec: Vec<CodecSpan>,
    /// Replayed sub-layers (capturing ops only).
    pub replay: Option<Replay>,
}

/// A workload ready to run ops.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Peer count `N`.
    fn peers(&self) -> usize;
    /// Message variant labels of its spans.
    fn variants(&self) -> &'static [&'static str];
    /// Whether ops run under the DES (else the threaded transport).
    fn is_des(&self) -> bool;
    /// Ops whose exact metrics are reported (as a median): more than one
    /// only where reps vary the fault seed.
    fn exact_prefix(&self) -> usize {
        1
    }
    /// Runs op number `rep` untraced; `sink` enables the DES metrics sink
    /// (always on for the transport).
    fn op(&self, rep: u64, sink: bool) -> OpStats;
    /// Runs op number `rep` with every core wrapped in [`Spanned`] (and
    /// the codec in [`SpannedWire`]); with `capture`, also clones received
    /// payloads and replays the sub-layers on them.
    fn traced_op(&self, id: u32, rep: u64, capture: bool) -> (OpStats, TraceOut);
    /// `transport.null_lifecycle_ms` sample (0 under the DES).
    fn null_lifecycle_ns(&self) -> u64 {
        0
    }
}

/// Builds workload `name` from `seed`.
///
/// # Errors
///
/// Returns the known names if `name` is not one of them.
pub fn setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, SetupParts), String> {
    let paper = |peers, items| WorkloadParams {
        peers,
        items,
        instances_per_item: 10,
        theta: 1.0,
    };
    let name = *NAMES
        .iter()
        .find(|n| **n == name)
        .ok_or_else(|| format!("unknown workload {name:?} (known: {})", NAMES.join(", ")))?;
    Ok(match name {
        "des_exact_n100k" | "des_lossy_n1000" => {
            let lossy = name == "des_lossy_n1000";
            let params = if lossy {
                paper(1_000, 20_000)
            } else {
                paper(100_000, 200_000)
            };
            let (inp, parts) = NfInputs::build(&params, true, seed, None);
            let w = NfDes {
                name,
                inp,
                seed,
                lossy,
            };
            (Box::new(w), parts)
        }
        "des_standing_n1000" => {
            let (w, parts) = Standing::build(seed);
            (Box::new(w), parts)
        }
        _ => {
            let mut parts = SetupParts::default();
            let mix = (0..QUERY_MIX).map(|k| {
                let seed = mix64(seed ^ mix64(k + 1));
                let sim = SimConfig::default()
                    .with_seed(seed)
                    .with_latency(latency(seed));
                let (inp, p) = NfInputs::build(&paper(64, 1_280), false, seed, Some(sim));
                parts.generate_ns += p.generate_ns;
                parts.hierarchy_ns += p.hierarchy_ns;
                parts.reference_ns += p.reference_ns;
                inp
            });
            let w = NfTransport {
                name,
                mix: mix.collect(),
                tcp: name == "tcp_query_n64",
            };
            (Box::new(w), parts)
        }
    })
}

/// The protocol message inside a reliability frame (none in an ack).
fn payload<M>(frame: ReliableMsg<M>) -> Option<M> {
    match frame {
        ReliableMsg::Plain(m) | ReliableMsg::Data { payload: m, .. } => Some(m),
        ReliableMsg::Ack { .. } => None,
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One DES op: `start()` then step to quiescence — the very loop
/// `run_to_quiescence` runs — noting the simulated time at which `root`
/// has delivered `want` outputs.
fn drive<C: SansIo>(w: &mut World<Des<C>>, root: PeerId, want: usize, stats: &mut OpStats) {
    let mut answered = None;
    alloc::reset();
    stats.start_ns = now_ns();
    w.start();
    while w.step() {
        if answered.is_none() && w.peer(root).delivered().len() >= want {
            answered = Some(w.now());
        }
    }
    stats.end_ns = now_ns();
    stats.alloc = alloc::snapshot();
    match answered {
        Some(t) => stats.sim_answer_us = t.as_micros(),
        None => stats.failure = Some(format!("root delivered fewer than {want} answers")),
    }
    let m = w.metrics();
    stats.events = w.events_processed();
    stats.queue_high_water = w.queue_high_water() as u64;
    stats.total_bytes = m.total_bytes();
    stats.total_msgs = m.total_messages();
    stats.dropped_msgs = m.dropped_messages();
    stats.overhead_bytes = m.class_bytes(MsgClass::RETRANSMIT) + m.class_bytes(MsgClass::FAILOVER);
    stats.delta_bytes = m.class_bytes(MsgClass::DELTA);
    stats.retransmit_msgs = (0..w.peer_count())
        .map(|i| m.peer_class(PeerId::new(i), MsgClass::RETRANSMIT).messages)
        .sum();
}

fn fail(stats: &mut OpStats, why: String) {
    stats.failure.get_or_insert(why);
}

fn gate_no_warnings(stats: &mut OpStats, report: &MetricsReport) {
    if !report.warnings.is_empty() {
        fail(stats, format!("unexpected warnings {:?}", report.warnings));
    }
}

// ---------------------------------------------------------------------
// netFilter inputs shared by four workloads
// ---------------------------------------------------------------------

/// The DES run of a transport workload's inputs that its ops must equal.
struct Twin {
    total_bytes: u64,
    phase_bytes: [u64; 3],
    sim_answer_us: u64,
}

const PAPER_PHASES: [&str; 3] = ["filtering", "dissemination", "aggregation"];

struct NfInputs {
    cfg: NetFilterConfig,
    h: Hierarchy,
    data: SystemData,
    threshold: u64,
    /// `GroundTruth::frequent_items(threshold)`.
    truth: Vec<(ItemId, u64)>,
    twin: Option<Twin>,
}

impl NfInputs {
    /// `twin_sim`: also run the inputs once under the DES with that
    /// configuration, as the reference a transport op must reproduce.
    fn build(
        params: &WorkloadParams,
        paper: bool,
        seed: u64,
        twin_sim: Option<SimConfig>,
    ) -> (Self, SetupParts) {
        let t = Instant::now();
        let data = if paper {
            SystemData::generate_paper(params, seed)
        } else {
            SystemData::generate(params, seed)
        };
        let generate_ns = elapsed_ns(t);

        let t = Instant::now();
        let h = Hierarchy::balanced(params.peers, 3);
        let hierarchy_ns = elapsed_ns(t);

        let t = Instant::now();
        let cfg = NetFilterConfig::builder()
            .filter_size(G)
            .filters(F)
            .threshold(Threshold::Ratio(PHI))
            .hash_seed(seed)
            .build();
        let threshold = cfg.threshold.resolve(data.total_value());
        let truth = GroundTruth::compute(&data).frequent_items(threshold);
        let mut inp = NfInputs {
            cfg,
            h,
            data,
            threshold,
            truth,
            twin: None,
        };
        if let Some(sim) = twin_sim {
            let mut w = sansio_world(sim, inp.cores(None, false));
            w.enable_metrics_sink();
            let mut stats = OpStats::default();
            drive(&mut w, inp.h.root(), 1, &mut stats);
            let report = w.metrics_report();
            inp.gate(&mut stats, w.peer(inp.h.root()).delivered(), false);
            assert!(
                stats.failure.is_none(),
                "the DES twin itself is wrong: {:?}",
                stats.failure
            );
            inp.twin = Some(Twin {
                total_bytes: stats.total_bytes,
                phase_bytes: PAPER_PHASES.map(|p| report.phase_bytes(p)),
                sim_answer_us: stats.sim_answer_us,
            });
        }
        let reference_ns = elapsed_ns(t);
        (
            inp,
            SetupParts {
                generate_ns,
                hierarchy_ns,
                reference_ns,
            },
        )
    }

    /// The peer population `build_world*` constructs, as bare cores.
    fn cores(&self, rel: Option<&RelConfig>, census: bool) -> Vec<NetFilterProtocol> {
        let roster = NetFilterProtocol::roster(&self.h);
        (0..self.data.peer_count())
            .map(PeerId::new)
            .map(|p| {
                let items = self.data.local_items(p).to_vec();
                let mut core = NetFilterProtocol::new(&self.cfg, &self.h, p, items, self.threshold);
                if let Some(rel) = rel {
                    core = core.with_reliability(rel.clone());
                }
                if census {
                    core = core.with_census(roster);
                }
                core
            })
            .collect()
    }

    /// The answer gate: exactly one delivery, equal to ground truth, and
    /// certified `Complete` where a certificate was asked for.
    fn gate(&self, stats: &mut OpStats, delivered: &[NfDelivery], certified: bool) {
        let [d] = delivered else {
            return fail(stats, format!("{} deliveries, want 1", delivered.len()));
        };
        if d.answer != self.truth {
            fail(stats, "answer differs from ground truth".into());
        }
        let want = certified.then_some(Certificate::Complete);
        if d.certificate != want {
            fail(
                stats,
                format!("certificate {:?}, want {want:?}", d.certificate),
            );
        }
    }

    fn replay(&self, captured: Vec<(u32, Vec<ReliableMsg<NfMsg>>)>) -> Replay {
        let per_core = captured
            .into_iter()
            .map(|(peer, msgs)| (peer, msgs.into_iter().filter_map(payload).collect()))
            .collect();
        layers::replay_netfilter(&self.cfg, &self.data, per_core)
    }
}

impl Traced for NetFilterProtocol {
    const VARIANTS: &'static [&'static str] =
        &["group_agg", "heavy", "candidate_agg", "phase_census", "ack"];

    fn variant(msg: &ReliableMsg<NfMsg>) -> u8 {
        match msg {
            ReliableMsg::Plain(m) | ReliableMsg::Data { payload: m, .. } => match m {
                NfMsg::GroupAgg(_) => 0,
                NfMsg::Heavy(_) => 1,
                NfMsg::CandidateAgg(_) => 2,
                NfMsg::PhaseCensus { .. } => 3,
            },
            ReliableMsg::Ack { .. } => 4,
        }
    }
}

/// Takes the captured messages out of the sampled cores.
fn captured<'a, P: Traced + 'a>(
    cores: impl Iterator<Item = &'a Spanned<P>>,
) -> Vec<(u32, Vec<P::Msg>)> {
    cores
        .enumerate()
        .filter(|(_, c)| !c.captured().is_empty())
        .map(|(i, c)| (i as u32, c.captured().to_vec()))
        .collect()
}

/// Whether peer `i` of `n` clones its received payloads on a capturing
/// op: every peer up to `n` = 1024, then an evenly strided ~1024 of them,
/// so the replay sample stays a few MB at `N` = 10^5.
fn captures(i: usize, n: usize) -> bool {
    i.is_multiple_of(n.div_ceil(1024))
}

// ---------------------------------------------------------------------
// des_exact_n100k, des_lossy_n1000
// ---------------------------------------------------------------------

struct NfDes {
    name: &'static str,
    inp: NfInputs,
    seed: u64,
    /// Reliability envelope + census under 10 % drop and 2 % duplication,
    /// fault seed = seed + rep; otherwise bare cores on a clean network.
    lossy: bool,
}

impl NfDes {
    fn run<C>(
        &self,
        rep: u64,
        sink: bool,
        mut wrap: impl FnMut(usize, NetFilterProtocol) -> C,
    ) -> (OpStats, World<Des<C>>)
    where
        C: SansIo<Output = NfDelivery>,
    {
        let mut stats = OpStats::default();
        let t = Instant::now();
        let (sim, rel) = if self.lossy {
            let faults = FaultPlan::none().with_drop(0.10).with_duplication(0.02);
            let sim = SimConfig::default()
                .with_seed(self.seed.wrapping_add(rep))
                .with_faults(faults);
            (sim, Some(RelConfig::default()))
        } else {
            (SimConfig::default().with_seed(self.seed), None)
        };
        let cores = self.inp.cores(rel.as_ref(), self.lossy);
        let cores = cores.into_iter().enumerate().map(|(i, c)| wrap(i, c));
        let mut w = sansio_world(sim.with_latency(latency(self.seed)), cores.collect());
        if sink {
            w.enable_metrics_sink();
        }
        stats.build_ns = elapsed_ns(t);

        let root = self.inp.h.root();
        drive(&mut w, root, 1, &mut stats);
        self.inp
            .gate(&mut stats, w.peer(root).delivered(), self.lossy);
        if sink && !self.lossy {
            gate_no_warnings(&mut stats, &w.metrics_report());
        }
        (stats, w)
    }
}

impl Workload for NfDes {
    fn name(&self) -> &'static str {
        self.name
    }

    fn peers(&self) -> usize {
        self.inp.data.peer_count()
    }

    fn variants(&self) -> &'static [&'static str] {
        NetFilterProtocol::VARIANTS
    }

    fn is_des(&self) -> bool {
        true
    }

    fn exact_prefix(&self) -> usize {
        if self.lossy {
            400
        } else {
            1
        }
    }

    fn op(&self, rep: u64, sink: bool) -> OpStats {
        self.run(rep, sink, |_, c| c).0
    }

    fn traced_op(&self, id: u32, rep: u64, capture: bool) -> (OpStats, TraceOut) {
        let n = self.peers();
        let (stats, w) = self.run(rep, true, |i, c| Spanned::new(c, capture && captures(i, n)));
        let cores = || w.peers().map(Des::inner);
        let out = TraceOut {
            spans: spanned::collect(id, cores()),
            codec: Vec::new(),
            replay: capture.then(|| self.inp.replay(captured(cores()))),
        };
        (stats, out)
    }
}

// ---------------------------------------------------------------------
// des_standing_n1000
// ---------------------------------------------------------------------

struct Standing {
    cfg: ContinuousConfig,
    h: Hierarchy,
    registry: QueryRegistry,
    schedules: Vec<Vec<Vec<(ItemId, u64)>>>,
    /// Per fence, per query: the from-scratch window answer.
    reference: Vec<EpochAnswer>,
    seed: u64,
}

impl Standing {
    fn build(seed: u64) -> (Self, SetupParts) {
        const PEERS: usize = 1_000;
        let t = Instant::now();
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: PEERS,
                items: 20_000,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        );
        let schedules = schedule_from_data(&data, FENCES);
        let generate_ns = elapsed_ns(t);

        let t = Instant::now();
        let h = Hierarchy::balanced(PEERS, 3);
        let hierarchy_ns = elapsed_ns(t);

        let t = Instant::now();
        let cfg = ContinuousConfig::new(WINDOW, FENCES);
        let mut registry = QueryRegistry::new();
        for id in 0..QUERIES {
            registry.register(StandingQuery {
                id,
                threshold: 1_000 + 250 * u64::from(id),
                subscriber: PeerId::new(PEERS - 1),
            });
        }
        let reference = (0..FENCES as u64)
            .map(|epoch| {
                let totals = window_totals_from_scratch(&schedules, epoch, WINDOW);
                let answers = registry
                    .queries()
                    .iter()
                    .map(|q| {
                        let mut items: Vec<(ItemId, u64)> = totals
                            .iter()
                            .filter(|&(_, &v)| v >= q.threshold)
                            .map(|(&k, &v)| (k, v))
                            .collect();
                        items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        QueryAnswer {
                            query: q.id,
                            threshold: q.threshold,
                            items,
                        }
                    })
                    .collect();
                EpochAnswer {
                    epoch,
                    contributors: PEERS,
                    answers,
                }
            })
            .collect();
        let reference_ns = elapsed_ns(t);
        let w = Standing {
            cfg,
            h,
            registry,
            schedules,
            reference,
            seed,
        };
        (
            w,
            SetupParts {
                generate_ns,
                hierarchy_ns,
                reference_ns,
            },
        )
    }

    fn run<C>(
        &self,
        sink: bool,
        mut wrap: impl FnMut(usize, ContinuousProtocol) -> C,
    ) -> (OpStats, World<Des<C>>)
    where
        C: SansIo<Output = EpochAnswer>,
    {
        let mut stats = OpStats::default();
        let t = Instant::now();
        let cores =
            ContinuousProtocol::peers(&self.cfg, &self.h, &self.registry, &self.schedules, None);
        let cores = cores.into_iter().enumerate().map(|(i, c)| wrap(i, c));
        let sim = SimConfig::default()
            .with_seed(self.seed)
            .with_latency(latency(self.seed));
        let mut w = sansio_world(sim, cores.collect());
        if sink {
            w.enable_metrics_sink();
        }
        stats.build_ns = elapsed_ns(t);

        let root = self.h.root();
        drive(&mut w, root, FENCES, &mut stats);
        if w.peer(root).delivered() != self.reference.as_slice() {
            fail(
                &mut stats,
                "a fence differs from its from-scratch window".into(),
            );
        }
        if sink {
            gate_no_warnings(&mut stats, &w.metrics_report());
        }
        (stats, w)
    }
}

impl Traced for ContinuousProtocol {
    const VARIANTS: &'static [&'static str] = &["delta", "ack"];

    fn variant(msg: &ReliableMsg<EpochDelta>) -> u8 {
        match msg {
            ReliableMsg::Plain(_) | ReliableMsg::Data { .. } => 0,
            ReliableMsg::Ack { .. } => 1,
        }
    }
}

impl Workload for Standing {
    fn name(&self) -> &'static str {
        "des_standing_n1000"
    }

    fn peers(&self) -> usize {
        self.schedules.len()
    }

    fn variants(&self) -> &'static [&'static str] {
        ContinuousProtocol::VARIANTS
    }

    fn is_des(&self) -> bool {
        true
    }

    fn op(&self, _rep: u64, sink: bool) -> OpStats {
        self.run(sink, |_, c| c).0
    }

    fn traced_op(&self, id: u32, _rep: u64, capture: bool) -> (OpStats, TraceOut) {
        let (stats, w) = self.run(true, |_, c| Spanned::new(c, capture));
        let cores = || w.peers().map(Des::inner);
        let replay = capture.then(|| {
            let per_core = captured(cores())
                .into_iter()
                .map(|(peer, msgs)| (peer, msgs.into_iter().filter_map(payload).collect()));
            layers::replay_continuous(per_core.collect())
        });
        let out = TraceOut {
            spans: spanned::collect(id, cores()),
            codec: Vec::new(),
            replay,
        };
        (stats, out)
    }
}

// ---------------------------------------------------------------------
// chan_query_n64, tcp_query_n64
// ---------------------------------------------------------------------

struct NfTransport {
    name: &'static str,
    /// Op `rep` queries `mix[rep % QUERY_MIX]`.
    mix: Vec<NfInputs>,
    tcp: bool,
}

impl NfTransport {
    /// Fills `stats` from a finished run and applies the gate: answer and
    /// per-phase bytes equal the DES twin's, no warnings, no time-out.
    fn finish<C>(inp: &NfInputs, stats: &mut OpStats, outcome: &RunOutcome<C>)
    where
        C: SansIo<Output = NfDelivery>,
    {
        let twin = inp.twin.as_ref().expect("transport inputs carry a twin");
        let report = &outcome.report;
        stats.sim_answer_us = twin.sim_answer_us;
        stats.total_bytes = report.total_bytes();
        stats.total_msgs = report.total_messages();
        stats.overhead_bytes =
            report.class_bytes(MsgClass::RETRANSMIT) + report.class_bytes(MsgClass::FAILOVER);
        stats.frames = outcome.frames_sent;
        stats.shed_frames = outcome.shed_frames;

        let delivered: Vec<NfDelivery> = outcome.outputs.iter().map(|(_, d)| d.clone()).collect();
        inp.gate(stats, &delivered, false);
        if outcome.outputs.iter().any(|(p, _)| *p != inp.h.root()) {
            fail(stats, "a non-root peer delivered".into());
        }
        let phases = PAPER_PHASES.map(|p| report.phase_bytes(p));
        if phases != twin.phase_bytes || stats.total_bytes != twin.total_bytes {
            fail(
                stats,
                format!(
                    "bytes {phases:?} (total {}) differ from the DES twin's {:?} (total {})",
                    stats.total_bytes, twin.phase_bytes, twin.total_bytes
                ),
            );
        }
        gate_no_warnings(stats, report);
    }

    fn inputs(&self, rep: u64) -> &NfInputs {
        &self.mix[(rep % QUERY_MIX) as usize]
    }

    fn run<C, W>(
        &self,
        rep: u64,
        wrap: impl FnMut(NetFilterProtocol) -> C,
        wire: W,
    ) -> (OpStats, Vec<C>)
    where
        C: SansIo<Msg = ReliableMsg<NfMsg>, Output = NfDelivery> + Send + 'static,
        C::Timer: Send,
        W: ifi_transport::WireCodec<ReliableMsg<NfMsg>>,
    {
        let mut stats = OpStats::default();
        let t = Instant::now();
        let inp = self.inputs(rep);
        let cores: Vec<C> = inp.cores(None, false).into_iter().map(wrap).collect();
        stats.build_ns = elapsed_ns(t);

        alloc::reset();
        stats.start_ns = now_ns();
        let outcome = if self.tcp {
            run_tcp(cores, wire, 1, MAX_WAIT)
        } else {
            Ok(run_channel(cores, 1, MAX_WAIT))
        };
        stats.end_ns = now_ns();
        stats.alloc = alloc::snapshot();
        match outcome {
            Ok(outcome) => {
                Self::finish(inp, &mut stats, &outcome);
                (stats, outcome.nodes)
            }
            Err(e) => {
                fail(&mut stats, format!("tcp fabric set-up failed: {e}"));
                (stats, Vec::new())
            }
        }
    }

    fn wire(&self) -> NfWire {
        NfWire::new(self.mix[0].cfg.sizes)
    }
}

impl Workload for NfTransport {
    fn name(&self) -> &'static str {
        self.name
    }

    fn peers(&self) -> usize {
        self.mix[0].data.peer_count()
    }

    fn variants(&self) -> &'static [&'static str] {
        NetFilterProtocol::VARIANTS
    }

    fn is_des(&self) -> bool {
        false
    }

    fn exact_prefix(&self) -> usize {
        QUERY_MIX as usize
    }

    fn op(&self, rep: u64, _sink: bool) -> OpStats {
        self.run(rep, |c| c, self.wire()).0
    }

    fn traced_op(&self, id: u32, rep: u64, capture: bool) -> (OpStats, TraceOut) {
        let (wire, log) = SpannedWire::new(self.wire());
        let (stats, nodes) = self.run(rep, |c| Spanned::new(c, capture), wire);
        let codec = std::mem::take(&mut *log.lock().expect("codec span log poisoned"));
        let out = TraceOut {
            spans: spanned::collect(id, nodes.iter()),
            codec,
            replay: capture.then(|| self.inputs(rep).replay(captured(nodes.iter()))),
        };
        (stats, out)
    }

    fn null_lifecycle_ns(&self) -> u64 {
        layers::null_lifecycle_ns(self.peers(), self.tcp, MAX_WAIT)
    }
}
