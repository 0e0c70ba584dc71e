//! Benchmark-owned tracing wrappers: [`Spanned`] around a sans-io core and
//! [`SpannedWire`] around a wire codec.
//!
//! Nothing inside `crates/` is instrumented; a layer is measured from
//! outside by timing the call into it. `Spanned<P>` is itself a `SansIo`
//! core, so the DES and both transport fabrics drive it unchanged. It
//! hands the inner core an `Effects<P>` carrying the driver's token
//! counter and re-pushes the inner effects through the public `Effects`
//! methods, so the driver sees the very effect stream — and the very
//! timer tokens — the bare core would have produced.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ifi_sim::{Effect, EffectBuf, Effects, Membership, NodeEvent, SansIo, SimTime};
use ifi_transport::{WireCodec, WireError};

/// Nanoseconds on the one clock every span, on every thread, is read from.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A core whose messages the tracer can label by variant.
pub trait Traced: SansIo {
    /// Variant labels, indexed by [`Traced::variant`].
    const VARIANTS: &'static [&'static str];
    /// The variant index of `msg`.
    fn variant(msg: &Self::Msg) -> u8;
}

/// Which `NodeEvent` an activation handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Start = 0,
    Message = 1,
    Timer = 2,
}

impl Kind {
    /// Labels, indexed by `Kind as usize`.
    pub const LABELS: [&'static str; 3] = ["start", "message", "timer"];
}

/// One activation as its own core recorded it.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    kind: Kind,
    variant: u8,
    from: u32,
    start_ns: u64,
    end_ns: u64,
    sim_us: u64,
    effects: u32,
    /// This span's sends are `sends[sends_at..next span's sends_at]`.
    sends_at: u32,
    timers_set: u32,
    timers_cancelled: u32,
    delivered: bool,
}

/// A sans-io core that records one span per activation.
pub struct Spanned<P: Traced> {
    inner: P,
    scratch: EffectBuf<P>,
    spans: Vec<RawSpan>,
    /// Destinations of every send, in emission order.
    sends: Vec<u32>,
    /// Clones of received messages (only when capturing).
    captured: Vec<P::Msg>,
    capture: bool,
}

impl<P: Traced> Spanned<P> {
    /// Wraps `inner`; with `capture`, every received message is cloned
    /// (before the span starts) for the replay layers.
    pub fn new(inner: P, capture: bool) -> Self {
        Spanned {
            inner,
            scratch: Vec::new(),
            spans: Vec::new(),
            sends: Vec::new(),
            captured: Vec::new(),
            capture,
        }
    }

    /// The wrapped core.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Messages this core received, in arrival order (capturing cores).
    pub fn captured(&self) -> &[P::Msg] {
        &self.captured
    }
}

impl<P: Traced> SansIo for Spanned<P> {
    type Msg = P::Msg;
    type Timer = P::Timer;
    type Output = P::Output;

    fn on_event(
        &mut self,
        ev: NodeEvent<P::Msg, P::Timer>,
        now: SimTime,
        env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        let (kind, variant, from) = match &ev {
            NodeEvent::Start => (Kind::Start, 0, u32::MAX),
            NodeEvent::Message { from, msg } => {
                if self.capture {
                    self.captured.push(msg.clone());
                }
                (Kind::Message, P::variant(msg), from.index() as u32)
            }
            NodeEvent::Timer { .. } => (Kind::Timer, 0, u32::MAX),
        };
        let (outer_buf, token) = std::mem::take(fx).into_parts();
        let mut inner_fx = Effects::<P>::from_parts(std::mem::take(&mut self.scratch), token);

        let start_ns = now_ns();
        self.inner.on_event(ev, now, env, &mut inner_fx);
        let end_ns = now_ns();

        let (mut buf, _) = inner_fx.into_parts();
        let mut outer = Effects::<Self>::from_parts(outer_buf, token);
        let mut span = RawSpan {
            kind,
            variant,
            from,
            start_ns,
            end_ns,
            sim_us: now.as_micros(),
            effects: buf.len() as u32,
            sends_at: self.sends.len() as u32,
            timers_set: 0,
            timers_cancelled: 0,
            delivered: false,
        };
        for effect in buf.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    bytes,
                    class,
                } => {
                    self.sends.push(to.index() as u32);
                    outer.send(to, msg, bytes, class);
                }
                Effect::SetTimer { token, delay, tag } => {
                    span.timers_set += 1;
                    let again = outer.set_timer(delay, tag);
                    assert_eq!(again, token, "re-pushed timer token diverged");
                }
                Effect::CancelTimer { token } => {
                    span.timers_cancelled += 1;
                    outer.cancel_timer(token);
                }
                Effect::Charge { class, bytes } => outer.charge(class, bytes),
                Effect::MarkPhase { label } => outer.mark_phase(label),
                Effect::Warn { label } => outer.warn(label),
                Effect::Deliver(out) => {
                    span.delivered = true;
                    outer.deliver(out);
                }
            }
        }
        self.scratch = buf;
        self.spans.push(span);
        *fx = outer;
    }

    fn on_stop(&mut self) {
        self.inner.on_stop();
    }
}

/// One activation with its cause resolved — a row of `out/spans_*.csv`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Traced op this span belongs to (the request identifier).
    pub op: u32,
    pub peer: u32,
    /// Position among this peer's activations.
    pub seq: u32,
    pub kind: Kind,
    pub variant: u8,
    /// Sender, for message activations.
    pub from: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated clock at the activation (wall-derived under the transport).
    pub sim_us: u64,
    pub effects: u32,
    pub sends: u32,
    pub timers_set: u32,
    pub timers_cancelled: u32,
    pub delivered: bool,
    /// `(peer, seq)` of the sender's activation that emitted the message,
    /// matched per `(from, to)` link in FIFO order. Exact on the transport
    /// fabrics (links are FIFO and lossless); approximate under the DES
    /// when latency reorders a link or the fault plan drops/duplicates.
    pub cause: Option<(u32, u32)>,
    /// `start_ns` minus the causing span's `end_ns`.
    pub hop_ns: Option<u64>,
}

impl Span {
    /// Wall nanoseconds inside the handler.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Flattens the cores' raw spans of traced op `op` into [`Span`]s (peer
/// order, then activation order) and resolves each message's cause.
pub fn collect<'a, P: Traced + 'a>(
    op: u32,
    cores: impl Iterator<Item = &'a Spanned<P>>,
) -> Vec<Span> {
    let mut out = Vec::new();
    let mut links: HashMap<(u32, u32), VecDeque<(u32, u64)>> = HashMap::new();
    for (peer, core) in cores.enumerate() {
        let peer = peer as u32;
        for (seq, raw) in core.spans.iter().enumerate() {
            let sends_end = core
                .spans
                .get(seq + 1)
                .map_or(core.sends.len(), |next| next.sends_at as usize);
            let sends = &core.sends[raw.sends_at as usize..sends_end];
            for &to in sends {
                links
                    .entry((peer, to))
                    .or_default()
                    .push_back((seq as u32, raw.end_ns));
            }
            out.push(Span {
                op,
                peer,
                seq: seq as u32,
                kind: raw.kind,
                variant: raw.variant,
                from: (raw.kind == Kind::Message).then_some(raw.from),
                start_ns: raw.start_ns,
                end_ns: raw.end_ns,
                sim_us: raw.sim_us,
                effects: raw.effects,
                sends: sends.len() as u32,
                timers_set: raw.timers_set,
                timers_cancelled: raw.timers_cancelled,
                delivered: raw.delivered,
                cause: None,
                hop_ns: None,
            });
        }
    }
    for span in &mut out {
        let Some(from) = span.from else { continue };
        if let Some((seq, end_ns)) = links
            .get_mut(&(from, span.peer))
            .and_then(VecDeque::pop_front)
        {
            span.cause = Some((from, seq));
            span.hop_ns = Some(span.start_ns.saturating_sub(end_ns));
        }
    }
    out
}

/// Writes spans as CSV (one header line, one line per span).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(path: &std::path::Path, variants: &[&str], spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "op,peer,seq,kind,variant,from,start_ns,end_ns,sim_us,effects,sends,\
         timers_set,timers_cancelled,delivered,cause_peer,cause_seq,hop_ns"
    )?;
    let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
    for s in spans {
        let variant = match s.kind {
            Kind::Message => variants.get(s.variant as usize).copied().unwrap_or("?"),
            _ => "",
        };
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            s.op,
            s.peer,
            s.seq,
            Kind::LABELS[s.kind as usize],
            variant,
            opt(s.from.map(u64::from)),
            s.start_ns,
            s.end_ns,
            s.sim_us,
            s.effects,
            s.sends,
            s.timers_set,
            s.timers_cancelled,
            u8::from(s.delivered),
            opt(s.cause.map(|c| u64::from(c.0))),
            opt(s.cause.map(|c| u64::from(c.1))),
            opt(s.hop_ns),
        )?;
    }
    w.flush()
}

/// One encode or decode call through a [`SpannedWire`].
#[derive(Debug, Clone, Copy)]
pub struct CodecSpan {
    pub encode: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u32,
}

/// The shared log a [`SpannedWire`] appends to (the codec itself moves
/// into the fabric, so the benchmark keeps this handle).
pub type CodecLog = Arc<Mutex<Vec<CodecSpan>>>;

/// A wire codec that records one span per encode/decode call.
pub struct SpannedWire<C> {
    inner: C,
    log: CodecLog,
}

impl<C> SpannedWire<C> {
    /// Wraps `inner`, returning the wrapper and the log handle to read
    /// after the run.
    pub fn new(inner: C) -> (Self, CodecLog) {
        let log = CodecLog::default();
        (
            SpannedWire {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn record(&self, encode: bool, start_ns: u64, end_ns: u64, bytes: usize) {
        self.log
            .lock()
            .expect("a codec thread panicked holding the span log")
            .push(CodecSpan {
                encode,
                start_ns,
                end_ns,
                bytes: bytes as u32,
            });
    }
}

impl<M, C: WireCodec<M>> WireCodec<M> for SpannedWire<C> {
    fn encode(&self, msg: &M) -> Result<Vec<u8>, WireError> {
        let start = now_ns();
        let out = self.inner.encode(msg);
        let end = now_ns();
        if let Ok(bytes) = &out {
            self.record(true, start, end, bytes.len());
        }
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<M, WireError> {
        let start = now_ns();
        let out = self.inner.decode(bytes);
        let end = now_ns();
        if out.is_ok() {
            self.record(false, start, end, bytes.len());
        }
        out
    }
}
