//! The simulation driver: [`World`], which runs one [`SansIo`] core per
//! peer and applies the [`Effect`]s each activation emits.

use std::collections::HashSet;

use crate::event::{Event, EventKind, EventQueue};
use crate::fault::FaultPlan;
use crate::id::PeerId;
use crate::metrics::{Metrics, MsgClass};
use crate::network::LatencyModel;
use crate::obs::{EventSink, MetricsReport};
use crate::rng::{mix64, DetRng};
use crate::sansio::{
    Des, Effect, EffectBuf, Effects, Membership, NodeEvent, SansIo, Slot, TimerToken,
};
use crate::sched::{
    EventInfo, EventTag, ScheduleDecision, ScheduleStrategy, MAX_CONSECUTIVE_DELAYS,
};
use crate::time::{Duration, SimTime};
use crate::trace::{Trace, TraceKind};

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; all kernel randomness derives from it.
    pub seed: u64,
    /// One-way message delay model.
    pub latency: LatencyModel,
    /// Fault injection: uniform and per-class drops, duplication, delay
    /// spikes, partitions and deterministic drop schedules. Inert by
    /// default, in which case the kernel's send path is exactly the
    /// classic one.
    pub faults: FaultPlan,
    /// Upper bound on processed events, as a runaway-protocol backstop.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::default(),
            faults: FaultPlan::default(),
            max_events: 500_000_000,
        }
    }
}

impl SimConfig {
    /// Returns the config with the given master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with the given latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Returns the config with the given fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// A queue event of a world over cores `C`: timers carry their token.
type CoreEvent<C> = Event<<C as SansIo>::Msg, (TimerToken, <C as SansIo>::Timer)>;

/// Kernel state: the clock, the queue, the meters and the liveness view.
#[derive(Debug)]
struct Kernel<C: SansIo> {
    now: SimTime,
    queue: EventQueue<C::Msg, (TimerToken, C::Timer)>,
    metrics: Metrics,
    rng: DetRng,
    config: SimConfig,
    /// Cached `config.faults.is_inert()`: the fault path is skipped (and
    /// draws no randomness) when the plan cannot fire.
    faults_inert: bool,
    /// Monotone per-kernel send counter; returned to senders and used by
    /// [`FaultPlan`] deterministic drop schedules.
    next_send_seq: u64,
    up: Vec<bool>,
    /// Per-peer kill/revive generation, bumped on every revival. Timers
    /// are stamped with it at arming time and swallowed on mismatch, so a
    /// revived peer never observes timers leaked by its previous
    /// incarnation (doubled tick chains, stale retransmits).
    incarnation: Vec<u32>,
    cancelled_timers: HashSet<u64>,
    events_processed: u64,
    /// Order-sensitive digest of the executed schedule: folds every fired
    /// event's `seq` through [`mix64`]. Two runs with the same fingerprint
    /// fired the same events in the same order.
    sched_fingerprint: u64,
    trace: Option<Trace>,
    sink: EventSink,
}

/// Scheduling metadata of a pending event, as shown to a strategy.
fn event_info<M, T>(ev: &Event<M, T>) -> EventInfo {
    let tag = match &ev.kind {
        EventKind::Deliver { from, to, .. } => EventTag::Deliver {
            from: *from,
            to: *to,
        },
        EventKind::Timer { peer, .. } => EventTag::Timer { peer: *peer },
        EventKind::Start { peer } => EventTag::Start { peer: *peer },
        EventKind::Kill { peer } => EventTag::Kill { peer: *peer },
        EventKind::Revive { peer } => EventTag::Revive { peer: *peer },
    };
    EventInfo {
        time: ev.time,
        seq: ev.seq,
        tag,
    }
}

impl<C: SansIo> Kernel<C> {
    fn send(&mut self, from: PeerId, to: PeerId, msg: C::Msg, bytes: u64, class: MsgClass) -> u64 {
        let seq = self.next_send_seq;
        self.next_send_seq += 1;
        // Senders are charged when bytes hit the wire, even if the message
        // is later lost: that is what "bytes propagated" measures.
        self.metrics.record_send(from, class, bytes);
        self.sink.record(from, class, bytes);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(
                self.now,
                TraceKind::Send {
                    from,
                    to,
                    class,
                    bytes,
                },
            );
        }
        if self.faults_inert {
            let delay = self.config.latency.sample(&mut self.rng);
            self.queue
                .push(self.now + delay, EventKind::Deliver { from, to, msg });
            return seq;
        }
        // Partition windows are checked before any probabilistic draw and
        // consume no randomness, so plans without partitions keep their
        // exact RNG stream.
        if self.config.faults.partitioned(self.now, from, to) {
            self.metrics.record_drop();
            return seq;
        }
        let class_drop = self.config.faults.drop_for(class);
        if self.config.faults.drops_seq(seq) || (class_drop > 0.0 && self.rng.chance(class_drop)) {
            self.metrics.record_drop();
            return seq;
        }
        // Each surviving copy samples its own delay (and possible spike),
        // so duplicates double as reordering.
        let dup = self.config.faults.duplicate;
        if dup > 0.0 && self.rng.chance(dup) {
            let delay = self.faulty_delay();
            self.queue.push(
                self.now + delay,
                EventKind::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                },
            );
        }
        let delay = self.faulty_delay();
        self.queue
            .push(self.now + delay, EventKind::Deliver { from, to, msg });
        seq
    }

    /// One-way delay under the active fault plan: the latency model's
    /// sample, plus the configured spike when one fires.
    fn faulty_delay(&mut self) -> Duration {
        let mut delay = self.config.latency.sample(&mut self.rng);
        let spike_p = self.config.faults.spike_probability;
        if spike_p > 0.0 && self.rng.chance(spike_p) {
            delay = delay + self.config.faults.spike;
        }
        delay
    }
}

/// What a core may ask of the kernel during an activation. Real peers
/// cannot query remote liveness instantaneously — see [`Membership`].
impl<C: SansIo> Membership for Kernel<C> {
    fn is_up(&self, peer: PeerId) -> bool {
        self.up[peer.index()]
    }

    fn peer_count(&self) -> usize {
        self.up.len()
    }
}

/// The simulation world: one [`SansIo`] core per peer, each in its [`Des`]
/// slot, plus the kernel that applies their effects. Build one with
/// [`sansio_world`] and drive it to completion from the test or experiment
/// harness.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug)]
pub struct World<S: Slot> {
    kernel: Kernel<S::Core>,
    peers: Vec<S>,
    /// The effect buffer every activation fills and the world drains: one
    /// per world, lent to whichever peer is executing.
    scratch: EffectBuf<S::Core>,
    /// Schedule-exploration hook ([`ScheduleStrategy`]); `None` runs the
    /// classic FIFO tie-break with zero overhead.
    strategy: Option<Box<dyn ScheduleStrategy>>,
    /// Scratch for the strategy path's tied-at-minimum event batch,
    /// retained across pops so consulted scheduling stays allocation-free.
    batch_scratch: Vec<CoreEvent<S::Core>>,
    /// Scratch for the [`EventInfo`] view handed to the strategy.
    info_scratch: Vec<EventInfo>,
}

/// Builds a DES world over a population of sans-io cores, one per peer,
/// all up.
pub fn sansio_world<P: SansIo>(config: SimConfig, cores: Vec<P>) -> World<Des<P>> {
    let peers: Vec<Des<P>> = cores.into_iter().map(Des::new).collect();
    let n = peers.len();
    let rng = DetRng::new(config.seed).derive(0x5157_0a11);
    let faults_inert = config.faults.is_inert();
    World {
        kernel: Kernel {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            metrics: Metrics::new(n),
            rng,
            config,
            faults_inert,
            next_send_seq: 0,
            up: vec![true; n],
            incarnation: vec![0; n],
            cancelled_timers: HashSet::new(),
            events_processed: 0,
            sched_fingerprint: 0,
            trace: None,
            sink: EventSink::disabled(),
        },
        peers,
        scratch: Vec::new(),
        strategy: None,
        batch_scratch: Vec::new(),
        info_scratch: Vec::new(),
    }
}

impl<P: SansIo> World<Des<P>> {
    /// Schedules a `Start` activation for every up peer at the current time.
    pub fn start(&mut self) {
        // One `Start` per up peer is the queue's high-water under a
        // constant latency (a peer's report replaces its `Start`).
        let up = self.kernel.up.iter().filter(|&&up| up).count();
        self.kernel.queue.reserve(up);
        for i in 0..self.peers.len() {
            if self.kernel.up[i] {
                self.kernel.queue.push(
                    self.kernel.now,
                    EventKind::Start {
                        peer: PeerId::new(i),
                    },
                );
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Immutable view of a peer's slot (its core through `Deref`).
    pub fn peer(&self, id: PeerId) -> &Des<P> {
        &self.peers[id.index()]
    }

    /// Mutable view of a peer's slot (driver-side mutation).
    pub fn peer_mut(&mut self, id: PeerId) -> &mut Des<P> {
        &mut self.peers[id.index()]
    }

    /// Iterates over all peer slots.
    pub fn peers(&self) -> impl Iterator<Item = &Des<P>> {
        self.peers.iter()
    }

    /// Whether `peer` is currently up.
    pub fn is_up(&self, peer: PeerId) -> bool {
        self.kernel.is_up(peer)
    }

    /// Communication metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.kernel.metrics
    }

    /// Enables execution tracing with a bounded ring buffer of `capacity`
    /// entries. Tracing is off by default (zero overhead).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.kernel.trace = Some(Trace::new(capacity));
    }

    /// The execution trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.kernel.trace.as_ref()
    }

    /// Resets communication metrics (e.g. after a warm-up phase), keeping
    /// protocol and clock state. The event sink is reset too — including
    /// span stacks and handler phase marks — so a subsequent
    /// [`MetricsReport`] reflects only post-reset activity.
    pub fn reset_metrics(&mut self) {
        self.kernel.metrics.reset();
        self.kernel.sink.reset();
    }

    /// Installs a schedule strategy: from now on every event pop presents
    /// the batch of events tied at the minimum time to `strategy` (see
    /// [`ScheduleStrategy`]). Installing `None`-like behavior back is done
    /// by [`clear_strategy`](Self::clear_strategy).
    pub fn install_strategy(&mut self, strategy: Box<dyn ScheduleStrategy>) {
        self.strategy = Some(strategy);
    }

    /// Removes the schedule strategy, restoring the FIFO tie-break.
    pub fn clear_strategy(&mut self) {
        self.strategy = None;
    }

    /// Order-sensitive digest of the schedule executed so far: every fired
    /// event's `seq` folded through [`mix64`]. Distinct interleavings of
    /// the same event population yield distinct fingerprints (up to hash
    /// collisions), which is how the exploration harness counts how many
    /// genuinely different schedules it has covered.
    pub fn schedule_fingerprint(&self) -> u64 {
        self.kernel.sched_fingerprint
    }

    /// The time of the earliest pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.kernel.queue.peek_time()
    }

    /// Enables the structured event sink: from now on every send is also
    /// aggregated per protocol phase (see [`EventSink`]), and the scheduler
    /// loop records wall-clock time under the `"scheduler"` phase. Off by
    /// default (one branch of overhead per send).
    pub fn enable_metrics_sink(&mut self) {
        if !self.kernel.sink.is_enabled() {
            self.kernel.sink = EventSink::new(self.peers.len());
        }
    }

    /// The structured event sink (disabled unless
    /// [`enable_metrics_sink`](Self::enable_metrics_sink) was called).
    pub fn sink(&self) -> &EventSink {
        &self.kernel.sink
    }

    /// Mutable access to the event sink, for driver-level phase spans
    /// ([`EventSink::enter`]/[`EventSink::exit`]) and wall-clock charges.
    pub fn sink_mut(&mut self) -> &mut EventSink {
        &mut self.kernel.sink
    }

    /// Snapshot of the sink as a [`MetricsReport`]. Empty when the sink is
    /// disabled.
    pub fn metrics_report(&self) -> MetricsReport {
        self.kernel.sink.report()
    }

    /// Schedules a crash of `peer` at absolute time `at`.
    pub fn schedule_kill(&mut self, at: SimTime, peer: PeerId) {
        self.kernel.queue.push(at, EventKind::Kill { peer });
    }

    /// Schedules a revival of `peer` at absolute time `at`.
    pub fn schedule_revive(&mut self, at: SimTime, peer: PeerId) {
        self.kernel.queue.push(at, EventKind::Revive { peer });
    }

    /// Takes `peer` down immediately.
    pub fn kill_now(&mut self, peer: PeerId) {
        self.apply_kill(peer);
    }

    /// Injects a message from the driver into the world, as if sent by
    /// `from`. Useful for kicking off request/response protocols without a
    /// dedicated timer. Returns the send sequence number.
    pub fn inject(
        &mut self,
        from: PeerId,
        to: PeerId,
        msg: P::Msg,
        bytes: u64,
        class: MsgClass,
    ) -> u64 {
        self.kernel.send(from, to, msg, bytes, class)
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed
    }

    /// High-water mark of the pending-event population (scheduler
    /// occupancy). Deterministic for a fixed `(protocol, seed)` pair, so
    /// the perf benches gate on it as a state-layout counter.
    pub fn queue_high_water(&self) -> usize {
        self.kernel.queue.high_water()
    }

    /// Pushes that fell through the event queue's FIFO lanes to its
    /// overflow heap — zero while every delivery is scheduled at or after
    /// the one before it (constant link latency). Deterministic like
    /// [`queue_high_water`](Self::queue_high_water).
    pub fn queue_heap_pushes(&self) -> u64 {
        self.kernel.queue.heap_pushes()
    }

    /// Runs until the event queue is empty. Returns the final time.
    ///
    /// # Panics
    ///
    /// Panics if [`SimConfig::max_events`] is exceeded (runaway protocol).
    pub fn run_to_quiescence(&mut self) -> SimTime {
        if self.kernel.sink.is_enabled() {
            let t0 = std::time::Instant::now();
            while self.step() {}
            self.kernel.sink.record_wall("scheduler", t0.elapsed());
        } else {
            while self.step() {}
        }
        self.kernel.now
    }

    /// Runs all events with `time <= until`, then advances the clock to
    /// exactly `until`. Suitable for protocols with periodic timers that
    /// never quiesce (heartbeats). A schedule strategy cannot smuggle an
    /// event past the horizon: a delay that would land beyond `until`
    /// degrades to firing the event in place.
    pub fn run_until(&mut self, until: SimTime) {
        let t0 = self.kernel.sink.is_enabled().then(std::time::Instant::now);
        while self.step_until(until) {}
        if self.kernel.now < until {
            self.kernel.now = until;
        }
        if let Some(t0) = t0 {
            self.kernel.sink.record_wall("scheduler", t0.elapsed());
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_bounded(None)
    }

    /// Processes a single event scheduled at or before `bound`. Returns
    /// `false` when no such event is pending (the clock is *not* advanced
    /// to `bound`; [`run_until`](Self::run_until) does that).
    pub fn step_until(&mut self, bound: SimTime) -> bool {
        self.step_bounded(Some(bound))
    }

    /// Pops the next event to fire, consulting the installed strategy on
    /// the batch of events tied at the minimum pending time. With no
    /// strategy this is exactly `queue.pop()` gated on `bound`.
    fn pop_scheduled(&mut self, bound: Option<SimTime>) -> Option<CoreEvent<P>> {
        if self.strategy.is_none() {
            let t = self.kernel.queue.peek_time()?;
            if bound.is_some_and(|b| t > b) {
                return None;
            }
            return self.kernel.queue.pop();
        }
        let mut delays = 0usize;
        // The batch and info vectors are session-lived scratch: taken out
        // for the borrow checker's benefit, always returned before exit.
        let mut batch = std::mem::take(&mut self.batch_scratch);
        let mut infos = std::mem::take(&mut self.info_scratch);
        debug_assert!(batch.is_empty() && infos.is_empty());
        let picked = 'batch: loop {
            let Some(t) = self.kernel.queue.peek_time() else {
                break None;
            };
            if bound.is_some_and(|b| t > b) {
                break None;
            }
            // Gather the tied batch; heap pop order at equal time is
            // ascending seq, so the batch arrives FIFO-sorted.
            while self.kernel.queue.peek_time() == Some(t) {
                batch.push(self.kernel.queue.pop().expect("peeked event present"));
            }
            loop {
                infos.clear();
                infos.extend(batch.iter().map(event_info));
                let decision = self
                    .strategy
                    .as_mut()
                    .expect("strategy checked above")
                    .decide(&infos);
                let (index, delay_by) = match decision {
                    ScheduleDecision::Take(i) => (i % batch.len(), None),
                    ScheduleDecision::Delay { index, micros } => {
                        (index % batch.len(), Some(micros.max(1)))
                    }
                };
                if let Some(micros) = delay_by {
                    let target = t + Duration::from_micros(micros);
                    // Delays apply to deliveries only (timer durations are
                    // protocol semantics, kills/revives are the driver's
                    // churn script), within the livelock budget, and never
                    // across the caller's horizon.
                    let honorable = matches!(batch[index].kind, EventKind::Deliver { .. })
                        && delays < MAX_CONSECUTIVE_DELAYS
                        && bound.is_none_or(|b| target <= b);
                    if honorable {
                        delays += 1;
                        let mut ev = batch.remove(index);
                        ev.time = target;
                        self.kernel.queue.reinsert(ev);
                        if batch.is_empty() {
                            continue 'batch;
                        }
                        continue;
                    }
                    // Degrade to Take(index).
                }
                let ev = batch.remove(index);
                for rest in batch.drain(..) {
                    self.kernel.queue.reinsert(rest);
                }
                break 'batch Some(ev);
            }
        };
        // Every exit path drained the batch (events back in the queue or
        // returned); clearing must never discard a pending event.
        debug_assert!(batch.is_empty(), "pop_scheduled leaked batched events");
        batch.clear();
        infos.clear();
        self.batch_scratch = batch;
        self.info_scratch = infos;
        picked
    }

    fn step_bounded(&mut self, bound: Option<SimTime>) -> bool {
        let Some(ev) = self.pop_scheduled(bound) else {
            return false;
        };
        self.kernel.sched_fingerprint = mix64(self.kernel.sched_fingerprint ^ mix64(ev.seq));
        self.kernel.events_processed += 1;
        assert!(
            self.kernel.events_processed <= self.kernel.config.max_events,
            "simulation exceeded max_events = {} (runaway protocol?)",
            self.kernel.config.max_events
        );
        debug_assert!(ev.time >= self.kernel.now, "time went backwards");
        self.kernel.now = ev.time;

        match ev.kind {
            EventKind::Deliver { from, to, msg } => {
                if self.kernel.is_up(to) {
                    self.kernel.metrics.record_delivery();
                    if let Some(trace) = self.kernel.trace.as_mut() {
                        trace.record(ev.time, TraceKind::Deliver { from, to });
                    }
                    self.activate(to, NodeEvent::Message { from, msg });
                } else {
                    self.kernel.metrics.record_drop();
                }
            }
            EventKind::Timer {
                peer,
                tag: (token, tag),
                incarnation,
            } => {
                if self.kernel.cancelled_timers.remove(&ev.seq) {
                    // cancelled before firing
                } else if self.kernel.is_up(peer)
                    // A stale incarnation (armed before a kill/revive
                    // cycle) is swallowed exactly like a timer at a down
                    // peer: the seq still folds into the fingerprint
                    // above, nothing else happens.
                    && incarnation == self.kernel.incarnation[peer.index()]
                {
                    if let Some(trace) = self.kernel.trace.as_mut() {
                        trace.record(ev.time, TraceKind::Timer { peer });
                    }
                    let timers = &mut self.peers[peer.index()].timers;
                    if let Some(pos) = timers.iter().position(|&(t, _)| t == token) {
                        timers.swap_remove(pos);
                    }
                    self.activate(peer, NodeEvent::Timer { tag });
                }
            }
            EventKind::Start { peer } => {
                if self.kernel.is_up(peer) {
                    // A revival invalidated every pre-crash timer (the
                    // incarnation bump), so their token entries can go.
                    self.peers[peer.index()].timers.clear();
                    self.activate(peer, NodeEvent::Start);
                }
            }
            EventKind::Kill { peer } => self.apply_kill(peer),
            EventKind::Revive { peer } => {
                if !self.kernel.is_up(peer) {
                    if let Some(trace) = self.kernel.trace.as_mut() {
                        trace.record(ev.time, TraceKind::Revive { peer });
                    }
                    // New incarnation: timers armed before the kill are
                    // dead on arrival from here on.
                    let inc = &mut self.kernel.incarnation[peer.index()];
                    *inc = inc.wrapping_add(1);
                    self.kernel.up[peer.index()] = true;
                    self.kernel
                        .queue
                        .push(self.kernel.now, EventKind::Start { peer });
                }
            }
        }
        true
    }

    fn apply_kill(&mut self, peer: PeerId) {
        if self.kernel.up[peer.index()] {
            if let Some(trace) = self.kernel.trace.as_mut() {
                trace.record(self.kernel.now, TraceKind::Kill { peer });
            }
            self.kernel.up[peer.index()] = false;
            self.peers[peer.index()].node.on_stop();
        }
    }

    /// Runs one activation of peer `id`'s core where it lies and applies
    /// its effects in emission order. The peer vector, the kernel and the
    /// effect scratch are disjoint fields, so all three are borrowed at
    /// once and nothing is moved.
    fn activate(&mut self, id: PeerId, ev: NodeEvent<P::Msg, P::Timer>) {
        let slot = &mut self.peers[id.index()];
        let mut fx = Effects::from_parts(std::mem::take(&mut self.scratch), slot.next_token);
        slot.node
            .on_event(ev, self.kernel.now, &self.kernel, &mut fx);
        let (mut buf, next_token) = fx.into_parts();
        slot.next_token = next_token;
        let kernel = &mut self.kernel;
        for effect in buf.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    bytes,
                    class,
                } => {
                    kernel.send(id, to, msg, bytes, class);
                }
                Effect::SetTimer { token, delay, tag } => {
                    // The queue's monotone `seq` doubles as the timer id;
                    // cancellation records the seq and the fire path
                    // checks it.
                    let seq = kernel.queue.push(
                        kernel.now + delay,
                        EventKind::Timer {
                            peer: id,
                            tag: (token, tag),
                            incarnation: kernel.incarnation[id.index()],
                        },
                    );
                    slot.timers.push((token, seq));
                }
                Effect::CancelTimer { token } => {
                    // A token that already fired has no entry: a no-op.
                    if let Some(pos) = slot.timers.iter().position(|&(t, _)| t == token) {
                        let (_, seq) = slot.timers.swap_remove(pos);
                        kernel.cancelled_timers.insert(seq);
                    }
                }
                Effect::Charge { class, bytes } => {
                    kernel.metrics.record_piggyback(id, class, bytes);
                    kernel.sink.record_piggyback(id, class, bytes);
                }
                Effect::MarkPhase { label } => kernel.sink.mark(label),
                Effect::Warn { label } => kernel.sink.warn(label),
                Effect::Deliver(out) => slot.outputs.get_or_insert_default().push(out),
            }
        }
        self.scratch = buf;
        // A phase mark is scoped to one activation.
        kernel.sink.clear_mark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flood protocol: the origin broadcasts; everyone re-broadcasts once.
    #[derive(Debug, Default)]
    struct Flood {
        origin: bool,
        neighbors: Vec<PeerId>,
        seen: bool,
        stops: u32,
    }

    impl SansIo for Flood {
        type Msg = ();
        type Timer = ();
        type Output = ();

        fn on_event(
            &mut self,
            ev: NodeEvent<(), ()>,
            _: SimTime,
            _: &dyn Membership,
            fx: &mut Effects<Self>,
        ) {
            let start = matches!(ev, NodeEvent::Start);
            if !self.seen && (self.origin || !start) {
                self.seen = true;
                for &nb in &self.neighbors {
                    fx.send(nb, (), 4, MsgClass::DATA);
                }
            }
        }

        fn on_stop(&mut self) {
            self.stops += 1;
        }
    }

    fn line_world(n: usize) -> World<Des<Flood>> {
        let peers = (0..n)
            .map(|i| {
                let mut nb = Vec::new();
                if i > 0 {
                    nb.push(PeerId::new(i - 1));
                }
                if i + 1 < n {
                    nb.push(PeerId::new(i + 1));
                }
                Flood {
                    origin: i == 0,
                    neighbors: nb,
                    ..Default::default()
                }
            })
            .collect();
        sansio_world(SimConfig::default().with_seed(1), peers)
    }

    #[test]
    fn flood_reaches_everyone() {
        let mut w = line_world(10);
        w.start();
        w.run_to_quiescence();
        assert!(w.peers().all(|p| p.seen));
        // 10 peers each broadcast once to their neighbors: 2*(n-1) directed
        // messages along the line.
        assert_eq!(w.metrics().total_messages(), 18);
    }

    #[test]
    fn time_advances_with_latency() {
        let mut w = line_world(5);
        w.start();
        let t = w.run_to_quiescence();
        // Line of 5: the flood reaches the end at 4 hops; the final event is
        // the end peer's redundant echo back to its predecessor (5 hops).
        assert_eq!(t, SimTime::from_micros(5 * 50_000));
    }

    /// Convergecast over the ternary tree `parent(i) = (i − 1) / 3`: a
    /// leaf reports on start, an interior peer once every child has.
    #[derive(Debug)]
    struct Report {
        parent: Option<PeerId>,
        waiting: usize,
    }

    impl SansIo for Report {
        type Msg = ();
        type Timer = ();
        type Output = ();

        fn on_event(
            &mut self,
            ev: NodeEvent<(), ()>,
            _: SimTime,
            _: &dyn Membership,
            fx: &mut Effects<Self>,
        ) {
            if let NodeEvent::Message { .. } = ev {
                self.waiting -= 1;
            }
            if let (0, Some(parent)) = (self.waiting, self.parent) {
                fx.send(parent, (), 4, MsgClass::DATA);
            }
        }
    }

    #[test]
    fn a_constant_latency_epoch_never_regrows_the_ring_after_start() {
        // Not a power of two, so doubling would overshoot it.
        const N: usize = 1_000;
        let peers = (0..N)
            .map(|i| Report {
                parent: i.checked_sub(1).map(|below| PeerId::new(below / 3)),
                waiting: (3 * i + 1..3 * i + 4).filter(|&c| c < N).count(),
            })
            .collect();
        let mut w = sansio_world(SimConfig::default().with_seed(1), peers);
        w.start();
        let ring = w.kernel.queue.lane_capacity();
        assert!((N..N.next_power_of_two()).contains(&ring), "{ring} slots");
        w.run_to_quiescence();
        assert_eq!(w.metrics().total_messages(), N as u64 - 1);
        assert_eq!(w.queue_high_water(), N);
        assert_eq!(w.queue_heap_pushes(), 0);
        assert_eq!(w.kernel.queue.lane_capacity(), ring);
    }

    #[test]
    fn killed_peer_blocks_flood() {
        let mut w = line_world(10);
        w.kill_now(PeerId::new(5));
        w.start();
        w.run_to_quiescence();
        assert!(w.peer(PeerId::new(4)).seen);
        assert!(!w.peer(PeerId::new(6)).seen, "flood crossed a dead peer");
        assert_eq!(w.peer(PeerId::new(5)).stops, 1);
    }

    #[test]
    fn revive_restarts_peer() {
        let mut w = line_world(3);
        w.kill_now(PeerId::new(0));
        w.schedule_revive(SimTime::from_micros(1000), PeerId::new(0));
        w.start();
        w.run_to_quiescence();
        // Peer 0 revives at t=1000 and floods from its on_start.
        assert!(w.peers().all(|p| p.seen));
    }

    #[test]
    fn far_future_timer_beyond_the_wheel_horizon_fires_at_end_of_time() {
        // Regression: a timer armed with the maximum delay parks in the
        // timer wheel's top level; draining it used to overflow the wheel
        // cursor (`u64::MAX + 1`). The arming itself saturates at the end
        // of the microsecond range and must still fire exactly once.
        #[derive(Debug, Default)]
        struct FarTimer {
            fired: Option<SimTime>,
        }

        impl SansIo for FarTimer {
            type Msg = ();
            type Timer = ();
            type Output = ();

            fn on_event(
                &mut self,
                ev: NodeEvent<(), ()>,
                now: SimTime,
                _: &dyn Membership,
                fx: &mut Effects<Self>,
            ) {
                match ev {
                    NodeEvent::Start => {
                        fx.set_timer(Duration::from_micros(u64::MAX), ());
                    }
                    NodeEvent::Timer { .. } => self.fired = Some(now),
                    NodeEvent::Message { .. } => {}
                }
            }
        }

        let mut w = sansio_world(SimConfig::default().with_seed(1), vec![FarTimer::default()]);
        w.start();
        w.run_to_quiescence();
        assert_eq!(
            w.peer(PeerId::new(0)).fired,
            Some(SimTime::from_micros(u64::MAX))
        );
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = || {
            let mut w = line_world(8);
            w.start();
            w.run_to_quiescence();
            (w.metrics().total_bytes(), w.now(), w.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn drop_probability_one_loses_everything() {
        let peers = vec![
            Flood {
                origin: true,
                neighbors: vec![PeerId::new(1)],
                ..Default::default()
            },
            Flood {
                neighbors: vec![PeerId::new(0)],
                ..Default::default()
            },
        ];
        let mut w = sansio_world(
            SimConfig::default()
                .with_seed(2)
                .with_faults(FaultPlan::none().with_drop(1.0)),
            peers,
        );
        w.start();
        w.run_to_quiescence();
        assert!(!w.peer(PeerId::new(1)).seen);
        // Sender is still charged for the dropped message.
        assert_eq!(w.metrics().total_bytes(), 4);
        assert_eq!(w.metrics().dropped_messages(), 1);
    }

    /// Ticker protocol used to exercise timers and cancellation: timer 1
    /// cancels timer 2. Optionally it also arms and cancels a timer 4 in
    /// its start activation, and cancels timer 1 again after it fired.
    #[derive(Debug, Default)]
    struct Ticker {
        cancel_in_same_activation: bool,
        cancel_after_firing: bool,
        fired: Vec<u32>,
        first: Option<TimerToken>,
        cancel_next: Option<TimerToken>,
    }

    impl SansIo for Ticker {
        type Msg = ();
        type Timer = u32;
        type Output = ();

        fn on_event(
            &mut self,
            ev: NodeEvent<(), u32>,
            _: SimTime,
            _: &dyn Membership,
            fx: &mut Effects<Self>,
        ) {
            match ev {
                NodeEvent::Start => {
                    self.first = Some(fx.set_timer(Duration::from_millis(1), 1));
                    let id = fx.set_timer(Duration::from_millis(2), 2);
                    fx.set_timer(Duration::from_millis(3), 3);
                    self.cancel_next = Some(id);
                    if self.cancel_in_same_activation {
                        let doomed = fx.set_timer(Duration::from_millis(1), 4);
                        fx.cancel_timer(doomed);
                    }
                }
                NodeEvent::Timer { tag } => {
                    if tag == 1 {
                        if let Some(id) = self.cancel_next.take() {
                            fx.cancel_timer(id);
                        }
                        if self.cancel_after_firing {
                            fx.cancel_timer(self.first.expect("armed at start"));
                        }
                    }
                    self.fired.push(tag);
                }
                NodeEvent::Message { .. } => {}
            }
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        for (cancel_in_same_activation, cancel_after_firing) in
            [(false, false), (true, false), (false, true)]
        {
            let ticker = Ticker {
                cancel_in_same_activation,
                cancel_after_firing,
                ..Ticker::default()
            };
            let mut w = sansio_world(SimConfig::default().with_seed(3), vec![ticker]);
            w.start();
            w.run_to_quiescence();
            assert_eq!(w.peer(PeerId::new(0)).fired, vec![1, 3]);
            // Every cancellation was consumed by its timer's fire path; a
            // cancel of a fired token recorded nothing to leak.
            assert!(w.kernel.cancelled_timers.is_empty());
        }
    }

    /// Arms one long timer per incarnation; records which fired.
    #[derive(Debug, Default)]
    struct Generations {
        starts: u32,
        fired: Vec<u32>,
    }

    impl SansIo for Generations {
        type Msg = ();
        type Timer = u32;
        type Output = ();

        fn on_event(
            &mut self,
            ev: NodeEvent<(), u32>,
            _: SimTime,
            _: &dyn Membership,
            fx: &mut Effects<Self>,
        ) {
            match ev {
                NodeEvent::Start => {
                    self.starts += 1;
                    // A tag unique to this incarnation, fired well in the
                    // future.
                    fx.set_timer(Duration::from_secs(5), self.starts);
                }
                NodeEvent::Timer { tag } => self.fired.push(tag),
                NodeEvent::Message { .. } => {}
            }
        }
    }

    #[test]
    fn timer_from_a_previous_incarnation_never_fires_after_revival() {
        let mut w = sansio_world(
            SimConfig::default().with_seed(6),
            vec![Generations::default()],
        );
        let p = PeerId::new(0);
        // Kill at 1 s and revive at 2 s: the incarnation-1 timer (due at
        // 5 s) is still pending when the peer comes back. Without the
        // generation stamp it would fire into the new incarnation —
        // exactly the doubled-tick-chain / stale-retransmit aliasing bug.
        w.schedule_kill(SimTime::from_micros(1_000_000), p);
        w.schedule_revive(SimTime::from_micros(2_000_000), p);
        w.start();
        w.run_to_quiescence();
        assert_eq!(w.peer(p).starts, 2);
        assert_eq!(
            w.peer(p).fired,
            vec![2],
            "only the post-revival incarnation's timer may fire"
        );
    }

    #[test]
    fn timer_pending_across_a_full_downtime_stays_swallowed() {
        // Kill before the timer's due time, revive after it: the fire
        // lands during downtime and is dropped by the liveness check, as
        // before the generation stamp existed.
        let mut w = sansio_world(
            SimConfig::default().with_seed(7),
            vec![Generations::default()],
        );
        let p = PeerId::new(0);
        w.schedule_kill(SimTime::from_micros(1_000_000), p);
        w.schedule_revive(SimTime::from_micros(6_000_000), p);
        w.start();
        w.run_to_quiescence();
        assert_eq!(w.peer(p).fired, vec![2]);
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut w = sansio_world(SimConfig::default().with_seed(4), vec![Ticker::default()]);
        w.start();
        w.run_until(SimTime::from_micros(1_500));
        assert_eq!(w.now(), SimTime::from_micros(1_500));
        assert_eq!(w.peer(PeerId::new(0)).fired, vec![1]);
        w.run_until(SimTime::from_micros(10_000));
        assert_eq!(w.peer(PeerId::new(0)).fired, vec![1, 3]);
    }

    #[test]
    fn trace_captures_the_execution() {
        let mut w = line_world(4);
        w.enable_trace(1024);
        w.kill_now(PeerId::new(3));
        w.schedule_revive(SimTime::from_micros(500_000), PeerId::new(3));
        w.start();
        w.run_to_quiescence();
        let trace = w.trace().expect("tracing enabled");
        assert!(!trace.is_empty());
        // The kill and revival are on record ...
        assert!(trace
            .entries()
            .any(|e| matches!(e.kind, TraceKind::Kill { peer } if peer == PeerId::new(3))));
        assert!(trace
            .entries()
            .any(|e| matches!(e.kind, TraceKind::Revive { peer } if peer == PeerId::new(3))));
        // ... and every delivery has a matching earlier send.
        let sends = trace
            .entries()
            .filter(|e| matches!(e.kind, TraceKind::Send { .. }))
            .count();
        let delivers = trace
            .entries()
            .filter(|e| matches!(e.kind, TraceKind::Deliver { .. }))
            .count();
        assert!(delivers <= sends);
        // Rendering mentions the peers.
        assert!(trace.render().contains("P3"));
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut w = line_world(3);
        w.start();
        w.run_to_quiescence();
        assert!(w.trace().is_none());
    }

    #[test]
    fn sink_disabled_by_default_and_records_nothing() {
        let mut w = line_world(4);
        w.start();
        w.run_to_quiescence();
        assert!(!w.sink().is_enabled());
        assert_eq!(w.sink().events_recorded(), 0);
        assert!(w.metrics_report().phases.is_empty());
    }

    #[test]
    fn sink_report_reconciles_with_metrics() {
        let mut w = line_world(6);
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();
        let report = w.metrics_report();
        // Every send was recorded, bytes match the always-on meter, and
        // untagged flood traffic lands in the class-label phase.
        assert_eq!(report.total_bytes(), w.metrics().total_bytes());
        assert_eq!(report.total_messages(), w.metrics().total_messages());
        assert_eq!(report.phase_bytes("data"), w.metrics().total_bytes());
        // The scheduler loop contributed wall time.
        let sched = report.phase("scheduler").expect("scheduler phase");
        assert!(sched.wall > std::time::Duration::ZERO);
        assert_eq!(sched.bytes(), 0);
    }

    /// Protocol that marks its handler phase before sending.
    #[derive(Debug)]
    struct Marked {
        id: PeerId,
        got: bool,
    }

    /// Peers 0 and 1 of a [`Marked`] pair.
    fn marked_pair() -> Vec<Marked> {
        (0..2)
            .map(|i| Marked {
                id: PeerId::new(i),
                got: false,
            })
            .collect()
    }

    impl SansIo for Marked {
        type Msg = ();
        type Timer = ();
        type Output = ();

        fn on_event(
            &mut self,
            ev: NodeEvent<(), ()>,
            _: SimTime,
            _: &dyn Membership,
            fx: &mut Effects<Self>,
        ) {
            match ev {
                NodeEvent::Start if self.id.index() == 0 => {
                    fx.mark_phase("probe");
                    fx.send(PeerId::new(1), (), 7, MsgClass::CONTROL);
                }
                // The mark from peer 0's handler must not leak into this one.
                NodeEvent::Message { .. } if self.id.index() == 1 && !self.got => {
                    self.got = true;
                    fx.send(PeerId::new(0), (), 3, MsgClass::CONTROL);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn handler_marks_scope_to_one_activation() {
        let mut w = sansio_world(SimConfig::default().with_seed(9), marked_pair());
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();
        let report = w.metrics_report();
        assert_eq!(report.phase_bytes("probe"), 7);
        // Peer 1's unmarked reply fell back to the class label.
        assert_eq!(report.phase_bytes("control"), 3);
        assert!(w.peer(PeerId::new(1)).got);
    }

    #[test]
    fn scheduled_drop_kills_exactly_the_targeted_send() {
        // Two injected messages; the fault plan names send seq 0, so only
        // the second one arrives — no randomness involved.
        let peers = vec![Flood::default(), Flood::default(), Flood::default()];
        let cfg = SimConfig::default()
            .with_seed(11)
            .with_faults(FaultPlan::none().with_scheduled_drops([0]));
        let mut w = sansio_world(cfg, peers);
        let first = w.inject(PeerId::new(0), PeerId::new(1), (), 4, MsgClass::DATA);
        let second = w.inject(PeerId::new(0), PeerId::new(2), (), 4, MsgClass::DATA);
        assert_eq!((first, second), (0, 1));
        w.run_to_quiescence();
        assert!(!w.peer(PeerId::new(1)).seen);
        assert!(w.peer(PeerId::new(2)).seen);
        assert_eq!(w.metrics().dropped_messages(), 1);
    }

    #[test]
    fn duplication_delivers_two_copies() {
        let peers = vec![
            Flood::default(),
            Flood {
                neighbors: vec![],
                ..Default::default()
            },
        ];
        let cfg = SimConfig::default()
            .with_seed(12)
            .with_faults(FaultPlan::none().with_duplication(1.0));
        let mut w = sansio_world(cfg, peers);
        w.inject(PeerId::new(0), PeerId::new(1), (), 4, MsgClass::DATA);
        w.run_to_quiescence();
        // One send on the books, two deliveries on the wire.
        assert_eq!(w.metrics().total_messages(), 1);
        assert_eq!(w.metrics().delivered_messages(), 2);
    }

    #[test]
    fn class_drop_spares_other_classes() {
        let peers = vec![Flood::default(), Flood::default()];
        let cfg = SimConfig::default()
            .with_seed(13)
            .with_faults(FaultPlan::none().with_class_drop(MsgClass::CONTROL, 1.0));
        let mut w = sansio_world(cfg, peers);
        w.inject(PeerId::new(0), PeerId::new(1), (), 4, MsgClass::CONTROL);
        w.inject(PeerId::new(0), PeerId::new(1), (), 4, MsgClass::DATA);
        w.run_to_quiescence();
        assert_eq!(w.metrics().dropped_messages(), 1);
        assert_eq!(w.metrics().delivered_messages(), 1);
        assert!(w.peer(PeerId::new(1)).seen);
    }

    #[test]
    fn delay_spikes_stretch_delivery() {
        let peers = vec![
            Flood::default(),
            Flood {
                neighbors: vec![],
                ..Default::default()
            },
        ];
        let spike = Duration::from_secs(1);
        let cfg = SimConfig::default()
            .with_seed(14)
            .with_faults(FaultPlan::none().with_delay_spikes(1.0, spike));
        let mut w = sansio_world(cfg, peers);
        w.inject(PeerId::new(0), PeerId::new(1), (), 4, MsgClass::DATA);
        let t = w.run_to_quiescence();
        // Default constant latency 50 ms plus the guaranteed 1 s spike.
        assert_eq!(t, SimTime::from_micros(1_050_000));
        assert!(w.peer(PeerId::new(1)).seen);
    }

    #[test]
    fn inject_delivers_like_a_send() {
        let peers = vec![
            Flood::default(),
            Flood {
                neighbors: vec![],
                ..Default::default()
            },
        ];
        let mut w = sansio_world(SimConfig::default().with_seed(5), peers);
        w.inject(PeerId::new(0), PeerId::new(1), (), 16, MsgClass::CONTROL);
        w.run_to_quiescence();
        assert!(w.peer(PeerId::new(1)).seen);
        assert_eq!(w.metrics().class_bytes(MsgClass::CONTROL), 16);
    }

    /// Records the payloads it receives, in delivery order.
    #[derive(Debug, Default)]
    struct Recorder {
        got: Vec<u8>,
    }

    impl SansIo for Recorder {
        type Msg = u8;
        type Timer = ();
        type Output = ();

        fn on_event(
            &mut self,
            ev: NodeEvent<u8, ()>,
            _: SimTime,
            _: &dyn Membership,
            _: &mut Effects<Self>,
        ) {
            if let NodeEvent::Message { msg, .. } = ev {
                self.got.push(msg);
            }
        }
    }

    fn two_simultaneous(strategy: Option<Box<dyn ScheduleStrategy>>) -> World<Des<Recorder>> {
        // Two injected messages with identical (constant) latency: they tie
        // at the same delivery time and FIFO order is payload order.
        let mut w = sansio_world(
            SimConfig::default().with_seed(21),
            vec![Recorder::default(), Recorder::default()],
        );
        if let Some(s) = strategy {
            w.install_strategy(s);
        }
        w.inject(PeerId::new(0), PeerId::new(1), 1, 4, MsgClass::DATA);
        w.inject(PeerId::new(0), PeerId::new(1), 2, 4, MsgClass::DATA);
        w
    }

    #[derive(Debug)]
    struct TakeLast;
    impl ScheduleStrategy for TakeLast {
        fn decide(&mut self, batch: &[EventInfo]) -> ScheduleDecision {
            ScheduleDecision::Take(batch.len() - 1)
        }
    }

    #[derive(Debug)]
    struct TakeFirst;
    impl ScheduleStrategy for TakeFirst {
        fn decide(&mut self, _batch: &[EventInfo]) -> ScheduleDecision {
            ScheduleDecision::Take(0)
        }
    }

    #[derive(Debug)]
    struct AlwaysDelay;
    impl ScheduleStrategy for AlwaysDelay {
        fn decide(&mut self, _batch: &[EventInfo]) -> ScheduleDecision {
            ScheduleDecision::Delay {
                index: 0,
                micros: 1_000,
            }
        }
    }

    #[test]
    fn strategy_take_reverses_the_tie_break() {
        let mut w = two_simultaneous(None);
        w.run_to_quiescence();
        assert_eq!(w.peer(PeerId::new(1)).got, vec![1, 2]);

        let mut w = two_simultaneous(Some(Box::new(TakeLast)));
        w.run_to_quiescence();
        assert_eq!(w.peer(PeerId::new(1)).got, vec![2, 1]);
    }

    #[test]
    fn take_zero_strategy_is_the_identity() {
        let mut base = two_simultaneous(None);
        base.run_to_quiescence();
        let mut hooked = two_simultaneous(Some(Box::new(TakeFirst)));
        hooked.run_to_quiescence();
        assert_eq!(
            hooked.peer(PeerId::new(1)).got,
            base.peer(PeerId::new(1)).got
        );
        assert_eq!(hooked.schedule_fingerprint(), base.schedule_fingerprint());
        assert_eq!(hooked.now(), base.now());
    }

    #[test]
    fn fingerprint_distinguishes_interleavings() {
        let mut a = two_simultaneous(Some(Box::new(TakeFirst)));
        a.run_to_quiescence();
        let mut b = two_simultaneous(Some(Box::new(TakeLast)));
        b.run_to_quiescence();
        assert_ne!(a.schedule_fingerprint(), b.schedule_fingerprint());
        // Same strategy, same seed: bit-for-bit the same schedule.
        let mut c = two_simultaneous(Some(Box::new(TakeLast)));
        c.run_to_quiescence();
        assert_eq!(b.schedule_fingerprint(), c.schedule_fingerprint());
    }

    #[test]
    fn adversarial_delay_cannot_livelock_the_world() {
        let mut w = two_simultaneous(Some(Box::new(AlwaysDelay)));
        w.run_to_quiescence();
        // The livelock guard forces takes; both messages still arrive,
        // later than the unperturbed schedule.
        assert_eq!(w.peer(PeerId::new(1)).got.len(), 2);
        assert!(w.now() > SimTime::from_micros(50_000));
    }

    #[test]
    fn delay_degrades_to_take_for_timers() {
        let run = |strategy: Option<Box<dyn ScheduleStrategy>>| {
            let mut w = sansio_world(SimConfig::default().with_seed(3), vec![Ticker::default()]);
            if let Some(s) = strategy {
                w.install_strategy(s);
            }
            w.start();
            w.run_to_quiescence();
            (w.peer(PeerId::new(0)).fired.clone(), w.now())
        };
        // Timers are protocol semantics: a delay-everything strategy must
        // not move them, so the run is identical to the baseline.
        assert_eq!(run(None), run(Some(Box::new(AlwaysDelay))));
    }

    #[test]
    fn run_until_holds_the_horizon_against_delays() {
        let mut w = two_simultaneous(Some(Box::new(AlwaysDelay)));
        let horizon = SimTime::from_micros(50_000);
        w.run_until(horizon);
        // Deliveries tied at exactly the horizon cannot be pushed past it:
        // the delay degrades and both fire at the horizon.
        assert_eq!(w.now(), horizon);
        assert_eq!(w.peer(PeerId::new(1)).got.len(), 2);
    }

    #[test]
    fn reset_metrics_clears_sink_phases_and_marks() {
        let mut w = sansio_world(SimConfig::default().with_seed(9), marked_pair());
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();
        assert!(w.metrics_report().phase_bytes("probe") > 0);
        w.sink_mut().enter("leftover-span");
        w.reset_metrics();
        // Phases, spans, marks, and counters are gone; the sink is still
        // enabled and meters new traffic from a clean slate.
        assert!(w.sink().is_enabled());
        assert_eq!(w.sink().events_recorded(), 0);
        assert!(w.metrics_report().phases.is_empty());
        w.inject(PeerId::new(0), PeerId::new(1), (), 5, MsgClass::DATA);
        w.run_to_quiescence();
        let report = w.metrics_report();
        assert_eq!(report.phase_bytes("probe"), 0);
        assert_eq!(report.phase_bytes("leftover-span"), 0);
        assert_eq!(report.phase_bytes("data"), 5);
    }
}
