//! The per-peer node loop, the supervised runtime, and the in-process
//! channel fabric.
//!
//! Architecture: one thread per peer runs the sans-io core behind a
//! *bounded* mailbox; every thread reports to the main-thread supervisor
//! over one merged control channel ([`Ctl`]). The supervisor owns the
//! fault timeline of a [`ChaosPlan`] (crashes, resets), the per-peer
//! reconnect loop (capped exponential backoff + health-check pings, see
//! [`crate::supervisor::Backoff`]), and final teardown. Message routing
//! goes through a [`Fabric`] — in-process channels here, TCP loopback in
//! [`crate::tcp`] — so chaos injection and supervision are fabric-
//! agnostic. A fabric's helpers (the chaos courier here; readers,
//! forwarders and the accept loop over TCP) run on pooled threads
//! ([`crate::pool`]); peer threads are started per run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

use ifi_sim::{
    AllUp, Effect, EffectBuf, Effects, EventSink, MetricsReport, NodeEvent, PeerId, RelConfig,
    SansIo, SimTime, TimerToken,
};

use crate::chaos::{ChaosPlan, ChaosState, Verdict};
use crate::pool::{self, Task};
use crate::supervisor::Backoff;

/// How long an idle node loop sleeps between checks for shutdown/crash
/// flags when no armed timer bounds the wait. Also the upper bound on the
/// latency of a stop or crash taking effect.
pub const IDLE_WAIT: StdDuration = StdDuration::from_millis(50);

/// Bounded mailbox depth per peer. A full mailbox sheds the frame (with a
/// metered `mailbox-shed` warning) instead of blocking the sender — the
/// transport never deadlocks on backpressure, and a reliability envelope
/// recovers the shed frame like any other loss.
pub const MAILBOX_CAP: usize = 4096;

/// How long teardown waits for every peer thread to hand back its core
/// before declaring the run wedged.
pub(crate) const JOIN_DEADLINE: StdDuration = StdDuration::from_secs(30);

/// One input delivered to a node's mailbox.
pub(crate) enum Input<M> {
    /// A protocol message from `from`.
    Msg {
        /// The sending peer.
        from: PeerId,
        /// The payload.
        msg: M,
    },
    /// Shutdown nudge: wakes the loop so it observes its stop flag
    /// immediately instead of at the next `IDLE_WAIT` tick.
    Stop,
}

/// Per-peer control flags the supervisor flips and the node loop polls.
#[derive(Debug, Default)]
pub(crate) struct PeerFlags {
    /// Orderly shutdown: exit the loop and hand the core back.
    pub(crate) stop: AtomicBool,
    /// Chaos crash: exit *now*, abandoning armed timers and mailbox
    /// contents, and hand the core back for a later restart.
    pub(crate) crashed: AtomicBool,
}

/// Everything a node thread reports to the supervisor, merged into one
/// channel so the main loop can wait on a single receiver.
pub(crate) enum Ctl<P: SansIo> {
    /// A core delivered a finished result.
    Output(PeerId, P::Output),
    /// A node thread exited (stop or crash) and hands back its state.
    Exited(PeerId, NodeExit<P>),
    /// A peer's own link to the fabric failed (send error or inbound
    /// connection loss) — the supervisor should start reconnecting.
    LinkDown(PeerId),
    /// A health-check ping completed its round-trip.
    Pong(PeerId),
}

/// The state a node thread hands back on exit, sufficient to respawn it.
pub(crate) struct NodeExit<P: SansIo> {
    pub(crate) node: P,
    pub(crate) next_token: u64,
}

/// State shared by every peer thread of one run.
pub(crate) struct Shared {
    /// The metrics sink; locked once per activation so an effect batch
    /// applies atomically (driver obligation #1).
    pub(crate) sink: Mutex<EventSink>,
    /// The run's time origin; `now` handed to cores is elapsed time since
    /// this instant, and chaos windows are measured against it.
    pub(crate) epoch: Instant,
    /// Frames pushed onto the fabric (sends routed), for frame-overhead
    /// accounting distinct from the metered protocol bytes.
    pub(crate) frames: Mutex<u64>,
}

impl Shared {
    pub(crate) fn new(peer_count: usize) -> Self {
        Shared {
            sink: Mutex::new(EventSink::new(peer_count)),
            epoch: Instant::now(),
            frames: Mutex::new(0),
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }
}

/// Outcome of routing one frame, reported to the *sending* node so it can
/// meter and react without the fabric touching the (already held) sink
/// lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendStatus {
    /// The frame entered the fabric (it may still meet chaos en route).
    Sent,
    /// The destination mailbox was full; the frame was load-shed.
    Shed,
    /// The sender's own link is severed; the supervisor must redial.
    LinkDown,
}

/// How a node's sends reach other peers, and how the supervisor manages
/// link lifecycle — in-process channels or a TCP loopback hub.
pub(crate) trait Fabric<M>: Send + Sync + 'static {
    /// Routes `msg` from `from` to `to`. Must not block and must not
    /// touch the shared metrics sink (callers may hold its lock).
    fn send(&self, from: PeerId, to: PeerId, msg: &M) -> SendStatus;
    /// Severs `peer`'s link (crash teardown or connection reset): sends
    /// from and to the peer fail until [`Fabric::redial`].
    fn sever(&self, peer: PeerId);
    /// Re-establishes `peer`'s link. `false` means the attempt failed and
    /// the supervisor should back off and retry.
    fn redial(&self, peer: PeerId) -> bool;
    /// Requests a health-check round-trip for `peer`; a [`Ctl::Pong`]
    /// reaches the supervisor if (and only if) the link is healthy.
    fn ping(&self, peer: PeerId);
    /// Tears the fabric down at end of run, unblocking any helper
    /// threads it spawned.
    fn teardown(&self);
}

/// The sending half of a bounded mailbox whose storage follows its
/// occupancy: a `VecDeque` behind a mutex, grown by the items actually
/// waiting, plus a condvar the receiver parks on. std's bounded channel
/// allocates and stamps all of its slots up front (≈ 260 KB per peer at
/// [`MAILBOX_CAP`]), and its unbounded one allocates a 31-slot block
/// (≈ 1.7 KB for a netFilter message) on a peer's first delivery however
/// few items ever wait. There is one sender per mailbox: the registry's.
pub(crate) struct MailboxTx<T> {
    inner: Arc<MailboxInner<T>>,
    cap: usize,
}

/// The receiving half of a bounded mailbox (see [`MailboxTx`]).
pub(crate) struct MailboxRx<T> {
    inner: Arc<MailboxInner<T>>,
}

struct MailboxInner<T> {
    state: Mutex<MailboxState<T>>,
    ready: Condvar,
}

struct MailboxState<T> {
    items: VecDeque<T>,
    /// The sender is gone: an empty box reads as disconnected.
    tx_gone: bool,
    /// The receiver is gone: deliveries read as a dead connection.
    rx_gone: bool,
    /// The receiver is parked on `ready`, so a delivery must wake it.
    parked: bool,
}

/// A mailbox holding at most `cap` undelivered items.
pub(crate) fn mailbox<T>(cap: usize) -> (MailboxTx<T>, MailboxRx<T>) {
    let inner = Arc::new(MailboxInner {
        state: Mutex::new(MailboxState {
            items: VecDeque::new(),
            tx_gone: false,
            rx_gone: false,
            parked: false,
        }),
        ready: Condvar::new(),
    });
    let tx = MailboxTx {
        inner: Arc::clone(&inner),
        cap,
    };
    (tx, MailboxRx { inner })
}

impl<T> MailboxInner<T> {
    fn lock(&self) -> MutexGuard<'_, MailboxState<T>> {
        self.state.lock().expect("mailbox poisoned")
    }
}

impl<T> MailboxTx<T> {
    /// Queues `item` unless `cap` items are waiting; never blocks.
    fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut state = self.inner.lock();
        if state.rx_gone {
            return Err(TrySendError::Disconnected(item));
        }
        if state.items.len() >= self.cap {
            return Err(TrySendError::Full(item));
        }
        state.items.push_back(item);
        if state.parked {
            self.inner.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Drop for MailboxTx<T> {
    fn drop(&mut self) {
        let mut state = self.inner.lock();
        state.tx_gone = true;
        if state.parked {
            self.inner.ready.notify_one();
        }
    }
}

impl<T> MailboxRx<T> {
    fn recv_timeout(&self, timeout: StdDuration) -> Result<T, RecvTimeoutError> {
        let mut state = self.inner.lock();
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(item) = state.items.pop_front() {
                return Ok(item);
            }
            if state.tx_gone {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            state.parked = true;
            state = self
                .inner
                .ready
                .wait_timeout(state, left)
                .expect("mailbox poisoned")
                .0;
            state.parked = false;
        }
    }
}

impl<T> Drop for MailboxRx<T> {
    fn drop(&mut self) {
        // Queued items die with the receiver, as in a dropped channel.
        let items = {
            let mut state = self.inner.lock();
            state.rx_gone = true;
            std::mem::take(&mut state.items)
        };
        drop(items);
    }
}

/// The per-peer bounded mailboxes, behind a registry so a crashed peer's
/// mailbox can be replaced on restart without re-plumbing senders.
pub(crate) struct Mailboxes<M> {
    slots: Vec<Mutex<Option<MailboxTx<Input<M>>>>>,
    /// Frames load-shed on full mailboxes, for [`RunOutcome::shed_frames`].
    pub(crate) shed: AtomicU64,
}

/// Outcome of a mailbox delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    Ok,
    /// Mailbox full — frame shed (already counted).
    Shed,
    /// No live mailbox (peer crashed or already gone) — frame dropped
    /// like a send into a dead connection.
    Down,
}

impl<M> Mailboxes<M> {
    pub(crate) fn new(n: usize) -> Self {
        Mailboxes {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            shed: AtomicU64::new(0),
        }
    }

    pub(crate) fn register(&self, peer: PeerId, tx: MailboxTx<Input<M>>) {
        *self.slots[peer.index()]
            .lock()
            .expect("mailbox registry poisoned") = Some(tx);
    }

    pub(crate) fn deregister(&self, peer: PeerId) {
        *self.slots[peer.index()]
            .lock()
            .expect("mailbox registry poisoned") = None;
    }

    /// Attempts a non-blocking delivery into `to`'s mailbox.
    pub(crate) fn deliver(&self, to: PeerId, input: Input<M>) -> Delivery {
        let slot = self.slots[to.index()]
            .lock()
            .expect("mailbox registry poisoned");
        match slot.as_ref() {
            None => Delivery::Down,
            Some(tx) => match tx.try_send(input) {
                Ok(()) => Delivery::Ok,
                Err(TrySendError::Full(_)) => {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    Delivery::Shed
                }
                Err(TrySendError::Disconnected(_)) => Delivery::Down,
            },
        }
    }
}

/// Shared hook for fabric helper threads to raise supervisor events
/// (pongs from ping round-trips, link-down reports from reader threads).
pub(crate) type CtlHook = Arc<dyn Fn(PeerId) + Send + Sync>;

/// A deferred delivery job: fire this closure at the given instant.
type DelayedJob = (Instant, Box<dyn FnOnce() + Send>);

/// A single pooled helper that delivers delayed (chaos-held) frames at
/// their due time.
pub(crate) struct Courier {
    tx: Mutex<Option<Sender<DelayedJob>>>,
    task: Mutex<Option<Task<()>>>,
}

impl Courier {
    pub(crate) fn new() -> Self {
        let (tx, rx) = mpsc::channel::<DelayedJob>();
        let task = pool::spawn(move || {
            while let Ok((due, job)) = rx.recv() {
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    thread::sleep(wait);
                }
                job();
            }
        });
        Courier {
            tx: Mutex::new(Some(tx)),
            task: Mutex::new(Some(task)),
        }
    }

    pub(crate) fn schedule(&self, due: Instant, job: Box<dyn FnOnce() + Send>) {
        if let Some(tx) = self.tx.lock().expect("courier poisoned").as_ref() {
            let _ = tx.send((due, job));
        }
    }

    /// Drops the queue and joins the helper (pending jobs still run).
    pub(crate) fn shutdown(&self) {
        self.tx.lock().expect("courier poisoned").take();
        if let Some(t) = self.task.lock().expect("courier poisoned").take() {
            let _ = t.join();
        }
    }
}

/// Channel fabric: delivery into the bounded mailbox registry, with chaos
/// verdicts applied on the send path (the channel analogue of injecting
/// at the TCP hub).
pub(crate) struct ChannelFabric<M> {
    pub(crate) mailboxes: Arc<Mailboxes<M>>,
    chaos: Arc<ChaosState>,
    shared: Arc<Shared>,
    courier: Courier,
    /// Severed links; a severed peer can neither send nor receive, the
    /// in-process stand-in for a reset TCP connection.
    down: Vec<AtomicBool>,
    pong: CtlHook,
}

impl<M> ChannelFabric<M> {
    pub(crate) fn new(
        n: usize,
        mailboxes: Arc<Mailboxes<M>>,
        chaos: Arc<ChaosState>,
        shared: Arc<Shared>,
        pong: CtlHook,
    ) -> Self {
        ChannelFabric {
            mailboxes,
            chaos,
            shared,
            courier: Courier::new(),
            down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            pong,
        }
    }

    fn deliver(&self, to: PeerId, from: PeerId, msg: M) -> Delivery {
        if self.down[to.index()].load(Ordering::Relaxed) {
            return Delivery::Down;
        }
        self.mailboxes.deliver(to, Input::Msg { from, msg })
    }
}

impl<M: Clone + Send + 'static> Fabric<M> for ChannelFabric<M> {
    fn send(&self, from: PeerId, to: PeerId, msg: &M) -> SendStatus {
        if self.down[from.index()].load(Ordering::Relaxed) {
            return SendStatus::LinkDown;
        }
        match self.chaos.judge(self.shared.epoch.elapsed(), from, to) {
            Verdict::Drop => SendStatus::Sent,
            Verdict::Deliver => match self.deliver(to, from, msg.clone()) {
                Delivery::Shed => SendStatus::Shed,
                _ => SendStatus::Sent,
            },
            Verdict::Duplicate => {
                let first = self.deliver(to, from, msg.clone());
                let _ = self.deliver(to, from, msg.clone());
                match first {
                    Delivery::Shed => SendStatus::Shed,
                    _ => SendStatus::Sent,
                }
            }
            Verdict::Delay(d) => {
                let mailboxes = Arc::clone(&self.mailboxes);
                let msg = msg.clone();
                self.courier.schedule(
                    Instant::now() + d,
                    Box::new(move || {
                        let _ = mailboxes.deliver(to, Input::Msg { from, msg });
                    }),
                );
                SendStatus::Sent
            }
        }
    }

    fn sever(&self, peer: PeerId) {
        self.down[peer.index()].store(true, Ordering::Relaxed);
    }

    fn redial(&self, peer: PeerId) -> bool {
        self.down[peer.index()].store(false, Ordering::Relaxed);
        true
    }

    fn ping(&self, peer: PeerId) {
        if !self.down[peer.index()].load(Ordering::Relaxed) {
            (self.pong)(peer);
        }
    }

    fn teardown(&self) {
        self.courier.shutdown();
    }
}

/// One peer's thread: the sans-io core plus the driver state the DES
/// kernel would otherwise hold for it.
pub(crate) struct NodeRunner<P: SansIo, F> {
    pub(crate) id: PeerId,
    pub(crate) node: P,
    pub(crate) fabric: Arc<F>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) ctl: Sender<Ctl<P>>,
    pub(crate) flags: Arc<PeerFlags>,
    pub(crate) universe: usize,
    next_token: u64,
    /// Armed timers: absolute deadline, protocol token, tag. Small per
    /// node, so linear scans beat a heap (and removal on cancel is
    /// trivial, discharging driver obligation #2).
    timers: Vec<(Instant, TimerToken, P::Timer)>,
    scratch: EffectBuf<P>,
    /// Dedup for link-down reports: raised once per down transition.
    link_reported: bool,
}

impl<P, F> NodeRunner<P, F>
where
    P: SansIo,
    F: Fabric<P::Msg>,
{
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: PeerId,
        node: P,
        next_token: u64,
        fabric: Arc<F>,
        shared: Arc<Shared>,
        ctl: Sender<Ctl<P>>,
        flags: Arc<PeerFlags>,
        universe: usize,
    ) -> Self {
        NodeRunner {
            id,
            node,
            fabric,
            shared,
            ctl,
            flags,
            universe,
            next_token,
            timers: Vec::new(),
            scratch: Vec::new(),
            link_reported: false,
        }
    }

    /// Runs one core activation and applies its effect batch atomically
    /// under the shared sink lock, in emission order.
    fn dispatch(&mut self, ev: NodeEvent<P::Msg, P::Timer>) {
        let mut fx = Effects::from_parts(std::mem::take(&mut self.scratch), self.next_token);
        let now = self.shared.now();
        self.node.on_event(ev, now, &AllUp(self.universe), &mut fx);
        let (mut buf, next_token) = fx.into_parts();
        self.next_token = next_token;
        let mut sink = self.shared.sink.lock().expect("metrics sink poisoned");
        let mut frames = 0u64;
        let mut link_down = false;
        for effect in buf.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    bytes,
                    class,
                } => {
                    // Charge at send, like the DES kernel: metered bytes
                    // are independent of what the fabric does next.
                    sink.record(self.id, class, bytes);
                    frames += 1;
                    match self.fabric.send(self.id, to, &msg) {
                        SendStatus::Sent => {}
                        SendStatus::Shed => sink.warn("mailbox-shed"),
                        SendStatus::LinkDown => link_down = true,
                    }
                }
                Effect::SetTimer { token, delay, tag } => {
                    let deadline = Instant::now() + StdDuration::from_micros(delay.as_micros());
                    self.timers.push((deadline, token, tag));
                }
                Effect::CancelTimer { token } => {
                    self.timers.retain(|&(_, t, _)| t != token);
                }
                Effect::Charge { class, bytes } => sink.record_piggyback(self.id, class, bytes),
                Effect::MarkPhase { label } => sink.mark(label),
                Effect::Warn { label } => sink.warn(label),
                Effect::Deliver(out) => {
                    let _ = self.ctl.send(Ctl::Output(self.id, out));
                }
            }
        }
        // The handler mark is scoped to this activation; clearing it
        // before the lock drops keeps attribution batch-atomic.
        sink.clear_mark();
        drop(sink);
        if frames > 0 {
            *self.shared.frames.lock().expect("frame counter poisoned") += frames;
        }
        if link_down && !self.link_reported {
            self.link_reported = true;
            let _ = self.ctl.send(Ctl::LinkDown(self.id));
        } else if !link_down {
            self.link_reported = false;
        }
        self.scratch = buf;
    }

    /// Index of the due timer with the earliest deadline, if any.
    fn due_timer(&self, now: Instant) -> Option<usize> {
        self.timers
            .iter()
            .enumerate()
            .filter(|(_, &(d, _, _))| d <= now)
            .min_by_key(|(_, &(d, _, _))| d)
            .map(|(i, _)| i)
    }

    /// The node loop: start, then alternate between due timers and
    /// incoming messages until the stop or crash flag is raised. Always
    /// hands the core back to the supervisor via [`Ctl::Exited`].
    pub(crate) fn run(mut self, rx: MailboxRx<Input<P::Msg>>) {
        self.dispatch(NodeEvent::Start);
        loop {
            if self.flags.stop.load(Ordering::Relaxed) {
                break;
            }
            if self.flags.crashed.load(Ordering::Relaxed) {
                break;
            }
            while let Some(pos) = self.due_timer(Instant::now()) {
                let (_, _, tag) = self.timers.remove(pos);
                self.dispatch(NodeEvent::Timer { tag });
            }
            let now = Instant::now();
            // The wait is capped at IDLE_WAIT so stop/crash flags are
            // observed promptly even under a distant timer deadline.
            let wait = self
                .timers
                .iter()
                .map(|&(d, _, _)| d.saturating_duration_since(now))
                .min()
                .unwrap_or(IDLE_WAIT)
                .min(IDLE_WAIT);
            match rx.recv_timeout(wait) {
                Ok(Input::Msg { from, msg }) => self.dispatch(NodeEvent::Message { from, msg }),
                Ok(Input::Stop) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        self.node.on_stop();
        let _ = self.ctl.send(Ctl::Exited(
            self.id,
            NodeExit {
                node: self.node,
                next_token: self.next_token,
            },
        ));
    }
}

/// The result of one transport run.
#[derive(Debug)]
pub struct RunOutcome<P: SansIo> {
    /// Results the cores handed to the driver via `Effect::Deliver`, in
    /// arrival order at the supervisor. For certified protocol runs the
    /// output carries the census certificate (`Complete` / `Partial`)
    /// alongside the answer.
    pub outputs: Vec<(PeerId, P::Output)>,
    /// The metered per-phase, per-class byte report — same methodology as
    /// a DES run, so the two reconcile directly.
    pub report: MetricsReport,
    /// The final protocol cores, indexed by peer, for post-run accessor
    /// inspection (mirrors `World::peer`).
    pub nodes: Vec<P>,
    /// Frames pushed onto the fabric (one per routed send) — multiply by
    /// the hub header width for transport framing overhead, which the
    /// paper metric excludes.
    pub frames_sent: u64,
    /// Peer threads crashed by the chaos plan and restarted by the
    /// supervisor.
    pub restarts: u64,
    /// Frames load-shed on full mailboxes (each also raised a
    /// `mailbox-shed` warning in the report).
    pub shed_frames: u64,
    /// Frames the chaos layer dropped (probabilistic drops plus partition
    /// severs).
    pub chaos_drops: u64,
    /// Wall-clock duration of the run.
    pub elapsed: StdDuration,
}

/// Per-peer supervision state in the main loop.
struct Sup<P: SansIo> {
    exited: Option<NodeExit<P>>,
    handle: Option<JoinHandle<()>>,
    restart_due: Option<Instant>,
    redial_due: Option<Instant>,
    link_down: bool,
    backoff: Backoff,
}

/// The chaos timeline, precomputed against the run epoch.
enum Action {
    Crash(PeerId, StdDuration),
    Reset(PeerId),
}

/// Everything `supervise` needs, bundled so channel and TCP runners share
/// the loop verbatim.
pub(crate) struct Supervised<P: SansIo, F> {
    pub(crate) fabric: Arc<F>,
    pub(crate) mailboxes: Arc<Mailboxes<P::Msg>>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) chaos: Arc<ChaosState>,
    pub(crate) flags: Vec<Arc<PeerFlags>>,
    pub(crate) ctl_tx: Sender<Ctl<P>>,
    pub(crate) ctl_rx: Receiver<Ctl<P>>,
}

impl<P, F> Supervised<P, F>
where
    P: SansIo + Send + 'static,
    P::Msg: Send + 'static,
    P::Timer: Send,
    P::Output: Send,
    F: Fabric<P::Msg>,
{
    /// Creates and registers a fresh bounded mailbox for `id`, returning
    /// the receive half. Registration is separate from spawning so the
    /// initial spawn can register *every* mailbox before any peer's
    /// `Start` runs — otherwise an eager first send races the rest of the
    /// fleet's registration and is dropped as `Down`.
    fn register_mailbox(&self, id: PeerId) -> MailboxRx<Input<P::Msg>> {
        let (tx, rx) = mailbox(MAILBOX_CAP);
        self.mailboxes.register(id, tx);
        rx
    }

    /// Spawns one peer thread consuming an already-registered mailbox.
    fn spawn_runner(
        &self,
        id: PeerId,
        node: P,
        next_token: u64,
        rx: MailboxRx<Input<P::Msg>>,
    ) -> JoinHandle<()> {
        let runner = NodeRunner::new(
            id,
            node,
            next_token,
            Arc::clone(&self.fabric),
            Arc::clone(&self.shared),
            self.ctl_tx.clone(),
            Arc::clone(&self.flags[id.index()]),
            self.flags.len(),
        );
        thread::Builder::new()
            .name(format!("peer-{}", id.index()))
            .spawn(move || runner.run(rx))
            .expect("spawning peer thread failed")
    }

    /// Registers a fresh mailbox and spawns the peer in one step — the
    /// restart path, where the rest of the fleet is already live.
    fn spawn_peer(&self, id: PeerId, node: P, next_token: u64) -> JoinHandle<()> {
        let rx = self.register_mailbox(id);
        self.spawn_runner(id, node, next_token, rx)
    }

    /// The supervisor main loop: drives the chaos timeline, restarts
    /// crashed peers, reconnects severed links, and collects outputs
    /// until `want_outputs` results (or `max_wait`); then shuts every
    /// thread down, joins them within [`JOIN_DEADLINE`], and snapshots
    /// the outcome.
    ///
    /// # Panics
    ///
    /// Panics if a peer thread panics or fails to exit by the deadline.
    pub(crate) fn supervise(
        self,
        nodes: Vec<P>,
        want_outputs: usize,
        max_wait: StdDuration,
    ) -> RunOutcome<P> {
        let n = nodes.len();
        let epoch = self.shared.epoch;
        let rel = RelConfig::default();
        let mut sup: Vec<Sup<P>> = (0..n)
            .map(|i| Sup {
                exited: None,
                handle: None,
                restart_due: None,
                redial_due: None,
                link_down: false,
                backoff: Backoff::new(rel.clone(), i as u64),
            })
            .collect();
        // Register every mailbox before any peer starts: a `Start` that
        // sends eagerly must find the whole fleet reachable.
        let rxs: Vec<_> = (0..n)
            .map(|i| self.register_mailbox(PeerId::new(i)))
            .collect();
        for ((i, node), rx) in nodes.into_iter().enumerate().zip(rxs) {
            sup[i].handle = Some(self.spawn_runner(PeerId::new(i), node, 0, rx));
        }
        let mut graveyard: Vec<JoinHandle<()>> = Vec::new();
        let mut restarts = 0u64;
        let mut outputs = Vec::new();

        let mut timeline: Vec<(Instant, Action)> = self
            .chaos
            .plan
            .crashes
            .iter()
            .map(|c| (epoch + c.at, Action::Crash(c.peer, c.restart_after)))
            .chain(
                self.chaos
                    .plan
                    .resets
                    .iter()
                    .map(|r| (epoch + r.at, Action::Reset(r.peer))),
            )
            .collect();
        timeline.sort_by_key(|&(t, _)| t);
        let mut ti = 0;

        let deadline = Instant::now() + max_wait;
        loop {
            let now = Instant::now();
            // 1. Fire due chaos actions.
            while ti < timeline.len() && timeline[ti].0 <= now {
                match timeline[ti].1 {
                    Action::Crash(p, restart_after) => {
                        self.flags[p.index()].crashed.store(true, Ordering::Relaxed);
                        self.mailboxes.deregister(p);
                        self.fabric.sever(p);
                        sup[p.index()].restart_due = Some(timeline[ti].0 + restart_after);
                    }
                    Action::Reset(p) => {
                        self.fabric.sever(p);
                        sup[p.index()].link_down = true;
                        // First redial immediately; backoff thereafter.
                        sup[p.index()].redial_due = Some(now);
                    }
                }
                ti += 1;
            }
            // 2. Restart crashed peers whose downtime has elapsed (and
            // whose thread has handed the core back).
            for (i, s) in sup.iter_mut().enumerate() {
                if let (Some(due), true) = (s.restart_due, s.exited.is_some()) {
                    if due <= now {
                        let exit = s.exited.take().expect("checked above");
                        let p = PeerId::new(i);
                        self.flags[i].crashed.store(false, Ordering::Relaxed);
                        self.fabric.redial(p);
                        if let Some(h) = s.handle.take() {
                            graveyard.push(h);
                        }
                        s.handle = Some(self.spawn_peer(p, exit.node, exit.next_token));
                        s.restart_due = None;
                        restarts += 1;
                    }
                }
                // 3. Reconnect severed links under backoff; each
                // successful redial is confirmed by a health-check ping,
                // whose pong resets the schedule.
                if let Some(due) = s.redial_due {
                    if due <= now && s.restart_due.is_none() && s.exited.is_none() {
                        let p = PeerId::new(i);
                        if self.fabric.redial(p) {
                            self.fabric.ping(p);
                        }
                        s.redial_due = Some(now + s.backoff.next_delay());
                    }
                }
            }
            if outputs.len() >= want_outputs {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // 4. Sleep until the next due action (or a control event).
            let mut wake = deadline;
            if ti < timeline.len() {
                wake = wake.min(timeline[ti].0);
            }
            for s in &sup {
                if let Some(d) = s.restart_due {
                    wake = wake.min(d);
                }
                if let Some(d) = s.redial_due {
                    wake = wake.min(d);
                }
            }
            match self
                .ctl_rx
                .recv_timeout(wake.saturating_duration_since(now))
            {
                Ok(Ctl::Output(p, o)) => outputs.push((p, o)),
                Ok(Ctl::Exited(p, exit)) => sup[p.index()].exited = Some(exit),
                Ok(Ctl::LinkDown(p)) => {
                    let s = &mut sup[p.index()];
                    if !s.link_down && !self.flags[p.index()].crashed.load(Ordering::Relaxed) {
                        s.link_down = true;
                        self.fabric.sever(p);
                        s.redial_due = Some(Instant::now() + s.backoff.next_delay());
                    }
                }
                Ok(Ctl::Pong(p)) => {
                    let s = &mut sup[p.index()];
                    s.link_down = false;
                    s.redial_due = None;
                    s.backoff.on_health_ok();
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // Shutdown: raise stop flags, nudge mailboxes, and collect every
        // core (threads exit within IDLE_WAIT of the flag).
        for (i, flags) in self.flags.iter().enumerate() {
            flags.stop.store(true, Ordering::Relaxed);
            let _ = self.mailboxes.deliver(PeerId::new(i), Input::Stop);
        }
        let join_by = Instant::now() + JOIN_DEADLINE;
        while sup.iter().any(|s| s.exited.is_none()) {
            let left = join_by.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.ctl_rx.recv_timeout(left) {
                Ok(Ctl::Exited(p, exit)) => sup[p.index()].exited = Some(exit),
                Ok(Ctl::Output(p, o)) => outputs.push((p, o)),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let mut nodes = Vec::with_capacity(n);
        for (i, s) in sup.iter_mut().enumerate() {
            if let Some(h) = s.handle.take() {
                h.join().expect("peer thread panicked");
            }
            let exit = s
                .exited
                .take()
                .unwrap_or_else(|| panic!("peer {i} failed to exit by the join deadline"));
            nodes.push(exit.node);
        }
        for h in graveyard {
            h.join().expect("crashed peer thread panicked");
        }
        self.fabric.teardown();

        let report = self
            .shared
            .sink
            .lock()
            .expect("metrics sink poisoned")
            .report();
        let frames_sent = *self.shared.frames.lock().expect("frame counter poisoned");
        let elapsed = self.shared.epoch.elapsed();
        RunOutcome {
            outputs,
            report,
            nodes,
            frames_sent,
            restarts,
            shed_frames: self.mailboxes.shed.load(Ordering::Relaxed),
            chaos_drops: self.chaos.drops(),
            elapsed,
        }
    }
}

/// Runs `nodes` over the in-process channel fabric until `want_outputs`
/// results arrive (or `max_wait` elapses), then shuts down and returns
/// the outcome. Equivalent to [`run_channel_chaos`] with an inert plan.
///
/// # Panics
///
/// Panics if a peer thread panics.
pub fn run_channel<P>(nodes: Vec<P>, want_outputs: usize, max_wait: StdDuration) -> RunOutcome<P>
where
    P: SansIo + Send + 'static,
    P::Msg: Send + 'static,
    P::Timer: Send,
    P::Output: Send,
{
    run_channel_chaos(nodes, want_outputs, max_wait, ChaosPlan::none())
}

/// Runs `nodes` over the in-process channel fabric under `plan`: frames
/// meet seeded drops/duplication/delays and partition windows on the
/// fabric, scheduled peers crash (thread torn down, mailbox and timers
/// lost) and are restarted by the supervisor, and severed links reconnect
/// under capped exponential backoff with health-check pings.
///
/// # Panics
///
/// Panics if a peer thread panics.
pub fn run_channel_chaos<P>(
    nodes: Vec<P>,
    want_outputs: usize,
    max_wait: StdDuration,
    plan: ChaosPlan,
) -> RunOutcome<P>
where
    P: SansIo + Send + 'static,
    P::Msg: Send + 'static,
    P::Timer: Send,
    P::Output: Send,
{
    let n = nodes.len();
    let shared = Arc::new(Shared::new(n));
    let chaos = Arc::new(ChaosState::new(plan));
    let mailboxes = Arc::new(Mailboxes::new(n));
    let (ctl_tx, ctl_rx) = mpsc::channel();
    let pong_tx = ctl_tx.clone();
    let pong: CtlHook = Arc::new(move |p| {
        let _ = pong_tx.send(Ctl::Pong(p));
    });
    let fabric = Arc::new(ChannelFabric::new(
        n,
        Arc::clone(&mailboxes),
        Arc::clone(&chaos),
        Arc::clone(&shared),
        pong,
    ));
    let flags: Vec<Arc<PeerFlags>> = (0..n).map(|_| Arc::new(PeerFlags::default())).collect();
    Supervised {
        fabric,
        mailboxes,
        shared,
        chaos,
        flags,
        ctl_tx,
        ctl_rx,
    }
    .supervise(nodes, want_outputs, max_wait)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_mailbox_sheds_the_next_frame_and_recovers_as_it_drains() {
        let peer = PeerId::new(0);
        let boxes: Mailboxes<u32> = Mailboxes::new(1);
        let msg = |msg| Input::Msg { from: peer, msg };
        assert_eq!(boxes.deliver(peer, msg(0)), Delivery::Down, "unregistered");

        let (tx, rx) = mailbox(MAILBOX_CAP);
        boxes.register(peer, tx);
        for i in 0..MAILBOX_CAP as u32 {
            assert_eq!(boxes.deliver(peer, msg(i)), Delivery::Ok, "frame {i}");
        }
        // At the cap: shed and counted, for frames and the stop nudge
        // alike, and the sender is not blocked.
        assert_eq!(boxes.deliver(peer, msg(u32::MAX)), Delivery::Shed);
        assert_eq!(boxes.deliver(peer, Input::Stop), Delivery::Shed);
        assert_eq!(boxes.shed.load(Ordering::Relaxed), 2);

        // Taking one item out makes room for exactly one more, in order.
        let first = rx.recv_timeout(StdDuration::ZERO);
        assert!(matches!(first, Ok(Input::Msg { msg: 0, .. })));
        assert_eq!(boxes.deliver(peer, Input::Stop), Delivery::Ok);
        assert_eq!(boxes.deliver(peer, msg(u32::MAX)), Delivery::Shed);
        for i in 1..MAILBOX_CAP as u32 {
            let next = rx.recv_timeout(StdDuration::ZERO);
            assert!(matches!(next, Ok(Input::Msg { msg, .. }) if msg == i));
        }
        assert!(matches!(
            rx.recv_timeout(StdDuration::ZERO),
            Ok(Input::Stop)
        ));
        assert!(matches!(
            rx.recv_timeout(StdDuration::ZERO),
            Err(RecvTimeoutError::Timeout)
        ));

        // A receiver that is gone reads as a dead connection, not as full.
        drop(rx);
        assert_eq!(boxes.deliver(peer, msg(7)), Delivery::Down);
        assert_eq!(boxes.shed.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn dropping_the_receiver_turns_queued_and_later_frames_down() {
        let peer = PeerId::new(0);
        let boxes: Mailboxes<u32> = Mailboxes::new(1);
        let (tx, rx) = mailbox(2);
        boxes.register(peer, tx);
        let msg = |msg| Input::Msg { from: peer, msg };
        assert_eq!(boxes.deliver(peer, msg(1)), Delivery::Ok);
        assert_eq!(boxes.deliver(peer, msg(2)), Delivery::Ok);
        // Full, then the receiver goes: the dead box is not full.
        drop(rx);
        assert_eq!(boxes.deliver(peer, msg(3)), Delivery::Down);
        assert_eq!(boxes.shed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_timed_out_receive_leaves_the_box_open() {
        let (tx, rx) = mailbox::<u32>(MAILBOX_CAP);
        let waited = Instant::now();
        assert!(matches!(
            rx.recv_timeout(StdDuration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        ));
        assert!(waited.elapsed() >= StdDuration::from_millis(20));
        assert!(tx.try_send(5).is_ok());
        assert!(matches!(rx.recv_timeout(StdDuration::ZERO), Ok(5)));
        // A delivery wakes a receiver parked in `recv_timeout`.
        let late = thread::spawn(move || {
            thread::sleep(StdDuration::from_millis(20));
            tx.try_send(6).map_err(|_| ()).unwrap();
            tx
        });
        assert!(matches!(rx.recv_timeout(StdDuration::from_secs(10)), Ok(6)));
        // Once the sender is gone, an empty box reads as disconnected.
        drop(late.join().unwrap());
        assert!(matches!(
            rx.recv_timeout(StdDuration::from_secs(10)),
            Err(RecvTimeoutError::Disconnected)
        ));
    }
}
