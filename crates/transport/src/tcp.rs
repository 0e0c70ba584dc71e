//! TCP-loopback fabric: the same supervised node loop, real sockets in
//! between.
//!
//! Topology-wise this is a star: every peer holds one loopback connection
//! to a hub, and the hub forwards frames by destination. Framing is
//! `[from u32][to u32][len u32][payload]`, all big-endian; the payload is
//! whatever the protocol's [`WireCodec`] produced. The 12-byte routing
//! header is transport overhead, deliberately *not* metered into the
//! paper's byte counts (see [`RunOutcome::frames_sent`]).
//!
//! Chaos is injected at the hub — the one place every frame crosses — so
//! drops and partition windows hit real serialized traffic. Crash
//! teardowns sever a peer's socket;
//! the supervisor's reconnect loop redials through the hub's persistent
//! accept loop, which rebinds the peer's hub-side route on every fresh
//! hello.
//!
//! Registration is acknowledged: the hub answers a hello with one byte
//! only once the peer's route exists, and a dialer sends nothing before
//! it has read that byte. A frame the hub forwards to a peer without a
//! route is lost, so an unacknowledged hello would let a fast sender's
//! first frames vanish while its destination's route is still being
//! installed. A run dials every peer and reads every ack before any
//! peer starts. The hub's threads and the peer-side readers are pooled
//! helpers (`crate::pool`).
//!
//! A zero-length payload addressed to its own sender is the
//! health-check ping: the hub routes it back like any frame, and the
//! peer's reader answers the supervisor with a pong — a real round-trip
//! over both socket directions.
//!
//! Malformed inbound bytes never panic the runtime: a frame that
//! overruns the length cap, truncates mid-header, or fails the protocol
//! codec disconnects that peer with a metered warning (`malformed-frame`
//! at the hub, `undecodable-frame` at a peer reader), and the supervisor
//! treats it like any other link failure.

use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration as StdDuration;

use ifi_sim::{PeerId, SansIo};

use crate::chaos::{ChaosPlan, ChaosState, Verdict};
use crate::pool::{self, Task};
use crate::runtime::{
    Ctl, CtlHook, Delivery, Fabric, Input, Mailboxes, PeerFlags, RunOutcome, SendStatus, Shared,
    Supervised,
};
use crate::wire::WireCodec;

/// Frames larger than this are treated as stream corruption.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// How far ahead of the bytes received a payload buffer may grow (or, past
/// this, as far as it has already filled: it doubles).
const READ_STEP: usize = 4096;

/// The hub's answer to a hello, written once the peer's route exists.
const REGISTERED: u8 = 1;

/// Writes one `[from][to][len][payload]` frame, header and payload in
/// one vectored write (one syscall and one segment per hop on a
/// `TCP_NODELAY` socket, without copying the payload).
pub(crate) fn write_frame(
    w: &mut impl Write,
    from: PeerId,
    to: PeerId,
    payload: &[u8],
) -> io::Result<()> {
    let mut header = [0u8; 12];
    header[..4].copy_from_slice(&(from.index() as u32).to_be_bytes());
    header[4..8].copy_from_slice(&(to.index() as u32).to_be_bytes());
    header[8..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    let mut parts = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut left = &mut parts[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary. EOF
/// *inside* a header or payload is not clean — it is reported as an
/// error, so callers meter it as a malformed frame instead of a normal
/// disconnect.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<(PeerId, PeerId, Vec<u8>)>> {
    let mut header = [0u8; 12];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {got} bytes into a frame header"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let from = u32::from_be_bytes(header[..4].try_into().unwrap());
    let to = u32::from_be_bytes(header[4..8].try_into().unwrap());
    let len = u32::from_be_bytes(header[8..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    // The frame's own buffer: one kept per connection would hold that
    // connection's largest frame for the whole run.
    let mut payload = Vec::new();
    read_payload(r, len as usize, &mut payload)?;
    Ok(Some((
        PeerId::new(from as usize),
        PeerId::new(to as usize),
        payload,
    )))
}

/// Reads `len` bytes onto `payload`, growing it with the bytes that
/// arrive: a header's length is only a claim, so the buffer never takes
/// it at its word, and a lying header costs what its sender really sent.
fn read_payload(r: &mut impl Read, len: usize, payload: &mut Vec<u8>) -> io::Result<()> {
    let end = payload.len() + len;
    while payload.len() < end {
        let at = payload.len();
        let step = (end - at).min(at.max(READ_STEP));
        payload.reserve_exact(step);
        payload.resize(at + step, 0);
        r.read_exact(&mut payload[at..])?;
    }
    Ok(())
}

#[cfg(test)]
thread_local! {
    /// How long a hub started on this thread sleeps before installing a
    /// route: widens the hello-to-route window for the registration
    /// regression tests.
    pub(crate) static REGISTER_DELAY: std::cell::Cell<StdDuration> =
        const { std::cell::Cell::new(StdDuration::ZERO) };
}

/// The hub: a persistent accept loop plus one forwarder per inbound
/// connection, all pooled helpers. Chaos verdicts are applied here, to
/// serialized frames in flight.
struct Hub {
    addr: SocketAddr,
    accepting: Arc<AtomicBool>,
    accept_task: Mutex<Option<Task<()>>>,
    forwarders: Arc<Mutex<Vec<Task<()>>>>,
    dests: Arc<Vec<Mutex<Option<TcpStream>>>>,
}

impl Hub {
    fn start(n: usize, chaos: Arc<ChaosState>, shared: Arc<Shared>) -> io::Result<Hub> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let accepting = Arc::new(AtomicBool::new(true));
        let dests: Arc<Vec<Mutex<Option<TcpStream>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let forwarders: Arc<Mutex<Vec<Task<()>>>> = Arc::new(Mutex::new(Vec::new()));
        #[cfg(test)]
        let register_delay = REGISTER_DELAY.get();

        let accept = {
            let accepting = Arc::clone(&accepting);
            let dests = Arc::clone(&dests);
            let forwarders = Arc::clone(&forwarders);
            pool::spawn(move || {
                while accepting.load(Ordering::Relaxed) {
                    let (mut s, _) = match listener.accept() {
                        Ok(conn) => conn,
                        Err(_) => break,
                    };
                    if !accepting.load(Ordering::Relaxed) {
                        break;
                    }
                    // Bounded hello so a silent dialer (e.g. the
                    // teardown nudge) cannot wedge the accept loop.
                    let _ = s.set_read_timeout(Some(StdDuration::from_secs(1)));
                    let mut hello = [0u8; 4];
                    if s.read_exact(&mut hello).is_err() {
                        continue;
                    }
                    let id = u32::from_be_bytes(hello) as usize;
                    if id >= n {
                        shared
                            .sink
                            .lock()
                            .expect("metrics sink poisoned")
                            .warn("malformed-frame");
                        continue;
                    }
                    let _ = s.set_read_timeout(None);
                    let _ = s.set_nodelay(true);
                    let writer = match s.try_clone() {
                        Ok(w) => w,
                        Err(_) => continue,
                    };
                    #[cfg(test)]
                    std::thread::sleep(register_delay);
                    {
                        // Ack under the route's lock, so no forwarded
                        // frame can reach the peer ahead of the ack.
                        let mut route = dests[id].lock().expect("hub dest poisoned");
                        if route.insert(writer).write_all(&[REGISTERED]).is_err() {
                            *route = None;
                            continue;
                        }
                    }
                    let task = Hub::spawn_forwarder(
                        s,
                        n,
                        Arc::clone(&dests),
                        Arc::clone(&chaos),
                        Arc::clone(&shared),
                    );
                    forwarders
                        .lock()
                        .expect("forwarder list poisoned")
                        .push(task);
                }
            })
        };
        Ok(Hub {
            addr,
            accepting,
            accept_task: Mutex::new(Some(accept)),
            forwarders,
            dests,
        })
    }

    /// Writes `payload` to `to`'s hub-side route; a write failure drops
    /// the frame and clears the stale route (the destination may redial
    /// later).
    fn forward(dests: &[Mutex<Option<TcpStream>>], from: PeerId, to: PeerId, payload: &[u8]) {
        let mut slot = dests[to.index()].lock().expect("hub dest poisoned");
        if let Some(s) = slot.as_mut() {
            if write_frame(s, from, to, payload).is_err() {
                *slot = None;
            }
        }
    }

    fn spawn_forwarder(
        mut reader: TcpStream,
        n: usize,
        dests: Arc<Vec<Mutex<Option<TcpStream>>>>,
        chaos: Arc<ChaosState>,
        shared: Arc<Shared>,
    ) -> Task<()> {
        pool::spawn(move || loop {
            match read_frame(&mut reader) {
                Ok(Some((from, to, payload))) => {
                    if to.index() >= n || from.index() >= n {
                        // Garbage routing header: stream corruption —
                        // disconnect this peer.
                        shared
                            .sink
                            .lock()
                            .expect("metrics sink poisoned")
                            .warn("malformed-frame");
                        let _ = reader.shutdown(Shutdown::Both);
                        break;
                    }
                    match chaos.judge(shared.epoch.elapsed(), from, to) {
                        Verdict::Drop => {}
                        Verdict::Deliver => Hub::forward(&dests, from, to, &payload),
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Truncated header/payload or oversized length:
                    // metered warning, then disconnect this peer.
                    shared
                        .sink
                        .lock()
                        .expect("metrics sink poisoned")
                        .warn("malformed-frame");
                    let _ = reader.shutdown(Shutdown::Both);
                    break;
                }
            }
        })
    }

    fn shutdown(&self) {
        self.accepting.store(false, Ordering::Relaxed);
        // Unblock the accept loop with a helloless dial.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_task.lock().expect("hub poisoned").take() {
            let _ = t.join();
        }
        for d in self.dests.iter() {
            if let Some(s) = d.lock().expect("hub dest poisoned").take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let handles: Vec<_> = self
            .forwarders
            .lock()
            .expect("forwarder list poisoned")
            .drain(..)
            .collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

/// Shared innards of the TCP fabric, reachable from reader threads.
struct TcpInner<M, C> {
    addr: SocketAddr,
    codec: Arc<C>,
    /// Peer-side write halves, by peer; `None` = link severed.
    streams: Vec<Mutex<Option<TcpStream>>>,
    mailboxes: Arc<Mailboxes<M>>,
    shared: Arc<Shared>,
    pong: CtlHook,
    linkdown: CtlHook,
    tearing: AtomicBool,
    readers: Mutex<Vec<Task<()>>>,
}

impl<M, C> TcpInner<M, C>
where
    M: Send + 'static,
    C: WireCodec<M>,
{
    /// Dials the hub as `peer`: connect and send the hello.
    fn hello(&self, peer: PeerId) -> io::Result<TcpStream> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.write_all(&(peer.index() as u32).to_be_bytes())?;
        Ok(s)
    }

    /// Waits for the hub's registration ack on `s`, then installs the
    /// write half and starts the reader feeding the peer's mailbox.
    fn attach(self: &Arc<Self>, peer: PeerId, mut s: TcpStream) -> io::Result<()> {
        let mut ack = [0u8; 1];
        s.read_exact(&mut ack)?;
        if ack[0] != REGISTERED {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("hub answered the hello with {}", ack[0]),
            ));
        }
        let reader = s.try_clone()?;
        *self.streams[peer.index()]
            .lock()
            .expect("peer stream poisoned") = Some(s);
        let inner = Arc::clone(self);
        let task = pool::spawn(move || inner.read_loop(peer, reader));
        self.readers
            .lock()
            .expect("reader list poisoned")
            .push(task);
        Ok(())
    }

    /// Dials the hub as `peer` and attaches once registered.
    fn dial(self: &Arc<Self>, peer: PeerId) -> io::Result<()> {
        let s = self.hello(peer)?;
        self.attach(peer, s)
    }

    /// The peer-side reader: decodes inbound frames into the mailbox,
    /// answers health pings, and reports link loss to the supervisor.
    fn read_loop(self: Arc<Self>, me: PeerId, mut reader: TcpStream) {
        // EOF (`Ok(None)`) and read errors both end the loop; the hub
        // side meters malformed frames, the peer side only disconnects.
        while let Ok(Some((from, _, payload))) = read_frame(&mut reader) {
            // Zero-length self-addressed frame: the health ping made it
            // back from the hub — the round-trip holds.
            if from == me && payload.is_empty() {
                (self.pong)(me);
                continue;
            }
            match self.codec.decode(&payload) {
                Ok(msg) => {
                    if self.mailboxes.deliver(me, Input::Msg { from, msg }) == Delivery::Shed {
                        self.shared
                            .sink
                            .lock()
                            .expect("metrics sink poisoned")
                            .warn("mailbox-shed");
                    }
                }
                Err(_) => {
                    // A payload the protocol codec rejects is stream
                    // garbage: metered warning, then disconnect (never
                    // panic).
                    self.shared
                        .sink
                        .lock()
                        .expect("metrics sink poisoned")
                        .warn("undecodable-frame");
                    let _ = reader.shutdown(Shutdown::Both);
                    break;
                }
            }
        }
        // Sever the write half too, so sends observe the loss.
        if let Some(s) = self.streams[me.index()]
            .lock()
            .expect("peer stream poisoned")
            .take()
        {
            let _ = s.shutdown(Shutdown::Both);
        }
        if !self.tearing.load(Ordering::Relaxed) {
            (self.linkdown)(me);
        }
    }
}

/// The TCP fabric: peer-side sockets plus the hub.
struct TcpFabric<M, C> {
    inner: Arc<TcpInner<M, C>>,
    hub: Hub,
}

impl<M, C> Fabric<M> for TcpFabric<M, C>
where
    M: Send + 'static,
    C: WireCodec<M>,
{
    fn send(&self, from: PeerId, to: PeerId, msg: &M) -> SendStatus {
        let payload = self
            .inner
            .codec
            .encode(msg)
            .expect("wire codec rejected message");
        let mut slot = self.inner.streams[from.index()]
            .lock()
            .expect("peer stream poisoned");
        match slot.as_mut() {
            None => SendStatus::LinkDown,
            Some(s) => {
                if write_frame(s, from, to, &payload).is_err() {
                    *slot = None;
                    SendStatus::LinkDown
                } else {
                    SendStatus::Sent
                }
            }
        }
    }

    fn sever(&self, peer: PeerId) {
        if let Some(s) = self.inner.streams[peer.index()]
            .lock()
            .expect("peer stream poisoned")
            .take()
        {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    fn redial(&self, peer: PeerId) -> bool {
        if self.inner.tearing.load(Ordering::Relaxed) {
            return false;
        }
        if self.inner.streams[peer.index()]
            .lock()
            .expect("peer stream poisoned")
            .is_some()
        {
            return true;
        }
        self.inner.dial(peer).is_ok()
    }

    fn ping(&self, peer: PeerId) {
        let mut slot = self.inner.streams[peer.index()]
            .lock()
            .expect("peer stream poisoned");
        if let Some(s) = slot.as_mut() {
            if write_frame(s, peer, peer, &[]).is_err() {
                *slot = None;
            }
        }
    }

    fn teardown(&self) {
        self.inner.tearing.store(true, Ordering::Relaxed);
        for i in 0..self.inner.streams.len() {
            self.sever(PeerId::new(i));
        }
        self.hub.shutdown();
        let handles: Vec<_> = self
            .inner
            .readers
            .lock()
            .expect("reader list poisoned")
            .drain(..)
            .collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

/// Runs `nodes` over a TCP loopback hub until `want_outputs` results
/// arrive (or `max_wait` elapses), then shuts down and returns the
/// outcome. `codec` carries `P::Msg` across the sockets. Equivalent to
/// [`run_tcp_chaos`] with an inert plan.
///
/// # Errors
///
/// Fails if the loopback listener or any peer connection cannot be set
/// up.
///
/// # Panics
///
/// Panics if a peer thread panics.
pub fn run_tcp<P, C>(
    nodes: Vec<P>,
    codec: C,
    want_outputs: usize,
    max_wait: StdDuration,
) -> io::Result<RunOutcome<P>>
where
    P: SansIo + Send + 'static,
    P::Msg: Send + 'static,
    P::Timer: Send,
    P::Output: Send,
    C: WireCodec<P::Msg>,
{
    run_tcp_chaos(nodes, codec, want_outputs, max_wait, ChaosPlan::none())
}

/// Runs `nodes` over the TCP loopback hub under `plan`: serialized frames
/// meet seeded drops and partition windows at the hub,
/// scheduled peers crash and restart under supervision, and severed
/// sockets redial through the hub's persistent accept loop with capped
/// exponential backoff and ping/pong health checks.
///
/// # Errors
///
/// Fails if the loopback listener or any peer connection cannot be set
/// up.
///
/// # Panics
///
/// Panics if a peer thread panics.
pub fn run_tcp_chaos<P, C>(
    nodes: Vec<P>,
    codec: C,
    want_outputs: usize,
    max_wait: StdDuration,
    plan: ChaosPlan,
) -> io::Result<RunOutcome<P>>
where
    P: SansIo + Send + 'static,
    P::Msg: Send + 'static,
    P::Timer: Send,
    P::Output: Send,
    C: WireCodec<P::Msg>,
{
    let n = nodes.len();
    let shared = Arc::new(Shared::new(n));
    let chaos = Arc::new(ChaosState::new(plan));
    let mailboxes = Arc::new(Mailboxes::new(n));
    let (ctl_tx, ctl_rx) = mpsc::channel::<Ctl<P>>();
    let pong_tx = ctl_tx.clone();
    let pong: CtlHook = Arc::new(move |p| {
        let _ = pong_tx.send(Ctl::Pong(p));
    });
    let down_tx = ctl_tx.clone();
    let linkdown: CtlHook = Arc::new(move |p| {
        let _ = down_tx.send(Ctl::LinkDown(p));
    });

    let hub = Hub::start(n, Arc::clone(&chaos), Arc::clone(&shared))?;
    let inner = Arc::new(TcpInner {
        addr: hub.addr,
        codec: Arc::new(codec),
        streams: (0..n).map(|_| Mutex::new(None)).collect(),
        mailboxes: Arc::clone(&mailboxes),
        shared: Arc::clone(&shared),
        pong,
        linkdown,
        tearing: AtomicBool::new(false),
        readers: Mutex::new(Vec::new()),
    });
    let fabric = Arc::new(TcpFabric { inner, hub });
    // Every hello first, then every ack: the hub registers the fleet
    // while the dialers wait, and no peer starts before all routes exist.
    let dialed = (0..n)
        .map(|i| fabric.inner.hello(PeerId::new(i)))
        .collect::<io::Result<Vec<_>>>()
        .and_then(|streams| {
            streams
                .into_iter()
                .enumerate()
                .try_for_each(|(i, s)| fabric.inner.attach(PeerId::new(i), s))
        });
    if let Err(e) = dialed {
        fabric.teardown();
        return Err(e);
    }
    let flags: Vec<Arc<PeerFlags>> = (0..n).map(|_| Arc::new(PeerFlags::default())).collect();
    Ok(Supervised {
        fabric,
        mailboxes,
        shared,
        chaos,
        flags,
        ctl_tx,
        ctl_rx,
    }
    .supervise(nodes, want_outputs, max_wait))
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;
    use std::thread;

    use super::*;

    #[test]
    fn frames_roundtrip_including_empty_payloads() {
        let mut buf = Vec::new();
        write_frame(&mut buf, PeerId::new(3), PeerId::new(7), b"hello").unwrap();
        write_frame(&mut buf, PeerId::new(1), PeerId::new(1), b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((PeerId::new(3), PeerId::new(7), b"hello".to_vec()))
        );
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((PeerId::new(1), PeerId::new(1), Vec::new()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");
    }

    #[test]
    fn truncated_header_is_an_error_not_a_clean_eof() {
        // 5 of the 12 header bytes, then EOF.
        let mut r = Cursor::new(vec![0u8; 5]);
        let err = read_frame(&mut r).expect_err("mid-header EOF must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, PeerId::new(0), PeerId::new(1), b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = Cursor::new(buf);
        assert!(read_frame(&mut r).is_err(), "mid-payload EOF must error");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r).expect_err("oversized frame must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_claimed_length_allocates_only_what_arrives() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&MAX_FRAME.to_be_bytes());
        buf.extend_from_slice(b"short");
        let err = read_frame(&mut Cursor::new(buf)).expect_err("5 of 64 MiB, then EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // What the frame's buffer came to before the stream ended.
        let mut payload = Vec::new();
        let short = read_payload(&mut Cursor::new(b"short"), MAX_FRAME as usize, &mut payload);
        assert_eq!(
            short.map_err(|e| e.kind()),
            Err(io::ErrorKind::UnexpectedEof)
        );
        assert!(
            payload.capacity() <= READ_STEP,
            "grew to {}",
            payload.capacity()
        );
        // A payload past one step is read whole, into exactly its length.
        let long: Vec<u8> = (0..3 * READ_STEP + 5).map(|i| i as u8).collect();
        let mut payload = Vec::new();
        read_payload(&mut Cursor::new(&long), long.len(), &mut payload).unwrap();
        assert_eq!((&payload, payload.capacity()), (&long, long.len()));
    }

    /// Polls the shared sink until `label` has been warned, or panics
    /// after ~2s — malformed input is handled asynchronously by hub
    /// threads.
    fn await_warning(shared: &Shared, label: &str) {
        for _ in 0..200 {
            let warned = shared
                .sink
                .lock()
                .expect("sink poisoned")
                .warnings()
                .iter()
                .any(|(l, _)| l == label);
            if warned {
                return;
            }
            thread::sleep(StdDuration::from_millis(10));
        }
        panic!(
            "no `{label}` warning within deadline: {:?}",
            shared.sink.lock().unwrap().warnings()
        );
    }

    fn test_hub(n: usize) -> (Hub, Arc<Shared>) {
        let shared = Arc::new(Shared::new(n));
        let chaos = Arc::new(ChaosState::new(ChaosPlan::none()));
        let hub = Hub::start(n, chaos, Arc::clone(&shared)).expect("hub start");
        (hub, shared)
    }

    #[test]
    fn hub_warns_and_drops_a_connection_with_an_out_of_range_hello() {
        let (hub, shared) = test_hub(2);
        let mut s = TcpStream::connect(hub.addr).unwrap();
        s.write_all(&99u32.to_be_bytes()).unwrap();
        await_warning(&shared, "malformed-frame");
        hub.shutdown();
    }

    #[test]
    fn hub_warns_and_disconnects_on_an_oversized_frame() {
        let (hub, shared) = test_hub(2);
        let mut s = TcpStream::connect(hub.addr).unwrap();
        s.write_all(&0u32.to_be_bytes()).unwrap();
        // Valid routing header with a length beyond the cap.
        s.write_all(&0u32.to_be_bytes()).unwrap();
        s.write_all(&1u32.to_be_bytes()).unwrap();
        s.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        await_warning(&shared, "malformed-frame");
        let mut ack = [0u8; 1];
        s.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], REGISTERED);
        // The forwarder disconnected us: past the ack, reads see EOF.
        let mut probe = [0u8; 1];
        assert_eq!(s.read(&mut probe).unwrap_or(0), 0);
        hub.shutdown();
    }

    #[test]
    fn hub_warns_on_a_truncated_frame() {
        let (hub, shared) = test_hub(2);
        let mut s = TcpStream::connect(hub.addr).unwrap();
        s.write_all(&0u32.to_be_bytes()).unwrap();
        // Half a routing header, then a hard close.
        s.write_all(&[0u8; 5]).unwrap();
        drop(s);
        await_warning(&shared, "malformed-frame");
        hub.shutdown();
    }

    #[test]
    fn hub_warns_on_a_garbage_destination() {
        let (hub, shared) = test_hub(2);
        let mut s = TcpStream::connect(hub.addr).unwrap();
        s.write_all(&0u32.to_be_bytes()).unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, PeerId::new(0), PeerId::new(513), b"x").unwrap();
        s.write_all(&frame).unwrap();
        await_warning(&shared, "malformed-frame");
        hub.shutdown();
    }

    #[test]
    fn hub_shutdown_joins_every_thread_without_traffic() {
        let (hub, _shared) = test_hub(3);
        hub.shutdown();
    }
}
