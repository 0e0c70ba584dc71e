//! Layers no wrapper can see, measured by **replaying** their public
//! functions on the inputs one traced op captured, and **floors** from
//! null cores that do no protocol work at the same `N`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration as StdDuration, Instant};

use ifi_agg::{Aggregate, MapSum};
use ifi_sim::{
    sansio_world, Effects, EventSink, Membership, MsgClass, NodeEvent, PeerId, RelConfig,
    ReliableLink, SansIo, SimConfig, SimTime,
};
use ifi_transport::{run_channel, run_tcp, WireCodec, WireError};
use ifi_workload::SystemData;
use netfilter::continuous::EpochDelta;
use netfilter::protocol::NfMsg;
use netfilter::{HashFamily, HeavyGroups, LocalFilter, NetFilterConfig};

use crate::stats::median;

/// Replayed sub-layer times of one traced op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `LocalFilter::group_vector` over every peer's items, summed.
    pub group_vector_ns: u64,
    /// `LocalFilter::partial_candidates` over every peer's items, summed.
    pub materialize_ns: u64,
    /// Mean `VecSum::merge_owned` over the captured phase-1 payloads.
    pub vecsum_merge_ns: f64,
    /// Mean `MapSum::merge_owned` over the captured phase-2 (or delta)
    /// payloads, each merged into the accumulator its receiver held.
    pub mapsum_merge_ns: f64,
}

fn mean_ns(t: Instant, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        t.elapsed().as_nanos() as f64 / n as f64
    }
}

/// Times `merge_owned` of every payload into its job's accumulator: one
/// clock pair around the whole batch, so a 100 ns merge is not drowned by
/// a clock read per call, and the median of five batches (on clones), so
/// one preemption inside a sub-millisecond batch is not scaled up to the
/// whole op.
fn time_merges<A: Aggregate>(jobs: Vec<(A, Vec<A>)>) -> f64 {
    let merges = jobs.iter().map(|(_, p)| p.len()).sum();
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut jobs = jobs.clone();
            let t = Instant::now();
            for (acc, payloads) in &mut jobs {
                for p in payloads.drain(..) {
                    acc.merge_owned(p);
                }
            }
            let ns = mean_ns(t, merges);
            black_box(jobs);
            ns
        })
        .collect();
    median(&batches)
}

/// Replays the filter bank and the two aggregate merges of a netFilter op
/// on `per_core`: the payloads each sampled peer received.
pub fn replay_netfilter(
    cfg: &NetFilterConfig,
    data: &SystemData,
    per_core: Vec<(u32, Vec<NfMsg>)>,
) -> Replay {
    let filter = LocalFilter::new(HashFamily::new(cfg.filters, cfg.filter_size, cfg.hash_seed));
    let mut out = Replay::default();

    let t = Instant::now();
    for p in (0..data.peer_count()).map(PeerId::new) {
        black_box(filter.group_vector(data.local_items(p)));
    }
    out.group_vector_ns = t.elapsed().as_nanos() as u64;

    let heavy = per_core.iter().flat_map(|(_, m)| m).find_map(|m| match m {
        NfMsg::Heavy(lists) => Some(HeavyGroups::from_lists(lists.clone(), cfg.filter_size)),
        _ => None,
    });
    // N = 1 has no dissemination message; there is then nothing to replay.
    let Some(heavy) = heavy else { return out };

    let t = Instant::now();
    for p in (0..data.peer_count()).map(PeerId::new) {
        black_box(filter.partial_candidates(data.local_items(p), &heavy));
    }
    out.materialize_ns = t.elapsed().as_nanos() as u64;

    let mut vec_jobs = Vec::new();
    let mut map_jobs = Vec::new();
    for (peer, msgs) in per_core {
        let items = data.local_items(PeerId::new(peer as usize));
        let (mut vecs, mut maps) = (Vec::new(), Vec::new());
        for m in msgs {
            match m {
                NfMsg::GroupAgg(v) => vecs.push(v),
                NfMsg::CandidateAgg(m) => maps.push(m),
                NfMsg::Heavy(_) | NfMsg::PhaseCensus { .. } => {}
            }
        }
        vec_jobs.push((filter.group_vector(items), vecs));
        map_jobs.push((filter.partial_candidates(items, &heavy), maps));
    }
    out.vecsum_merge_ns = time_merges(vec_jobs);
    out.mapsum_merge_ns = time_merges(map_jobs);
    out
}

/// Replays the delta merges of a continuous op. `ContinuousProtocol`
/// merges signed diffs into a private per-epoch `BTreeMap`; its public
/// stand-in is `MapSum::merge_owned` over the same key sets (magnitudes
/// for values), one accumulator per receiving peer and epoch.
pub fn replay_continuous(per_core: Vec<(u32, Vec<EpochDelta>)>) -> Replay {
    let mut jobs = Vec::new();
    for (_, deltas) in per_core {
        let mut by_epoch: BTreeMap<u64, Vec<MapSum>> = BTreeMap::new();
        for d in deltas {
            let pairs = d.diffs.into_iter().map(|(k, v)| (k, v.unsigned_abs()));
            by_epoch
                .entry(d.epoch)
                .or_default()
                .push(MapSum::from_pairs(pairs));
        }
        jobs.extend(by_epoch.into_values().map(|p| (MapSum::default(), p)));
    }
    Replay {
        mapsum_merge_ns: time_merges(jobs),
        ..Replay::default()
    }
}

// ---------------------------------------------------------------------
// Floors
// ---------------------------------------------------------------------

/// A core with no protocol work: each peer starts a token that makes
/// `hops` hops around the id ring.
struct NullRing {
    next: PeerId,
    hops: u32,
}

impl SansIo for NullRing {
    type Msg = u32;
    type Timer = ();
    type Output = ();

    fn on_event(
        &mut self,
        ev: NodeEvent<u32, ()>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        let left = match ev {
            NodeEvent::Start => self.hops,
            NodeEvent::Message { msg, .. } => msg,
            NodeEvent::Timer { .. } => 0,
        };
        if left > 0 {
            fx.send(self.next, left - 1, 8, MsgClass::DATA);
        }
    }
}

/// `sim.kernel_null_ns_per_event`: `n` null ring cores processing about
/// `events` events under `sim` — the kernel, `Des` dispatch and metering
/// with 8-byte payloads and empty handlers.
pub fn kernel_null_ns_per_event(n: usize, events: u64, sim: SimConfig) -> f64 {
    let hops = (events.saturating_sub(n as u64) / n as u64).max(1) as u32;
    let cores = (0..n).map(|i| NullRing {
        next: PeerId::new((i + 1) % n),
        hops,
    });
    let mut w = sansio_world(sim, cores.collect());
    w.enable_metrics_sink();
    let t = Instant::now();
    w.start();
    while w.step() {}
    t.elapsed().as_nanos() as f64 / w.events_processed() as f64
}

/// A core that only answers: peer 0 delivers on `Start`.
struct DeliverOnStart(bool);

impl SansIo for DeliverOnStart {
    type Msg = ();
    type Timer = ();
    type Output = ();

    fn on_event(
        &mut self,
        ev: NodeEvent<(), ()>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        if self.0 && matches!(ev, NodeEvent::Start) {
            fx.deliver(());
        }
    }
}

struct UnitWire;

impl WireCodec<()> for UnitWire {
    fn encode(&self, (): &()) -> Result<Vec<u8>, WireError> {
        Ok(Vec::new())
    }

    fn decode(&self, _bytes: &[u8]) -> Result<(), WireError> {
        Ok(())
    }
}

/// `transport.null_lifecycle_ms`: one spawn → answer → tear-down of `n`
/// cores that exchange nothing (0 if the TCP fabric cannot come up).
pub fn null_lifecycle_ns(n: usize, tcp: bool, max_wait: StdDuration) -> u64 {
    let cores: Vec<_> = (0..n).map(|i| DeliverOnStart(i == 0)).collect();
    let t = Instant::now();
    let answered = if tcp {
        run_tcp(cores, UnitWire, 1, max_wait).is_ok_and(|o| o.outputs.len() == 1)
    } else {
        run_channel(cores, 1, max_wait).outputs.len() == 1
    };
    let ns = t.elapsed().as_nanos() as u64;
    if answered {
        ns
    } else {
        0
    }
}

/// `sim.reliable.link_ns_per_frame`: one frame through
/// `send_data` → `accept` → `on_ack` between two links.
pub fn link_ns_per_frame() -> f64 {
    const FRAMES: usize = 100_000;
    let (a, b) = (PeerId::new(0), PeerId::new(1));
    let mut tx: ReliableLink<u64> = ReliableLink::new(RelConfig::default());
    let mut rx: ReliableLink<u64> = ReliableLink::new(RelConfig::default());
    let t = Instant::now();
    for i in 0..FRAMES {
        let (seq, frame) = tx.send_data(b, i as u64, 8);
        let fresh = rx.accept(a, tx.incarnation(), seq);
        tx.on_ack(b, tx.incarnation(), seq);
        black_box((frame, fresh));
    }
    mean_ns(t, FRAMES)
}

/// `sim.metering_ns_per_send`: one `EventSink::record` over `n` peers.
pub fn metering_ns_per_send(n: usize) -> f64 {
    const SENDS: usize = 1_000_000;
    let mut sink = EventSink::new(n);
    let t = Instant::now();
    for i in 0..SENDS {
        sink.record(PeerId::new(i % n), MsgClass::FILTERING, 1_200);
    }
    let ns = mean_ns(t, SENDS);
    black_box(sink.events_recorded());
    ns
}
