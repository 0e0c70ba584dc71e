//! The perf rows of the baseline registry ([`crate::baseline`]).
//!
//! Each benchmark runs a *fixed, seeded* workload through
//! [`ifi_perf::run_bench`] (one discarded run, then two that must agree),
//! so its counters — events processed, messages sent, wire bytes, answer
//! digests — are bit-reproducible on any machine and its snapshot
//! `baselines/perf/<name>.json` is compared byte for byte. Nothing here
//! is timed. The six default benches cover the simulator's hot paths end
//! to end; three scale benches push `N` past the paper and run only when
//! named with `--only` (CI's `scale` job):
//!
//! | bench | exercises |
//! |-------|-----------|
//! | `event_queue`   | DES kernel: timer + message scheduling on a ring |
//! | `codec`         | wire codec: `encode_into` buffer reuse + decode |
//! | `epoch_n1000`   | a full netFilter epoch at `N = 1000` over the DES |
//! | `maintain_tick` | heartbeat/maintenance tick loop, 200 peers, 30 s |
//! | `fig7_quick`    | the fig. 7 sweep at `--quick` scale (both panels) |
//! | `epoch_delta_n1000` | continuous delta epochs at `N = 1000` vs the full re-aggregation they replace |
//! | `epoch_n100000` | scale lane: one netFilter epoch at `N = 10^5` |
//! | `epoch_n1000000` | scale lane: one netFilter epoch at `N = 10^6` |
//! | `fig7_n10000`   | scale lane: fig. 7(a) skew sweep at `N = 10^4` |
//!
//! Alongside the behavioral counters, the simulator benches snapshot
//! *occupancy* high-water marks — peak event-queue length and peak
//! per-peer arena sizes (heartbeat tracker, children, dedup windows).
//! `event_queue` and the two exact-epoch benches also snapshot
//! `queue_heap_pushes`, the pushes the queue's FIFO lanes could not take:
//! zero on these constant-latency schedules, so a change that sends events
//! back through the `O(log n)` heap fails exactly. The epoch benches
//! (`epoch_*`) add the counting allocator's exact memory counters
//! (`peak_live_bytes`, `allocs`, `alloc_bytes`), so a state-layout
//! regression that balloons memory, or a per-pair allocation on the delta
//! path, shows up as exact counter drift.

use ifi_agg::{MapSum, VecSum};
use ifi_hierarchy::{Hierarchy, MaintainProtocol};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_perf::{run_bench, Sample};
use ifi_sim::{
    mix64, sansio_world, DetRng, Duration, Effects, LatencyModel, Membership, MsgClass, NodeEvent,
    PeerId, SansIo, SimConfig, SimTime,
};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::codec::Codec;
use netfilter::protocol::{NetFilterProtocol, NfMsg};
use netfilter::{NetFilterConfig, Threshold, WireSizes};

use crate::fig7;
use crate::runner::Scale;

/// Seed shared by every perf workload (the harness default).
pub const PERF_SEED: u64 = 20080617;

fn fold(acc: u64, v: u64) -> u64 {
    mix64(acc ^ v)
}

// --- event_queue: DES kernel timer/message scheduling on a ring. ---

/// Each peer re-arms a 1 ms timer `remaining` times, sending one message
/// around the ring per tick — a pure event-queue workload with trivial
/// handler work: every timer goes through the wheel, every delivery lands
/// a constant 50 ms out and so through one FIFO lane, none through the
/// overflow heap (`queue_heap_pushes` = 0 is gated).
struct RingTicker {
    next: PeerId,
    remaining: u32,
    received: u64,
}

impl SansIo for RingTicker {
    type Msg = u64;
    type Timer = ();
    type Output = ();

    fn on_event(
        &mut self,
        ev: NodeEvent<u64, ()>,
        _: SimTime,
        _: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => {
                fx.set_timer(Duration::from_millis(1), ());
            }
            NodeEvent::Message { msg, .. } => self.received = fold(self.received, msg),
            NodeEvent::Timer { .. } if self.remaining > 0 => {
                self.remaining -= 1;
                fx.send(self.next, self.remaining as u64, 16, MsgClass::DATA);
                fx.set_timer(Duration::from_millis(1), ());
            }
            NodeEvent::Timer { .. } => {}
        }
    }
}

pub(crate) fn event_queue(name: &str) -> Sample {
    const PEERS: usize = 500;
    const TICKS: u32 = 100;
    run_bench(name, || {
        let peers: Vec<RingTicker> = (0..PEERS)
            .map(|i| RingTicker {
                next: PeerId::new((i + 1) % PEERS),
                remaining: TICKS,
                received: 0,
            })
            .collect();
        let mut w = sansio_world(SimConfig::default().with_seed(PERF_SEED), peers);
        w.start();
        w.run_to_quiescence();
        let digest = (0..PEERS).fold(0u64, |acc, i| fold(acc, w.peer(PeerId::new(i)).received));
        Sample {
            ops: w.events_processed(),
            bytes: w.metrics().total_bytes(),
            counters: vec![
                ("messages".into(), w.metrics().total_messages()),
                ("digest".into(), digest),
                ("queue_high_water".into(), w.queue_high_water() as u64),
                ("queue_heap_pushes".into(), w.queue_heap_pushes()),
            ],
        }
    })
}

// --- codec: encode_into buffer reuse + decode over a message mix. ---

fn codec_messages() -> Vec<NfMsg> {
    let mut rng = DetRng::new(PERF_SEED ^ 0xC0DE);
    (0..2_000u64)
        .map(|i| match i % 3 {
            0 => NfMsg::GroupAgg(VecSum::from(
                (0..100).map(|_| rng.below(1_000)).collect::<Vec<u64>>(),
            )),
            1 => NfMsg::Heavy(
                (0..3)
                    .map(|_| (0..20).map(|_| rng.below(100) as u32).collect())
                    .collect::<Vec<Vec<u32>>>()
                    .into(),
            ),
            _ => NfMsg::CandidateAgg(MapSum::from_pairs(
                (0..50).map(|_| (ItemId(rng.below(10_000)), rng.below(500))),
            )),
        })
        .collect()
}

pub(crate) fn codec(name: &str) -> Sample {
    let codec = Codec::new(WireSizes::default());
    let msgs = codec_messages();
    run_bench(name, || {
        let mut buf = bytes::BytesMut::new();
        let mut encoded_bytes = 0u64;
        let mut digest = 0u64;
        for msg in &msgs {
            codec.encode_into(msg, &mut buf).expect("encodes");
            encoded_bytes += buf.len() as u64;
            digest = buf.iter().fold(digest, |acc, &b| {
                acc.wrapping_mul(31).wrapping_add(b as u64)
            });
            let decoded = codec.decode(&buf).expect("decodes");
            digest = fold(digest, codec.payload_len(&decoded));
        }
        Sample {
            ops: 2 * msgs.len() as u64, // one encode + one decode per message
            bytes: encoded_bytes,
            counters: vec![
                ("frames".into(), msgs.len() as u64),
                ("digest".into(), digest),
            ],
        }
    })
}

// --- epoch_n1000, epoch_n100000, epoch_n1000000: one netFilter epoch. ---

/// One exact epoch at `peers` peers (paper workload, `g = 100`, `f = 3`),
/// world construction included. Besides the behavioral counters, each run
/// is one counting-allocator window: allocations, bytes requested and the
/// live-byte high-water above the run's starting point. They are exact
/// for a seeded single-threaded run, so an allocation regression gates
/// like an op-count drift (and they read zero in a binary that has not
/// installed [`ifi_perf::alloc::Counting`]).
pub(crate) fn epoch(name: &str, peers: usize, items: u64) -> Sample {
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers,
            items,
            instances_per_item: 10,
            theta: 1.0,
        },
        PERF_SEED,
    );
    let h = Hierarchy::balanced(peers, 3);
    let cfg = NetFilterConfig::builder()
        .filter_size(100)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .hash_seed(PERF_SEED)
        .build();
    run_bench(name, || {
        ifi_perf::alloc::reset();
        let mut w = sansio_world(
            SimConfig::default().with_seed(PERF_SEED),
            NetFilterProtocol::peers(&cfg, &h, &data, None),
        );
        w.start();
        w.run_to_quiescence();
        let mem = ifi_perf::alloc::snapshot();
        let result = w.peer(PeerId::new(0)).result().expect("epoch finishes");
        let digest = result
            .iter()
            .fold(0u64, |acc, &(id, v)| fold(fold(acc, id.0), v));
        Sample {
            ops: w.events_processed(),
            bytes: w.metrics().total_bytes(),
            counters: vec![
                ("messages".into(), w.metrics().total_messages()),
                ("result_items".into(), result.len() as u64),
                ("digest".into(), digest),
                ("queue_high_water".into(), w.queue_high_water() as u64),
                ("queue_heap_pushes".into(), w.queue_heap_pushes()),
                ("peak_live_bytes".into(), mem.peak as u64),
                ("allocs".into(), mem.count),
                ("alloc_bytes".into(), mem.bytes),
            ],
        }
    })
}

// --- maintain_tick: heartbeat/maintenance loop, 200 peers, 30 s. ---

pub(crate) fn maintain_tick(name: &str) -> Sample {
    const PEERS: usize = 200;
    let topo = Topology::random_regular(PEERS, 4, &mut DetRng::new(PERF_SEED));
    let h = Hierarchy::bfs(&topo, PeerId::new(0));
    let cfg = HeartbeatConfig {
        interval: Duration::from_millis(500),
        timeout: Duration::from_millis(1_600),
        bytes: 8,
    };
    run_bench(name, || {
        let peers: Vec<MaintainProtocol> = topo
            .peers()
            .map(|p| MaintainProtocol::new(&h, p, topo.neighbors(p).to_vec(), cfg))
            .collect();
        let mut w = sansio_world(
            SimConfig::default()
                .with_seed(PERF_SEED)
                .with_latency(LatencyModel::Constant(Duration::from_millis(20))),
            peers,
        );
        w.start();
        w.run_until(SimTime::from_micros(30_000_000));
        let (mut tracked_hw, mut children_hw) = (0u64, 0u64);
        for i in 0..PEERS {
            let p = w.peer(PeerId::new(i));
            tracked_hw = tracked_hw.max(p.tracked_high_water() as u64);
            children_hw = children_hw.max(p.children_high_water() as u64);
        }
        Sample {
            ops: w.events_processed(),
            bytes: w.metrics().total_bytes(),
            counters: vec![
                ("messages".into(), w.metrics().total_messages()),
                ("queue_high_water".into(), w.queue_high_water() as u64),
                ("tracked_high_water".into(), tracked_hw),
                ("children_high_water".into(), children_hw),
            ],
        }
    })
}

// --- fig7_quick, fig7_n10000: the fig. 7 skew sweep. ---

/// One op per sweep row; bytes and digest over both series.
fn fig7_sample(panels: &[fig7::Fig7Panel]) -> Sample {
    let mut ops = 0u64;
    let mut bytes = 0u64;
    let mut digest = 0u64;
    for row in panels.iter().flat_map(|panel| &panel.rows) {
        ops += 1;
        bytes += (row.netfilter + row.naive) as u64;
        digest = fold(digest, row.netfilter.to_bits());
        digest = fold(digest, row.naive.to_bits());
    }
    Sample {
        ops,
        bytes,
        counters: vec![("digest".into(), digest)],
    }
}

/// Both panels at `--quick` scale.
pub(crate) fn fig7_quick(name: &str) -> Sample {
    run_bench(name, || {
        let (a, b) = fig7::run(Scale::Quick, PERF_SEED);
        fig7_sample(&[a, b])
    })
}

/// The scale lane's fig. 7(a) sweep at `N = 10^4`.
pub(crate) fn fig7_n10000(name: &str) -> Sample {
    let scale = Scale::Custom {
        peers: 10_000,
        items_small: 100_000,
        items_large: 1_000_000,
    };
    run_bench(name, || {
        fig7_sample(&[fig7::run_panel(
            scale,
            "a",
            scale.items_small(),
            100,
            3,
            PERF_SEED,
        )])
    })
}

// --- epoch_delta_n1000: continuous delta epochs vs full re-aggregation. ---

/// What a from-scratch window re-aggregation convergecast would cost at
/// one fence: every child→parent edge carries its subtree's merged live-
/// window item set (`s_i` header + one pair per item), computed exactly
/// over the hierarchy.
fn full_reaggregation_bytes(
    h: &Hierarchy,
    schedules: &[Vec<Vec<(ItemId, u64)>>],
    epoch: usize,
    window: usize,
    sizes: &WireSizes,
) -> u64 {
    use std::collections::BTreeMap;
    let lo = (epoch + 2).saturating_sub(window); // epoch − (W − 2)
    let per_peer: Vec<BTreeMap<ItemId, u64>> = schedules
        .iter()
        .map(|sched| {
            let mut win = BTreeMap::new();
            for batch in sched.iter().take(epoch + 1).skip(lo) {
                for &(item, v) in batch {
                    *win.entry(item).or_insert(0) += v;
                }
            }
            win
        })
        .collect();
    fn fold_up(
        h: &Hierarchy,
        p: PeerId,
        per_peer: &[std::collections::BTreeMap<ItemId, u64>],
        sizes: &WireSizes,
        total: &mut u64,
    ) -> std::collections::BTreeMap<ItemId, u64> {
        let mut acc = per_peer[p.index()].clone();
        for &c in h.children(p) {
            let sub = fold_up(h, c, per_peer, sizes, total);
            *total += sizes.si + sizes.pair() * sub.len() as u64;
            for (k, v) in sub {
                *acc.entry(k).or_insert(0) += v;
            }
        }
        acc
    }
    let mut total = 0;
    fold_up(h, h.root(), &per_peer, sizes, &mut total);
    total
}

pub(crate) fn epoch_delta_n1000(name: &str) -> Sample {
    use netfilter::continuous::{
        schedule_from_data, ContinuousConfig, ContinuousProtocol, QueryRegistry,
    };
    const PEERS: usize = 1_000;
    const EPOCHS: usize = 6;
    const WINDOW: usize = 4;
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 20_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        PERF_SEED,
    );
    let schedules = schedule_from_data(&data, EPOCHS);
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = ContinuousConfig::new(WINDOW, EPOCHS);
    let registry = QueryRegistry::single(1_000, PeerId::new(PEERS - 1));
    let sizes = WireSizes::default();
    run_bench(name, || {
        ifi_perf::alloc::reset();
        let mut w = sansio_world(
            SimConfig::default().with_seed(PERF_SEED),
            ContinuousProtocol::peers(&cfg, &h, &registry, &schedules, None),
        );
        w.start();
        w.run_to_quiescence();
        let mem = ifi_perf::alloc::snapshot();
        let root = w.peer(PeerId::new(0));
        let digest = root
            .standing()
            .iter()
            .fold(0u64, |acc, &(id, v)| fold(fold(acc, id.0), v));
        let full_bytes: u64 = (0..EPOCHS)
            .map(|e| full_reaggregation_bytes(&h, &schedules, e, WINDOW, &sizes))
            .sum();
        Sample {
            ops: w.events_processed(),
            bytes: w.metrics().total_bytes(),
            counters: vec![
                ("messages".into(), w.metrics().total_messages()),
                ("epochs_certified".into(), root.delivered().len() as u64),
                (
                    "delta_bytes".into(),
                    w.metrics().class_bytes(MsgClass::DELTA),
                ),
                ("full_reagg_bytes".into(), full_bytes),
                ("digest".into(), digest),
                ("queue_high_water".into(), w.queue_high_water() as u64),
                ("peak_live_bytes".into(), mem.peak as u64),
                ("allocs".into(), mem.count),
                ("alloc_bytes".into(), mem.bytes),
            ],
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_queue_counters_are_deterministic_across_runs() {
        let a = event_queue("event_queue");
        assert_eq!(a, event_queue("event_queue"));
        assert!(a.ops > 0 && a.bytes > 0);
    }

    #[test]
    fn codec_counters_are_deterministic_across_runs() {
        assert_eq!(codec("codec"), codec("codec"));
    }

    #[test]
    fn epoch_delta_certifies_and_undercuts_full_reaggregation() {
        let r = epoch_delta_n1000("epoch_delta_n1000");
        let counter = |name: &str| {
            r.counters
                .iter()
                .find(|(n, _)| n.as_str() == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(counter("epochs_certified"), 6);
        let (delta, full) = (counter("delta_bytes"), counter("full_reagg_bytes"));
        assert!(delta > 0);
        assert!(
            delta < full,
            "delta epochs ({delta} B) must undercut full re-aggregation ({full} B)"
        );
    }
}
