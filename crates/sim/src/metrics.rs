//! Communication metering.
//!
//! The paper's performance metric is **communication cost: the average
//! number of bytes propagated per peer** (§IV). The kernel meters every
//! message send with a byte size and a [`MsgClass`], so experiments can
//! report both the lumped total and the per-phase breakdown the paper plots
//! (candidate filtering / candidate dissemination / candidate aggregation).

use crate::id::PeerId;

/// A small message classification tag used to break communication cost down
/// by protocol phase.
///
/// Classes are dense `u8` indices below [`MsgClass::COUNT`]; crates define
/// their own semantic constants (the netFilter crate uses
/// `FILTERING`/`DISSEMINATION`/`AGGREGATION`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgClass(pub u8);

impl MsgClass {
    /// Number of distinct classes tracked by [`Metrics`].
    pub const COUNT: usize = 15;

    /// Generic payload traffic.
    pub const DATA: MsgClass = MsgClass(0);
    /// Control-plane traffic (tree construction, membership).
    pub const CONTROL: MsgClass = MsgClass(1);
    /// Periodic heartbeats.
    pub const HEARTBEAT: MsgClass = MsgClass(2);
    /// Phase 1 of netFilter: item-group aggregate vectors.
    pub const FILTERING: MsgClass = MsgClass(3);
    /// Phase 2a of netFilter: heavy item-group identifier dissemination.
    pub const DISSEMINATION: MsgClass = MsgClass(4);
    /// Phase 2b of netFilter: candidate `(id, value)` aggregation.
    pub const AGGREGATION: MsgClass = MsgClass(5);
    /// Gossip rounds.
    pub const GOSSIP: MsgClass = MsgClass(6);
    /// Sampling traffic for parameter estimation.
    pub const SAMPLING: MsgClass = MsgClass(7);
    /// Reliability overhead: acknowledgements and retransmitted copies.
    ///
    /// Original transmissions stay in their phase class; only the *extra*
    /// traffic a lossy network provokes lands here, so phase-class totals
    /// remain comparable to a loss-free run's.
    pub const RETRANSMIT: MsgClass = MsgClass(8);
    /// Failover overhead: root-succession control traffic and the
    /// contributor-census / epoch-fence fields piggybacked on other
    /// messages.
    ///
    /// Like [`RETRANSMIT`](Self::RETRANSMIT), this class isolates the price
    /// of a robustness mechanism so the paper's phase classes stay
    /// byte-identical to the loss-free, churn-free cost model.
    pub const FAILOVER: MsgClass = MsgClass(9);
    /// Capacity-bounded summary merges of the approximate sketch engine.
    ///
    /// The approximate engine family meters in its own classes (like
    /// [`RETRANSMIT`](Self::RETRANSMIT) and [`FAILOVER`](Self::FAILOVER))
    /// so accuracy-vs-bytes curves can be compared against the exact
    /// engine's paper classes without disturbing them.
    pub const SKETCH: MsgClass = MsgClass(10);
    /// Candidate-list convergecasts and verification traffic of the
    /// threshold-algorithm top-k engine.
    pub const TOPK: MsgClass = MsgClass(11);
    /// Budget-violation reports of the local-thresholding comparator
    /// (zero while every peer stays under its local budget).
    pub const THRESHOLD: MsgClass = MsgClass(12);
    /// Per-epoch sliding-window delta convergecasts of the continuous
    /// standing-query engine. This is the *shared* phase-1 stream: K
    /// standing queries at the root are all served by the same delta
    /// traffic, so the class is charged once regardless of K.
    pub const DELTA: MsgClass = MsgClass(13);
    /// Per-query standing-answer maintenance traffic: the changed rows the
    /// root streams to each query's subscriber after an epoch is certified.
    /// Unlike [`DELTA`](Self::DELTA), this class scales with the number of
    /// registered queries.
    pub const STANDING: MsgClass = MsgClass(14);

    /// Dense index of this class.
    ///
    /// # Panics
    ///
    /// Panics if the class value is `>= MsgClass::COUNT`.
    pub fn index(self) -> usize {
        let i = self.0 as usize;
        assert!(i < Self::COUNT, "message class {i} out of range");
        i
    }

    /// A short human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self.0 {
            0 => "data",
            1 => "control",
            2 => "heartbeat",
            3 => "filtering",
            4 => "dissemination",
            5 => "aggregation",
            6 => "gossip",
            7 => "sampling",
            8 => "retransmit",
            9 => "failover",
            10 => "sketch",
            11 => "topk",
            12 => "threshold",
            13 => "delta",
            14 => "standing",
            _ => "unknown",
        }
    }
}

/// Bytes and message counts accumulated for one class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTotals {
    /// Total bytes sent in this class.
    pub bytes: u64,
    /// Total messages sent in this class.
    pub messages: u64,
}

/// Per-peer, per-class communication accounting.
///
/// Senders are charged at send time (whether or not the message is later
/// dropped by the network — the bytes were still put on the wire, matching
/// the paper's "bytes propagated" notion).
#[derive(Debug, Clone)]
pub struct Metrics {
    /// `per_class[c][p]` = totals for class `c`, peer `p`: one dense column
    /// of `peers` per class, empty until the class is first charged. A run
    /// charges only the classes it sends in, so it pays for those columns
    /// alone, and level-order sends walk a few contiguous columns rather
    /// than one `COUNT`-wide row per peer.
    per_class: [Vec<ClassTotals>; MsgClass::COUNT],
    peers: usize,
    dropped_messages: u64,
    delivered_messages: u64,
}

impl Metrics {
    /// Creates metrics for `n` peers, all zero.
    pub fn new(n: usize) -> Self {
        Metrics {
            per_class: std::array::from_fn(|_| Vec::new()),
            peers: n,
            dropped_messages: 0,
            delivered_messages: 0,
        }
    }

    /// Number of peers tracked.
    pub fn peer_count(&self) -> usize {
        self.peers
    }

    /// The cell a charge lands in, allocating the class's column on its
    /// first charge.
    #[inline]
    fn cell(&mut self, peer: PeerId, class: MsgClass) -> &mut ClassTotals {
        let col = &mut self.per_class[class.index()];
        if col.is_empty() {
            first_charge(col, self.peers);
        }
        &mut col[peer.index()]
    }

    /// Charges `bytes` sent by `peer` in `class`.
    #[inline]
    pub fn record_send(&mut self, peer: PeerId, class: MsgClass, bytes: u64) {
        let t = self.cell(peer, class);
        t.bytes += bytes;
        t.messages += 1;
    }

    /// Charges `bytes` piggybacked by `peer` on an already-counted message
    /// in `class`: the bytes hit the wire inside another frame, so no
    /// message is counted.
    #[inline]
    pub fn record_piggyback(&mut self, peer: PeerId, class: MsgClass, bytes: u64) {
        self.cell(peer, class).bytes += bytes;
    }

    /// Records a message dropped by the network.
    pub fn record_drop(&mut self) {
        self.dropped_messages += 1;
    }

    /// Records a successful delivery.
    pub fn record_delivery(&mut self) {
        self.delivered_messages += 1;
    }

    /// Totals for one peer and class.
    pub fn peer_class(&self, peer: PeerId, class: MsgClass) -> ClassTotals {
        let p = self.checked(peer);
        let col = &self.per_class[class.index()];
        col.get(p).copied().unwrap_or_default()
    }

    /// Total bytes sent by one peer across all classes.
    pub fn peer_bytes(&self, peer: PeerId) -> u64 {
        let p = self.checked(peer);
        let charged = self.per_class.iter().filter_map(|col| col.get(p));
        charged.map(|t| t.bytes).sum()
    }

    /// `peer`'s index. A never-charged class has no column to bounds-check
    /// a read against, so reads check the peer here.
    fn checked(&self, peer: PeerId) -> usize {
        let p = peer.index();
        assert!(p < self.peers, "peer {p} out of {} peers", self.peers);
        p
    }

    /// Total bytes sent across all peers in one class.
    pub fn class_bytes(&self, class: MsgClass) -> u64 {
        self.per_class[class.index()].iter().map(|t| t.bytes).sum()
    }

    /// Total bytes sent across all peers and classes.
    pub fn total_bytes(&self) -> u64 {
        self.per_class.iter().flatten().map(|t| t.bytes).sum()
    }

    /// Total messages sent across all peers and classes.
    pub fn total_messages(&self) -> u64 {
        self.per_class.iter().flatten().map(|t| t.messages).sum()
    }

    /// The paper's metric: average bytes propagated per peer, for one class.
    pub fn avg_bytes_per_peer_class(&self, class: MsgClass) -> f64 {
        if self.peer_count() == 0 {
            0.0
        } else {
            self.class_bytes(class) as f64 / self.peer_count() as f64
        }
    }

    /// The paper's metric: average bytes propagated per peer, all classes.
    pub fn avg_bytes_per_peer(&self) -> f64 {
        if self.peer_count() == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.peer_count() as f64
        }
    }

    /// The peer that sent the most bytes, with its byte total.
    ///
    /// Used to verify the paper's claim that netFilter "does not impose a
    /// performance bottleneck at the root of the hierarchy" (§IV-A).
    pub fn max_bytes_peer(&self) -> Option<(PeerId, u64)> {
        (0..self.peer_count())
            .map(|i| (PeerId::new(i), self.peer_bytes(PeerId::new(i))))
            .max_by_key(|&(_, b)| b)
    }

    /// Messages dropped by the network so far.
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_messages
    }

    /// Messages delivered so far.
    pub fn delivered_messages(&self) -> u64 {
        self.delivered_messages
    }

    /// Resets all counters to zero, keeping the peer count (and the
    /// columns already allocated).
    pub fn reset(&mut self) {
        for col in &mut self.per_class {
            col.fill(ClassTotals::default());
        }
        self.dropped_messages = 0;
        self.delivered_messages = 0;
    }
}

/// Out of line, so the charge path carries one emptiness check and no
/// allocation code.
#[cold]
#[inline(never)]
fn first_charge(col: &mut Vec<ClassTotals>, peers: usize) {
    *col = vec![ClassTotals::default(); peers];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut m = Metrics::new(3);
        m.record_send(PeerId::new(0), MsgClass::DATA, 10);
        m.record_send(PeerId::new(0), MsgClass::DATA, 5);
        m.record_send(PeerId::new(2), MsgClass::FILTERING, 100);

        assert_eq!(m.peer_class(PeerId::new(0), MsgClass::DATA).bytes, 15);
        assert_eq!(m.peer_class(PeerId::new(0), MsgClass::DATA).messages, 2);
        assert_eq!(m.peer_bytes(PeerId::new(2)), 100);
        assert_eq!(m.class_bytes(MsgClass::FILTERING), 100);
        assert_eq!(m.total_bytes(), 115);
        assert_eq!(m.total_messages(), 3);
    }

    #[test]
    fn averages_divide_by_all_peers() {
        let mut m = Metrics::new(4);
        m.record_send(PeerId::new(1), MsgClass::DATA, 8);
        assert_eq!(m.avg_bytes_per_peer(), 2.0);
        assert_eq!(m.avg_bytes_per_peer_class(MsgClass::DATA), 2.0);
        assert_eq!(m.avg_bytes_per_peer_class(MsgClass::CONTROL), 0.0);
    }

    #[test]
    fn empty_metrics_average_is_zero() {
        let m = Metrics::new(0);
        assert_eq!(m.avg_bytes_per_peer(), 0.0);
    }

    #[test]
    fn max_bytes_peer_finds_heaviest() {
        let mut m = Metrics::new(3);
        m.record_send(PeerId::new(1), MsgClass::DATA, 8);
        m.record_send(PeerId::new(2), MsgClass::DATA, 80);
        assert_eq!(m.max_bytes_peer(), Some((PeerId::new(2), 80)));
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut m = Metrics::new(2);
        m.record_send(PeerId::new(0), MsgClass::DATA, 8);
        m.record_drop();
        m.record_delivery();
        m.reset();
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.dropped_messages(), 0);
        assert_eq!(m.delivered_messages(), 0);
        assert_eq!(m.peer_count(), 2);
    }

    #[test]
    fn piggyback_adds_bytes_without_a_message() {
        let mut m = Metrics::new(2);
        m.record_send(PeerId::new(0), MsgClass::FILTERING, 100);
        m.record_piggyback(PeerId::new(0), MsgClass::FAILOVER, 12);
        assert_eq!(m.peer_class(PeerId::new(0), MsgClass::FAILOVER).bytes, 12);
        assert_eq!(m.peer_class(PeerId::new(0), MsgClass::FAILOVER).messages, 0);
        assert_eq!(m.total_bytes(), 112);
        assert_eq!(m.total_messages(), 1);
    }

    #[test]
    fn class_labels_are_distinct() {
        let labels: std::collections::HashSet<_> = (0..MsgClass::COUNT as u8)
            .map(|c| MsgClass(c).label())
            .collect();
        assert_eq!(labels.len(), MsgClass::COUNT);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_class_panics() {
        let mut m = Metrics::new(1);
        m.record_send(PeerId::new(0), MsgClass(99), 1);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_range_peer_panics() {
        let mut m = Metrics::new(1);
        m.record_send(PeerId::new(1), MsgClass::DATA, 1);
    }

    #[test]
    #[should_panic(expected = "peer 1 out of 1 peers")]
    fn out_of_range_peer_panics_on_a_never_charged_read() {
        Metrics::new(1).peer_class(PeerId::new(1), MsgClass::DATA);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const PEERS: usize = 5;

        proptest! {
            /// The column layout is unobservable, and so is when a column
            /// comes to exist: any stream of charges, resets and clones
            /// over the first `live` classes — the rest are never charged
            /// — reads back exactly as it does from one
            /// `[ClassTotals; COUNT]` row per peer.
            #[test]
            fn columns_match_a_row_major_model(
                live in 1..=MsgClass::COUNT as u8,
                ops in prop::collection::vec(
                    (0u8..10, 0..PEERS, 0..MsgClass::COUNT as u8, 0u64..1_000),
                    0..200,
                ),
            ) {
                let mut m = Metrics::new(PEERS);
                let mut rows = [[ClassTotals::default(); MsgClass::COUNT]; PEERS];
                for &(op, p, c, bytes) in &ops {
                    let c = c % live;
                    let (peer, class) = (PeerId::new(p), MsgClass(c));
                    let cell = &mut rows[p][c as usize];
                    match op {
                        0 => {
                            m.reset();
                            rows = [[ClassTotals::default(); MsgClass::COUNT]; PEERS];
                        }
                        // Carry on with the copy.
                        1 => m = m.clone(),
                        2 | 3 => {
                            m.record_piggyback(peer, class, bytes);
                            cell.bytes += bytes;
                        }
                        _ => {
                            m.record_send(peer, class, bytes);
                            cell.bytes += bytes;
                            cell.messages += 1;
                        }
                    }
                }
                let row_bytes = |row: &[ClassTotals]| row.iter().map(|t| t.bytes).sum::<u64>();
                for m in [&m, &m.clone()] {
                    for (p, row) in rows.iter().enumerate() {
                        for (c, &want) in row.iter().enumerate() {
                            let got = m.peer_class(PeerId::new(p), MsgClass(c as u8));
                            prop_assert_eq!(got, want);
                        }
                        prop_assert_eq!(m.peer_bytes(PeerId::new(p)), row_bytes(row));
                    }
                    for c in 0..MsgClass::COUNT {
                        let want: u64 = rows.iter().map(|row| row[c].bytes).sum();
                        prop_assert_eq!(m.class_bytes(MsgClass(c as u8)), want);
                        let avg = want as f64 / PEERS as f64;
                        prop_assert_eq!(m.avg_bytes_per_peer_class(MsgClass(c as u8)), avg);
                    }
                    let cells = || rows.iter().flatten();
                    prop_assert_eq!(m.total_bytes(), cells().map(|t| t.bytes).sum::<u64>());
                    prop_assert_eq!(m.total_messages(), cells().map(|t| t.messages).sum::<u64>());
                    // `max_by_key` keeps the last of equal maxima.
                    let heaviest = rows
                        .iter()
                        .enumerate()
                        .map(|(p, row)| (PeerId::new(p), row_bytes(row)))
                        .max_by_key(|&(_, b)| b);
                    prop_assert_eq!(m.max_bytes_peer(), heaviest);
                    prop_assert_eq!(m.peer_count(), PEERS);
                }
            }
        }
    }
}
