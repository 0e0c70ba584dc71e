//! Internal event-queue plumbing.
//!
//! The queue is a *stable* priority queue over `(time, seq)`: events pop
//! sorted by time, ties broken by insertion order. `seq` is handed out
//! monotonically by [`EventQueue::push`]. Internally the queue keeps three
//! kinds of source, each sorted by `(time, seq)` on its own:
//!
//! * **FIFO lanes** (a few `VecDeque`s) take every non-timer push —
//!   deliveries, starts, kills, revives — and the rare timer scheduled
//!   behind the wheel cursor. A push enters the first lane whose back is at
//!   or before the new event's time. Its `seq` is larger than any handed
//!   out before, so appending keeps the lane sorted with no comparison
//!   beyond that one. Under a constant link latency the clock only moves
//!   forward and every delivery lands at `now + d`, so one lane takes them
//!   all; a delay spike or a second latency opens the next lane.
//! * **The binary heap** takes what no lane can: a push earlier than every
//!   lane's back (random latencies), and every strategy-path
//!   [`reinsert`](EventQueue::reinsert), which keeps its *old* `seq` and so
//!   may not be appended anywhere. These pay the `O(log n)` the whole
//!   queue used to pay; nothing pays more.
//! * **Timers** at or after the wheel cursor go into a hierarchical timer
//!   wheel (11 levels × 64 slots, 6 bits per level — 66 bits of
//!   microsecond range). Retransmit timers carry hashed jitter, one per
//!   reliable frame, so they arrive in no order a lane could use; wheel
//!   insert and expiry are O(1) amortized at any population.
//!
//! [`EventQueue::pop`] takes the `(time, seq)` minimum over the lane
//! fronts, the heap top and the wheel front, so the observable pop order
//! is *identical* to a single binary heap's (the
//! `queue_matches_sorted_model` proptest pins this). The
//! `seq`-doubles-as-timer-id cancellation contract and the FIFO tie-break
//! are untouched.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::id::PeerId;
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind<M, T> {
    /// Deliver a message to `to`. (Bytes and class were charged and
    /// recorded at send time.)
    Deliver { from: PeerId, to: PeerId, msg: M },
    /// Fire a timer at a peer. The event's `seq` doubles as the timer id
    /// for cancellation. `incarnation` snapshots the peer's kill/revive
    /// generation at arming time: the fire path swallows the timer if the
    /// peer has been revived since, so a new incarnation never observes
    /// timers leaked by its predecessor.
    Timer {
        peer: PeerId,
        tag: T,
        incarnation: u32,
    },
    /// Activate a peer's core with `NodeEvent::Start` (initial boot or
    /// revival).
    Start { peer: PeerId },
    /// Administrative: take a peer down.
    Kill { peer: PeerId },
    /// Administrative: bring a peer back up (also re-runs `on_start`).
    Revive { peer: PeerId },
}

/// A scheduled event. Ordered by `(time, seq)` so that simultaneous events
/// fire in scheduling order — this is what makes runs deterministic.
#[derive(Debug)]
pub(crate) struct Event<M, T> {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind<M, T>,
}

impl<M, T> PartialEq for Event<M, T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M, T> Eq for Event<M, T> {}

impl<M, T> PartialOrd for Event<M, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M, T> Ord for Event<M, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Wheel geometry: 6 bits per level, 11 levels (66 bits ≥ the full u64
/// microsecond range, so every future timestamp has a slot).
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
const LEVELS: usize = 11;

/// Hierarchical timing wheel for timer events at or after the cursor.
///
/// Invariants (maintained by every method):
///
/// * every parked event's time `t` satisfies `t >= cur`;
/// * an event at level `l`, slot `s` has all time fields above `l` equal
///   to the cursor's, and `s >= field_l(cur)` (equality only at level 0);
/// * whenever any event is parked in a slot, `batch` holds the wheel's
///   earliest-time events (all at one exact time, ascending `seq`) — so
///   peeking never needs `&mut self`.
#[derive(Debug)]
struct TimerWheel<M, T> {
    /// The wheel cursor: one past the last drained microsecond. Only ever
    /// advances.
    cur: u64,
    /// Events parked in slots (excludes `batch`).
    parked: usize,
    /// Per-level slot-occupancy bitmaps.
    occ: [u64; LEVELS],
    /// `LEVELS * SLOTS` buckets, level-major.
    slots: Vec<Vec<Event<M, T>>>,
    /// The wheel's earliest events, drained slot-at-a-time: one exact
    /// timestamp, ascending `seq`.
    batch: VecDeque<Event<M, T>>,
}

impl<M, T> TimerWheel<M, T> {
    fn new() -> Self {
        TimerWheel {
            cur: 0,
            parked: 0,
            occ: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            batch: VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        self.parked + self.batch.len()
    }

    /// Level holding time `t` relative to the cursor: the field of the
    /// highest bit where `t` and `cur` differ.
    fn level_of(&self, t: u64) -> usize {
        debug_assert!(t >= self.cur, "wheel insert behind the cursor");
        let diff = t ^ self.cur;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        }
    }

    /// Parks an event in its slot without touching the batch.
    fn park(&mut self, ev: Event<M, T>) {
        let t = ev.time.as_micros();
        let level = self.level_of(t);
        let slot = (t >> (SLOT_BITS * level as u32)) & SLOT_MASK;
        self.occ[level] |= 1 << slot;
        self.slots[level * SLOTS + slot as usize].push(ev);
        self.parked += 1;
    }

    /// Inserts a timer event (time must be `>= cur`), keeping the
    /// earliest-in-batch invariant.
    fn insert(&mut self, ev: Event<M, T>) {
        self.park(ev);
        if self.batch.is_empty() {
            self.refill_batch();
        }
    }

    /// The wheel's earliest pending event, if any.
    fn peek(&self) -> Option<&Event<M, T>> {
        debug_assert!(self.parked == 0 || !self.batch.is_empty());
        self.batch.front()
    }

    /// Pops the wheel's earliest pending event, keeping the invariant.
    fn pop(&mut self) -> Option<Event<M, T>> {
        let ev = self.batch.pop_front()?;
        if self.batch.is_empty() && self.parked > 0 {
            self.refill_batch();
        }
        Some(ev)
    }

    /// Takes every event out of slot `(level, slot)`.
    fn drain_slot(&mut self, level: usize, slot: u64) -> Vec<Event<M, T>> {
        self.occ[level] &= !(1 << slot);
        let evs = std::mem::take(&mut self.slots[level * SLOTS + slot as usize]);
        self.parked -= evs.len();
        evs
    }

    /// Re-parks every event sitting in an upper level's slot *at* the
    /// cursor position: those share the cursor's field at that level, so
    /// they belong at a lower level now. High-to-low so an event can
    /// cascade through several levels in one pass. Without this pass, a
    /// level-0 scan could fire a later event ahead of one still parked at
    /// a higher level.
    fn cascade_cursor_slots(&mut self) {
        for level in (1..LEVELS).rev() {
            let pos = (self.cur >> (SLOT_BITS * level as u32)) & SLOT_MASK;
            if self.occ[level] & (1 << pos) != 0 {
                for ev in self.drain_slot(level, pos) {
                    self.park(ev);
                }
            }
        }
    }

    /// Drains the wheel's earliest-time slot into `batch` and advances the
    /// cursor past it. Called only when `batch` is empty and `parked > 0`.
    fn refill_batch(&mut self) {
        debug_assert!(self.batch.is_empty() && self.parked > 0);
        loop {
            self.cascade_cursor_slots();
            // After the cascade, every parked event sits strictly after
            // the cursor position of its level, so the smallest occupied
            // level holds the global minimum (its candidate shares all
            // upper fields with the cursor; a higher level's candidate
            // exceeds the cursor in a more significant field).
            let Some((level, slot)) = (0..LEVELS).find_map(|level| {
                let pos = (self.cur >> (SLOT_BITS * level as u32)) & SLOT_MASK;
                let mask = self.occ[level] & (!0u64 << pos);
                (mask != 0).then(|| (level, mask.trailing_zeros() as u64))
            }) else {
                debug_assert_eq!(self.parked, 0, "parked events unreachable by scan");
                return;
            };
            if level == 0 {
                let t0 = (self.cur & !SLOT_MASK) | slot;
                let mut evs = self.drain_slot(0, slot);
                evs.sort_unstable_by_key(|e| e.seq);
                debug_assert!(evs.iter().all(|e| e.time.as_micros() == t0));
                // One past the drained time: a later same-time insert goes
                // to the caller's heap and still merges in `seq` order.
                // Saturating: draining the slot at `u64::MAX` must pin the
                // cursor at the end of time, not wrap it to zero (which
                // would break the `t >= cur` parking invariant for every
                // remaining timer). A later insert at the saturated cursor
                // still takes the wheel path (`t >= cur`) and re-drains
                // the same slot; `seq` keeps the merge order exact.
                self.cur = t0.saturating_add(1);
                self.batch.extend(evs);
                return;
            }
            // Jump the cursor to the start of the candidate block (zero
            // every field below `level`, set field `level` to the slot) and
            // loop: the cascade pass then breaks that slot downward. No
            // per-slot walking — empty stretches are skipped in O(levels).
            let below = SLOT_BITS * (level as u32 + 1);
            let keep = if below >= 64 { 0 } else { !0u64 << below };
            self.cur = (self.cur & keep) | (slot << (SLOT_BITS * level as u32));
        }
    }
}

/// How many FIFO lanes sit in front of the overflow heap. One lane takes
/// every delivery under a constant latency; each further lane absorbs one
/// more concurrent delay (a spike, a duplicate's second sample, a timer
/// behind the wheel cursor). Four is the smallest count that leaves no
/// push in the heap on the loss, churn, chaos, continuous and simcheck
/// smokes (three leaves 3 % of the churn and continuous smokes' pushes
/// there); DESIGN §12 has the table.
const LANES: usize = 4;

/// Which sorted source holds the queue's `(time, seq)` minimum.
#[derive(Clone, Copy)]
enum Source {
    Lane(usize),
    Heap,
    Wheel,
}

/// Stable priority queue of events keyed by `(time, seq)`: FIFO lanes
/// with an overflow heap for everything but timers, a timer wheel for the
/// timer population, merged on pop. See the module docs for the split and
/// the equivalence argument.
#[derive(Debug)]
pub(crate) struct EventQueue<M, T> {
    /// Each lane is sorted by `(time, seq)` front to back: `push` appends
    /// only where the back's time is at or before the new event's, and the
    /// new event's `seq` exceeds every `seq` handed out before it.
    lanes: [VecDeque<Event<M, T>>; LANES],
    heap: BinaryHeap<Event<M, T>>,
    wheel: TimerWheel<M, T>,
    next_seq: u64,
    high_water: usize,
    heap_pushes: u64,
}

impl<M, T> EventQueue<M, T> {
    pub fn new() -> Self {
        EventQueue {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::new(),
            wheel: TimerWheel::new(),
            next_seq: 0,
            high_water: 0,
            heap_pushes: 0,
        }
    }

    /// Makes room in the first lane for `additional` more events, so a
    /// caller that knows its burst allocates the ring once, at that size,
    /// instead of doubling (and copying) its way up to the next power of
    /// two.
    pub fn reserve(&mut self, additional: usize) {
        self.lanes[0].reserve(additional);
    }

    /// Slots allocated in the first lane.
    #[cfg(test)]
    pub fn lane_capacity(&self) -> usize {
        self.lanes[0].capacity()
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind<M, T>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Event { time, seq, kind };
        // Timers go to the wheel unless they lie behind its cursor (which
        // can run ahead of the clock when the earliest pending timer is far
        // out); those and all non-timer traffic go to the first lane that
        // stays sorted with them at its back, else to the heap.
        if matches!(ev.kind, EventKind::Timer { .. }) && ev.time.as_micros() >= self.wheel.cur {
            self.wheel.insert(ev);
        } else if let Some(lane) = self
            .lanes
            .iter_mut()
            .find(|lane| lane.back().is_none_or(|back| back.time <= ev.time))
        {
            lane.push_back(ev);
        } else {
            self.heap_pushes += 1;
            self.heap.push(ev);
        }
        self.high_water = self.high_water.max(self.len());
        seq
    }

    /// The source whose front is the `(time, seq)` minimum, with that
    /// front's time. Hand-rolled on purpose: spelled as
    /// `chain(..).min_by_key(..)` the same scan made the whole kernel
    /// three times slower (146 vs 46 ns per event at depth 10^5).
    fn earliest(&self) -> Option<(Source, SimTime)> {
        let mut best: Option<(Source, SimTime, u64)> = None;
        let mut offer = |src: Source, ev: Option<&Event<M, T>>| {
            if let Some(ev) = ev {
                if best.is_none_or(|(_, t, s)| (ev.time, ev.seq) < (t, s)) {
                    best = Some((src, ev.time, ev.seq));
                }
            }
        };
        for (i, lane) in self.lanes.iter().enumerate() {
            offer(Source::Lane(i), lane.front());
        }
        offer(Source::Heap, self.heap.peek());
        offer(Source::Wheel, self.wheel.peek());
        best.map(|(src, t, _)| (src, t))
    }

    pub fn pop(&mut self) -> Option<Event<M, T>> {
        let (src, _) = self.earliest()?;
        match src {
            Source::Lane(i) => self.lanes[i].pop_front(),
            Source::Heap => self.heap.pop(),
            Source::Wheel => self.wheel.pop(),
        }
    }

    /// Puts back an event popped for inspection, or re-schedules one at a
    /// new time, *without* assigning a fresh `seq`. Preserving `seq` keeps
    /// the FIFO tie-break position stable and — crucially — keeps timer
    /// identity intact, since a timer's `seq` doubles as its cancellation
    /// id. Used by the schedule-exploration hook in `World`. Reinsertions
    /// always take the heap path: an old `seq` behind a lane's back would
    /// break that lane's order, and the time may lie behind the wheel
    /// cursor. The pop-side merge keeps the order correct either way.
    pub fn reinsert(&mut self, ev: Event<M, T>) {
        self.heap.push(ev);
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|(_, t)| t)
    }

    /// High-water mark of the pending-event population — the scale lane's
    /// scheduler-occupancy counter.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Pushes no lane could take, which paid the overflow heap's
    /// `O(log n)` instead.
    pub fn heap_pushes(&self) -> u64 {
        self.heap_pushes
    }

    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum::<usize>() + self.heap.len() + self.wheel.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(q: &mut EventQueue<u8, ()>, t: u64) {
        q.push(
            SimTime::from_micros(t),
            EventKind::Start {
                peer: PeerId::new(0),
            },
        );
    }

    fn timer(q: &mut EventQueue<u8, u32>, t: u64, tag: u32) -> u64 {
        q.push(
            SimTime::from_micros(t),
            EventKind::Timer {
                peer: PeerId::new(0),
                tag,
                incarnation: 0,
            },
        )
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u8, ()> = EventQueue::new();
        ev(&mut q, 30);
        ev(&mut q, 10);
        ev(&mut q, 20);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn timers_pop_in_time_order_across_wheel_levels() {
        let mut q: EventQueue<u8, u32> = EventQueue::new();
        // Times spanning several wheel levels, inserted out of order,
        // including the cross-level trap (65 parks at level 1, 70 at level
        // 0 once the cursor reaches 64) that the cascade pass exists for.
        let times = [70u64, 65, 1 << 40, 3, 64, 4096, 0, 63, (1 << 40) + 1];
        for &t in &times {
            timer(&mut q, t, t as u32);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        let mut expect = times.to_vec();
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn timers_beyond_the_top_wheel_horizon_pop_without_overflow() {
        // Far-future timers park in the top wheel level (bits 60..65);
        // draining the slot at the very end of the microsecond range used
        // to compute `cur = u64::MAX + 1`, which panics in debug builds
        // and wraps the cursor to zero in release builds.
        let mut q: EventQueue<u8, u32> = EventQueue::new();
        let times = [3u64, 1 << 60, (1 << 60) + 1, u64::MAX - 1, u64::MAX];
        for &t in &times {
            timer(&mut q, t, 0);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(popped, times);
    }

    #[test]
    fn end_of_time_cursor_still_accepts_and_pops_new_timers() {
        // After draining a timer at u64::MAX the cursor saturates there;
        // later inserts at that same instant must still flow through in
        // seq order, and earlier ones must take the heap fallback.
        let mut q: EventQueue<u8, u32> = EventQueue::new();
        let s0 = timer(&mut q, u64::MAX, 0);
        assert_eq!(q.pop().unwrap().seq, s0);
        let s1 = timer(&mut q, u64::MAX, 1);
        let s2 = timer(&mut q, 17, 2);
        let s3 = timer(&mut q, u64::MAX, 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![s2, s1, s3]);
    }

    #[test]
    fn mixed_timer_and_message_traffic_merges_by_time_and_seq() {
        let mut q: EventQueue<u8, u32> = EventQueue::new();
        let s0 = timer(&mut q, 5, 0);
        let s1 = q.push(
            SimTime::from_micros(5),
            EventKind::Deliver {
                from: PeerId::new(0),
                to: PeerId::new(1),
                msg: 9,
            },
        );
        let s2 = timer(&mut q, 5, 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![s0, s1, s2], "FIFO across wheel and heap");
    }

    #[test]
    fn late_same_time_timer_still_merges_fifo() {
        // Popping a timer at t advances the wheel cursor past t; a timer
        // subsequently pushed at exactly t (zero-delay re-arm) takes the
        // heap path and must still pop after the batch, in seq order.
        let mut q: EventQueue<u8, u32> = EventQueue::new();
        let s0 = timer(&mut q, 10, 0);
        let s1 = timer(&mut q, 10, 1);
        assert_eq!(q.pop().unwrap().seq, s0);
        let s2 = timer(&mut q, 10, 2);
        assert_eq!(q.pop().unwrap().seq, s1);
        assert_eq!(q.pop().unwrap().seq, s2);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u8, ()> = EventQueue::new();
        let s1 = q.push(
            SimTime::from_micros(5),
            EventKind::Kill {
                peer: PeerId::new(1),
            },
        );
        let s2 = q.push(
            SimTime::from_micros(5),
            EventKind::Kill {
                peer: PeerId::new(2),
            },
        );
        assert!(s1 < s2);
        let first = q.pop().unwrap();
        assert_eq!(first.seq, s1);
        let second = q.pop().unwrap();
        assert_eq!(second.seq, s2);
    }

    #[test]
    fn peek_time_and_len() {
        let mut q: EventQueue<u8, ()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        ev(&mut q, 42);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(42)));
    }

    #[test]
    fn high_water_tracks_the_peak_population() {
        let mut q: EventQueue<u8, u32> = EventQueue::new();
        for t in 0..10 {
            timer(&mut q, t, t as u32);
        }
        for _ in 0..10 {
            q.pop();
        }
        ev_mixed(&mut q);
        assert_eq!(q.high_water(), 10);
    }

    fn ev_mixed(q: &mut EventQueue<u8, u32>) {
        timer(q, 100, 0);
        q.pop();
    }

    #[test]
    fn reinsert_preserves_seq_and_tie_break_position() {
        let mut q: EventQueue<u8, ()> = EventQueue::new();
        let s0 = q.push(
            SimTime::from_micros(5),
            EventKind::Kill {
                peer: PeerId::new(0),
            },
        );
        let s1 = q.push(
            SimTime::from_micros(5),
            EventKind::Kill {
                peer: PeerId::new(1),
            },
        );
        // Pop both, put them back in the opposite order: the pop order
        // must still follow seq, not reinsertion order.
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        q.reinsert(b);
        q.reinsert(a);
        assert_eq!(q.pop().unwrap().seq, s0);
        assert_eq!(q.pop().unwrap().seq, s1);
        // A fresh push continues the monotone seq sequence.
        let s2 = q.push(
            SimTime::from_micros(1),
            EventKind::Kill {
                peer: PeerId::new(2),
            },
        );
        assert_eq!(s2, s1 + 1);
    }

    #[test]
    fn reinserted_timer_behind_the_cursor_pops_correctly() {
        let mut q: EventQueue<u8, u32> = EventQueue::new();
        let s0 = timer(&mut q, 7, 0);
        let s1 = timer(&mut q, 7, 1);
        let s2 = timer(&mut q, 9, 2);
        // Inspect-and-put-back at a time the wheel cursor has passed.
        let a = q.pop().unwrap();
        assert_eq!(a.seq, s0);
        q.reinsert(a);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![s0, s1, s2]);
    }

    #[test]
    fn monotone_pushes_stay_out_of_the_heap() {
        // The kernel's shape under a constant latency: everything lands at
        // `now + d` with the clock moving forward, plus zero-delay pushes.
        let mut q: EventQueue<u8, ()> = EventQueue::new();
        for t in [0, 0, 50, 50, 50, 100] {
            ev(&mut q, t);
        }
        assert_eq!(q.heap_pushes(), 0);
        assert!(q.heap.is_empty());
        assert_eq!(q.lanes[0].len(), 6);
        assert_eq!(q.len(), 6, "len counts the lanes");
        assert_eq!(q.high_water(), 6, "high water counts the lanes");
        q.pop();
        ev(&mut q, 100);
        assert_eq!((q.len(), q.high_water()), (6, 6));
    }

    #[test]
    fn push_earlier_than_every_lane_back_overflows_and_pops_in_order() {
        let mut q: EventQueue<u8, ()> = EventQueue::new();
        // Strictly decreasing times open one lane each …
        let times: Vec<u64> = (1..=LANES as u64).rev().map(|i| i * 10).collect();
        for &t in &times {
            ev(&mut q, t);
        }
        assert!(q.lanes.iter().all(|lane| lane.len() == 1));
        assert_eq!(q.heap_pushes(), 0);
        // … and the next one, earlier than every back, has only the heap.
        ev(&mut q, 5);
        ev(&mut q, 3);
        assert_eq!(q.heap_pushes(), 2);
        assert_eq!(q.heap.len(), 2);
        assert_eq!(q.len(), LANES + 2);
        // A push a lane *can* take still goes there, past the heap.
        ev(&mut q, 15);
        assert_eq!(q.heap_pushes(), 2);
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        let mut expect = times;
        expect.extend([5, 3, 15]);
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn reinsert_never_enters_a_lane() {
        let mut q: EventQueue<u8, ()> = EventQueue::new();
        let s0 = q.push(
            SimTime::from_micros(5),
            EventKind::Kill {
                peer: PeerId::new(0),
            },
        );
        ev(&mut q, 5);
        ev(&mut q, 9);
        // The lane's back is at t = 9: a *push* at 9 would be appended, but
        // the popped event carries the oldest seq and must not be.
        let mut a = q.pop().unwrap();
        assert_eq!(a.seq, s0);
        a.time = SimTime::from_micros(9);
        q.reinsert(a);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.lanes.iter().map(VecDeque::len).sum::<usize>(), 2);
        assert_eq!(q.heap_pushes(), 0, "a reinsertion is not an overflow");
        // Tied at t = 9 with a younger lane event: seq order, heap first.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![s0 + 1, s0, s0 + 2]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The queue is a *stable* priority queue: events pop sorted by
            /// time, and events with equal timestamps pop in insertion
            /// order (ascending `seq`). The schedule-exploration hook
            /// builds its tied-batch semantics on exactly this contract.
            #[test]
            fn fifo_stable_under_equal_timestamps(
                times in prop::collection::vec(0u64..8, 1..64),
            ) {
                let mut q: EventQueue<u8, ()> = EventQueue::new();
                let seqs: Vec<u64> = times
                    .iter()
                    .map(|&t| {
                        q.push(
                            SimTime::from_micros(t),
                            EventKind::Start { peer: PeerId::new(0) },
                        )
                    })
                    .collect();
                // Seqs are assigned monotonically in push order.
                prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]));

                let popped: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
                    .map(|e| (e.time.as_micros(), e.seq))
                    .collect();
                prop_assert_eq!(popped.len(), times.len());
                // Lexicographic (time, seq) order — time-sorted, FIFO on
                // ties — is exactly "sorted by (time, seq)".
                let mut expect: Vec<(u64, u64)> = times
                    .iter()
                    .zip(&seqs)
                    .map(|(&t, &s)| (t, s))
                    .collect();
                expect.sort_unstable();
                prop_assert_eq!(popped, expect);
            }

            /// Reinserting any prefix of popped events restores the exact
            /// pop order: inspection through pop/reinsert is invisible.
            #[test]
            fn reinsert_round_trip_is_invisible(
                times in prop::collection::vec(0u64..6, 1..32),
                take in 0usize..32,
            ) {
                let build = |times: &[u64]| {
                    let mut q: EventQueue<u8, ()> = EventQueue::new();
                    for &t in times {
                        q.push(
                            SimTime::from_micros(t),
                            EventKind::Start { peer: PeerId::new(0) },
                        );
                    }
                    q
                };
                let mut q = build(&times);
                let take = take.min(times.len());
                let held: Vec<_> = (0..take).map(|_| q.pop().unwrap()).collect();
                for ev in held {
                    q.reinsert(ev);
                }
                let after: Vec<u64> =
                    std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
                let baseline: Vec<u64> = {
                    let mut q = build(&times);
                    std::iter::from_fn(move || q.pop()).map(|e| e.seq).collect()
                };
                prop_assert_eq!(after, baseline);
            }

            /// Lanes, heap and wheel together are observably one binary
            /// heap: pushes arrive the way the kernel makes them — `now +
            /// delay` with the delay a constant, that constant plus a
            /// spike, or uniform, mixed with zero-delay pushes at `now` and
            /// timers across every wheel level — interleaved with pops
            /// (which advance the clock and the wheel cursor) and with the
            /// strategy path's pop → `reinsert` round trips, in place and
            /// delayed. The fire order is exactly sorted `(time, seq)`.
            #[test]
            fn queue_matches_sorted_model(
                latency in 1u64..200,
                spike in 1u64..2_000,
                ops in prop::collection::vec(
                    (0u64..1 << 14, 0u8..12), 1..160,
                ),
            ) {
                let mut q: EventQueue<u8, u32> = EventQueue::new();
                // The reference "binary heap": a bag of (time, seq) keys.
                let mut model: Vec<(u64, u64)> = Vec::new();
                let mut fired: Vec<(u64, u64)> = Vec::new();
                let mut now = 0u64;
                for (i, &(t, op)) in ops.iter().enumerate() {
                    let deliver_after = match op {
                        3 | 4 => Some(latency),
                        5 => Some(latency + spike),
                        6 => Some(t % 512),
                        7 => Some(0),
                        _ => None,
                    };
                    if let Some(delay) = deliver_after {
                        let at = now + delay;
                        let seq = q.push(
                            SimTime::from_micros(at),
                            EventKind::Deliver {
                                from: PeerId::new(0),
                                to: PeerId::new(i),
                                msg: op,
                            },
                        );
                        model.push((at, seq));
                        continue;
                    }
                    if op > 2 {
                        // Arm a timer `t` past the clock, stressing every
                        // wheel level and the behind-the-cursor fallback.
                        let at = now.saturating_add(t);
                        let seq = q.push(
                            SimTime::from_micros(at),
                            EventKind::Timer {
                                peer: PeerId::new(i),
                                tag: i as u32,
                                incarnation: 0,
                            },
                        );
                        model.push((at, seq));
                        continue;
                    }
                    let Some(mut ev) = q.pop() else { continue };
                    let key = (ev.time.as_micros(), ev.seq);
                    let min = *model.iter().min().unwrap();
                    prop_assert_eq!(key, min);
                    match op {
                        // Fire it, advancing the virtual clock.
                        0 => {
                            fired.push(key);
                            now = key.0;
                            model.retain(|&e| e != min);
                        }
                        // Inspect and put back unchanged.
                        1 => q.reinsert(ev),
                        // Put back later, as a strategy `Delay` does.
                        _ => {
                            ev.time = SimTime::from_micros(key.0 + 1 + t % 64);
                            model.retain(|&e| e != min);
                            model.push((ev.time.as_micros(), ev.seq));
                            q.reinsert(ev);
                        }
                    }
                    prop_assert_eq!(q.len(), model.len());
                }
                let rest: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
                    .map(|e| (e.time.as_micros(), e.seq))
                    .collect();
                model.sort_unstable();
                // Drain order must equal the model's sorted order, and the
                // already-fired prefix must have been monotone too.
                prop_assert_eq!(&rest, &model);
                fired.extend(rest);
                prop_assert!(fired.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
