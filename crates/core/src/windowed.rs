//! Sliding-window IFI — the paper's motivating use case made continuous.
//!
//! Footnote 1 of the paper: *"A music marketing firm may want to find out
//! which MP3 songs have been downloaded more than 10,000 times **in the
//! past week**."* A one-shot `IFI(A, t)` answers "ever"; answering "in the
//! past week" requires local values that age out. This module adds the
//! standard bucketed sliding window on top of the unmodified netFilter
//! engine:
//!
//! * each peer keeps `buckets` time slices of its local counts
//!   ([`SlidingWindow`]); recording goes to the current slice, and
//!   [`SlidingWindow::advance`] retires the oldest slice;
//! * a query materializes every peer's live-window local item set
//!   ([`SlidingWindow::local_items`], into
//!   `SystemData::from_local_sets`) and runs ordinary netFilter over it —
//!   so all exactness guarantees carry over to the windowed answer
//!   verbatim (the `trending` example does exactly this).
//!
//! The coordination cost is unchanged (netFilter neither knows nor cares
//! that local values came from a window); only peer-local state grows, by
//! a factor of the bucket count. Each closed slice is kept as one **run**
//! (ascending, duplicate-free, zero-pruned — [`ifi_agg::fold_run`]), the
//! open slice as an append buffer folded when it closes, and the window
//! totals are computed from those ≤ `buckets` runs on demand.
//! [`SlidingWindow::advance`] returns the retired run and
//! [`SlidingWindow::newest`] the one just closed — the two sides of the
//! per-epoch deltas the [`continuous`](crate::continuous) engine
//! convergecasts instead of re-aggregating.

use ifi_agg::fold_run;
use ifi_workload::ItemId;

/// A peer-local bucketed sliding window of item counts.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    /// The closed live slices, oldest first, each a run.
    closed: Vec<Vec<(ItemId, u64)>>,
    /// The current slice: records in arrival order, folded at `advance`.
    open: Vec<(ItemId, u64)>,
    capacity: usize,
}

impl SlidingWindow {
    /// Creates a window of `buckets` time slices (e.g. 7 daily buckets for
    /// a one-week window).
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "a window needs at least one bucket");
        SlidingWindow {
            closed: Vec::new(),
            open: Vec::new(),
            capacity: buckets,
        }
    }

    /// Adds `value` for `item` to the current time slice.
    pub fn record(&mut self, item: ItemId, value: u64) {
        self.open.push((item, value));
    }

    /// Closes the current slice and opens a fresh one, retiring the oldest
    /// slice once the window is full. Returns the retired slice as a run
    /// (empty while the window is still filling).
    ///
    /// A slice holds only the items recorded in it, so peer-local memory
    /// tracks the live item population, not all-time item churn.
    pub fn advance(&mut self) -> Vec<(ItemId, u64)> {
        let mut slice = std::mem::take(&mut self.open);
        fold_run(&mut slice);
        self.closed.push(slice);
        if self.closed.len() == self.capacity {
            self.closed.remove(0)
        } else {
            Vec::new()
        }
    }

    /// The slice the last [`advance`](Self::advance) closed, as a run
    /// (empty before the first, and in a 1-bucket window, which retires it
    /// at once).
    pub fn newest(&self) -> &[(ItemId, u64)] {
        self.closed.last().map_or(&[], Vec::as_slice)
    }

    /// Number of live slices (≤ the configured bucket count).
    pub fn live_buckets(&self) -> usize {
        self.closed.len() + 1
    }

    /// Number of distinct items with a non-zero window total.
    pub fn tracked_items(&self) -> usize {
        self.local_items().len()
    }

    /// The window total for one item.
    pub fn value(&self, item: ItemId) -> u64 {
        let closed = self.closed.iter().map(|run| {
            run.binary_search_by_key(&item, |p| p.0)
                .map_or(0, |i| run[i].1)
        });
        let open = self.open.iter().filter(|p| p.0 == item).map(|p| p.1);
        closed.chain(open).sum()
    }

    /// The merged live-window local item set, sorted by item id.
    pub fn local_items(&self) -> Vec<(ItemId, u64)> {
        let mut all = self.closed.concat();
        all.extend_from_slice(&self.open);
        fold_run(&mut all);
        all
    }
}

/// Records a whole batch into the current time slice at once.
impl Extend<(ItemId, u64)> for SlidingWindow {
    fn extend<I: IntoIterator<Item = (ItemId, u64)>>(&mut self, records: I) {
        self.open.extend(records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_totals_age_out() {
        let mut w = SlidingWindow::new(3);
        w.record(ItemId(1), 5);
        w.advance();
        w.record(ItemId(1), 3);
        w.advance();
        assert_eq!(w.value(ItemId(1)), 8);
        w.advance(); // bucket with 5 retires
        assert_eq!(w.value(ItemId(1)), 3);
        w.advance(); // bucket with 3 retires
        assert_eq!(w.value(ItemId(1)), 0);
        assert_eq!(w.live_buckets(), 3);
        assert!(w.local_items().is_empty());
    }

    #[test]
    fn local_items_merge_across_buckets() {
        let mut w = SlidingWindow::new(4);
        w.record(ItemId(2), 1);
        w.advance();
        w.record(ItemId(2), 2);
        w.record(ItemId(7), 9);
        assert_eq!(w.local_items(), vec![(ItemId(2), 3), (ItemId(7), 9)]);
    }

    #[test]
    fn advance_returns_the_retired_slice() {
        let mut w = SlidingWindow::new(2);
        w.record(ItemId(3), 4);
        assert!(w.advance().is_empty(), "window still filling");
        w.record(ItemId(3), 1);
        let retired = w.advance();
        assert_eq!(retired, [(ItemId(3), 4)], "oldest slice retires");
        assert_eq!(w.newest(), [(ItemId(3), 1)], "the slice just closed");
        assert_eq!(w.value(ItemId(3)), 1);
    }

    #[test]
    fn advance_compacts_items_decayed_to_zero() {
        let mut w = SlidingWindow::new(3);
        // Slice 1: heavy item churn, plus one item that stays live.
        for i in 0..100 {
            w.record(ItemId(i), 1);
        }
        w.advance();
        // Slice 2: only the survivor records again.
        w.record(ItemId(7), 5);
        w.advance();
        assert_eq!(w.tracked_items(), 100, "everything still inside window");
        w.advance(); // slice 1 retires: 99 churn items decay to zero
        assert_eq!(w.tracked_items(), 1, "zero-total keys compacted");
        assert_eq!(w.value(ItemId(7)), 5);
        assert_eq!(w.local_items(), vec![(ItemId(7), 5)]);
    }

    #[test]
    fn steady_churn_memory_is_bounded_by_the_window() {
        let mut w = SlidingWindow::new(4);
        for epoch in 0..50u64 {
            for i in 0..10 {
                w.record(ItemId(epoch * 10 + i), 1);
            }
            w.advance();
            assert!(
                w.tracked_items() <= 4 * 10,
                "epoch {epoch}: {} keys tracked — zero-total compaction broken",
                w.tracked_items()
            );
        }
    }

    #[test]
    fn zero_value_records_are_compacted_on_advance() {
        let mut w = SlidingWindow::new(3);
        w.record(ItemId(1), 0);
        w.record(ItemId(2), 2);
        assert_eq!(w.tracked_items(), 1, "a zero total is never tracked");
        w.advance();
        assert_eq!(w.newest(), [(ItemId(2), 2)], "zero-value key dropped");
        assert_eq!(w.local_items(), vec![(ItemId(2), 2)]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = SlidingWindow::new(0);
    }
}
