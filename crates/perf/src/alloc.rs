//! Counting pass-through allocator: the deterministic memory counters of
//! the perf gate.
//!
//! A binary opts in with
//! `#[global_allocator] static A: ifi_perf::alloc::Counting = ifi_perf::alloc::Counting;`
//! (the `experiments` binary does; so does each memory-budget test
//! binary). A single-threaded, seeded workload then allocates the same
//! blocks in the same order on every run, so [`AllocStats`] over a
//! [`reset`]…[`snapshot`] window is as exact as an event count — and an
//! allocation regression gates like an op-count drift. Without the opt-in
//! the counters simply stay zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The allocator to install as `#[global_allocator]`.
pub struct Counting;

// All five are statistics that publish no other data, hence `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static BASE: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller guarantees it.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Allocator counters over the window since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes live now, above what was live at the reset.
    pub retained: usize,
    /// High-water of live bytes, above what was live at the reset.
    pub peak: usize,
    /// Allocations (including reallocations).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
}

/// Starts a measurement window at what is live now.
pub fn reset() {
    let live = LIVE.load(Relaxed);
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
}

/// Reads the counters of the current window. Both byte levels are taken
/// relative to the window's start (and floor at it), so they describe the
/// measured work and not whatever the process already held.
pub fn snapshot() -> AllocStats {
    let base = BASE.load(Relaxed);
    AllocStats {
        retained: LIVE.load(Relaxed).saturating_sub(base),
        peak: PEAK.load(Relaxed).saturating_sub(base),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}
