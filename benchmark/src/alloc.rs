//! Counting pass-through allocator: live bytes, their high-water mark,
//! and allocation count/bytes since the last [`reset`].
//!
//! Always on (the untraced and the traced pass pay the same four relaxed
//! atomic updates per allocation), so `peak_mem_mb` and `alloc.*` describe
//! the very binary whose time is measured. Thread stacks are mapped by the
//! OS, not by this allocator, so the transport's per-peer stacks are not
//! in these numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The allocator installed as `#[global_allocator]` by the crate root.
pub struct Counting;

// All four are statistics that publish no other data, hence `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
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

/// Allocator counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes live now.
    pub live: usize,
    /// High-water of live bytes since the last [`reset`].
    pub peak: usize,
    /// Allocations (including reallocations) since the last [`reset`].
    pub count: u64,
    /// Bytes requested since the last [`reset`].
    pub bytes: u64,
}

/// Starts a measurement window: the high-water mark falls back to what is
/// live now and the allocation counters to zero.
pub fn reset() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
}

/// Reads the counters.
pub fn snapshot() -> AllocStats {
    AllocStats {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}
