//! The counting allocator, installed: one test per binary, so nothing else
//! allocates inside the window.

use ifi_perf::alloc::{self, AllocStats, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_window_counts_its_own_allocations_exactly() {
    let held_before = vec![0u8; 4096];
    alloc::reset();
    assert_eq!(alloc::snapshot(), AllocStats::default());

    let mut v: Vec<u8> = Vec::with_capacity(1000);
    v.push(1);
    let kept = vec![0u64; 10];
    let after_two = alloc::snapshot();
    assert_eq!((after_two.count, after_two.bytes), (2, 1080));
    assert_eq!((after_two.retained, after_two.peak), (1080, 1080));

    // A realloc is one more allocation of the new size; the old block
    // stops being live.
    v.reserve_exact(2000);
    drop(v);
    let end = alloc::snapshot();
    assert_eq!(end.count, 3);
    assert_eq!(end.retained, 80, "only `kept` outlives the window");
    assert!(end.peak >= 2080 && end.peak < 4096, "{end:?}");

    // Freeing what predates the window cannot drive the levels negative.
    drop(held_before);
    drop(kept);
    assert_eq!(alloc::snapshot().retained, 0);
}
