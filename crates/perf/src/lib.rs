//! Deterministic wall-clock benchmark harness.
//!
//! The repository's figures and baselines gate on *counters* — event
//! counts, message counts, bytes — which are bit-reproducible across
//! machines. Wall-clock time is not, so this harness separates the two:
//!
//! * every benchmark returns a [`harness::Sample`] of deterministic
//!   counters alongside the timed work, and the harness **asserts the
//!   counters are identical across repetitions** (a per-run determinism
//!   oracle);
//! * a [`report::BenchReport`] snapshots the counters exactly plus a
//!   median-of-k wall-clock summary;
//! * [`baseline`] compares fresh reports against committed ones with
//!   counters **exact** and the wall-clock median gated only by a
//!   generous relative tolerance, so CI catches op-count regressions
//!   byte-for-byte while machine noise merely alarms at gross (≥ 1.5×)
//!   slowdowns.
//!
//! * [`alloc`] is a counting global allocator a binary can install, which
//!   makes allocation count, allocated bytes and the live-byte high-water
//!   of a seeded workload three more exact counters.
//!
//! The crate is dependency-free: benchmark *definitions* (which need the
//! simulator, codec, and figure sweeps) live in `ifi-bench`'s `perfbench`
//! module; this crate only knows how to run, snapshot, and compare.

pub mod alloc;
pub mod baseline;
pub mod harness;
pub mod report;

pub use baseline::{check_baseline, compare_reports, write_baseline};
pub use harness::{run_bench, BenchConfig, Sample};
pub use report::{BenchReport, WallStats};
