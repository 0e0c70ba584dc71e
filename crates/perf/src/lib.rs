//! Counter-exact perf snapshots: the run policy and the counting allocator.
//!
//! The repository gates on *counters* — event counts, message counts,
//! bytes, allocations — which are bit-reproducible across machines. Wall
//! clock is not, and this crate does not measure it (`benchmark/` owns
//! time):
//!
//! * [`harness::run_bench`] runs a seeded workload under the one policy
//!   every perf snapshot shares and **asserts that its [`Sample`]s are
//!   identical across runs** (a per-run determinism oracle);
//! * [`Sample::to_json`] is the snapshot text `check-baselines` compares
//!   byte for byte with `baselines/perf/<name>.json`;
//! * [`alloc`] is a counting global allocator a binary can install, which
//!   makes allocation count, allocated bytes and the live-byte high-water
//!   of a seeded workload three more exact counters.
//!
//! The crate is dependency-free: benchmark *definitions* (which need the
//! simulator, codec, and figure sweeps) live in `ifi-bench`'s `perfbench`
//! module.

pub mod alloc;
pub mod harness;

pub use harness::{run_bench, Sample};
