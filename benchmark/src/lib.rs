//! The repo benchmark: five workloads, five bounded end-to-end metrics
//! and an outside-in per-layer ledger. See `README.md` beside this crate.

pub mod alloc;
pub mod compare;
pub mod json;
pub mod layers;
pub mod run;
pub mod spanned;
pub mod stats;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
