//! # ifi-agg — aggregate computation for P2P systems
//!
//! The paper's §III-A surveys two families of aggregate computation and
//! builds netFilter on the hierarchical one; this crate implements both,
//! plus the sampling machinery of §IV-E:
//!
//! * [`hierarchical`] — bottom-up ("convergecast") aggregation along a
//!   [`ifi_hierarchy::Hierarchy`]: the sans-io [`Convergecast`] block the
//!   message-level engines are built on, and [`ConvergecastProtocol`], the
//!   one-pass engine over it that every comparator runs on,
//! * [`gossip`] — push-sum gossip aggregation (the paper's discussed
//!   alternative, citing \[8]\[15]; it needs `O(log N)` rounds and yields
//!   approximate values — exactly the trade-off §III-A describes),
//! * [`sampling`] — random-branch sampling to estimate `v̄`, `v̄_light`,
//!   `n̂`, and `r̂` for optimal parameter tuning (§IV-E, Eq. 7–8).
//!
//! Aggregate *types* implement [`Aggregate`], which pairs the merge
//! operation with a wire-size model ([`WireSizes`], the paper's
//! `s_a`/`s_g`/`s_i` constants) so that communication cost is measured by
//! encoding real messages rather than plugging formulas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gossip;
pub mod hierarchical;
mod merge;
pub mod sampling;
mod wire;

pub use hierarchical::{
    Boot, Collect, Convergecast, ConvergecastProtocol, Finish, OnePass, TreeSlot,
};
pub use merge::{
    fold_run, is_run, merge_join, merge_runs, Aggregate, Ascending, Fold, MapSum, OnArrival,
    Overflow, ScalarSum, VecSum,
};
pub use wire::WireSizes;
