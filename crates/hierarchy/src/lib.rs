//! # ifi-hierarchy — BFS aggregation hierarchies with repair
//!
//! netFilter computes aggregates along a hierarchy formed over the stable
//! peers of an unstructured overlay (§III-A of the paper):
//!
//! * peers join the tree at depth `d(i)` = shortest-hop distance from a
//!   designated root, via breadth-first search (§III-A.1),
//! * aggregates flow bottom-up, leaves → root (§III-A.2),
//! * on parent leave/failure, a peer sets its depth to ∞, recursively
//!   informs its downstream neighbors, and re-attaches when it hears a
//!   heartbeat from a neighbor with finite depth (§III-A.3),
//! * multiple redundant hierarchies can be built to mask root failure
//!   (§III-A.1, "we can construct multiple hierarchies").
//!
//! [`Hierarchy`] is the materialized tree every engine runs over;
//! [`MaintainProtocol`] is the message-level heartbeat/repair protocol
//! that runs on the `ifi-sim` DES and keeps that tree spanning the live
//! peers.
//!
//! ```
//! use ifi_overlay::Topology;
//! use ifi_hierarchy::Hierarchy;
//! use ifi_sim::{DetRng, PeerId};
//!
//! let topo = Topology::random_regular(64, 4, &mut DetRng::new(1));
//! let h = Hierarchy::bfs(&topo, PeerId::new(0));
//! h.check_invariants(Some(&topo));
//! assert_eq!(h.member_count(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod maintain_core;
mod multi;
mod protocol;
mod roots;
mod tree;

pub use maintain_core::{MaintainCore, Outbox, TickOutcome};
pub use multi::MultiHierarchy;
pub use protocol::{MaintainMsg, MaintainProtocol, MaintainTimer};
pub use roots::{select_root, RootSelection};
pub use tree::Hierarchy;
