//! # ifi-overlay — unstructured P2P overlay substrate
//!
//! The netFilter paper assumes "peers form an unstructured P2P system where
//! no global index structure is maintained" (§I). This crate provides that
//! substrate:
//!
//! * [`Topology`] — undirected overlay graphs: random-regular, plus
//!   deterministic shapes for tests, and graph queries (BFS layers,
//!   eccentricity),
//! * [`churn`] — session-length models and churn schedules
//!   (join/leave/failure event streams for the DES),
//! * [`HeartbeatTracker`] — the periodic heartbeat bookkeeping (with the
//!   paper's `DEPTH` counter) that hierarchy repair builds on (§III-A.3).
//!
//! ```
//! use ifi_overlay::Topology;
//! use ifi_sim::{DetRng, PeerId};
//!
//! let mut rng = DetRng::new(42);
//! let topo = Topology::random_regular(100, 4, &mut rng);
//! assert!(topo.bfs_depths(PeerId::new(0)).iter().all(Option::is_some));
//! assert!(topo.peers().all(|p| topo.degree(p) >= 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
mod heartbeat;
pub mod search;
mod topology;

pub use heartbeat::{HeartbeatConfig, HeartbeatTracker, NeighborStatus};
pub use topology::Topology;
