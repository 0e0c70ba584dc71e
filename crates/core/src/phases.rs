//! Canonical phase labels for [`MetricsReport`](ifi_sim::MetricsReport)s.
//!
//! The three netFilter phase labels deliberately equal the
//! [`MsgClass`](ifi_sim::MsgClass) labels of the classes those phases send
//! in: a DES run of [`protocol`](crate::protocol) with an enabled sink and
//! *no* explicit span markers attributes each send to its class-label
//! fallback phase, so every report of a netFilter epoch — plain, lossy or
//! certified — names its phases the same way and reconciles against a
//! [`CostBreakdown`](crate::CostBreakdown) read off the meter.

/// Phase 1: candidate filtering (group-vector convergecast).
pub const FILTERING: &str = "filtering";
/// Phase 2a: heavy-group identifier dissemination.
pub const DISSEMINATION: &str = "dissemination";
/// Phase 2b: candidate `(id, value)` aggregation.
pub const AGGREGATION: &str = "aggregation";
/// The three netFilter phases, in protocol order.
pub const NETFILTER: [&str; 3] = [FILTERING, DISSEMINATION, AGGREGATION];
/// Gossip-based candidate filtering (the `gossip_filter` variant).
pub const GOSSIP_FILTERING: &str = "gossip-filtering";
/// Sampling traffic for parameter estimation (§IV-E).
pub const SAMPLING: &str = "sampling";
/// Hierarchy construction / repair control traffic.
pub const CONSTRUCTION: &str = "construction";
/// Hierarchy maintenance (heartbeats, repair) control traffic.
pub const MAINTENANCE: &str = "maintenance";
/// One epoch of the resilient re-querying protocol.
pub const EPOCH: &str = "epoch";
/// Failover overhead: root-succession control traffic plus the
/// contributor-census / epoch-fence fields piggybacked on other messages.
/// Equals the [`MsgClass::FAILOVER`](ifi_sim::MsgClass::FAILOVER) label for
/// the same fallback-attribution reason as the phase labels above.
pub const FAILOVER: &str = "failover";
/// Reliability overhead: acknowledgements and retransmitted frames. Equals
/// the [`MsgClass::RETRANSMIT`](ifi_sim::MsgClass::RETRANSMIT) label for
/// the same fallback-attribution reason as the phase labels above.
pub const RETRANSMIT: &str = "retransmit";
/// Sketch-merge engine traffic: capacity-bounded Space-Saving summaries
/// moving rootward. Equals the [`MsgClass::SKETCH`](ifi_sim::MsgClass::SKETCH)
/// label for the same fallback-attribution reason as the phase labels
/// above.
pub const SKETCH: &str = "sketch";
/// Top-k engine traffic: pruned candidate-list convergecasts plus the
/// exact verification round. Equals the
/// [`MsgClass::TOPK`](ifi_sim::MsgClass::TOPK) label.
pub const TOPK: &str = "topk";
/// Local-thresholding comparator traffic: budget-violation reports.
/// Equals the [`MsgClass::THRESHOLD`](ifi_sim::MsgClass::THRESHOLD) label.
pub const THRESHOLD: &str = "threshold";
/// Continuous-engine traffic: per-epoch sliding-window delta
/// convergecasts, shared by every registered standing query. Equals the
/// [`MsgClass::DELTA`](ifi_sim::MsgClass::DELTA) label for the same
/// fallback-attribution reason as the phase labels above.
pub const DELTA: &str = "delta";
/// Continuous-engine traffic: per-query standing-answer rows streamed to
/// each subscriber after an epoch certifies. Equals the
/// [`MsgClass::STANDING`](ifi_sim::MsgClass::STANDING) label.
pub const STANDING: &str = "standing";
/// Wall-clock phase for the DES scheduler loop (charged by `ifi-sim`).
pub const SCHEDULER: &str = "scheduler";
