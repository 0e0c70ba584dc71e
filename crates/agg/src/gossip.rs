//! Push-sum gossip aggregation — the paper's discussed alternative.
//!
//! §III-A: *"gossip-based aggregate computation … require multiple
//! (O(log N)) rounds of communication among peers till the aggregates
//! (almost) converge"* and yields approximate values; netFilter therefore
//! uses hierarchical aggregation, but the paper's conclusion names
//! fault-tolerant gossip as future work. This module implements the
//! classic push-sum protocol (Kempe et al.) over the overlay so that the
//! trade-off (rounds × approximation vs. one exact convergecast) can be
//! measured — see the `gossip_vs_hierarchy` ablation bench.
//!
//! Round structure is synchronous: in each round every peer splits its
//! `(sum, weight)` pair in half, keeps one half, and sends the other to a
//! uniformly random overlay neighbor. The mass-conservation invariant
//! (`Σ sums` and `Σ weights` are constant) is checked in tests; each
//! peer's estimate `s/w` converges to the global average, and the sum
//! estimate is `N · s/w`.

use ifi_overlay::Topology;
use ifi_sim::{DetRng, EventSink, MsgClass, PeerId};

use crate::wire::WireSizes;

/// Runs `rounds` of push-sum over `topology`, starting from per-peer
/// `values`: the vector protocol over one-component vectors.
///
/// # Panics
///
/// Panics if `values.len()` differs from the peer count, or any peer has
/// no neighbors (mass would strand).
pub fn push_sum(
    topology: &Topology,
    values: &[f64],
    rounds: usize,
    sizes: &WireSizes,
    rng: &mut DetRng,
) -> GossipVecOutcome {
    let mut sink = EventSink::disabled();
    push_sum_with_sink(topology, values, rounds, sizes, rng, &mut sink)
}

/// [`push_sum`] that additionally charges each round's sends into `sink`
/// (class [`MsgClass::GOSSIP`], one event per sender per round). Recording
/// draws no randomness, so the outcome is identical to the plain variant.
pub fn push_sum_with_sink(
    topology: &Topology,
    values: &[f64],
    rounds: usize,
    sizes: &WireSizes,
    rng: &mut DetRng,
    sink: &mut EventSink,
) -> GossipVecOutcome {
    let peers = topology.peer_count();
    assert_eq!(values.len(), peers, "one value per peer required");
    let vectors: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
    push_sum_vec_with_sink(topology, &vectors, rounds, sizes, rng, sink)
}

/// Result of a vector push-sum run.
#[derive(Debug, Clone)]
pub struct GossipVecOutcome {
    /// `avg_estimates[p][k]` — peer `p`'s estimate of the global average
    /// of component `k` after the final round.
    pub avg_estimates: Vec<Vec<f64>>,
    /// Rounds executed.
    pub rounds: usize,
    /// Total bytes sent: each message carries `dim` sums plus one weight,
    /// `(dim + 1)·s_a` bytes.
    pub total_bytes: u64,
}

impl GossipVecOutcome {
    /// Peer `p`'s estimates of the global **sums** (`N ×` averages).
    pub fn sum_estimates(&self, p: usize) -> Vec<f64> {
        let n = self.avg_estimates.len() as f64;
        self.avg_estimates[p].iter().map(|&a| a * n).collect()
    }

    /// Average bytes per peer.
    pub fn avg_bytes_per_peer(&self) -> f64 {
        if self.avg_estimates.is_empty() {
            0.0
        } else {
            self.total_bytes as f64 / self.avg_estimates.len() as f64
        }
    }

    /// Worst relative error over all peers and components against the true
    /// component sums (components with true sum 0 are skipped).
    pub fn max_relative_error(&self, true_sums: &[f64]) -> f64 {
        let n = self.avg_estimates.len() as f64;
        let mut worst = 0.0f64;
        for row in &self.avg_estimates {
            for (k, &a) in row.iter().enumerate() {
                let truth = true_sums[k];
                if truth != 0.0 {
                    worst = worst.max(((a * n - truth) / truth).abs());
                }
            }
        }
        worst
    }
}

/// Runs `rounds` of push-sum over a whole **vector** per peer — all
/// components share one weight, so a single gossip execution estimates
/// every component simultaneously (this is how the gossip variant of
/// netFilter's candidate filtering moves all `f·g` item-group aggregates
/// at once).
///
/// # Panics
///
/// Panics if peers disagree on the vector dimension, the value count
/// differs from the peer count, or any peer is isolated.
pub fn push_sum_vec(
    topology: &Topology,
    values: &[Vec<f64>],
    rounds: usize,
    sizes: &WireSizes,
    rng: &mut DetRng,
) -> GossipVecOutcome {
    let mut sink = EventSink::disabled();
    push_sum_vec_with_sink(topology, values, rounds, sizes, rng, &mut sink)
}

/// [`push_sum_vec`] that additionally charges each round's sends into
/// `sink` (class [`MsgClass::GOSSIP`]). Recording draws no randomness, so
/// the outcome is identical to the plain variant.
pub fn push_sum_vec_with_sink(
    topology: &Topology,
    values: &[Vec<f64>],
    rounds: usize,
    sizes: &WireSizes,
    rng: &mut DetRng,
    sink: &mut EventSink,
) -> GossipVecOutcome {
    let n = topology.peer_count();
    assert_eq!(values.len(), n, "one vector per peer required");
    let dim = values.first().map(Vec::len).unwrap_or(0);
    for (i, v) in values.iter().enumerate() {
        assert_eq!(v.len(), dim, "peer {i} has a different vector dimension");
    }
    for p in topology.peers() {
        assert!(
            topology.degree(p) > 0,
            "gossip requires every peer to have a neighbor ({p} has none)"
        );
    }
    let mut sums: Vec<Vec<f64>> = values.to_vec();
    let mut weights = vec![1.0f64; n];
    let msg_bytes = (dim as u64 + 1) * sizes.sa;
    let mut total_bytes = 0u64;

    for _ in 0..rounds {
        let mut inbox_s = vec![vec![0.0f64; dim]; n];
        let mut inbox_w = vec![0.0f64; n];
        for i in 0..n {
            let p = PeerId::new(i);
            for s in sums[i].iter_mut() {
                *s /= 2.0;
            }
            let half_w = weights[i] / 2.0;
            for k in 0..dim {
                inbox_s[i][k] += sums[i][k];
            }
            inbox_w[i] += half_w;
            let nbrs = topology.neighbors(p);
            let target = nbrs[rng.below(nbrs.len() as u64) as usize].index();
            for k in 0..dim {
                inbox_s[target][k] += sums[i][k];
            }
            inbox_w[target] += half_w;
            total_bytes += msg_bytes;
            sink.record(p, MsgClass::GOSSIP, msg_bytes);
        }
        sums = inbox_s;
        weights = inbox_w;
    }

    let avg_estimates = sums
        .into_iter()
        .zip(&weights)
        .map(|(row, &w)| {
            row.into_iter()
                .map(|s| if w > 0.0 { s / w } else { 0.0 })
                .collect()
        })
        .collect();
    GossipVecOutcome {
        avg_estimates,
        rounds,
        total_bytes,
    }
}

/// Rounds needed for push-sum to drive the *diffusion error* below `eps`
/// with good probability — the `O(log N + log 1/ε)` bound the paper cites.
/// Used by callers that want a convergence-matched comparison.
pub fn recommended_rounds(n: usize, eps: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0, "eps out of (0, 1)");
    let n = n.max(2) as f64;
    (2.0 * (n.ln() + (1.0 / eps).ln())).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 13) as f64 + 1.0).collect()
    }

    #[test]
    fn converges_to_the_true_sum() {
        let mut rng = DetRng::new(11);
        let topo = Topology::random_regular(100, 6, &mut rng);
        let vals = values(100);
        let true_sum: f64 = vals.iter().sum();
        let rounds = recommended_rounds(100, 1e-4);
        let out = push_sum(&topo, &vals, rounds, &WireSizes::default(), &mut rng);
        assert!(
            out.max_relative_error(&[true_sum]) < 0.05,
            "error {} after {rounds} rounds",
            out.max_relative_error(&[true_sum])
        );
    }

    #[test]
    fn error_decreases_with_rounds() {
        let mut rng = DetRng::new(13);
        let topo = Topology::random_regular(64, 5, &mut rng);
        let vals = values(64);
        let true_sum: f64 = vals.iter().sum();
        let e_short = push_sum(&topo, &vals, 5, &WireSizes::default(), &mut DetRng::new(7))
            .max_relative_error(&[true_sum]);
        let e_long = push_sum(&topo, &vals, 60, &WireSizes::default(), &mut DetRng::new(7))
            .max_relative_error(&[true_sum]);
        assert!(e_long < e_short / 4.0, "short {e_short} vs long {e_long}");
    }

    #[test]
    fn mass_conservation_via_exact_average_of_estimweights() {
        // With weights summing to n and sums summing to Σv, a weighted
        // average of the per-peer estimates recovers the true average
        // exactly — the conservation invariant in disguise.
        let mut rng = DetRng::new(17);
        let topo = Topology::ring(10);
        let vals = values(10);
        let out = push_sum(&topo, &vals, 8, &WireSizes::default(), &mut rng);
        let truth: f64 = vals.iter().sum::<f64>();
        // Re-derive: Σ estimates·w = Σ s = truth; we can't see w here, but
        // an 8-round ring must at least keep every estimate finite and
        // positive.
        assert!(out
            .avg_estimates
            .iter()
            .all(|e| e[0].is_finite() && e[0] > 0.0));
        let sum_est: f64 = (0..10).map(|p| out.sum_estimates(p)[0]).sum::<f64>() / 10.0;
        assert!((sum_est - truth).abs() / truth < 0.5);
    }

    #[test]
    fn byte_accounting_is_rounds_times_peers() {
        let mut rng = DetRng::new(19);
        let topo = Topology::ring(10);
        let out = push_sum(&topo, &values(10), 7, &WireSizes::default(), &mut rng);
        assert_eq!(out.total_bytes, 7 * 10 * 8);
        assert_eq!(out.avg_bytes_per_peer(), 7.0 * 8.0);
        assert_eq!(out.rounds, 7);
    }

    #[test]
    fn gossip_costs_more_than_one_convergecast_for_scalar() {
        // The paper's §III-A rationale: hierarchical aggregation needs one
        // pass (s_a bytes per peer); gossip needs O(log N) rounds of 2·s_a.
        let n = 256;
        let conv_bytes_per_peer = 4.0 * (n as f64 - 1.0) / n as f64;
        let rounds = recommended_rounds(n, 1e-3);
        let gossip_bytes_per_peer = (rounds as u64 * 2 * 4) as f64;
        assert!(gossip_bytes_per_peer > 5.0 * conv_bytes_per_peer);
    }

    #[test]
    #[should_panic(expected = "one value per peer")]
    fn wrong_value_count_panics() {
        let topo = Topology::ring(4);
        let _ = push_sum(&topo, &[1.0], 1, &WireSizes::default(), &mut DetRng::new(1));
    }

    #[test]
    #[should_panic(expected = "neighbor")]
    fn isolated_peer_panics() {
        let topo = Topology::empty(3);
        let _ = push_sum(
            &topo,
            &[1.0, 2.0, 3.0],
            1,
            &WireSizes::default(),
            &mut DetRng::new(1),
        );
    }

    #[test]
    fn vector_push_sum_converges_componentwise() {
        let mut rng = DetRng::new(21);
        let topo = Topology::random_regular(80, 6, &mut rng);
        let values: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![i as f64, 1.0, (i % 7) as f64])
            .collect();
        let mut true_sums = vec![0.0; 3];
        for v in &values {
            for k in 0..3 {
                true_sums[k] += v[k];
            }
        }
        let rounds = recommended_rounds(80, 1e-4);
        let out = push_sum_vec(&topo, &values, rounds, &WireSizes::default(), &mut rng);
        assert!(
            out.max_relative_error(&true_sums) < 0.05,
            "error {}",
            out.max_relative_error(&true_sums)
        );
        // Every peer's estimate vector has the right dimension.
        assert!(out.avg_estimates.iter().all(|r| r.len() == 3));
        assert_eq!(out.sum_estimates(0).len(), 3);
    }

    #[test]
    fn vector_push_sum_bytes_amortize_the_weight() {
        let mut rng = DetRng::new(22);
        let topo = Topology::ring(10);
        let values = vec![vec![1.0; 5]; 10];
        let out = push_sum_vec(&topo, &values, 4, &WireSizes::default(), &mut rng);
        // (dim + 1) · s_a per message: one shared weight for 5 components.
        assert_eq!(out.total_bytes, 4 * 10 * 6 * 4);
        assert_eq!(out.avg_bytes_per_peer(), (4 * 6 * 4) as f64);
    }

    #[test]
    fn vector_push_sum_zero_dim_is_harmless() {
        let mut rng = DetRng::new(23);
        let topo = Topology::ring(4);
        let out = push_sum_vec(
            &topo,
            &vec![Vec::new(); 4],
            3,
            &WireSizes::default(),
            &mut rng,
        );
        assert!(out.avg_estimates.iter().all(Vec::is_empty));
        assert_eq!(out.total_bytes, 3 * 4 * 4); // weight-only messages
    }

    #[test]
    #[should_panic(expected = "different vector dimension")]
    fn vector_dimension_mismatch_panics() {
        let topo = Topology::ring(3);
        let _ = push_sum_vec(
            &topo,
            &[vec![1.0], vec![1.0, 2.0], vec![1.0]],
            1,
            &WireSizes::default(),
            &mut DetRng::new(1),
        );
    }

    #[test]
    fn sink_variant_matches_plain_and_reconciles_bytes() {
        let topo = Topology::ring(12);
        let vals = values(12);
        let plain = push_sum(&topo, &vals, 6, &WireSizes::default(), &mut DetRng::new(31));
        let mut sink = EventSink::new(12);
        sink.enter("gossip-filtering");
        let sunk = push_sum_with_sink(
            &topo,
            &vals,
            6,
            &WireSizes::default(),
            &mut DetRng::new(31),
            &mut sink,
        );
        sink.exit();
        assert_eq!(sunk.avg_estimates, plain.avg_estimates);
        assert_eq!(sunk.total_bytes, plain.total_bytes);
        let report = sink.report();
        assert_eq!(report.phase_bytes("gossip-filtering"), plain.total_bytes);
        // Every peer sends exactly once per round.
        let per_peer = report.phase_peer_bytes("gossip-filtering").unwrap();
        assert!(per_peer.iter().all(|&b| b == 6 * 8));
    }

    #[test]
    fn vec_sink_variant_falls_back_to_gossip_class_phase() {
        let topo = Topology::ring(5);
        let values = vec![vec![2.0; 3]; 5];
        let mut sink = EventSink::new(5);
        let out = push_sum_vec_with_sink(
            &topo,
            &values,
            2,
            &WireSizes::default(),
            &mut DetRng::new(33),
            &mut sink,
        );
        let report = sink.report();
        assert_eq!(report.phase_bytes("gossip"), out.total_bytes);
        assert_eq!(report.total_messages(), 2 * 5);
    }

    #[test]
    fn recommended_rounds_grows_with_n_and_precision() {
        assert!(recommended_rounds(1000, 1e-3) > recommended_rounds(10, 1e-3));
        assert!(recommended_rounds(100, 1e-6) > recommended_rounds(100, 1e-2));
    }
}
