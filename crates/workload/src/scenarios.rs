//! The application scenarios of Table I, each reduced to IFI.
//!
//! The paper motivates IFI with seven concrete P2P operations (Table I).
//! Every generator here produces a [`SystemData`] — peer-local item sets
//! with local values — so that running `IFI(A, t)` on its output answers
//! the application question exactly as the table prescribes:
//!
//! | generator | operation | item | local value at peer `i` |
//! |-----------|-----------|------|--------------------------|
//! | [`keyword_queries`] | frequent keywords (cache management) | keyword | # of peer-`i` queries containing it |
//! | [`document_replicas`] | frequent documents (search design) | document | # replicas held at peer `i` |
//! | [`cooccurring_pairs`] | co-occurring keyword pairs (query refinement) | keyword pair | # of peer-`i` queries containing both |
//! | [`popular_peers`] | popular peers (mirroring, incentives) | peer | # queries it answered well for peer `i` |
//! | [`contacted_pairs`] | frequently contacted peer pairs (topology optimization, social analysis) | (src, dst) pair | # packets between the pair seen at peer `i` |
//! | [`flow_traffic`] | large flows to a destination (DoS detection) | destination | flow bytes to it observed at peer `i` |
//! | [`byte_sequences`] | frequent byte sequences (worm detection) | sequence | # flows through peer `i` containing it |

use ifi_sim::DetRng;

use crate::generator::{ItemId, SystemData};
use crate::zipf::ZipfSampler;

/// Encodes an unordered keyword pair `(a, b)` into a single item id.
///
/// # Panics
///
/// Panics if `a == b` or either exceeds `vocabulary`.
pub(crate) fn pair_item(a: u64, b: u64, vocabulary: u64) -> ItemId {
    assert!(a != b, "a keyword does not co-occur with itself");
    assert!(
        a < vocabulary && b < vocabulary,
        "keyword out of vocabulary"
    );
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ItemId(lo * vocabulary + hi)
}

/// Frequent-keyword workload: each peer issues `queries_per_peer` queries
/// of `keywords_per_query` distinct Zipf-popular keywords; the local value
/// of a keyword counts the peer's queries mentioning it.
pub fn keyword_queries(
    peers: usize,
    vocabulary: u64,
    queries_per_peer: usize,
    keywords_per_query: usize,
    theta: f64,
    seed: u64,
) -> SystemData {
    assert!(keywords_per_query as u64 <= vocabulary);
    let mut rng = DetRng::new(seed).derive(0x5EED_0001);
    let zipf = ZipfSampler::new(vocabulary as usize, theta);
    let mut local = Vec::with_capacity(peers);
    for _ in 0..peers {
        let mut counts: Vec<(ItemId, u64)> = Vec::new();
        for _ in 0..queries_per_peer {
            let mut kws = Vec::with_capacity(keywords_per_query);
            while kws.len() < keywords_per_query {
                let k = zipf.sample(&mut rng) as u64;
                if !kws.contains(&k) {
                    kws.push(k);
                }
            }
            for k in kws {
                counts.push((ItemId(k), 1));
            }
        }
        local.push(counts);
    }
    SystemData::from_local_sets(local, vocabulary)
}

/// Co-occurring keyword-pair workload built from the same query model as
/// [`keyword_queries`]; items are unordered pairs encoded by `pair_item`.
pub fn cooccurring_pairs(
    peers: usize,
    vocabulary: u64,
    queries_per_peer: usize,
    keywords_per_query: usize,
    theta: f64,
    seed: u64,
) -> SystemData {
    assert!(keywords_per_query >= 2, "pairs need ≥ 2 keywords per query");
    let mut rng = DetRng::new(seed).derive(0x5EED_0002);
    let zipf = ZipfSampler::new(vocabulary as usize, theta);
    let mut local = Vec::with_capacity(peers);
    for _ in 0..peers {
        let mut counts: Vec<(ItemId, u64)> = Vec::new();
        for _ in 0..queries_per_peer {
            let mut kws: Vec<u64> = Vec::with_capacity(keywords_per_query);
            while kws.len() < keywords_per_query {
                let k = zipf.sample(&mut rng) as u64;
                if !kws.contains(&k) {
                    kws.push(k);
                }
            }
            for i in 0..kws.len() {
                for j in (i + 1)..kws.len() {
                    counts.push((pair_item(kws[i], kws[j], vocabulary), 1));
                }
            }
        }
        local.push(counts);
    }
    SystemData::from_local_sets(local, vocabulary * vocabulary)
}

/// Document-replica workload: each document has a Zipf-popular replica
/// count; replicas land on uniformly random peers. The local value of a
/// document is the number of replicas the peer holds.
pub fn document_replicas(
    peers: usize,
    documents: u64,
    total_replicas: u64,
    theta: f64,
    seed: u64,
) -> SystemData {
    let mut rng = DetRng::new(seed).derive(0x5EED_0003);
    let zipf = ZipfSampler::new(documents as usize, theta);
    let replica_counts = zipf.apportion(total_replicas);
    let mut local: Vec<Vec<(ItemId, u64)>> = vec![Vec::new(); peers];
    for (doc, &count) in replica_counts.iter().enumerate() {
        for _ in 0..count {
            let p = rng.below(peers as u64) as usize;
            local[p].push((ItemId(doc as u64), 1));
        }
    }
    SystemData::from_local_sets(local, documents)
}

/// Popular-peer workload (content mirroring / incentives): each peer issues
/// queries; each query is answered satisfactorily by a Zipf-popular peer
/// (well-provisioned peers answer more). The *items are peer identifiers*.
pub fn popular_peers(peers: usize, queries_per_peer: usize, theta: f64, seed: u64) -> SystemData {
    let mut rng = DetRng::new(seed).derive(0x5EED_0004);
    let zipf = ZipfSampler::new(peers, theta);
    let mut local = Vec::with_capacity(peers);
    for _ in 0..peers {
        let mut counts: Vec<(ItemId, u64)> = Vec::new();
        for _ in 0..queries_per_peer {
            let answerer = zipf.sample(&mut rng) as u64;
            counts.push((ItemId(answerer), 1));
        }
        local.push(counts);
    }
    SystemData::from_local_sets(local, peers as u64)
}

/// DoS-detection workload: `flows` flows with Zipf-popular destinations and
/// exponential-ish sizes; each flow's packets transit `observers_per_flow`
/// random peers, each of which accumulates the flow's bytes against the
/// destination address. Item = destination, value = bytes.
pub fn flow_traffic(
    peers: usize,
    destinations: u64,
    flows: usize,
    observers_per_flow: usize,
    mean_flow_bytes: u64,
    theta: f64,
    seed: u64,
) -> SystemData {
    assert!(observers_per_flow >= 1 && observers_per_flow <= peers);
    let mut rng = DetRng::new(seed).derive(0x5EED_0005);
    let zipf = ZipfSampler::new(destinations as usize, theta);
    let mut local: Vec<Vec<(ItemId, u64)>> = vec![Vec::new(); peers];
    for _ in 0..flows {
        let dest = zipf.sample(&mut rng) as u64;
        let size = rng.exponential(mean_flow_bytes as f64).max(1.0) as u64;
        let observers = rng.sample_indices(peers, observers_per_flow);
        for p in observers {
            local[p].push((ItemId(dest), size));
        }
    }
    SystemData::from_local_sets(local, destinations)
}

/// Frequently-contacted-peer-pair workload (Table I, row 5): peers route
/// packets for each other and record the (source, destination) address
/// pairs they forward. Communication is assortative (each source talks
/// mostly to a few Zipf-favoured destinations), so some pairs dominate —
/// the input for "network topology optimization" and "social relationship
/// analysis". Items encode unordered address pairs via `pair_item` over
/// the peer-id space.
pub fn contacted_pairs(peers: usize, packets_per_peer: usize, theta: f64, seed: u64) -> SystemData {
    assert!(peers >= 3, "need at least 3 peers for src/dst/forwarder");
    let mut rng = DetRng::new(seed).derive(0x5EED_0008);
    // Each source's favourite destinations: a Zipf over a per-source
    // pseudo-random permutation offset, so favourites differ per source
    // while the pair distribution stays heavy-tailed.
    let zipf = ZipfSampler::new(peers - 1, theta);
    let mut local: Vec<Vec<(ItemId, u64)>> = vec![Vec::new(); peers];
    for _ in 0..peers * packets_per_peer {
        let src = rng.below(peers as u64);
        // Rank among the other peers, mapped to a concrete destination.
        let rank = zipf.sample(&mut rng) as u64;
        let dst = (src + 1 + (rank + ifi_sim::mix64(src) % 7) % (peers as u64 - 1)) % peers as u64;
        if src == dst {
            continue;
        }
        // A random third peer forwards (observes) the packet.
        let mut fwd = rng.below(peers as u64) as usize;
        while fwd as u64 == src || fwd as u64 == dst {
            fwd = rng.below(peers as u64) as usize;
        }
        local[fwd].push((pair_item(src, dst, peers as u64), 1));
    }
    SystemData::from_local_sets(local, (peers * peers) as u64)
}

/// Popular-peer workload driven by **actual overlay searches** (Table I,
/// row 4, mechanistic version): each peer issues queries for Zipf-popular
/// objects and resolves them by random walks over the overlay; the local
/// value of peer `X` at peer `i` counts the queries `X` answered
/// satisfactorily for `i`. Well-replicated peers (object holders) answer
/// more queries, so IFI over this data finds the system's de-facto
/// content servers — the "content mirroring / incentive mechanism" input.
///
/// Objects are replicated at `replicas` pseudo-random holders each.
/// Unresolved queries (walk budget exhausted) contribute nothing.
pub fn popular_peers_by_search(
    topology: &ifi_overlay::Topology,
    objects: u64,
    replicas: usize,
    queries_per_peer: usize,
    theta: f64,
    seed: u64,
) -> SystemData {
    use ifi_overlay::search::random_walk;

    let peers = topology.peer_count();
    assert!(replicas >= 1 && replicas <= peers);
    let mut rng = DetRng::new(seed).derive(0x5EED_0007);
    let zipf = ZipfSampler::new(objects as usize, theta);

    // Holder sets: `replicas` distinct peers per object.
    let holders: Vec<Vec<usize>> = (0..objects)
        .map(|_| rng.sample_indices(peers, replicas))
        .collect();

    let mut local: Vec<Vec<(ItemId, u64)>> = vec![Vec::new(); peers];
    #[allow(clippy::needless_range_loop)] // origin is both a peer id and an index
    for origin in 0..peers {
        for _ in 0..queries_per_peer {
            let object = zipf.sample(&mut rng);
            let hold = &holders[object];
            let outcome = random_walk(
                topology,
                ifi_sim::PeerId::new(origin),
                4,
                24,
                |p| hold.binary_search(&p.index()).is_ok(),
                &mut rng,
            );
            if let Some(&answerer) = outcome.found.first() {
                local[origin].push((ItemId(answerer.raw() as u64), 1));
            }
        }
    }
    SystemData::from_local_sets(local, peers as u64)
}

/// Worm-detection workload: each flow carries a few byte sequences
/// ("signatures"); a worm-like sequence appears in a large fraction of
/// flows. Item = byte-sequence id, value = number of flows through the
/// peer containing it. Sequence id 0 is the planted worm signature.
pub fn byte_sequences(
    peers: usize,
    sequences: u64,
    flows_per_peer: usize,
    worm_fraction: f64,
    seed: u64,
) -> SystemData {
    assert!((0.0..=1.0).contains(&worm_fraction));
    let mut rng = DetRng::new(seed).derive(0x5EED_0006);
    // Background sequences are uniformly popular; the worm rides on top.
    let zipf = ZipfSampler::new(sequences as usize, 0.5);
    let mut local = Vec::with_capacity(peers);
    for _ in 0..peers {
        let mut counts: Vec<(ItemId, u64)> = Vec::new();
        for _ in 0..flows_per_peer {
            // Every flow contains two background sequences …
            counts.push((ItemId(zipf.sample(&mut rng) as u64), 1));
            counts.push((ItemId(zipf.sample(&mut rng) as u64), 1));
            // … and the worm signature with probability `worm_fraction`.
            if rng.chance(worm_fraction) {
                counts.push((ItemId(0), 1));
            }
        }
        local.push(counts);
    }
    SystemData::from_local_sets(local, sequences)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a pair item id back into `(lo, hi)` keyword ids.
    fn decode_pair(item: ItemId, vocabulary: u64) -> (u64, u64) {
        (item.0 / vocabulary, item.0 % vocabulary)
    }
    use crate::stats::GroundTruth;

    #[test]
    fn keyword_queries_counts_queries_not_occurrences() {
        let data = keyword_queries(10, 100, 50, 3, 1.0, 1);
        let truth = GroundTruth::compute(&data);
        // 10 peers × 50 queries × 3 distinct keywords each.
        assert_eq!(truth.total_value(), 10 * 50 * 3);
        // Zipf head keyword should be clearly frequent.
        assert!(truth.value_of(ItemId(0)) > truth.value_of(ItemId(90)));
    }

    #[test]
    fn pair_item_round_trips_and_is_symmetric() {
        assert_eq!(pair_item(3, 7, 100), pair_item(7, 3, 100));
        let (lo, hi) = decode_pair(pair_item(3, 7, 100), 100);
        assert_eq!((lo, hi), (3, 7));
    }

    #[test]
    #[should_panic(expected = "does not co-occur with itself")]
    fn pair_item_rejects_self_pair() {
        let _ = pair_item(4, 4, 10);
    }

    #[test]
    fn cooccurring_pairs_mass_matches_query_count() {
        let data = cooccurring_pairs(5, 50, 20, 3, 1.0, 2);
        let truth = GroundTruth::compute(&data);
        // Each query of 3 keywords yields C(3,2) = 3 pairs.
        assert_eq!(truth.total_value(), 5 * 20 * 3);
        // All items decode to valid ordered pairs.
        for &(item, _) in truth.globals() {
            let (lo, hi) = decode_pair(item, 50);
            assert!(lo < hi && hi < 50);
        }
    }

    #[test]
    fn document_replicas_conserve_total() {
        let data = document_replicas(20, 500, 5_000, 1.0, 3);
        let truth = GroundTruth::compute(&data);
        assert_eq!(truth.total_value(), 5_000);
        // The most replicated document is document 0 (rank 1).
        assert_eq!(truth.globals()[0].0, ItemId(0));
    }

    #[test]
    fn popular_peers_items_are_peer_ids() {
        let data = popular_peers(30, 100, 1.2, 4);
        let truth = GroundTruth::compute(&data);
        assert_eq!(truth.total_value(), 30 * 100);
        for &(item, _) in truth.globals() {
            assert!(item.0 < 30);
        }
    }

    #[test]
    fn flow_traffic_hotspots_the_head_destination() {
        let data = flow_traffic(20, 1_000, 2_000, 3, 10_000, 1.5, 5);
        let truth = GroundTruth::compute(&data);
        let head = truth.value_of(ItemId(0));
        let tail = truth.value_of(ItemId(900));
        assert!(head > 10 * tail.max(1), "head {head} vs tail {tail}");
        // Every flow is observed by exactly 3 peers, so per-peer sets are
        // non-trivial.
        assert!(data.avg_distinct_per_peer() > 1.0);
    }

    #[test]
    fn byte_sequences_plant_a_detectable_worm() {
        let data = byte_sequences(20, 10_000, 200, 0.8, 6);
        let truth = GroundTruth::compute(&data);
        let worm = truth.value_of(ItemId(0));
        // Worm appears in ~80% of 20×200 flows; any background sequence in
        // far fewer.
        assert!(worm > 2_500, "worm value {worm}");
        let runner_up = truth
            .globals()
            .iter()
            .find(|&&(id, _)| id != ItemId(0))
            .map(|&(_, v)| v)
            .unwrap();
        assert!(worm > 5 * runner_up, "worm {worm} vs runner-up {runner_up}");
        // IFI at 50% of flows finds exactly the worm.
        let flows_total = 20 * 200;
        let frequent = truth.frequent_items(flows_total / 2);
        assert_eq!(frequent.len(), 1);
        assert_eq!(frequent[0].0, ItemId(0));
    }

    #[test]
    fn contacted_pairs_finds_chatty_address_pairs() {
        let data = contacted_pairs(40, 300, 1.4, 13);
        let truth = GroundTruth::compute(&data);
        assert!(truth.total_value() > 0);
        // Every item decodes to a valid, distinct address pair.
        for &(item, _) in truth.globals() {
            let (lo, hi) = decode_pair(item, 40);
            assert!(lo < hi && hi < 40, "bad pair {item}");
        }
        // Assortative traffic: the hottest pair dwarfs the median pair.
        let values: Vec<u64> = truth.globals().iter().map(|&(_, v)| v).collect();
        assert!(
            values[0] >= 5 * values[values.len() / 2].max(1),
            "top {} vs median {}",
            values[0],
            values[values.len() / 2]
        );
    }

    #[test]
    fn search_driven_popularity_credits_holders() {
        let topo = ifi_overlay::Topology::random_regular(80, 4, &mut ifi_sim::DetRng::new(11));
        let data = popular_peers_by_search(&topo, 200, 8, 40, 1.2, 12);
        let truth = GroundTruth::compute(&data);
        // Some queries resolve; every credited item is a valid peer id.
        assert!(truth.total_value() > 0);
        assert!(truth.total_value() <= 80 * 40);
        for &(item, _) in truth.globals() {
            assert!(item.0 < 80);
        }
        // The most credited peer answers far more than the median: holders
        // of popular objects dominate.
        let values: Vec<u64> = truth.globals().iter().map(|&(_, v)| v).collect();
        let max = values[0];
        let median = values[values.len() / 2];
        assert!(max >= 3 * median.max(1), "max {max} vs median {median}");
    }

    #[test]
    fn generators_are_deterministic() {
        let a = keyword_queries(5, 50, 10, 2, 1.0, 9);
        let b = keyword_queries(5, 50, 10, 2, 1.0, 9);
        let ta = GroundTruth::compute(&a);
        let tb = GroundTruth::compute(&b);
        assert_eq!(ta.globals(), tb.globals());
    }
}
