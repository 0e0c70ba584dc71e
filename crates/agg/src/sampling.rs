//! Random-branch sampling for practical parameter tuning — §IV-E.
//!
//! To set `g` and `f` optimally, netFilter needs `v̄`, `v̄_light`, `n`, and
//! `r` (Eq. 3 and 6). The paper estimates them by sampling: *"randomly
//! select a few branches in the hierarchy … Each of the sampled peers
//! randomly selects some of the local items from its local item set, for
//! which the aggregates are collected from these sampled peers"*, then
//! scales the sampled aggregates by `v / Σ v'` (Eq. 7–8).
//!
//! The paper leaves the `n` and `r` estimators as "similar fashion"; our
//! concrete choices (documented in DESIGN.md):
//!
//! * `r̂` — the number of *scaled* sampled aggregates `v̂_i ≥ t`. Heavy
//!   items are spread over many peers, so they are present at the sampled
//!   peers with overwhelming probability and their scaled aggregates are
//!   nearly unbiased.
//! * `n̂` — an occupancy estimator: a sampled-peer fraction `ρ` sees an
//!   item of global value `w` with probability `1 − (1−ρ)^w`, so the
//!   number of distinct items visible at the sampled peers is
//!   `x_all ≈ n·(1−(1−ρ)^{v/n})`, which is monotone in `n` and solved by
//!   binary search.

use std::collections::{BTreeMap, BTreeSet};

use ifi_hierarchy::Hierarchy;
use ifi_sim::{DetRng, EventSink, MsgClass, PeerSet};
use ifi_workload::{ItemId, SystemData};

use crate::wire::WireSizes;

/// How much to sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Number of random root-to-leaf branches whose peers are sampled.
    pub branches: usize,
    /// Local items each sampled peer contributes aggregates for.
    pub items_per_peer: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            branches: 4,
            items_per_peer: 200,
        }
    }
}

/// Estimates produced by one sampling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledStats {
    /// Eq. 8: mean of the scaled sampled aggregates, `Σ v̂_i / x`.
    pub(crate) v_bar_sampled: f64,
    /// Eq. 7: mean of the scaled sampled aggregates below `t`.
    pub v_light_bar: f64,
    /// Occupancy estimate of the number of distinct items `n`.
    pub n_hat: u64,
    /// Estimate of the number of heavy items `r`.
    pub r_hat: u64,
    /// Peers on the sampled branches.
    pub sampled_peers: usize,
    /// Distinct items whose aggregates were sampled (`x` in the paper).
    pub sampled_items: usize,
    /// Sampling traffic: each sampled peer ships `(id, value)` pairs for
    /// its selected items.
    pub bytes: u64,
}

impl SampledStats {
    /// Universe-average item value `v / n̂`, the `v̄` that Eq. 3 pairs with
    /// `v̄_light` (the paper's `v = n·v̄` identity).
    pub fn v_bar_universe(&self, total_value: u64) -> f64 {
        if self.n_hat == 0 {
            0.0
        } else {
            total_value as f64 / self.n_hat as f64
        }
    }
}

/// Runs the §IV-E sampling pass over `hierarchy` and `data`.
///
/// `t` is the absolute threshold (the paper assumes `v`, and hence
/// `t = φ·v`, is already known from a scalar aggregate computation).
///
/// # Panics
///
/// Panics if `config.branches == 0` or `items_per_peer == 0`.
pub fn estimate(
    hierarchy: &Hierarchy,
    data: &SystemData,
    t: u64,
    config: &SamplingConfig,
    sizes: &WireSizes,
    rng: &mut DetRng,
) -> SampledStats {
    estimate_with_sink(
        hierarchy,
        data,
        t,
        config,
        sizes,
        rng,
        &mut EventSink::disabled(),
    )
}

/// [`estimate`] that additionally charges each sampled peer's `(id,
/// value)` pairs into `sink` (class [`MsgClass::SAMPLING`]). Recording
/// draws no randomness, so the estimates are identical to the plain
/// variant.
///
/// # Panics
///
/// As [`estimate`]; additionally if an enabled `sink` was sized for a
/// different peer universe.
#[allow(clippy::too_many_arguments)]
pub fn estimate_with_sink(
    hierarchy: &Hierarchy,
    data: &SystemData,
    t: u64,
    config: &SamplingConfig,
    sizes: &WireSizes,
    rng: &mut DetRng,
    sink: &mut EventSink,
) -> SampledStats {
    assert!(config.branches > 0, "need at least one branch");
    assert!(config.items_per_peer > 0, "need at least one item per peer");
    let v = data.total_value();

    // 1. Sample peers: union of random root-to-leaf branches.
    let mut sampled = PeerSet::new();
    for _ in 0..config.branches {
        sampled.extend(hierarchy.random_branch(rng));
    }

    // 2. Each sampled peer randomly selects local items; the union is the
    //    sampled item set X.
    let mut selected: BTreeSet<ItemId> = BTreeSet::new();
    let mut bytes = 0u64;
    for p in sampled.iter() {
        let items = data.local_items(p);
        let k = config.items_per_peer.min(items.len());
        if k == 0 {
            continue;
        }
        for idx in rng.sample_indices(items.len(), k) {
            selected.insert(items[idx].0);
        }
        bytes += sizes.pair() * k as u64;
        sink.record(p, MsgClass::SAMPLING, sizes.pair() * k as u64);
    }

    // 3. Aggregates for X over the sampled peers only: v'_i.
    let mut partial: BTreeMap<ItemId, u64> = selected.iter().map(|&i| (i, 0)).collect();
    for p in sampled.iter() {
        for &(id, val) in data.local_items(p) {
            if let Some(acc) = partial.get_mut(&id) {
                *acc += val;
            }
        }
    }
    let sum_partial: u64 = partial.values().sum();
    let x = partial.len();

    // 4. Scale: v̂_i = v'_i · v / Σ v'_j   (§IV-E).
    let scale = if sum_partial == 0 {
        0.0
    } else {
        v as f64 / sum_partial as f64
    };
    let scaled: Vec<f64> = partial.values().map(|&w| w as f64 * scale).collect();

    let v_bar_sampled = if x == 0 {
        0.0
    } else {
        scaled.iter().sum::<f64>() / x as f64
    };
    let light: Vec<f64> = scaled.iter().copied().filter(|&w| w < t as f64).collect();
    let v_light_bar = if light.is_empty() {
        0.0
    } else {
        light.iter().sum::<f64>() / light.len() as f64
    };
    let r_hat = scaled.iter().filter(|&&w| w >= t as f64).count() as u64;

    // 5. Estimate n from the *full* item counts at the sampled peers: the
    //    occupancy solver assumes equal-valued items (exact for θ = 0), the
    //    Chao1 richness estimator handles skewed tails; take the larger of
    //    the two lower-bound-flavoured estimates.
    let mut abundance: BTreeMap<ItemId, u64> = BTreeMap::new();
    for p in sampled.iter() {
        for &(id, val) in data.local_items(p) {
            *abundance.entry(id).or_insert(0) += val;
        }
    }
    let x_all = abundance.len();
    let members = hierarchy.member_count().max(1);
    let rho = sampled.len() as f64 / members as f64;
    let occupancy = solve_occupancy(x_all as f64, rho, v as f64);
    let f1 = abundance.values().filter(|&&c| c == 1).count() as f64;
    let f2 = abundance.values().filter(|&&c| c == 2).count() as f64;
    let chao1 = if f2 > 0.0 {
        x_all as f64 + f1 * f1 / (2.0 * f2)
    } else {
        x_all as f64 + f1 * (f1 - 1.0) / 2.0 // bias-corrected form at F2 = 0
    };
    let n_hat = occupancy.max(chao1.round() as u64);

    SampledStats {
        v_bar_sampled,
        v_light_bar,
        n_hat,
        r_hat,
        sampled_peers: sampled.len(),
        sampled_items: x,
        bytes,
    }
}

/// Solves `x_all = n · (1 − (1−ρ)^{v/n})` for `n` by binary search; the
/// right-hand side is increasing in `n` with asymptote `−ln(1−ρ)·v`.
fn solve_occupancy(x_all: f64, rho: f64, v: f64) -> u64 {
    if x_all <= 0.0 || v <= 0.0 {
        return 0;
    }
    if rho >= 1.0 {
        // Sampled everyone: x_all is exact.
        return x_all as u64;
    }
    let phi = |n: f64| n * (1.0 - (1.0 - rho).powf(v / n));
    let mut lo = x_all.max(1.0);
    let mut hi = v.max(lo); // n cannot exceed the number of instances
    if phi(hi) <= x_all {
        return hi as u64; // saturated: every instance is a distinct item
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if phi(mid) < x_all {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn setup(theta: f64, seed: u64) -> (Hierarchy, SystemData, GroundTruth) {
        let params = WorkloadParams {
            peers: 200,
            items: 5_000,
            instances_per_item: 10,
            theta,
        };
        let data = SystemData::generate(&params, seed);
        let truth = GroundTruth::compute(&data);
        let h = Hierarchy::balanced(200, 3);
        (h, data, truth)
    }

    #[test]
    fn estimates_track_ground_truth() {
        let (h, data, truth) = setup(1.0, 21);
        let t = truth.threshold_for_ratio(0.01);
        let cfg = SamplingConfig {
            branches: 24,
            items_per_peer: 250,
        };
        let stats = estimate(
            &h,
            &data,
            t,
            &cfg,
            &WireSizes::default(),
            &mut DetRng::new(5),
        );

        // r̂ within a factor of two of the true heavy count.
        let r = truth.heavy_count(t) as f64;
        assert!(r >= 1.0);
        assert!(
            (stats.r_hat as f64) >= r / 2.0 && (stats.r_hat as f64) <= r * 2.0,
            "r̂ = {} vs r = {r}",
            stats.r_hat
        );

        // n̂ within a factor of two of the universe size.
        let n = data.universe() as f64;
        assert!(
            (stats.n_hat as f64) >= n / 2.0 && (stats.n_hat as f64) <= n * 2.0,
            "n̂ = {} vs n = {n}",
            stats.n_hat
        );

        // v̄_light within a factor of three of truth (light values are
        // tiny integers, so the sampled ratio is coarse).
        let vl = truth.avg_light_value(t);
        assert!(
            stats.v_light_bar > vl / 3.0 && stats.v_light_bar < vl * 3.0,
            "v̄_light = {} vs {vl}",
            stats.v_light_bar
        );
    }

    #[test]
    fn v_bar_universe_uses_n_hat() {
        let (h, data, truth) = setup(1.0, 22);
        let t = truth.threshold_for_ratio(0.01);
        let stats = estimate(
            &h,
            &data,
            t,
            &SamplingConfig::default(),
            &WireSizes::default(),
            &mut DetRng::new(6),
        );
        let vb = stats.v_bar_universe(truth.total_value());
        let true_vb = truth.avg_value();
        assert!(
            vb > true_vb / 3.0 && vb < true_vb * 3.0,
            "{vb} vs {true_vb}"
        );
    }

    #[test]
    fn more_branches_cost_more_bytes() {
        let (h, data, truth) = setup(1.0, 23);
        let t = truth.threshold_for_ratio(0.01);
        let small = estimate(
            &h,
            &data,
            t,
            &SamplingConfig {
                branches: 2,
                items_per_peer: 50,
            },
            &WireSizes::default(),
            &mut DetRng::new(7),
        );
        let big = estimate(
            &h,
            &data,
            t,
            &SamplingConfig {
                branches: 16,
                items_per_peer: 50,
            },
            &WireSizes::default(),
            &mut DetRng::new(7),
        );
        assert!(big.bytes > small.bytes);
        assert!(big.sampled_peers >= small.sampled_peers);
        assert!(big.sampled_items >= small.sampled_items);
    }

    #[test]
    fn occupancy_solver_edge_cases() {
        // Full sampling: exact count.
        assert_eq!(solve_occupancy(500.0, 1.0, 10_000.0), 500);
        // No items seen: zero.
        assert_eq!(solve_occupancy(0.0, 0.1, 10_000.0), 0);
        // Monotone: more observed distinct items → larger n̂.
        let a = solve_occupancy(100.0, 0.1, 10_000.0);
        let b = solve_occupancy(300.0, 0.1, 10_000.0);
        assert!(b > a);
    }

    #[test]
    fn occupancy_solver_recovers_known_n() {
        // Forward-simulate: n = 2000, v = 20000 (avg value 10), ρ = 0.15
        // → expected x_all = n(1-(1-ρ)^10).
        let n = 2000.0;
        let rho = 0.15f64;
        let v = 20_000.0;
        let x_all = n * (1.0 - (1.0 - rho).powf(v / n));
        let n_hat = solve_occupancy(x_all, rho, v);
        assert!(
            (n_hat as f64 - n).abs() < 0.02 * n,
            "n̂ = {n_hat} for true n = {n}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (h, data, truth) = setup(0.8, 24);
        let t = truth.threshold_for_ratio(0.01);
        let cfg = SamplingConfig::default();
        let a = estimate(
            &h,
            &data,
            t,
            &cfg,
            &WireSizes::default(),
            &mut DetRng::new(9),
        );
        let b = estimate(
            &h,
            &data,
            t,
            &cfg,
            &WireSizes::default(),
            &mut DetRng::new(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn sink_variant_matches_plain_and_accounts_traffic() {
        let (h, data, truth) = setup(1.0, 26);
        let t = truth.threshold_for_ratio(0.01);
        let cfg = SamplingConfig {
            branches: 6,
            items_per_peer: 80,
        };
        let plain = estimate(
            &h,
            &data,
            t,
            &cfg,
            &WireSizes::default(),
            &mut DetRng::new(12),
        );
        let mut sink = EventSink::new(data.peer_count());
        let sunk = estimate_with_sink(
            &h,
            &data,
            t,
            &cfg,
            &WireSizes::default(),
            &mut DetRng::new(12),
            &mut sink,
        );
        assert_eq!(sunk, plain);
        let report = sink.report();
        assert_eq!(report.phase_bytes("sampling"), plain.bytes);
        assert_eq!(
            report.phase("sampling").unwrap().active_peers(),
            plain.sampled_peers
        );
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn zero_branches_panics() {
        let (h, data, _) = setup(1.0, 25);
        let _ = estimate(
            &h,
            &data,
            10,
            &SamplingConfig {
                branches: 0,
                items_per_peer: 1,
            },
            &WireSizes::default(),
            &mut DetRng::new(1),
        );
    }
}
