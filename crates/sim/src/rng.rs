//! Deterministic randomness helpers.
//!
//! All stochastic choices in the workspace (topology wiring, zipf draws,
//! latency jitter, hash-family seeds, sampling) flow through explicitly
//! seeded generators so that every experiment is bit-for-bit reproducible.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A 64-bit finalizer in the splitmix64 family.
///
/// Used to derive independent sub-seeds from a master seed and as the
/// mixing core of the seeded hash family in the `netfilter` crate. The
/// function is a bijection on `u64`, so distinct inputs never collide.
///
/// ```
/// use ifi_sim::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42));
/// ```
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random number generator with seed-derivation helpers.
///
/// Thin wrapper over [`rand::rngs::StdRng`] that records its seed and can
/// spawn statistically independent children via [`DetRng::derive`], so a
/// single experiment seed fans out to every subsystem without accidental
/// stream reuse.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: StdRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator for a named subsystem.
    ///
    /// The child's seed is a mix of the parent seed and `stream`, so two
    /// different streams never observe correlated sequences.
    pub fn derive(&self, stream: u64) -> DetRng {
        DetRng::new(mix64(self.seed ^ mix64(stream)))
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Draws a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below: bound must be positive");
        self.inner.gen_range(0..bound)
    }

    /// Draws a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive: lo > hi");
        self.inner.gen_range(lo..=hi)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Draws an exponentially distributed value with the given mean.
    ///
    /// Used by churn/session-length models.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential: mean must be finite and positive"
        );
        let u: f64 = 1.0 - self.unit_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Draws a Weibull-distributed value with the given scale and shape
    /// (inverse-CDF sampling: `scale * (-ln U)^(1/shape)`).
    ///
    /// Shape `< 1` gives the heavy-tailed session lengths measured in P2P
    /// systems (many short sessions, a few very long ones); shape `= 1`
    /// reduces to the exponential with mean `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` or `shape` is not finite and positive.
    pub fn weibull(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(
            scale.is_finite() && scale > 0.0,
            "weibull: scale must be finite and positive"
        );
        assert!(
            shape.is_finite() && shape > 0.0,
            "weibull: shape must be finite and positive"
        );
        let u: f64 = (1.0 - self.unit_f64()).max(f64::MIN_POSITIVE); // in (0, 1]
        scale * (-u.ln()).powf(1.0 / shape)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (floyd's algorithm when
    /// `k << n`, full shuffle otherwise). Result is in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k > n");
        let mut out: Vec<usize>;
        if k * 4 >= n {
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            out = all;
        } else {
            let mut chosen = std::collections::HashSet::with_capacity(k);
            // Floyd's sampling: for j in n-k..n, pick t in [0, j]; insert t
            // or (if taken) j.
            for j in (n - k)..n {
                let t = self.below(j as u64 + 1) as usize;
                if !chosen.insert(t) {
                    chosen.insert(j);
                }
            }
            out = chosen.into_iter().collect();
        }
        out.sort_unstable();
        out
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        let a = mix64(0);
        let b = mix64(1);
        assert_ne!(a, b);
        // Avalanche sanity: flipping one input bit flips many output bits.
        let flipped = (a ^ mix64(1)).count_ones();
        assert!(flipped >= 16, "weak avalanche: {flipped} bits");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let root = DetRng::new(9);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(5);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let emp = sum / n as f64;
        assert!((emp - mean).abs() < 0.1 * mean, "empirical mean {emp}");
    }

    #[test]
    fn weibull_shape_one_matches_exponential_mean() {
        let mut r = DetRng::new(13);
        let n = 20_000;
        let scale = 5.0;
        let emp: f64 = (0..n).map(|_| r.weibull(scale, 1.0)).sum::<f64>() / n as f64;
        assert!((emp - scale).abs() < 0.1 * scale, "empirical mean {emp}");
    }

    #[test]
    fn weibull_below_one_is_heavier_tailed() {
        let mut r = DetRng::new(17);
        let n = 20_000;
        let frac_beyond = |shape: f64, r: &mut DetRng| {
            (0..n).filter(|_| r.weibull(1.0, shape) > 5.0).count() as f64 / n as f64
        };
        let heavy = frac_beyond(0.5, &mut r);
        let light = frac_beyond(2.0, &mut r);
        assert!(
            heavy > 10.0 * (light + 1e-9),
            "shape 0.5 tail {heavy} not heavier than shape 2 tail {light}"
        );
    }

    #[test]
    fn sample_indices_distinct_sorted() {
        let mut r = DetRng::new(3);
        for &(n, k) in &[(100usize, 5usize), (100, 80), (10, 10), (1, 0)] {
            let s = r.sample_indices(n, k);
            assert_eq!(s.len(), k);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(4);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut back = xs.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn unit_f64_in_range_and_not_constant() {
        let mut r = DetRng::new(6);
        let xs: Vec<f64> = (0..100).map(|_| r.unit_f64()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn prefix(rng: &mut DetRng, n: usize) -> Vec<u64> {
            (0..n).map(|_| rng.next_u64()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Distinct derived streams of the same parent never agree on
            /// any position of a 32-word prefix — the independence contract
            /// every subsystem (and now the schedule explorer's per-trial
            /// streams) relies on when fanning one seed out.
            #[test]
            fn derived_streams_are_pairwise_independent(
                seed in any::<u64>(),
                s1 in any::<u64>(),
                delta in 1u64..=u64::MAX,
            ) {
                let s2 = s1 ^ delta; // delta != 0, so the streams differ
                let root = DetRng::new(seed);
                let a = prefix(&mut root.derive(s1), 32);
                let b = prefix(&mut root.derive(s2), 32);
                prop_assert!(
                    a.iter().zip(&b).all(|(x, y)| x != y),
                    "streams {s1:#x} and {s2:#x} collided"
                );
            }

            /// Deriving is a pure function of `(seed, stream)`: it neither
            /// consumes parent state nor is affected by how much the parent
            /// or sibling streams have been consumed.
            #[test]
            fn derive_ignores_consumption_order(
                seed in any::<u64>(),
                stream in any::<u64>(),
                burn in 0usize..64,
            ) {
                let fresh = prefix(&mut DetRng::new(seed).derive(stream), 16);

                // Burn parent draws before deriving.
                let mut parent = DetRng::new(seed);
                let _ = prefix(&mut parent, burn);
                prop_assert_eq!(&prefix(&mut parent.derive(stream), 16), &fresh);

                // Burn a sibling stream before deriving.
                let root = DetRng::new(seed);
                let _ = prefix(&mut root.derive(stream ^ 1), burn.max(1));
                prop_assert_eq!(&prefix(&mut root.derive(stream), 16), &fresh);
            }

            /// The derivation tree does not collapse: child-of-child and
            /// same-depth streams with different paths diverge.
            #[test]
            fn derivation_paths_do_not_alias(
                seed in any::<u64>(),
                s1 in any::<u64>(),
                s2 in any::<u64>(),
            ) {
                let root = DetRng::new(seed);
                let nested = prefix(&mut root.derive(s1).derive(s2), 16);
                let flat = prefix(&mut root.derive(s2), 16);
                prop_assert!(nested.iter().zip(&flat).all(|(x, y)| x != y));
            }
        }
    }
}
