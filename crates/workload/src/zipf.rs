//! Zipf-distributed sampling.
//!
//! §V: *"We use zipf distribution (with data skewness parameter θ) to model
//! the distribution of values for items."* Rank `k ∈ 1..=n` is drawn with
//! probability proportional to `1/k^θ`; `θ = 0` degenerates to uniform.

use ifi_sim::DetRng;

/// A sampler over ranks `0..n` (0-based) with Zipf(θ) probabilities.
///
/// Built once per workload (cost `O(n)` time and memory for the cumulative
/// table), then each draw is a binary search — `O(log n)`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// `cdf[k]` = P(rank ≤ k), strictly increasing, last element 1.0.
    cdf: Vec<f64>,
    theta: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "zipf skew must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top end.
        *cdf.last_mut().expect("n > 0") = 1.0;
        ZipfSampler { cdf, theta }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one 0-based rank.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit_f64();
        // First index with cdf[i] >= u.
        self.cdf.partition_point(|&c| c < u)
    }

    /// The probability mass of 0-based rank `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - lo
    }

    /// Deterministically splits `total` units of mass over ranks
    /// proportionally to the Zipf pmf (largest-remainder rounding so the
    /// parts sum exactly to `total`). Used when a workload wants exact
    /// Zipf-shaped global values instead of multinomial sampling.
    pub fn apportion(&self, total: u64) -> Vec<u64> {
        let n = self.cdf.len();
        let mut out = Vec::with_capacity(n);
        let mut rema: Vec<(usize, f64)> = Vec::with_capacity(n);
        let mut assigned = 0u64;
        for k in 0..n {
            let exact = self.pmf(k) * total as f64;
            let base = exact.floor() as u64;
            assigned += base;
            out.push(base);
            rema.push((k, exact - base as f64));
        }
        // The `leftover` largest remainders, ties going to the lower rank.
        let leftover = ((total - assigned) as usize).min(n);
        if leftover > 0 {
            rema.select_nth_unstable_by(leftover - 1, |a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("finite remainders")
                    .then(a.0.cmp(&b.0))
            });
        }
        for &(k, _) in &rema[..leftover] {
            out[k] += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_theta_zero() {
        let z = ZipfSampler::new(100, 0.0);
        for k in 0..100 {
            assert!((z.pmf(k) - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_one_dominates_at_high_skew() {
        let z = ZipfSampler::new(1000, 2.0);
        assert!(z.pmf(0) > 0.6, "rank 1 mass {}", z.pmf(0));
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(999));
    }

    #[test]
    fn theta_one_harmonic_ratios() {
        let z = ZipfSampler::new(10, 1.0);
        // pmf(k) ∝ 1/(k+1): pmf(0)/pmf(1) = 2.
        assert!((z.pmf(0) / z.pmf(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = DetRng::new(123);
        let draws = 200_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in [0usize, 1, 5, 20] {
            let emp = counts[k] as f64 / draws as f64;
            let exp = z.pmf(k);
            assert!(
                (emp - exp).abs() < 0.15 * exp + 0.001,
                "rank {k}: empirical {emp:.5} vs pmf {exp:.5}"
            );
        }
    }

    #[test]
    fn sample_covers_full_range() {
        let z = ZipfSampler::new(5, 0.0);
        let mut rng = DetRng::new(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn apportion_sums_exactly() {
        for &(n, theta, total) in &[(10usize, 1.0f64, 1000u64), (100, 0.5, 12_345), (3, 3.0, 7)] {
            let z = ZipfSampler::new(n, theta);
            let parts = z.apportion(total);
            assert_eq!(parts.iter().sum::<u64>(), total);
            assert_eq!(parts.len(), n);
            // Monotone non-increasing in rank (pmf is).
            assert!(parts.windows(2).all(|w| w[0] >= w[1] || w[0] + 1 >= w[1]));
        }
    }

    #[test]
    fn apportion_breaks_remainder_ties_toward_lower_ranks() {
        // θ = 0 over 4 and 8 ranks: every pmf is exact, so every
        // remainder ties (0.75 and 0.625) and rank order alone decides.
        assert_eq!(ZipfSampler::new(4, 0.0).apportion(7), vec![2, 2, 2, 1]);
        assert_eq!(
            ZipfSampler::new(8, 0.0).apportion(13),
            vec![2, 2, 2, 2, 2, 1, 1, 1]
        );
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        // The constructor pins the tail to exactly 1.0 to absorb
        // floating-point shortfall (so a draw of u ≈ 1.0 can never fall
        // off the end of the table). Assert completeness with an epsilon
        // rather than exact equality so the test checks the accumulated
        // math and not merely the pin, and exercise a spread of (n, θ)
        // where rounding behaves differently.
        for &(n, theta) in &[(1usize, 2.0f64), (10, 0.0), (1_000, 1.2), (100_000, 0.8)] {
            let z = ZipfSampler::new(n, theta);
            assert!(
                z.cdf.windows(2).all(|w| w[0] <= w[1]),
                "n={n} θ={theta}: cdf not monotone"
            );
            let last = *z.cdf.last().unwrap();
            assert!(
                (last - 1.0).abs() < 1e-9,
                "n={n} θ={theta}: cdf tail {last} far from 1"
            );
            // Sampling relies on the tail covering the whole unit
            // interval: no cdf entry may exceed it.
            assert!(z.cdf.iter().all(|&c| c <= last));
            assert_eq!(z.len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_theta_panics() {
        let _ = ZipfSampler::new(10, -1.0);
    }
}
