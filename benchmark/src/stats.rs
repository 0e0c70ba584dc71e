//! Order statistics for the benchmark's samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of integer samples.
pub fn median_u64(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// The percentiles [`hi_percentile`] chooses among, ascending, in tenths
/// of a percent (integers, so a rank never hinges on float rounding).
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// 1-based nearest rank of the `permille`/10-th percentile of `n` samples.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest percentile of [`LADDER`] that still has at least ten of
/// the `n` samples beyond it (the choosing-metrics rule); the median when
/// `n` is too small for any rung to qualify.
pub fn hi_percentile(n: usize) -> f64 {
    let best = LADDER
        .iter()
        .copied()
        .filter(|&p| n >= 1 && n - rank(p, n) >= 10)
        .fold(LADDER[0], usize::max);
    best as f64 / 10.0
}

/// Nearest-rank percentile `p` of `xs`; `0.0` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank((p * 10.0).round() as usize, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn picker_returns_highest_percentile_with_ten_samples_beyond() {
        // n, expected percentile: exactly ten beyond qualifies, nine do not.
        for (n, want) in [
            (5, 50.0),
            (20, 50.0),
            (39, 50.0),
            (40, 75.0),
            (99, 75.0),
            (100, 90.0),
            (199, 90.0),
            (200, 95.0),
            (999, 95.0),
            (1000, 99.0),
            (9_999, 99.0),
            (10_000, 99.9),
        ] {
            assert_eq!(hi_percentile(n), want, "n = {n}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.9), 100.0);
    }
}
