//! Network behaviour: latency models and message loss.

use crate::rng::DetRng;
use crate::time::Duration;

/// Models the one-way delay of a point-to-point message.
///
/// The netFilter protocol's correctness does not depend on delay (it is an
/// asynchronous convergecast), but delays exercise reordering paths and make
/// the completion-detection logic honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(Duration),
    /// Uniformly distributed delay in `[lo, hi]`.
    Uniform {
        /// Minimum one-way delay.
        lo: Duration,
        /// Maximum one-way delay.
        hi: Duration,
    },
    /// Exponentially distributed delay with the given mean, truncated at
    /// `10 * mean` to keep the event horizon bounded.
    Exponential {
        /// Mean one-way delay.
        mean: Duration,
    },
}

impl Default for LatencyModel {
    /// 50 ms constant delay — a plausible wide-area one-way latency.
    fn default() -> Self {
        LatencyModel::Constant(Duration::from_millis(50))
    }
}

impl LatencyModel {
    /// Samples a one-way delay.
    pub(crate) fn sample(&self, rng: &mut DetRng) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                let (a, b) = (lo.as_micros(), hi.as_micros());
                assert!(a <= b, "uniform latency: lo > hi");
                Duration::from_micros(rng.range_inclusive(a, b))
            }
            LatencyModel::Exponential { mean } => {
                let m = mean.as_micros() as f64;
                let d = rng.exponential(m.max(1.0)).min(10.0 * m);
                Duration::from_micros(d as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut rng = DetRng::new(1);
        let m = LatencyModel::Constant(Duration::from_millis(5));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), Duration::from_millis(5));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = DetRng::new(2);
        let lo = Duration::from_millis(10);
        let hi = Duration::from_millis(20);
        let m = LatencyModel::Uniform { lo, hi };
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= lo && d <= hi);
        }
    }

    #[test]
    fn exponential_is_truncated() {
        let mut rng = DetRng::new(3);
        let mean = Duration::from_millis(10);
        let m = LatencyModel::Exponential { mean };
        for _ in 0..5000 {
            assert!(m.sample(&mut rng) <= Duration::from_millis(100));
        }
    }

    #[test]
    fn default_is_50ms() {
        assert_eq!(
            LatencyModel::default(),
            LatencyModel::Constant(Duration::from_millis(50))
        );
    }
}
