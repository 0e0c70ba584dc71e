//! Virtual time for the simulator.
//!
//! [`SimTime`] is an absolute instant on the simulated clock; [`Duration`]
//! is a span between instants. Both have microsecond resolution and wrap a
//! plain `u64`, so they are `Copy` and totally ordered.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulated clock, in microseconds since the
/// start of the simulation.
///
/// ```
/// use ifi_sim::{SimTime, Duration};
/// let t = SimTime::ZERO + Duration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Returns the instant as microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: `earlier` is later than `self`"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.duration_since(rhs)
    }
}

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Returns the duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Duration::from_millis(3).as_micros(), 3_000);
        assert_eq!(Duration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_micros(42).as_micros(), 42);
    }

    #[test]
    fn arithmetic_round_trips() {
        let t0 = SimTime::from_micros(100);
        let t1 = t0 + Duration::from_micros(50);
        assert_eq!(t1 - t0, Duration::from_micros(50));
        assert_eq!(t1.duration_since(t0).as_micros(), 50);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += Duration::from_secs(1);
        assert_eq!(t.as_secs_f64(), 1.0);
    }

    #[test]
    fn saturates_at_max() {
        let t = SimTime::MAX + Duration::from_secs(10);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_backwards() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_micros(1));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", Duration::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", SimTime::from_micros(1)), "0.000001s");
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(Duration::from_millis(1) < Duration::from_secs(1));
    }
}
