//! Configurable network fault injection.
//!
//! [`FaultPlan`] is the kernel's one description of network loss: the
//! fault vocabulary a reliability layer must survive, from a uniform drop
//! rate through message duplication, delay spikes,
//! partitions, and deterministic drop schedules keyed by the kernel's
//! per-send sequence number. The default plan is inert and the kernel
//! skips fault evaluation entirely in that case, so a fault-free
//! simulation draws no randomness beyond its latency samples.

use std::collections::BTreeSet;

use crate::id::PeerId;
use crate::time::{Duration, SimTime};

/// A time-windowed network partition: while `[from, until)` is active,
/// messages with exactly one endpoint inside `group` are dropped. Checking
/// consumes no randomness, so adding a partition never perturbs the RNG
/// stream of the other fault draws.
#[derive(Debug, Clone)]
struct Partition {
    from: SimTime,
    until: SimTime,
    group: BTreeSet<PeerId>,
}

impl Partition {
    fn severs(&self, now: SimTime, a: PeerId, b: PeerId) -> bool {
        now >= self.from && now < self.until && (self.group.contains(&a) != self.group.contains(&b))
    }
}

/// A declarative description of the faults the network injects.
///
/// Probabilities compose in a fixed order per send: a scheduled drop (by
/// send sequence number) is checked first and consumes no randomness; then
/// the drop probability; then duplication; then a
/// delay spike on each surviving copy. All randomness comes from the kernel
/// PRNG, so runs remain bit-for-bit reproducible from the simulation seed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability that a message is silently lost.
    pub drop: f64,
    /// Probability that a delivered message arrives twice. The duplicate
    /// samples its own network delay, so duplicates also reorder.
    pub duplicate: f64,
    /// Probability that a delivered copy suffers an extra `spike` of delay.
    pub spike_probability: f64,
    /// Extra one-way delay added when a spike fires.
    pub spike: Duration,
    /// Send sequence numbers dropped deterministically, independent of any
    /// probability above. Useful for targeting a specific message.
    scheduled_drops: BTreeSet<u64>,
    /// Time-windowed partitions; boundary-crossing messages are dropped
    /// deterministically while a window is active.
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan that injects no faults at all (same as `Default`).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the base drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of [0,1]");
        self.drop = p;
        self
    }

    /// Sets the duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability out of [0,1]"
        );
        self.duplicate = p;
        self
    }

    /// Sets the delay-spike probability and magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_delay_spikes(mut self, p: f64, spike: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "spike probability out of [0,1]");
        self.spike_probability = p;
        self.spike = spike;
        self
    }

    /// Adds explicit send sequence numbers to drop deterministically.
    pub fn with_scheduled_drops(mut self, seqs: impl IntoIterator<Item = u64>) -> Self {
        self.scheduled_drops.extend(seqs);
        self
    }

    /// Partitions the network for `[from, until)`: every message with
    /// exactly one endpoint in `group` is dropped while the window is
    /// active. Traffic within `group`, and within its complement, is
    /// untouched. Multiple windows may overlap; a message is dropped if
    /// any active window severs it.
    pub fn with_partition(
        mut self,
        from: SimTime,
        until: SimTime,
        group: impl IntoIterator<Item = PeerId>,
    ) -> Self {
        self.partitions.push(Partition {
            from,
            until,
            group: group.into_iter().collect(),
        });
        self
    }

    /// Whether an active partition window severs the `(from, to)` pair at
    /// time `now`. Consumes no randomness.
    pub fn partitioned(&self, now: SimTime, from: PeerId, to: PeerId) -> bool {
        self.partitions.iter().any(|p| p.severs(now, from, to))
    }

    /// Whether this plan can never perturb a simulation. The kernel caches
    /// this so the fault path costs nothing when unused.
    pub(crate) fn is_inert(&self) -> bool {
        self.drop <= 0.0
            && self.duplicate <= 0.0
            && self.spike_probability <= 0.0
            && self.scheduled_drops.is_empty()
            && self.partitions.is_empty()
    }

    /// Whether send sequence `seq` is scheduled for a deterministic drop.
    pub(crate) fn drops_seq(&self, seq: u64) -> bool {
        self.scheduled_drops.contains(&seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::default().is_inert());
        assert!(FaultPlan::none().is_inert());
    }

    #[test]
    fn any_knob_makes_the_plan_active() {
        assert!(!FaultPlan::none().with_drop(0.1).is_inert());
        assert!(!FaultPlan::none().with_duplication(0.2).is_inert());
        assert!(!FaultPlan::none()
            .with_delay_spikes(0.3, Duration::from_millis(100))
            .is_inert());
        assert!(!FaultPlan::none().with_scheduled_drops([7]).is_inert());
    }

    #[test]
    fn scheduled_drops_are_exact() {
        let plan = FaultPlan::none().with_scheduled_drops([3, 5]);
        assert!(plan.drops_seq(3));
        assert!(plan.drops_seq(5));
        assert!(!plan.drops_seq(4));
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_probability_is_rejected() {
        let _ = FaultPlan::none().with_drop(1.5);
    }

    #[test]
    fn partition_severs_only_boundary_crossings_inside_the_window() {
        let t = SimTime::from_micros;
        let plan =
            FaultPlan::none().with_partition(t(100), t(200), [PeerId::new(0), PeerId::new(1)]);
        assert!(!plan.is_inert());
        let (a, b, c) = (PeerId::new(0), PeerId::new(1), PeerId::new(2));
        // Boundary crossings drop, both directions, only inside the window.
        assert!(plan.partitioned(t(100), a, c));
        assert!(plan.partitioned(t(199), c, b));
        assert!(!plan.partitioned(t(99), a, c), "window not yet open");
        assert!(!plan.partitioned(t(200), a, c), "window half-open at until");
        // Same-side traffic is untouched.
        assert!(!plan.partitioned(t(150), a, b));
        assert!(!plan.partitioned(t(150), c, PeerId::new(3)));
    }

    #[test]
    fn overlapping_partitions_compose() {
        let t = SimTime::from_micros;
        let plan = FaultPlan::none()
            .with_partition(t(0), t(100), [PeerId::new(0)])
            .with_partition(t(50), t(150), [PeerId::new(1)]);
        assert!(plan.partitioned(t(10), PeerId::new(0), PeerId::new(2)));
        assert!(plan.partitioned(t(120), PeerId::new(1), PeerId::new(2)));
        assert!(!plan.partitioned(t(120), PeerId::new(0), PeerId::new(2)));
    }
}
