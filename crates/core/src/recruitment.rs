//! Stable-peer recruitment as a first-class pipeline — §III-A.
//!
//! *"we only recruit peers that are more stable … to perform netFilter
//! where other peers forward their local item sets to one of these peers
//! participating in netFilter."*
//!
//! [`RecruitedSystem::recruit`] takes the full-population data set and an
//! [`Overlay`] with participants selected, folds every non-participant's
//! local item set into its attachment target, prices that forwarding
//! (`(s_a + s_i)` per pair, one hop to the participant), and builds the
//! hierarchy over the (connected) participant subgraph — everything a
//! netFilter run over a recruited system needs, with nothing lost:
//! the folded data conserves total mass exactly, so the answer still
//! covers **all** peers' data.

use ifi_agg::WireSizes;
use ifi_hierarchy::Hierarchy;
use ifi_overlay::Overlay;
use ifi_sim::{DetRng, PeerId, PeerMap};
use ifi_workload::{ItemId, SystemData};

/// A recruited system, ready to query.
#[derive(Debug, Clone)]
pub struct RecruitedSystem {
    /// The hierarchy over participants (universe = all peers; only
    /// participants are members).
    pub hierarchy: Hierarchy,
    /// The folded data set: participants hold their own data plus their
    /// attached peers' data; non-participants hold nothing.
    pub folded: SystemData,
    /// Bytes spent by non-participants forwarding their local item sets
    /// to their attachment targets — sparse: only attached peers appear.
    pub report_bytes: PeerMap<u64>,
}

impl RecruitedSystem {
    /// Assembles the pipeline: connects the participant subgraph if
    /// needed, roots the hierarchy at a random participant, folds
    /// attachments, and prices the reporting.
    ///
    /// # Panics
    ///
    /// Panics if `overlay` and `data` cover different universes.
    pub fn recruit(
        mut overlay: Overlay,
        data: &SystemData,
        sizes: &WireSizes,
        rng: &mut DetRng,
    ) -> Self {
        assert_eq!(
            overlay.peer_count(),
            data.peer_count(),
            "overlay and data peer universes differ"
        );
        overlay.connect_participants(rng);
        let participants = overlay.participants();
        let root = participants[rng.below(participants.len() as u64) as usize];
        let hierarchy =
            Hierarchy::bfs_filtered(overlay.topology(), root, |p| overlay.is_participant(p));

        let n = data.peer_count();
        let mut local: Vec<Vec<(ItemId, u64)>> = (0..n)
            .map(|i| {
                let p = PeerId::new(i);
                if overlay.is_participant(p) {
                    data.local_items(p).to_vec()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut report_bytes = PeerMap::new();
        for i in 0..n {
            let p = PeerId::new(i);
            if let Some(target) = overlay.attachment(p) {
                let items = data.local_items(p);
                report_bytes.insert(p, sizes.pair() * items.len() as u64);
                local[target.index()].extend(items.iter().copied());
            }
        }
        RecruitedSystem {
            hierarchy,
            folded: SystemData::from_local_sets(local, data.universe()),
            report_bytes,
        }
    }

    /// Average reporting bytes per peer (over the whole population) — the
    /// §III-A forwarding cost the paper's accounting leaves out because it
    /// is common to netFilter and the naive approach alike.
    pub fn avg_report_bytes(&self) -> f64 {
        let n = self.folded.peer_count().max(1);
        self.report_bytes.values().sum::<u64>() as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetFilter, NetFilterConfig, Threshold};
    use ifi_overlay::churn::{ChurnSchedule, SessionModel};
    use ifi_overlay::{StableSelection, Topology};
    use ifi_sim::{Duration, SimTime};
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn build(seed: u64, fraction: f64) -> (RecruitedSystem, SystemData) {
        let n = 120;
        let mut rng = DetRng::new(seed);
        let topo = Topology::random_regular(n, 4, &mut rng);
        let sched = ChurnSchedule::generate(
            n,
            SessionModel::Exponential {
                mean_on: Duration::from_secs(300),
                mean_off: Duration::from_secs(300),
            },
            SimTime::from_micros(3_600_000_000),
            &mut rng,
        );
        let overlay = Overlay::recruit(
            topo,
            &sched,
            StableSelection::TopFraction(fraction),
            &mut rng,
        );
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: n,
                items: 3_000,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        );
        let sys = RecruitedSystem::recruit(overlay, &data, &WireSizes::default(), &mut rng);
        (sys, data)
    }

    #[test]
    fn folding_conserves_mass_and_answers_over_everyone() {
        let (sys, data) = build(401, 0.3);
        assert_eq!(sys.folded.total_value(), data.total_value());

        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(0.01);
        let run = NetFilter::new(
            NetFilterConfig::builder()
                .filter_size(50)
                .filters(3)
                .threshold(Threshold::Ratio(0.01))
                .build(),
        )
        .run(&sys.hierarchy, &sys.folded);
        assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
    }

    #[test]
    fn only_non_participants_pay_reporting() {
        let (sys, data) = build(403, 0.4);
        for i in 0..data.peer_count() {
            let p = PeerId::new(i);
            let is_member = sys.hierarchy.is_member(p);
            let paid = sys.report_bytes.get(p).copied().unwrap_or(0);
            if is_member {
                assert_eq!(paid, 0, "participant {p} paid reporting");
            } else {
                assert_eq!(
                    paid,
                    8 * data.local_items(p).len() as u64,
                    "non-participant {p} pays one pair per local item"
                );
            }
        }
        assert!(sys.avg_report_bytes() > 0.0);
    }

    #[test]
    fn more_participants_less_reporting() {
        let (sparse, _) = build(405, 0.2);
        let (dense, _) = build(405, 0.8);
        assert!(dense.avg_report_bytes() < sparse.avg_report_bytes());
        assert!(dense.hierarchy.member_count() > sparse.hierarchy.member_count());
    }

    #[test]
    fn hierarchy_spans_exactly_the_participants() {
        let (sys, data) = build(407, 0.3);
        assert_eq!(sys.hierarchy.member_count(), 36); // ceil(120 · 0.3)
                                                      // Non-members hold no folded data.
        for i in 0..data.peer_count() {
            let p = PeerId::new(i);
            if !sys.hierarchy.is_member(p) {
                assert!(sys.folded.local_items(p).is_empty());
            }
        }
    }
}
