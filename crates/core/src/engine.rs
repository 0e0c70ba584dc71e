//! The netFilter query engine — Algorithm 1 + 2 as one DES epoch.
//!
//! [`NetFilter::run`] builds a [`World`](ifi_sim::World) of
//! [`NetFilterProtocol`] cores over the hierarchy, runs it to quiescence
//! on a reliable network and reads the run back: the answer from the
//! root's delivery, the per-peer, per-phase bytes off the world's meter,
//! and the run counts from what the root holds (its phase-2 candidate
//! map and the heavy groups it disseminated). An epoch is about `4N`
//! message events whatever the item universe `n` is — `n` sizes the
//! payloads, not the event count — so the figures run the protocol at
//! paper scale (`N = 10^3`, `n = 10^6`) directly.

use ifi_agg::{MapSum, WireSizes};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{Metrics, MetricsReport, MsgClass, PeerId, SimConfig};
use ifi_workload::{ItemId, SystemData};

use crate::config::NetFilterConfig;
use crate::hashing::HashFamily;
use crate::phases;
use crate::protocol::NetFilterProtocol;

/// The netFilter query engine.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone)]
pub struct NetFilter {
    config: NetFilterConfig,
}

impl NetFilter {
    /// Creates an engine with the given configuration.
    pub fn new(config: NetFilterConfig) -> Self {
        NetFilter { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NetFilterConfig {
        &self.config
    }

    /// Runs both phases over `hierarchy` and `data` and returns the exact
    /// frequent-item set plus full cost accounting.
    ///
    /// The preliminary scalar aggregations for `v` and `N` (§IV) cost one
    /// `s_a` value per peer each and are *not* included in the reported
    /// cost, matching the paper's accounting.
    ///
    /// # Panics
    ///
    /// Panics if `hierarchy` and `data` cover different peer universes.
    pub fn run(&self, hierarchy: &Hierarchy, data: &SystemData) -> NetFilterRun {
        self.run_instrumented(hierarchy, data).0
    }

    /// Like [`run`](Self::run), but also returns the world's
    /// [`MetricsReport`]: the three phases under the [`phases`] labels
    /// (reconciled byte-for-byte with the returned [`CostBreakdown`]) and
    /// the scheduler loop's wall-clock time under [`phases::SCHEDULER`].
    pub fn run_instrumented(
        &self,
        hierarchy: &Hierarchy,
        data: &SystemData,
    ) -> (NetFilterRun, MetricsReport) {
        self.run_des(hierarchy, data, SimConfig::default())
    }

    /// One epoch under `sim` — the driver behind [`run`](Self::run) and
    /// [`ExactEngine`](crate::engines::ExactEngine).
    pub(crate) fn run_des(
        &self,
        hierarchy: &Hierarchy,
        data: &SystemData,
        sim: SimConfig,
    ) -> (NetFilterRun, MetricsReport) {
        let mut w = NetFilterProtocol::build_world(&self.config, hierarchy, data, sim);
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();
        let root = w.peer(hierarchy.root());
        let [delivery] = root.delivered() else {
            panic!("a quiescent epoch delivers one answer at the root");
        };
        let candidates = root.candidates().expect("the root holds its candidates");
        let cost = CostBreakdown::from_metrics(w.metrics());
        let threshold = root.threshold().expect("the root holds its threshold");
        let heavy_groups = root
            .heavy_groups()
            .expect("the root counts its heavy groups");
        let counts = self.classify(candidates, heavy_groups, threshold, &cost);
        let report = w.metrics_report();
        cost.reconcile(&report)
            .expect("MetricsReport must reconcile with CostBreakdown");
        let run = NetFilterRun {
            frequent: delivery.answer.clone(),
            threshold,
            cost,
            counts,
        };
        (run, report)
    }

    /// Classifies the candidate set at the root into heavy items, and
    /// homogeneous vs. heterogeneous false positives (§III-B.2).
    fn classify(
        &self,
        candidates: &MapSum,
        heavy_groups: usize,
        threshold: u64,
        cost: &CostBreakdown,
    ) -> RunCounts {
        let c = &self.config;
        let family = HashFamily::new(c.filters, c.filter_size, c.hash_seed);
        // The heavy items are exactly the candidates whose exact global
        // value clears the threshold (no false negatives are possible: a
        // heavy item makes each of its own groups heavy).
        let heavy_items: Vec<ItemId> = candidates
            .0
            .iter()
            .filter(|&(_, &v)| v >= threshold)
            .map(|(&k, _)| k)
            .collect();
        let heavy_slots: std::collections::HashSet<usize> = heavy_items
            .iter()
            .flat_map(|&x| family.slots_of(x))
            .collect();

        let mut fp_homogeneous = 0usize;
        let mut fp_heterogeneous = 0usize;
        for (&item, &v) in &candidates.0 {
            if v >= threshold {
                continue;
            }
            // Heterogeneous: the light item shares *every* filter's group
            // with some heavy item. Homogeneous: at least one of its groups
            // is heavy purely from light-item mass.
            if family.slots_of(item).all(|s| heavy_slots.contains(&s)) {
                fp_heterogeneous += 1;
            } else {
                fp_homogeneous += 1;
            }
        }

        RunCounts {
            threshold,
            heavy_groups_total: heavy_groups,
            w_avg: heavy_groups as f64 / f64::from(c.filters),
            heavy_items: heavy_items.len(),
            candidates_at_root: candidates.len(),
            fp_homogeneous,
            fp_heterogeneous,
            candidate_pairs_sent: cost.aggregation.iter().sum::<u64>(),
        }
    }
}

/// Per-phase byte accounting, indexed by peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Phase 1 bytes per peer (the `s_a·f·g` vectors).
    pub filtering: Vec<u64>,
    /// Phase 2a bytes per peer (heavy-group lists to each child).
    pub dissemination: Vec<u64>,
    /// Phase 2b bytes per peer (candidate `(id, value)` pairs).
    pub aggregation: Vec<u64>,
}

impl CostBreakdown {
    /// Reads each peer's bytes in the three netFilter classes off a
    /// world's meter.
    pub fn from_metrics(m: &Metrics) -> Self {
        let per_peer = |class: MsgClass| {
            (0..m.peer_count())
                .map(|i| m.peer_class(PeerId::new(i), class).bytes)
                .collect()
        };
        CostBreakdown {
            filtering: per_peer(MsgClass::FILTERING),
            dissemination: per_peer(MsgClass::DISSEMINATION),
            aggregation: per_peer(MsgClass::AGGREGATION),
        }
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.filtering.len()
    }

    /// Total bytes across all peers and phases.
    pub fn total_bytes(&self) -> u64 {
        self.filtering.iter().sum::<u64>()
            + self.dissemination.iter().sum::<u64>()
            + self.aggregation.iter().sum::<u64>()
    }

    /// Total bytes sent by one peer across phases.
    pub fn peer_bytes(&self, p: PeerId) -> u64 {
        self.filtering[p.index()] + self.dissemination[p.index()] + self.aggregation[p.index()]
    }

    /// The paper's metric: average bytes per peer, total.
    pub fn avg_total(&self) -> f64 {
        self.total_bytes() as f64 / self.peer_count().max(1) as f64
    }

    /// Average candidate-filtering bytes per peer.
    pub fn avg_filtering(&self) -> f64 {
        self.filtering.iter().sum::<u64>() as f64 / self.peer_count().max(1) as f64
    }

    /// Average candidate-dissemination bytes per peer.
    pub fn avg_dissemination(&self) -> f64 {
        self.dissemination.iter().sum::<u64>() as f64 / self.peer_count().max(1) as f64
    }

    /// Average candidate-aggregation bytes per peer.
    pub fn avg_aggregation(&self) -> f64 {
        self.aggregation.iter().sum::<u64>() as f64 / self.peer_count().max(1) as f64
    }

    /// Average total bytes per peer, grouped by hierarchy depth — the
    /// quantitative form of §IV-A's claim that "the communication cost
    /// incurred at the peers located at the higher levels of the hierarchy
    /// is not significantly higher than that incurred at the peers located
    /// at the lower levels". Returns `(depth, avg bytes, peer count)` rows
    /// in ascending depth.
    ///
    /// # Panics
    ///
    /// Panics if `hierarchy` covers a different universe.
    pub fn by_depth(&self, hierarchy: &ifi_hierarchy::Hierarchy) -> Vec<(u32, f64, usize)> {
        assert_eq!(hierarchy.universe(), self.peer_count(), "universe mismatch");
        let mut sums: std::collections::BTreeMap<u32, (u64, usize)> =
            std::collections::BTreeMap::new();
        for p in hierarchy.members() {
            let d = hierarchy.depth(p).expect("member has a depth");
            let e = sums.entry(d).or_insert((0, 0));
            e.0 += self.peer_bytes(p);
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(d, (bytes, count))| (d, bytes as f64 / count as f64, count))
            .collect()
    }

    /// Checks that `report` is byte-identical to this breakdown: each of
    /// the three netFilter phases must carry exactly this breakdown's
    /// per-peer byte vector (a phase absent from the report counts as
    /// all-zero), and the report must contain no bytes beyond those three
    /// phases. Returns a description of the first discrepancy.
    ///
    /// This is the bridge between the sink's [`MetricsReport`] and the
    /// meter's per-class accounting: untagged protocol sends land in the
    /// class-label phases, so every clean epoch reconciles
    /// ([`NetFilter::run_instrumented`] asserts it).
    pub fn reconcile(&self, report: &MetricsReport) -> Result<(), String> {
        self.check_phases(report)?;
        let (rt, bt) = (report.total_bytes(), self.total_bytes());
        if rt != bt {
            return Err(format!(
                "report total {rt} B != breakdown total {bt} B (extra bytes outside the three netFilter phases)"
            ));
        }
        Ok(())
    }

    /// Like [`reconcile`](Self::reconcile), but tolerates — and accounts
    /// for — bytes in the named `overhead` phases (e.g.
    /// [`phases::RETRANSMIT`] for a run with the reliability envelope
    /// enabled). The three netFilter phases must still match this
    /// breakdown byte-for-byte per peer, every other nonzero phase must be
    /// one of `overhead`, and the report total must equal the breakdown
    /// total plus exactly the overhead bytes.
    pub fn reconcile_with_overhead(
        &self,
        report: &MetricsReport,
        overhead: &[&str],
    ) -> Result<(), String> {
        self.check_phases(report)?;
        let mut overhead_bytes = 0u64;
        for p in &report.phases {
            let label = p.label.as_str();
            if phases::NETFILTER.contains(&label) || p.bytes() == 0 {
                continue;
            }
            if overhead.contains(&label) {
                overhead_bytes += p.bytes();
            } else {
                return Err(format!(
                    "phase {label:?} carries {} B but is not a declared overhead phase",
                    p.bytes()
                ));
            }
        }
        let (rt, expect) = (report.total_bytes(), self.total_bytes() + overhead_bytes);
        if rt != expect {
            return Err(format!(
                "report total {rt} B != breakdown {} B + overhead {overhead_bytes} B",
                self.total_bytes()
            ));
        }
        Ok(())
    }

    /// Shared per-peer exactness check for the three netFilter phases.
    fn check_phases(&self, report: &MetricsReport) -> Result<(), String> {
        fn check(report: &MetricsReport, label: &str, expect: &[u64]) -> Result<(), String> {
            match report.phase_peer_bytes(label) {
                Some(got) => {
                    if got.len() != expect.len() {
                        return Err(format!(
                            "phase {label:?}: report covers {} peers, breakdown {}",
                            got.len(),
                            expect.len()
                        ));
                    }
                    for (i, (&g, &e)) in got.iter().zip(expect).enumerate() {
                        if g != e {
                            return Err(format!(
                                "phase {label:?}, peer {i}: report has {g} B, breakdown {e} B"
                            ));
                        }
                    }
                    Ok(())
                }
                None if expect.iter().all(|&b| b == 0) => Ok(()),
                None => Err(format!("phase {label:?} missing from the report")),
            }
        }
        check(report, phases::FILTERING, &self.filtering)?;
        check(report, phases::DISSEMINATION, &self.dissemination)?;
        check(report, phases::AGGREGATION, &self.aggregation)
    }

    /// The heaviest-loaded peer and its bytes — used to check the paper's
    /// no-root-bottleneck claim (§IV-A).
    pub fn max_peer(&self) -> (PeerId, u64) {
        (0..self.peer_count())
            .map(|i| (PeerId::new(i), self.peer_bytes(PeerId::new(i))))
            .max_by_key(|&(_, b)| b)
            .expect("at least one peer")
    }
}

/// Observable counts from one run (Figure 5/6's y-axes).
#[derive(Debug, Clone, PartialEq)]
pub struct RunCounts {
    /// The resolved absolute threshold `t`.
    pub threshold: u64,
    /// `Σ_i w_i` — heavy groups across all filters.
    pub heavy_groups_total: usize,
    /// `w` — average heavy groups per filter.
    pub w_avg: f64,
    /// `r` — heavy items (== final result size).
    pub heavy_items: usize,
    /// Candidates surviving filtering (as materialized at the root).
    pub candidates_at_root: usize,
    /// False positives whose heavy groups contain only light items.
    pub fp_homogeneous: usize,
    /// False positives sharing all their groups with heavy items.
    pub fp_heterogeneous: usize,
    /// Total phase-2b bytes (internal; see
    /// [`RunCounts::candidates_per_peer`]).
    candidate_pairs_sent: u64,
}

impl RunCounts {
    /// Total false positives in the candidate set (`fp` in Table II).
    pub fn false_positives(&self) -> usize {
        self.fp_homogeneous + self.fp_heterogeneous
    }

    /// Figure 5(a)/6(a)'s metric: the average number of candidate
    /// `(identifier, value)` pairs each peer propagated during candidate
    /// verification.
    pub fn candidates_per_peer(&self, sizes: &WireSizes, peers: usize) -> f64 {
        self.candidate_pairs_sent as f64 / sizes.pair() as f64 / peers.max(1) as f64
    }
}

/// The outcome of a netFilter run: the exact answer plus accounting.
#[derive(Debug, Clone)]
pub struct NetFilterRun {
    frequent: Vec<(ItemId, u64)>,
    threshold: u64,
    cost: CostBreakdown,
    counts: RunCounts,
}

impl NetFilterRun {
    /// The frequent items with their **exact** global values, sorted by
    /// descending value (ties by ascending id).
    pub fn frequent_items(&self) -> &[(ItemId, u64)] {
        &self.frequent
    }

    /// The resolved absolute threshold `t`.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Per-phase, per-peer byte accounting.
    pub fn cost(&self) -> &CostBreakdown {
        &self.cost
    }

    /// Counts of heavy groups, candidates, and false positives.
    pub fn counts(&self) -> &RunCounts {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Threshold;
    use ifi_sim::EventSink;
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn workload(peers: usize, items: u64, theta: f64, seed: u64) -> SystemData {
        SystemData::generate(
            &WorkloadParams {
                peers,
                items,
                instances_per_item: 10,
                theta,
            },
            seed,
        )
    }

    fn run_with(g: u32, f: u32, data: &SystemData, h: &Hierarchy) -> NetFilterRun {
        let config = NetFilterConfig::builder()
            .filter_size(g)
            .filters(f)
            .threshold(Threshold::Ratio(0.01))
            .build();
        NetFilter::new(config).run(h, data)
    }

    #[test]
    fn result_is_exact_against_ground_truth() {
        let data = workload(100, 2_000, 1.0, 11);
        let h = Hierarchy::balanced(100, 3);
        let run = run_with(40, 3, &data, &h);
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(0.01);
        assert_eq!(run.threshold(), t);
        assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
        let (fp, fn_, verr) = truth.verify(t, run.frequent_items());
        assert_eq!((fp, fn_, verr), (0, 0, 0));
    }

    #[test]
    fn exact_across_many_configs_and_topologies() {
        use ifi_overlay::Topology;
        use ifi_sim::DetRng;
        let data = workload(60, 800, 1.2, 13);
        let truth = GroundTruth::compute(&data);
        let t = truth.threshold_for_ratio(0.01);
        let topo = Topology::random_regular(60, 4, &mut DetRng::new(4));
        let hierarchies = vec![
            Hierarchy::balanced(60, 3),
            Hierarchy::balanced(60, 2),
            Hierarchy::bfs(&topo, PeerId::new(7)),
        ];
        for h in &hierarchies {
            for &(g, f) in &[(1u32, 1u32), (5, 1), (20, 3), (200, 8), (1, 4)] {
                let run = run_with(g, f, &data, h);
                assert_eq!(
                    run.frequent_items(),
                    &truth.frequent_items(t)[..],
                    "wrong answer at g={g} f={f}"
                );
            }
        }
    }

    #[test]
    fn filtering_cost_is_exactly_sa_f_g_per_nonroot_member() {
        let data = workload(50, 500, 1.0, 17);
        let h = Hierarchy::balanced(50, 3);
        let run = run_with(25, 4, &data, &h);
        let per = &run.cost().filtering;
        assert_eq!(per[0], 0, "root pays no filtering cost");
        for (i, &bytes) in per.iter().enumerate().skip(1) {
            assert_eq!(bytes, 4 * 4 * 25, "peer {i}");
        }
    }

    #[test]
    fn dissemination_charges_one_list_per_child() {
        let data = workload(13, 300, 1.0, 19);
        let h = Hierarchy::balanced(13, 3);
        let run = run_with(20, 2, &data, &h);
        let list = 4 * run.counts().heavy_groups_total as u64;
        // Internal peers (0..=3) have 3 children each, leaves none.
        for p in 0..13usize {
            let expect = list * h.children(PeerId::new(p)).len() as u64;
            assert_eq!(run.cost().dissemination[p], expect, "peer {p}");
        }
    }

    #[test]
    fn more_filters_reduce_false_positives() {
        let data = workload(100, 5_000, 1.0, 23);
        let h = Hierarchy::balanced(100, 3);
        let fp1 = run_with(60, 1, &data, &h).counts().false_positives();
        let fp4 = run_with(60, 4, &data, &h).counts().false_positives();
        assert!(
            fp4 <= fp1,
            "4 filters ({fp4} fps) should not beat 1 filter ({fp1} fps)"
        );
        assert!(fp1 > 0, "workload too easy to exercise filtering");
    }

    #[test]
    fn larger_filters_reduce_false_positives() {
        let data = workload(100, 5_000, 1.0, 29);
        let h = Hierarchy::balanced(100, 3);
        let fp_small = run_with(10, 2, &data, &h).counts().false_positives();
        let fp_large = run_with(500, 2, &data, &h).counts().false_positives();
        assert!(fp_large < fp_small, "{fp_large} !< {fp_small}");
    }

    #[test]
    fn tiny_filter_prunes_nothing() {
        // §V-A: "when the filter size is very small … none of the items are
        // pruned" — with g=1, f=1 the single group is necessarily heavy.
        let data = workload(40, 400, 1.0, 31);
        let h = Hierarchy::balanced(40, 3);
        let run = run_with(1, 1, &data, &h);
        assert_eq!(run.counts().heavy_groups_total, 1);
        assert_eq!(run.counts().candidates_at_root, data.distinct_items());
    }

    #[test]
    fn counts_are_consistent() {
        let data = workload(80, 3_000, 1.0, 37);
        let h = Hierarchy::balanced(80, 3);
        let run = run_with(50, 3, &data, &h);
        let c = run.counts();
        assert_eq!(
            c.candidates_at_root,
            c.heavy_items + c.false_positives(),
            "candidates = heavy + fps"
        );
        assert_eq!(c.heavy_items, run.frequent_items().len());
        assert!(c.w_avg <= 50.0);
    }

    #[test]
    fn no_root_bottleneck() {
        // §IV-A: the cost at the top of the hierarchy is not significantly
        // higher than elsewhere — the filtering vectors dominate and are
        // uniform.
        let data = workload(200, 20_000, 1.0, 41);
        let h = Hierarchy::balanced(200, 3);
        let run = run_with(100, 3, &data, &h);
        let (_, max_bytes) = run.cost().max_peer();
        let avg = run.cost().avg_total();
        assert!(
            (max_bytes as f64) < 5.0 * avg,
            "bottleneck: max {max_bytes} vs avg {avg}"
        );
    }

    #[test]
    fn cost_is_uniform_across_hierarchy_levels() {
        // §IV-A quantified: per-level average cost within a small factor
        // of the global average at the paper's operating point (the
        // filtering vectors dominate and are identical at every level).
        let data = workload(200, 20_000, 1.0, 59);
        let h = Hierarchy::balanced(200, 3);
        let run = run_with(100, 3, &data, &h);
        let profile = run.cost().by_depth(&h);
        assert_eq!(profile.len() as u32, h.height());
        let global_avg = run.cost().avg_total();
        // Skip depth 0 (the lone root pays no filtering) and the deepest
        // level (leaves pay no dissemination) — the paper's claim concerns
        // levels carrying both directions.
        for &(d, avg, count) in &profile[1..profile.len() - 1] {
            assert!(
                avg < 3.0 * global_avg && avg > 0.3 * global_avg,
                "depth {d} ({count} peers): {avg} vs global {global_avg}"
            );
        }
        // Peer counts per level sum to the membership.
        let total: usize = profile.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn cost_breakdown_totals_agree() {
        let data = workload(30, 300, 1.0, 43);
        let h = Hierarchy::balanced(30, 3);
        let run = run_with(10, 2, &data, &h);
        let c = run.cost();
        let manual: u64 = (0..30).map(|i| c.peer_bytes(PeerId::new(i))).sum();
        assert_eq!(manual, c.total_bytes());
        let sum_avgs = c.avg_filtering() + c.avg_dissemination() + c.avg_aggregation();
        assert!((sum_avgs - c.avg_total()).abs() < 1e-9);
    }

    #[test]
    fn instrumented_report_reconciles_and_matches_plain_run() {
        let data = workload(60, 1_200, 1.0, 53);
        let h = Hierarchy::balanced(60, 3);
        let config = NetFilterConfig::builder()
            .filter_size(30)
            .filters(3)
            .threshold(Threshold::Ratio(0.01))
            .build();
        let engine = NetFilter::new(config);
        let plain = engine.run(&h, &data);
        let (run, report) = engine.run_instrumented(&h, &data);
        // Instrumentation changes nothing about the answer or the cost.
        assert_eq!(run.frequent_items(), plain.frequent_items());
        assert_eq!(run.cost(), plain.cost());
        // The report is the richer view of the same bytes.
        assert_eq!(report.total_bytes(), run.cost().total_bytes());
        assert_eq!(
            report.phase_peer_bytes(phases::FILTERING).unwrap(),
            &run.cost().filtering[..]
        );
        assert_eq!(
            report.phase_peer_bytes(phases::DISSEMINATION).unwrap(),
            &run.cost().dissemination[..]
        );
        assert_eq!(
            report.phase_peer_bytes(phases::AGGREGATION).unwrap(),
            &run.cost().aggregation[..]
        );
        assert!((report.avg_bytes_per_peer() - run.cost().avg_total()).abs() < 1e-9);
        // Wall-clock profiling is attached to the scheduler loop.
        assert!(report.phase(phases::SCHEDULER).is_some());
    }

    #[test]
    fn reconcile_rejects_drifted_reports() {
        let data = workload(20, 200, 1.0, 61);
        let h = Hierarchy::balanced(20, 3);
        let run = run_with(10, 2, &data, &h);
        let mut sink = EventSink::new(20);
        sink.record_vec(
            phases::FILTERING,
            MsgClass::FILTERING,
            &run.cost().filtering,
        );
        // Missing phases with nonzero expected bytes are discrepancies.
        assert!(run.cost().reconcile(&sink.report()).is_err());
        sink.record_vec(
            phases::DISSEMINATION,
            MsgClass::DISSEMINATION,
            &run.cost().dissemination,
        );
        sink.record_vec(
            phases::AGGREGATION,
            MsgClass::AGGREGATION,
            &run.cost().aggregation,
        );
        assert!(run.cost().reconcile(&sink.report()).is_ok());
        // Any extra byte anywhere breaks reconciliation.
        sink.record(PeerId::new(0), MsgClass::CONTROL, 1);
        let err = run.cost().reconcile(&sink.report()).unwrap_err();
        assert!(err.contains("total"), "unexpected error: {err}");
    }

    #[test]
    fn reconcile_with_overhead_accounts_declared_phases_only() {
        let data = workload(20, 200, 1.0, 61);
        let h = Hierarchy::balanced(20, 3);
        let run = run_with(10, 2, &data, &h);
        let mut sink = EventSink::new(20);
        sink.record_vec(
            phases::FILTERING,
            MsgClass::FILTERING,
            &run.cost().filtering,
        );
        sink.record_vec(
            phases::DISSEMINATION,
            MsgClass::DISSEMINATION,
            &run.cost().dissemination,
        );
        sink.record_vec(
            phases::AGGREGATION,
            MsgClass::AGGREGATION,
            &run.cost().aggregation,
        );
        // Reliability traffic on top of the exact phase costs ...
        sink.record(PeerId::new(1), MsgClass::RETRANSMIT, 24);
        let report = sink.report();
        // ... breaks strict reconciliation,
        assert!(run.cost().reconcile(&report).is_err());
        // ... fails when the overhead phase is not declared,
        let err = run
            .cost()
            .reconcile_with_overhead(&report, &[])
            .unwrap_err();
        assert!(err.contains("retransmit"), "unexpected error: {err}");
        // ... and reconciles when it is.
        assert!(run
            .cost()
            .reconcile_with_overhead(&report, &[phases::RETRANSMIT])
            .is_ok());
        // Undeclared extra bytes still break the overhead-aware check.
        sink.record(PeerId::new(0), MsgClass::CONTROL, 1);
        assert!(run
            .cost()
            .reconcile_with_overhead(&sink.report(), &[phases::RETRANSMIT])
            .is_err());
    }

    #[test]
    #[should_panic(expected = "peer universes differ")]
    fn mismatched_universe_panics() {
        let data = workload(10, 100, 1.0, 47);
        let h = Hierarchy::balanced(11, 3);
        let _ = run_with(10, 2, &data, &h);
    }
}
