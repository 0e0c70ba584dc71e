//! Shared experiment plumbing.

use ifi_hierarchy::Hierarchy;
use ifi_workload::{SystemData, WorkloadParams};
use netfilter::{MetricsReport, NetFilter, NetFilterConfig, Threshold, WireSizes};

use crate::output::{f1, int, Column};

/// Experiment scale: the paper's full setting, a fast smoke setting, or an
/// explicit point (used by the scale lane to push `N` past the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table III: `N = 1000`, `n = 10^5` (and `10^6` where the paper uses
    /// it).
    Paper,
    /// Scaled down ~10× for smoke runs and CI.
    Quick,
    /// An explicit `(N, n_small, n_large)` point.
    Custom {
        /// `N` — number of peers.
        peers: usize,
        /// The base `n` (Figures 5, 6, 7a).
        items_small: u64,
        /// The large `n` (Figures 7b, 8).
        items_large: u64,
    },
}

impl Scale {
    /// `N` — number of peers.
    pub fn peers(self) -> usize {
        match self {
            Scale::Paper => 1000,
            Scale::Quick => 200,
            Scale::Custom { peers, .. } => peers,
        }
    }

    /// The base `n` (Figures 5, 6, 7a).
    pub fn items_small(self) -> u64 {
        match self {
            Scale::Paper => 100_000,
            Scale::Quick => 20_000,
            Scale::Custom { items_small, .. } => items_small,
        }
    }

    /// The large `n` (Figures 7b, 8).
    pub fn items_large(self) -> u64 {
        match self {
            Scale::Paper => 1_000_000,
            Scale::Quick => 50_000,
            Scale::Custom { items_large, .. } => items_large,
        }
    }

    /// Generates the Table III workload for this scale, using the paper's
    /// replica-split placement (see `SystemData::generate_paper`).
    pub fn workload(self, items: u64, theta: f64, seed: u64) -> SystemData {
        SystemData::generate_paper(
            &WorkloadParams {
                peers: self.peers(),
                items,
                instances_per_item: 10,
                theta,
            },
            seed,
        )
    }

    /// The paper's hierarchy: `b = 3` downstream neighbors per peer.
    pub fn hierarchy(self) -> Hierarchy {
        Hierarchy::balanced(self.peers(), 3)
    }
}

/// Flat per-run summary used by the figure tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Average candidate pairs propagated per peer (Fig. 5a/6a, left line).
    pub candidates_per_peer: f64,
    /// Total heavy item groups across filters (Fig. 5a/6a, right line).
    pub heavy_groups: usize,
    /// Heavy items `r` (= result size).
    pub heavy_items: usize,
    /// False positives in the candidate set.
    pub false_positives: usize,
    /// Average bytes per peer: total and per phase (Fig. 5b/6b lines).
    pub total: f64,
    /// Candidate-filtering component.
    pub filtering: f64,
    /// Candidate-dissemination component.
    pub dissemination: f64,
    /// Candidate-aggregation component.
    pub aggregation: f64,
}

impl RunSummary {
    /// Figures 5 and 6's one column list: the sweep value `x`, then the
    /// summary, as [`row`](Self::row) lays them out.
    pub fn columns(x: &'static str) -> [Column; 7] {
        [
            (x, Some(x), int),
            ("cand/peer", Some("candidates_per_peer"), f1),
            ("heavy-groups", Some("heavy_groups"), int),
            ("total B/peer", Some("total"), f1),
            ("filtering", Some("filtering"), f1),
            ("dissemination", Some("dissemination"), f1),
            ("aggregation", Some("aggregation"), f1),
        ]
    }

    /// The sweep value `x`, then the summary.
    pub fn row(&self, x: u32) -> Vec<f64> {
        vec![
            f64::from(x),
            self.candidates_per_peer,
            self.heavy_groups as f64,
            self.total,
            self.filtering,
            self.dissemination,
            self.aggregation,
        ]
    }
}

/// One netFilter run per sweep value `x` at `(g, f) = gf(x)` and
/// `phi = 0.01` on the base workload, as [`RunSummary::row`]s.
pub(crate) fn summary_rows(
    scale: Scale,
    seed: u64,
    xs: Vec<u32>,
    gf: impl Fn(u32) -> (u32, u32) + Sync,
) -> Vec<Vec<f64>> {
    let data = scale.workload(scale.items_small(), 1.0, seed);
    let h = scale.hierarchy();
    crate::par::par_map(xs, |x| {
        let (g, f) = gf(x);
        summarize_netfilter(&h, &data, g, f, 0.01).row(x)
    })
}

/// The index of the first minimum of `xs`.
///
/// # Panics
///
/// Panics on an empty or non-finite slice.
pub(crate) fn argmin(xs: &[f64]) -> usize {
    let min = xs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"));
    min.map(|(i, _)| i).expect("nonempty sweep")
}

/// Runs netFilter once and flattens the result for table printing.
///
/// Every figure run goes through the instrumented engine path, so the
/// sink's [`MetricsReport`] is reconciled byte-for-byte against the
/// engine's `CostBreakdown` on *every* sweep point of *every* figure (the
/// reconciliation assert lives in `NetFilter::run_instrumented`).
pub fn summarize_netfilter(
    hierarchy: &Hierarchy,
    data: &SystemData,
    g: u32,
    f: u32,
    phi: f64,
) -> RunSummary {
    instrumented_summary(hierarchy, data, g, f, phi).0
}

/// [`summarize_netfilter`] that also returns the run's [`MetricsReport`]
/// (richer per-phase/per-peer/wall-clock view of the same bytes).
pub fn instrumented_summary(
    hierarchy: &Hierarchy,
    data: &SystemData,
    g: u32,
    f: u32,
    phi: f64,
) -> (RunSummary, MetricsReport) {
    let config = NetFilterConfig::builder()
        .filter_size(g)
        .filters(f)
        .threshold(Threshold::Ratio(phi))
        .build();
    let (run, report) = NetFilter::new(config).run_instrumented(hierarchy, data);
    let cost = run.cost();
    let counts = run.counts();
    let summary = RunSummary {
        candidates_per_peer: counts
            .candidates_per_peer(&WireSizes::default(), hierarchy.universe()),
        heavy_groups: counts.heavy_groups_total,
        heavy_items: counts.heavy_items,
        false_positives: counts.false_positives(),
        total: cost.avg_total(),
        filtering: cost.avg_filtering(),
        dissemination: cost.avg_dissemination(),
        aggregation: cost.avg_aggregation(),
    };
    (summary, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller() {
        assert!(Scale::Quick.peers() < Scale::Paper.peers());
        assert!(Scale::Quick.items_small() < Scale::Paper.items_small());
        assert!(Scale::Quick.items_large() < Scale::Paper.items_large());
    }

    #[test]
    fn custom_scale_reports_its_explicit_point() {
        let s = Scale::Custom {
            peers: 10_000,
            items_small: 100_000,
            items_large: 1_000_000,
        };
        assert_eq!(s.peers(), 10_000);
        assert_eq!(s.items_small(), 100_000);
        assert_eq!(s.items_large(), 1_000_000);
        assert_eq!(s.hierarchy().universe(), 10_000);
    }

    #[test]
    fn summary_components_sum_to_total() {
        let scale = Scale::Quick;
        let data = scale.workload(2_000, 1.0, 1);
        let h = scale.hierarchy();
        let s = summarize_netfilter(&h, &data, 50, 3, 0.01);
        assert!((s.filtering + s.dissemination + s.aggregation - s.total).abs() < 1e-9);
        assert!(s.candidates_per_peer >= 0.0);
        assert!(s.heavy_items + s.false_positives >= s.heavy_items);
    }

    #[test]
    fn instrumented_summary_report_matches_the_flat_view() {
        let scale = Scale::Quick;
        let data = scale.workload(2_000, 1.0, 2);
        let h = scale.hierarchy();
        let (s, report) = instrumented_summary(&h, &data, 50, 3, 0.01);
        assert!((report.avg_bytes_per_peer() - s.total).abs() < 1e-9);
        let n = h.universe() as f64;
        assert!((report.phase_bytes("filtering") as f64 / n - s.filtering).abs() < 1e-9);
        assert!((report.phase_bytes("dissemination") as f64 / n - s.dissemination).abs() < 1e-9);
        assert!((report.phase_bytes("aggregation") as f64 / n - s.aggregation).abs() < 1e-9);
    }
}
