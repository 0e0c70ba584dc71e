//! Figure 7 — effect of data skewness (§V-C).
//!
//! Sweep `θ ∈ 0..=5` for `n = 10^5` (panel a, `(g,f) = (100,3)`) and
//! `n = 10^6` (panel b, `(g,f) = (100,5)`), comparing netFilter against
//! the naive approach. The paper reports netFilter at `n = 10^6` costs only
//! 2–5 % of naive, and both costs fall as skew rises.

use ifi_workload::SystemData;
use netfilter::{naive, Threshold, WireSizes};

use crate::output::{f1, f3, Column, Panel};
use crate::runner::{summarize_netfilter, Scale};
use crate::ShapeCheck;

/// One sweep point: netFilter vs naive at a given skew.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Zipf skew `θ`.
    pub theta: f64,
    /// netFilter average bytes per peer.
    pub netfilter: f64,
    /// Naive average bytes per peer.
    pub naive: f64,
}

impl Fig7Row {
    /// netFilter cost as a fraction of naive.
    pub fn ratio(&self) -> f64 {
        self.netfilter / self.naive.max(f64::MIN_POSITIVE)
    }
}

/// One regenerated panel of Figure 7: typed, for the perf rows that pin
/// its sweep, and as a [`Panel`] for the harness.
#[derive(Debug, Clone)]
pub struct Fig7Panel {
    /// Panel label (`"a"` for the small universe, `"b"` for the large).
    pub label: &'static str,
    /// Universe size `n`.
    pub items: u64,
    /// `(g, f)` used.
    pub setting: (u32, u32),
    /// Sweep rows in ascending `θ`.
    pub rows: Vec<Fig7Row>,
}

/// The θ values swept (the paper's x-axis spans 0..5).
pub const THETA_SWEEP: [f64; 6] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];

/// Runs one panel.
pub fn run_panel(
    scale: Scale,
    label: &'static str,
    items: u64,
    g: u32,
    f: u32,
    seed: u64,
) -> Fig7Panel {
    let h = scale.hierarchy();
    let rows = crate::par::par_map(THETA_SWEEP.to_vec(), |theta| {
        let data: SystemData = scale.workload(items, theta, seed);
        let nf = summarize_netfilter(&h, &data, g, f, 0.01);
        let nv = naive::run(&h, &data, Threshold::Ratio(0.01), &WireSizes::default());
        Fig7Row {
            theta,
            netfilter: nf.total,
            naive: nv.avg_bytes_per_peer(),
        }
    });
    Fig7Panel {
        label,
        items,
        setting: (g, f),
        rows,
    }
}

/// Runs both panels with the paper's settings.
pub fn run(scale: Scale, seed: u64) -> (Fig7Panel, Fig7Panel) {
    (
        run_panel(scale, "a", scale.items_small(), 100, 3, seed),
        run_panel(scale, "b", scale.items_large(), 100, 5, seed),
    )
}

/// Both panels, printed, dumped and checked alike: the `fig7` row of
/// [`FIGURES`](crate::FIGURES).
pub fn panels(scale: Scale, seed: u64) -> Vec<Panel> {
    let (a, b) = run(scale, seed);
    vec![a.panel(), b.panel()]
}

/// The columns of [`Fig7Panel::panel`] (log-scale y in the paper).
const COLUMNS: [Column; 4] = [
    ("theta", Some("theta"), f1),
    ("netFilter B/peer", Some("netfilter"), f1),
    ("naive B/peer", Some("naive"), f1),
    ("ratio", None, f3),
];

impl Fig7Panel {
    fn panel(&self) -> Panel {
        let title = format!(
            "== Figure 7({}): effect of data skewness (n = {}, g = {}, f = {}) ==",
            self.label, self.items, self.setting.0, self.setting.1
        );
        let rows = self.rows.iter();
        let rows = rows.map(|r| vec![r.theta, r.netfilter, r.naive, r.ratio()]);
        let label = format!("Figure 7({})", self.label);
        Panel {
            dat: Some(format!("fig7{}", self.label)),
            checks: self.checks(),
            ..Panel::new(title, label, &COLUMNS, rows.collect())
        }
    }

    /// The qualitative claims of §V-C.
    fn checks(&self) -> Vec<ShapeCheck> {
        let always_cheaper = self.rows.iter().all(|r| r.netfilter < r.naive);
        let worst_ratio = self.rows.iter().map(Fig7Row::ratio).fold(0.0f64, f64::max);

        let first = &self.rows[0];
        let last = &self.rows[self.rows.len() - 1];
        let nf_falls = last.netfilter < first.netfilter;
        let naive_falls = last.naive < first.naive;

        let mut checks = vec![
            ShapeCheck::new(
                format!("netFilter beats naive at every θ (panel {})", self.label),
                always_cheaper,
                format!("worst ratio {:.3}", worst_ratio),
            ),
            ShapeCheck::new(
                "netFilter cost decreases with skewness",
                nf_falls,
                format!("{:.0} → {:.0} B/peer", first.netfilter, last.netfilter),
            ),
            ShapeCheck::new(
                "naive cost decreases with skewness",
                naive_falls,
                format!("{:.0} → {:.0} B/peer", first.naive, last.naive),
            ),
        ];
        if self.label == "b" {
            // Paper: "with n as 10^6, the cost incurred by netFilter is
            // only 2%-5% of that incurred by the naive approach." The
            // percentage grows at smaller scale (the f·g filtering floor is
            // scale-independent while naive shrinks with n/N), so the band
            // widens for quick runs.
            let cap = if self.items >= 500_000 { 0.12 } else { 0.40 };
            checks.push(ShapeCheck::new(
                "large-universe ratio lands near the paper's 2-5% band",
                (0.001..=cap).contains(&worst_ratio),
                format!("worst ratio {:.3} (cap {:.2})", worst_ratio, cap),
            ));
        }
        checks
    }
}
