//! Figure 6 — effect of the number of filters `f` (§V-B).
//!
//! Sweep `f ∈ 1..=10` at `g = 100`, default workload. Panel (a):
//! candidates per peer fall with `f` while heavy groups grow ~linearly;
//! panel (b): the total cost is minimized at `f = 3`, confirming Eq. 6.

use crate::output::Panel;
use crate::runner::{argmin, summary_rows, RunSummary, Scale};
use crate::ShapeCheck;

/// Runs the Figure 6 sweep: one [`RunSummary`] row per `f`, both panels
/// in one table.
pub(crate) fn run(scale: Scale, seed: u64) -> Vec<Panel> {
    let g = 100;
    let rows = summary_rows(scale, seed, (1..=10).collect(), |f| (g, f));
    let title = format!("== Figure 6: effect of number of filters (g = {g}, phi = 0.01) ==");
    let panel = Panel::new(title, "Figure 6", &RunSummary::columns("f"), rows);
    vec![Panel {
        dat: Some("fig6".into()),
        checks: checks(&panel),
        ..panel
    }]
}

/// The qualitative claims of §V-B.
fn checks(panel: &Panel) -> Vec<ShapeCheck> {
    let f_at_min = panel.column("f")[argmin(&panel.column("total B/peer"))];
    let cands = panel.column("cand/peer");
    let monotone_candidates = cands.windows(2).all(|w| w[1] <= w[0] + 1e-9);
    let heavy = panel.column("heavy-groups");
    let heavy_grows = heavy.windows(2).all(|w| w[1] >= w[0]);
    let filt = panel.column("filtering");
    let filtering_linear = filt
        .iter()
        .enumerate()
        .all(|(i, &c)| (c - (i as f64 + 1.0) * filt[0]).abs() < 0.05 * filt[0].max(1.0));
    let last = cands.len() - 1;
    vec![
        ShapeCheck::new(
            "total cost is minimized at a small interior f (paper: f = 3)",
            (2.0..=5.0).contains(&f_at_min),
            format!("min at f = {f_at_min}"),
        ),
        ShapeCheck::new(
            "candidates per peer decrease monotonically with f",
            monotone_candidates,
            format!("{:.1} → {:.1}", cands[0], cands[last]),
        ),
        ShapeCheck::new(
            "heavy item groups grow (about linearly) with f",
            heavy_grows,
            format!("{} → {}", heavy[0], heavy[last]),
        ),
        ShapeCheck::new(
            "candidate-filtering cost grows linearly with f",
            filtering_linear,
            format!("{:.0} B at f=1, {:.0} B at f=10", filt[0], filt[9]),
        ),
    ]
}
