//! Figure 5 — effect of the filter size `g` (§V-A).
//!
//! Sweep `g ∈ {25 … 500}` at `f = 3`, default workload (`n = 10^5`,
//! `θ = 1`, `φ = 0.01`). Panel (a): candidates propagated per peer and
//! heavy item groups; panel (b): cost breakdown. The paper observes the
//! total cost is minimized around `g = 100` (Eq. 3 predicts `c + 80`).

use crate::output::Panel;
use crate::runner::{argmin, summary_rows, RunSummary, Scale};
use crate::ShapeCheck;

/// The paper's sweep values for `g`.
pub(crate) const G_SWEEP: [u32; 9] = [25, 50, 75, 100, 150, 200, 300, 400, 500];

/// Runs the Figure 5 sweep: one [`RunSummary`] row per `g`, both panels
/// in one table.
pub(crate) fn run(scale: Scale, seed: u64) -> Vec<Panel> {
    let f = 3;
    let rows = summary_rows(scale, seed, G_SWEEP.to_vec(), |g| (g, f));
    let title = format!("== Figure 5: effect of filter size (f = {f}, phi = 0.01) ==");
    let panel = Panel::new(title, "Figure 5", &RunSummary::columns("g"), rows);
    vec![Panel {
        dat: Some("fig5".into()),
        checks: checks(&panel),
        ..panel
    }]
}

/// The qualitative claims of §V-A.
fn checks(panel: &Panel) -> Vec<ShapeCheck> {
    let g = panel.column("g");
    let cands = panel.column("cand/peer");
    let filt = panel.column("filtering");
    let min_idx = argmin(&panel.column("total B/peer"));
    let last = g.len() - 1;
    let interior = min_idx > 0 && min_idx < last;
    // Filtering cost grows linearly in g: check the slope ratio of the
    // last and first points matches g's ratio.
    let linear = (filt[last] / filt[0] - g[last] / g[0]).abs() < 0.05;
    vec![
        ShapeCheck::new(
            "total cost has an interior minimum in g (paper: g ≈ 100)",
            interior,
            format!("min at g = {}", g[min_idx]),
        ),
        ShapeCheck::new(
            "candidates per peer decrease as g grows",
            cands[0] > cands[last],
            format!("{:.1} → {:.1}", cands[0], cands[last]),
        ),
        ShapeCheck::new(
            "candidate-filtering cost grows linearly with g",
            linear,
            format!(
                "{:.0} B @ g={} vs {:.0} B @ g={}",
                filt[0], g[0], filt[last], g[last]
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_g_prunes_poorly() {
        // §V-A: at g ≤ 50 "the filtering performance is poor".
        let cands = run(Scale::Quick, 43)[0].column("cand/peer");
        let best = cands.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(cands[0] > 3.0 * best);
    }
}
