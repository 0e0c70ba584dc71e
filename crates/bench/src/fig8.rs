//! Figure 8 — effect of the threshold ratio (§V-D).
//!
//! For `n = 10^6`, sweep the skewness with three netFilter series
//! (`φ = 0.1, 0.01, 0.001`, each at the paper's tuned `(g, f)` =
//! `(10,6)`, `(100,5)`, `(1000,2)`) plus the naive baseline. Larger
//! thresholds mean fewer qualifying items and lower cost.

use netfilter::{naive, Threshold, WireSizes};

use crate::output::{f1, Column, Panel};
use crate::runner::{summarize_netfilter, Scale};
use crate::ShapeCheck;

/// The three threshold settings, with the paper's tuned `(g, f)`.
pub const SERIES: [(f64, u32, u32); 3] = [(0.1, 10, 6), (0.01, 100, 5), (0.001, 1000, 2)];

/// θ, the netFilter series in [`SERIES`] order, then naive (log-scale y
/// in the paper).
const COLUMNS: [Column; 5] = [
    ("theta", Some("theta"), f1),
    ("nf phi=0.1", Some("nf_phi0.1"), f1),
    ("nf phi=0.01", Some("nf_phi0.01"), f1),
    ("nf phi=0.001", Some("nf_phi0.001"), f1),
    ("naive", Some("naive"), f1),
];

/// Runs the Figure 8 sweep: one row per θ.
pub fn run(scale: Scale, seed: u64) -> Vec<Panel> {
    let items = scale.items_large();
    let h = scale.hierarchy();
    let rows = crate::par::par_map(crate::fig7::THETA_SWEEP.to_vec(), |theta| {
        let data = scale.workload(items, theta, seed);
        let mut row = vec![theta];
        for &(phi, g, f) in &SERIES {
            row.push(summarize_netfilter(&h, &data, g, f, phi).total);
        }
        let nv = naive::run(&h, &data, Threshold::Ratio(0.01), &WireSizes::default());
        row.push(nv.avg_bytes_per_peer());
        row
    });
    let title = format!("== Figure 8: effect of threshold (n = {items}) ==");
    let panel = Panel::new(title, "Figure 8", &COLUMNS, rows);
    vec![Panel {
        dat: Some("fig8".into()),
        checks: checks(&panel),
        ..panel
    }]
}

/// The qualitative claims of §V-D.
fn checks(panel: &Panel) -> Vec<ShapeCheck> {
    let mean = |header: &str| {
        let column = panel.column(header);
        column.iter().sum::<f64>() / column.len() as f64
    };
    let (m01, m001, m0001) = (
        mean("nf phi=0.1"),
        mean("nf phi=0.01"),
        mean("nf phi=0.001"),
    );
    let all_beat_naive = (panel.rows.iter()).all(|r| r[1..4].iter().all(|&c| c < r[4]));
    vec![
        ShapeCheck::new(
            "larger threshold ratio ⇒ lower cost (0.1 < 0.01 < 0.001)",
            m01 < m001 && m001 < m0001,
            format!("means {:.0} / {:.0} / {:.0} B/peer", m01, m001, m0001),
        ),
        ShapeCheck::new(
            "every netFilter series beats naive at every θ",
            all_beat_naive,
            format!("naive mean {:.0} B/peer", mean("naive")),
        ),
    ]
}
