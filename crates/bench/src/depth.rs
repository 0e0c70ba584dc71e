//! Per-level cost profile — §IV-A quantified.
//!
//! The paper argues netFilter "does not result in a performance bottleneck
//! at the root of the hierarchy": filtering traffic is identical at every
//! level, dissemination is paid by non-leaves, and candidate aggregation —
//! the only level-dependent term — is small after filtering. This
//! experiment measures average bytes per peer at every hierarchy depth
//! under the default setting, for both netFilter and the naive approach
//! (which *does* concentrate load toward the root).

use netfilter::{naive, NetFilter, NetFilterConfig, Threshold, WireSizes};

use crate::output::{f1, int, Column, Panel};
use crate::runner::Scale;
use crate::ShapeCheck;

/// One row per hierarchy depth (root = 0): its peers and each engine's
/// average bytes per peer there.
const COLUMNS: [Column; 4] = [
    ("depth", Some("depth"), int),
    ("peers", Some("peers"), int),
    ("netFilter B/peer", Some("netfilter"), f1),
    ("naive B/peer", Some("naive"), f1),
];

/// Runs the per-level profile at the default operating point.
pub fn run(scale: Scale, seed: u64) -> Vec<Panel> {
    let data = scale.workload(scale.items_small(), 1.0, seed);
    let h = scale.hierarchy();
    let run = NetFilter::new(
        NetFilterConfig::builder()
            .filter_size(100)
            .filters(3)
            .threshold(Threshold::Ratio(0.01))
            .build(),
    )
    .run(&h, &data);
    let nv = naive::run(&h, &data, Threshold::Ratio(0.01), &WireSizes::default());

    // Naive per-depth: group the per-peer bytes ourselves.
    let mut naive_sum: std::collections::BTreeMap<u32, (u64, usize)> = Default::default();
    for p in h.members() {
        let d = h.depth(p).expect("member");
        let e = naive_sum.entry(d).or_insert((0, 0));
        e.0 += nv.bytes_per_peer()[p.index()];
        e.1 += 1;
    }
    let rows = (run.cost().by_depth(&h).into_iter())
        .map(|(depth, nf_avg, peers)| {
            let &(nbytes, ncount) = naive_sum.get(&depth).expect("same tree");
            debug_assert_eq!(ncount, peers);
            let naive = nbytes as f64 / ncount.max(1) as f64;
            vec![f64::from(depth), peers as f64, nf_avg, naive]
        })
        .collect();
    let (nf_avg, naive_avg) = (run.cost().avg_total(), nv.avg_bytes_per_peer());
    let title = "== Per-level cost profile (§IV-A; g = 100, f = 3, phi = 0.01) ==";
    let panel = Panel::new(title, "depth profile", &COLUMNS, rows);
    vec![Panel {
        dat: Some("depth_profile".into()),
        note: Some(format!(
            "global averages: netFilter {nf_avg:.1}, naive {naive_avg:.1} B/peer"
        )),
        checks: checks(&panel, nf_avg),
        ..panel
    }]
}

/// §IV-A's claims, against netFilter's global average `nf_avg`.
fn checks(panel: &Panel, nf_avg: f64) -> Vec<ShapeCheck> {
    let netfilter = panel.column("netFilter B/peer");
    let naive = panel.column("naive B/peer");
    // Exclude the root (pays no filtering, negligible sample) and the
    // deepest level (pays no dissemination) from the uniformity claim.
    let interior = &netfilter[1..netfilter.len().saturating_sub(1)];
    let worst_over = interior.iter().map(|c| c / nf_avg).fold(0.0f64, f64::max);
    // Naive concentrates toward the root: the depth-1 average exceeds
    // the deepest level's by a large factor.
    let naive_top = naive.get(1).copied().unwrap_or(0.0);
    let naive_leaf = naive.last().copied().unwrap_or(1.0);
    vec![
        ShapeCheck::new(
            "netFilter: no level pays an order of magnitude over the average",
            worst_over <= 8.0 && worst_over > 0.0,
            format!(
                "worst level at {worst_over:.2}x (dissemination is per-child, \
                 so sparse top levels sit a few x above average)"
            ),
        ),
        ShapeCheck::new(
            "naive concentrates load toward the root (top level >> leaves)",
            naive_top > 2.0 * naive_leaf,
            format!("depth-1 {naive_top:.0} vs deepest {naive_leaf:.0} B/peer"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_per_level_and_every_peer_counted() {
        let prof = &run(Scale::Quick, 48)[0];
        let height = ifi_hierarchy::Hierarchy::balanced(200, 3).height() as usize;
        assert_eq!(prof.rows.len(), height);
        let total: f64 = prof.column("peers").iter().sum();
        assert_eq!(total as usize, Scale::Quick.peers());
    }

    #[test]
    fn heaviest_peer_is_not_catastrophic() {
        let scale = Scale::Quick;
        let data = scale.workload(scale.items_small(), 1.0, 49);
        let nf = NetFilter::new(NetFilterConfig::default()).run(&scale.hierarchy(), &data);
        let (_, max_bytes) = nf.cost().max_peer();
        // The global average, from the per-level rows.
        let prof = run(scale, 49).remove(0);
        let bytes: f64 = prof.rows.iter().map(|r| r[1] * r[2]).sum();
        let avg = bytes / prof.column("peers").iter().sum::<f64>();
        assert!((max_bytes as f64) < 10.0 * avg);
    }
}
