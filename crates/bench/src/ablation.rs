//! Ablations of the §IV design analysis.
//!
//! Beyond the paper's four figures, these experiments validate the
//! *analysis* itself against measurement:
//!
//! * **Eq. 3** — is the analytically optimal `g` near the empirically best
//!   `g` on a dense sweep?
//! * **Eq. 6** — same for `f`.
//! * **Gossip vs hierarchy** — the §III-A design choice: push-sum gossip
//!   needs `O(log N)` rounds of `2·s_a` bytes per peer for *approximate*
//!   scalar aggregates, while the hierarchy needs `s_a` bytes per peer for
//!   exact ones.
//! * **§IV-E tuning** — sampled `(g, f)` vs oracle `(g, f)` cost gap.

use ifi_agg::gossip;
use ifi_hierarchy::{select_root, Hierarchy, RootSelection};
use ifi_overlay::Topology;
use ifi_sim::{DetRng, EventSink, PeerId};
use ifi_workload::GroundTruth;
use netfilter::approx::{self, ApproxRun};
use netfilter::gossip_filter::{self, GossipFilterConfig};
use netfilter::{analysis, tuning, NetFilter, NetFilterConfig, Threshold, WireSizes};

use crate::output::{f1, Column, Panel};
use crate::par::par_map;
use crate::runner::{summarize_netfilter, Scale};
use crate::ShapeCheck;

/// The headers of the ablation table, whose cells are prose.
const COLUMNS: [Column; 4] = [
    ("ablation", None, f1),
    ("analytic/tuned", None, f1),
    ("empirical best", None, f1),
    ("cost gap", None, f1),
];

/// Runs the ablation suite.
pub(crate) fn run(scale: Scale, seed: u64) -> Vec<Panel> {
    let data = scale.workload(scale.items_small(), 1.0, seed);
    let h = scale.hierarchy();
    let truth = GroundTruth::compute(&data);
    let phi = 0.01;
    let t = truth.threshold_for_ratio(phi);
    let sizes = WireSizes::default();

    // --- Eq. 3: analytic g_opt vs dense empirical sweep (f = 3). ---
    let g_analytic = analysis::optimal_g(
        truth.avg_light_value(t),
        phi,
        truth.avg_value(),
        tuning::G_SLACK,
    );
    let g_points: Vec<u32> = (10..=500).step_by(10).collect();
    let g_costs = par_map(g_points.clone(), |g| {
        summarize_netfilter(&h, &data, g, 3, phi).total
    });
    let mut best_g = (0u32, f64::INFINITY);
    let mut cost_at_analytic_g = f64::NAN;
    // Serial fold over in-order results keeps the first-minimum
    // tie-break identical to the old serial sweep.
    for (&g, &c) in g_points.iter().zip(&g_costs) {
        if c < best_g.1 {
            best_g = (g, c);
        }
        if g == (g_analytic / 10).max(1) * 10 {
            cost_at_analytic_g = c;
        }
    }
    if cost_at_analytic_g.is_nan() {
        cost_at_analytic_g = summarize_netfilter(&h, &data, g_analytic, 3, phi).total;
    }

    // --- Eq. 6: analytic f_opt vs empirical sweep (g = 100). ---
    let f_analytic = analysis::optimal_f(&sizes, data.universe(), truth.heavy_count(t) as u64, 100);
    let f_points: Vec<u32> = (1..=10).collect();
    let f_costs = par_map(f_points.clone(), |f| {
        summarize_netfilter(&h, &data, 100, f, phi).total
    });
    let mut best_f = (0u32, f64::INFINITY);
    let mut cost_at_analytic_f = f64::NAN;
    for (&f, &c) in f_points.iter().zip(&f_costs) {
        if c < best_f.1 {
            best_f = (f, c);
        }
        if f == f_analytic {
            cost_at_analytic_f = c;
        }
    }
    if cost_at_analytic_f.is_nan() {
        cost_at_analytic_f = summarize_netfilter(&h, &data, 100, f_analytic, phi).total;
    }

    // --- Gossip vs hierarchy for one exact scalar (v). ---
    let n_peers = scale.peers();
    let mut rng = DetRng::new(seed).derive(0xAB1A);
    let topo = Topology::random_regular(n_peers, 4, &mut rng);
    let values: Vec<f64> = (0..n_peers)
        .map(|i| {
            data.local_items(PeerId::new(i))
                .iter()
                .map(|&(_, v)| v as f64)
                .sum()
        })
        .collect();
    let rounds = gossip::recommended_rounds(n_peers, 1e-3);
    let g_out = gossip::push_sum(&topo, &values, rounds, &sizes, &mut rng);
    let true_sum: f64 = values.iter().sum();
    let gossip_bytes = g_out.avg_bytes_per_peer();
    let gossip_err = g_out.max_relative_error(&[true_sum]);
    // Hierarchy: one scalar per non-root peer.
    let hierarchy_bytes = sizes.sa as f64 * (n_peers as f64 - 1.0) / n_peers as f64;

    // --- §IV-E tuning vs oracle. ---
    let tuned = tuning::tune(
        &h,
        &data,
        Threshold::Ratio(phi),
        &ifi_agg::sampling::SamplingConfig {
            branches: 16,
            items_per_peer: 200,
        },
        &sizes,
        &mut DetRng::new(seed ^ 0x71),
    );
    let tuned_cost = summarize_netfilter(&h, &data, tuned.filter_size, tuned.filters, phi).total;
    let oracle_cost = summarize_netfilter(&h, &data, best_g.0, best_f.0, phi).total;

    // --- §VI future work: gossip-filtered netFilter vs the base engine. --
    let gf_cfg = GossipFilterConfig::conservative(
        NetFilterConfig::builder()
            .filter_size(100)
            .filters(3)
            .threshold(Threshold::Ratio(phi))
            .build(),
        n_peers,
    );
    let gf_hierarchy = Hierarchy::bfs(&topo, PeerId::new(0));
    let mut off = EventSink::disabled();
    let gf = gossip_filter::run(&topo, &gf_hierarchy, &data, &gf_cfg, &mut rng, &mut off);
    let base = NetFilter::new(gf_cfg.base.clone()).run(&h, &data);
    let gossip_filter_exact = (
        gf.frequent_items() == base.frequent_items(),
        gf.frequent_items().len(),
    );
    let gossip_filter_gap = (gf.avg_bytes_per_peer(), base.cost().avg_total());

    // --- Approximate comparator (footnote 5) at small ε. ---
    let (ag, af) = ApproxRun::dimensions_for(0.0005, 0.01);
    let approx_run = approx::run(
        &h,
        &data,
        &NetFilterConfig::builder()
            .filter_size(ag)
            .filters(af)
            .threshold(Threshold::Ratio(phi))
            .build(),
    );
    let approx_fps = approx_run.items.len().saturating_sub(truth.heavy_count(t));
    let approx_vs_exact = (
        approx_run.avg_bytes_per_peer(),
        base.cost().avg_total(),
        approx_fps,
    );

    // --- Root selection strategies (§III-A.1) on the same overlay. ---
    let r_random = select_root(&topo, None, RootSelection::Random, &mut rng);
    // Stability proxy without a churn history: reuse Random with a
    // different draw — heights differ only via eccentricity, so sample a
    // second random peer as the "stable" stand-in.
    let r_stable = select_root(&topo, None, RootSelection::Random, &mut rng);
    let r_center = select_root(&topo, None, RootSelection::Center { samples: 24 }, &mut rng);
    let root_heights = (
        Hierarchy::bfs(&topo, r_random).height(),
        Hierarchy::bfs(&topo, r_stable).height(),
        Hierarchy::bfs(&topo, r_center).height(),
    );

    // (analytic optimum, empirically best, cost at analytic, best cost).
    let g_opt = (g_analytic, best_g.0, cost_at_analytic_g, best_g.1);
    let f_opt = (f_analytic, best_f.0, cost_at_analytic_f, best_f.1);
    // (gossip B/peer, hierarchy B/peer, gossip max relative error).
    let gossip_vs_hierarchy = (gossip_bytes, hierarchy_bytes, gossip_err);
    // (tuned B/peer, oracle B/peer).
    let tuning_gap = (tuned_cost, oracle_cost);
    let text = vec![
        vec![
            "g_opt (Eq. 3)".into(),
            format!("g = {} ({} B/peer)", g_opt.0, f1(g_opt.2)),
            format!("g = {} ({} B/peer)", g_opt.1, f1(g_opt.3)),
            format!("{:.2}x", g_opt.2 / g_opt.3),
        ],
        vec![
            "f_opt (Eq. 6)".into(),
            format!("f = {} ({} B/peer)", f_opt.0, f1(f_opt.2)),
            format!("f = {} ({} B/peer)", f_opt.1, f1(f_opt.3)),
            format!("{:.2}x", f_opt.2 / f_opt.3),
        ],
        vec![
            "gossip vs hierarchy (scalar v)".into(),
            format!(
                "gossip {} B/peer, err {:.4}",
                f1(gossip_vs_hierarchy.0),
                gossip_vs_hierarchy.2
            ),
            format!("hierarchy {} B/peer, exact", f1(gossip_vs_hierarchy.1)),
            format!("{:.0}x", gossip_vs_hierarchy.0 / gossip_vs_hierarchy.1),
        ],
        vec![
            "sampled tuning (§IV-E)".into(),
            format!("{} B/peer", f1(tuning_gap.0)),
            format!("{} B/peer (oracle)", f1(tuning_gap.1)),
            format!("{:.2}x", tuning_gap.0 / tuning_gap.1),
        ],
        vec![
            "gossip-filtered netFilter (§VI)".into(),
            format!("{} B/peer, exact", f1(gossip_filter_gap.0)),
            format!("{} B/peer (tree phase 1)", f1(gossip_filter_gap.1)),
            format!("{:.1}x", gossip_filter_gap.0 / gossip_filter_gap.1),
        ],
        vec![
            "count-min approx, eps=5e-4".into(),
            format!(
                "{} B/peer, {} fps",
                f1(approx_vs_exact.0),
                approx_vs_exact.2
            ),
            format!("{} B/peer, exact", f1(approx_vs_exact.1)),
            format!("{:.2}x", approx_vs_exact.0 / approx_vs_exact.1),
        ],
        vec![
            "root selection: tree height".into(),
            format!("random {} / stable {}", root_heights.0, root_heights.1),
            format!("center {}", root_heights.2),
            format!("{:+} levels", root_heights.2 as i64 - root_heights.0 as i64),
        ],
    ];
    // The analysis should be near-optimal.
    let checks = vec![
        ShapeCheck::new(
            "Eq. 3's g_opt costs within 2x of the empirical best g",
            g_opt.2 <= 2.0 * g_opt.3,
            format!("{:.0} vs {:.0} B/peer", g_opt.2, g_opt.3),
        ),
        ShapeCheck::new(
            "Eq. 6's f_opt costs within 1.5x of the empirical best f",
            f_opt.2 <= 1.5 * f_opt.3,
            format!("{:.0} vs {:.0} B/peer", f_opt.2, f_opt.3),
        ),
        ShapeCheck::new(
            "hierarchical aggregation is far cheaper than gossip for exact scalars",
            gossip_vs_hierarchy.0 > 5.0 * gossip_vs_hierarchy.1,
            format!(
                "gossip {:.0} vs hierarchy {:.1} B/peer",
                gossip_vs_hierarchy.0, gossip_vs_hierarchy.1
            ),
        ),
        ShapeCheck::new(
            "gossip-filtered variant pays a large premium over the tree engine",
            gossip_filter_gap.0 > 2.0 * gossip_filter_gap.1,
            format!(
                "{:.0} vs {:.0} B/peer",
                gossip_filter_gap.0, gossip_filter_gap.1
            ),
        ),
        ShapeCheck::new(
            "gossip-filtered variant answers exactly",
            gossip_filter_exact.0,
            format!("{} items", gossip_filter_exact.1),
        ),
        ShapeCheck::new(
            "small-eps approximation costs more than the exact answer (footnote 5)",
            approx_vs_exact.0 > approx_vs_exact.1,
            format!(
                "{:.0} vs {:.0} B/peer",
                approx_vs_exact.0, approx_vs_exact.1
            ),
        ),
        ShapeCheck::new(
            "center-selected roots never yield taller trees than random",
            root_heights.2 <= root_heights.0.max(root_heights.1),
            format!(
                "center {} vs random {}/{}",
                root_heights.2, root_heights.0, root_heights.1
            ),
        ),
        ShapeCheck::new(
            "sampling-tuned (g, f) costs within 3x of oracle",
            tuning_gap.0 <= 3.0 * tuning_gap.1,
            format!("{:.0} vs {:.0} B/peer", tuning_gap.0, tuning_gap.1),
        ),
    ];
    let title = "== Ablations: analysis vs measurement ==";
    vec![Panel {
        text,
        checks,
        ..Panel::new(title, "ablations", &COLUMNS, Vec::new())
    }]
}
