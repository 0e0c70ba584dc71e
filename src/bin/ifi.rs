//! `ifi` — command-line frequent-item queries on simulated P2P systems.
//!
//! ```text
//! ifi run     --peers 1000 --items 100000 --theta 1.0 --phi 0.01 --g 100 --f 3
//! ifi compare --peers 500  --items 50000  --phi 0.01          # netFilter vs naive vs approx
//! ifi tune    --peers 1000 --items 100000 --branches 8        # §IV-E sampling
//! ```
//!
//! All subcommands are deterministic per `--seed` and print the paper's
//! cost metric (average bytes per peer) next to the answer.

use std::process::ExitCode;

use ifi_hierarchy::Hierarchy;
use ifi_sim::{DetRng, SimConfig};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::engines::{Engine, NaiveEngine};
use netfilter::naive::NaiveConfig;
use netfilter::{approx, tuning, NetFilter, NetFilterConfig, Threshold, WireSizes};

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Opts {
    command: String,
    peers: usize,
    items: u64,
    theta: f64,
    phi: f64,
    g: u32,
    f: u32,
    seed: u64,
    top: usize,
    branches: usize,
    draw_placement: bool,
    metrics: bool,
    metrics_json: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            command: String::new(),
            peers: 1000,
            items: 100_000,
            theta: 1.0,
            phi: 0.01,
            g: 100,
            f: 3,
            seed: 2008,
            top: 10,
            branches: 8,
            draw_placement: false,
            metrics: false,
            metrics_json: None,
        }
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    opts.command = it
        .next()
        .ok_or("missing subcommand (run | compare | tune)")?
        .clone();
    if !matches!(opts.command.as_str(), "run" | "compare" | "tune") {
        return Err(format!("unknown subcommand `{}`", opts.command));
    }
    while let Some(flag) = it.next() {
        if flag == "--draw-placement" {
            opts.draw_placement = true;
            continue;
        }
        if flag == "--metrics" {
            opts.metrics = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let parse_err = |what: &str| format!("cannot parse {what} from `{value}`");
        match flag.as_str() {
            "--peers" => opts.peers = value.parse().map_err(|_| parse_err("--peers"))?,
            "--items" => opts.items = value.parse().map_err(|_| parse_err("--items"))?,
            "--theta" => opts.theta = value.parse().map_err(|_| parse_err("--theta"))?,
            "--phi" => opts.phi = value.parse().map_err(|_| parse_err("--phi"))?,
            "--g" => opts.g = value.parse().map_err(|_| parse_err("--g"))?,
            "--f" => opts.f = value.parse().map_err(|_| parse_err("--f"))?,
            "--seed" => opts.seed = value.parse().map_err(|_| parse_err("--seed"))?,
            "--top" => opts.top = value.parse().map_err(|_| parse_err("--top"))?,
            "--branches" => opts.branches = value.parse().map_err(|_| parse_err("--branches"))?,
            "--metrics-json" => opts.metrics_json = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.peers == 0 || opts.items == 0 || opts.g == 0 || opts.f == 0 || opts.branches == 0 {
        return Err("--peers, --items, --g, --f and --branches must be positive".into());
    }
    if !(opts.phi > 0.0 && opts.phi <= 1.0 && opts.theta.is_finite() && opts.theta >= 0.0) {
        return Err("--phi must be in (0, 1], --theta finite and non-negative".into());
    }
    Ok(opts)
}

fn build_system(opts: &Opts) -> (Hierarchy, SystemData) {
    let params = WorkloadParams {
        peers: opts.peers,
        items: opts.items,
        instances_per_item: 10,
        theta: opts.theta,
    };
    let data = if opts.draw_placement {
        SystemData::generate(&params, opts.seed)
    } else {
        SystemData::generate_paper(&params, opts.seed)
    };
    (Hierarchy::balanced(opts.peers, 3), data)
}

fn config(opts: &Opts) -> NetFilterConfig {
    NetFilterConfig::builder()
        .filter_size(opts.g)
        .filters(opts.f)
        .threshold(Threshold::Ratio(opts.phi))
        .hash_seed(opts.seed)
        .build()
}

fn cmd_run(opts: &Opts) {
    let (h, data) = build_system(opts);
    let want_report = opts.metrics || opts.metrics_json.is_some();
    let (run, report) = if want_report {
        let (run, report) = NetFilter::new(config(opts)).run_instrumented(&h, &data);
        (run, Some(report))
    } else {
        (NetFilter::new(config(opts)).run(&h, &data), None)
    };
    println!(
        "IFI(A, t={}) over N={} peers, n={} items (theta={}, v={})",
        run.threshold(),
        opts.peers,
        opts.items,
        opts.theta,
        data.total_value()
    );
    println!(
        "{} frequent items; showing top {}:",
        run.frequent_items().len(),
        opts.top.min(run.frequent_items().len())
    );
    for &(item, value) in run.frequent_items().iter().take(opts.top) {
        println!("  {item:>14}  {value:>12}");
    }
    let c = run.cost();
    println!(
        "cost: {:.1} B/peer (filtering {:.1} + dissemination {:.1} + aggregation {:.1})",
        c.avg_total(),
        c.avg_filtering(),
        c.avg_dissemination(),
        c.avg_aggregation()
    );
    println!(
        "candidates at root: {} ({} heavy + {} false positives, pruned before verification: rest of {} items)",
        run.counts().candidates_at_root,
        run.counts().heavy_items,
        run.counts().false_positives(),
        data.distinct_items(),
    );
    if let Some(report) = report {
        if opts.metrics {
            println!("{}", report.render_table());
        }
        if let Some(path) = &opts.metrics_json {
            match std::fs::write(path, report.to_json()) {
                Ok(()) => println!("metrics report written to {path}"),
                Err(e) => eprintln!("warning: could not write {path}: {e}"),
            }
        }
    }
}

fn cmd_compare(opts: &Opts) {
    let (h, data) = build_system(opts);
    let truth = GroundTruth::compute(&data);
    let t = truth.threshold_for_ratio(opts.phi);

    let nf = NetFilter::new(config(opts)).run(&h, &data);
    let naive = NaiveConfig {
        threshold: Threshold::Ratio(opts.phi),
        sizes: WireSizes::default(),
    };
    let nv = NaiveEngine { config: naive }.run_des(&h, &data, SimConfig::default());
    let (ag, af) = approx::ApproxRun::dimensions_for(opts.phi / 10.0, 0.01);
    let mut approx_cfg = config(opts);
    approx_cfg.filter_size = ag;
    approx_cfg.filters = af;
    let ap = approx::run(&h, &data, &approx_cfg);

    println!(
        "engine comparison at t = {t} (exact answer: {} items)",
        truth.frequent_items(t).len()
    );
    println!(
        "{:<26} {:>14} {:>10} {:>8}",
        "engine", "bytes/peer", "reported", "exact?"
    );
    println!("{}", "-".repeat(62));
    println!(
        "{:<26} {:>14.1} {:>10} {:>8}",
        "netFilter",
        nf.cost().avg_total(),
        nf.frequent_items().len(),
        "yes"
    );
    println!(
        "{:<26} {:>14.1} {:>10} {:>8}",
        "naive",
        nv.avg_bytes_per_peer(),
        nv.items.len(),
        "yes"
    );
    println!(
        "{:<26} {:>14.1} {:>10} {:>8}",
        format!("count-min (g={ag}, f={af})"),
        ap.avg_bytes_per_peer(),
        ap.items.len(),
        if ap.items.len() == truth.frequent_items(t).len() {
            "lucky"
        } else {
            "no"
        }
    );
    let (fp, fn_, verr) = truth.verify(t, nf.frequent_items());
    assert_eq!((fp, fn_, verr), (0, 0, 0), "netFilter exactness violated");
}

fn cmd_tune(opts: &Opts) {
    let (h, data) = build_system(opts);
    let tuned = tuning::tune(
        &h,
        &data,
        Threshold::Ratio(opts.phi),
        &ifi_agg::sampling::SamplingConfig {
            branches: opts.branches,
            items_per_peer: 200,
        },
        &WireSizes::default(),
        &mut DetRng::new(opts.seed ^ 0x7E57),
    );
    let s = &tuned.stats;
    println!(
        "sampling: {} peers over {} branches, {} items, {} bytes of traffic",
        s.sampled_peers, opts.branches, s.sampled_items, s.bytes
    );
    println!(
        "estimates: v_light_bar={:.2}, v_bar={:.2}, n_hat={}, r_hat={}",
        s.v_light_bar,
        s.v_bar_universe(data.total_value()),
        s.n_hat,
        s.r_hat
    );
    println!(
        "recommended setting: g = {}, f = {} (threshold t = {})",
        tuned.filter_size, tuned.filters, tuned.threshold
    );
    let run = NetFilter::new(tuned.to_config(WireSizes::default(), opts.seed)).run(&h, &data);
    println!(
        "running with it: {} frequent items at {:.1} B/peer",
        run.frequent_items().len(),
        run.cost().avg_total()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ifi <run|compare|tune> [--peers N] [--items N] [--theta F] \
                 [--phi F] [--g N] [--f N] [--seed N] [--top N] [--branches N] \
                 [--draw-placement] [--metrics] [--metrics-json <path>]"
            );
            ExitCode::from(2)
        }
        Ok(opts) => {
            match opts.command.as_str() {
                "run" => cmd_run(&opts),
                "compare" => cmd_compare(&opts),
                "tune" => cmd_tune(&opts),
                _ => unreachable!("validated by parse"),
            }
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_defaults_and_overrides() {
        let o = parse(&sv(&["run"])).unwrap();
        assert_eq!(o.peers, 1000);
        let o = parse(&sv(&[
            "compare",
            "--peers",
            "50",
            "--items",
            "1000",
            "--phi",
            "0.1",
            "--g",
            "20",
            "--f",
            "2",
            "--seed",
            "7",
            "--draw-placement",
        ]))
        .unwrap();
        assert_eq!(o.command, "compare");
        assert_eq!((o.peers, o.items), (50, 1000));
        assert_eq!((o.g, o.f, o.seed), (20, 2, 7));
        assert!(o.draw_placement);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&sv(&[])).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&sv(&["run", "--peers"])).is_err());
        assert!(parse(&sv(&["run", "--peers", "zero"])).is_err());
        assert!(parse(&sv(&["run", "--phi", "1.5"])).is_err());
        assert!(parse(&sv(&["run", "--bogus", "1"])).is_err());
        // Degenerate values the engines would panic on.
        assert!(parse(&sv(&["run", "--g", "0"])).is_err());
        assert!(parse(&sv(&["run", "--f", "0"])).is_err());
        assert!(parse(&sv(&["tune", "--branches", "0"])).is_err());
        assert!(parse(&sv(&["run", "--theta", "-1"])).is_err());
        assert!(parse(&sv(&["run", "--theta", "nan"])).is_err());
    }

    #[test]
    fn run_command_executes_end_to_end() {
        let opts = parse(&sv(&[
            "run", "--peers", "40", "--items", "500", "--top", "3",
        ]))
        .unwrap();
        cmd_run(&opts); // prints; must not panic
    }

    #[test]
    fn run_command_with_metrics_writes_json() {
        let path = std::env::temp_dir().join(format!("ifi_metrics_{}.json", std::process::id()));
        let path_s = path.to_string_lossy().into_owned();
        let opts = parse(&sv(&[
            "run",
            "--peers",
            "40",
            "--items",
            "500",
            "--metrics",
            "--metrics-json",
            &path_s,
        ]))
        .unwrap();
        assert!(opts.metrics);
        cmd_run(&opts);
        let json = std::fs::read_to_string(&path).expect("report written");
        assert!(json.contains("\"phases\""));
        assert!(json.contains("\"filtering\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compare_command_asserts_exactness_internally() {
        let opts = parse(&sv(&["compare", "--peers", "40", "--items", "800"])).unwrap();
        cmd_compare(&opts);
    }

    #[test]
    fn tune_command_executes() {
        let opts = parse(&sv(&[
            "tune",
            "--peers",
            "60",
            "--items",
            "2000",
            "--branches",
            "6",
        ]))
        .unwrap();
        cmd_tune(&opts);
    }
}
