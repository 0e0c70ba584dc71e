//! Trending songs over a sliding window — footnote 1 of the paper:
//! *"A music marketing firm may want to find out which MP3 songs have been
//! downloaded more than 10,000 times in the past week."*
//!
//! Each peer logs its local downloads into a 7-slice (daily) sliding
//! window; the firm queries at the end of every day. A song that goes
//! viral enters the answer, stays while its week-total clears the bar, and
//! ages out exactly seven days after the hype dies — with exact counts at
//! every step, because each query is an ordinary netFilter run over the
//! materialized windows.
//!
//! ```text
//! cargo run --release --example trending
//! ```

use ifi_hierarchy::Hierarchy;
use ifi_sim::DetRng;
use ifi_workload::{ItemId, SystemData, ZipfSampler};
use netfilter::windowed::SlidingWindow;
use netfilter::{topk, NetFilter, NetFilterConfig, Threshold};

const PEERS: usize = 400;
const SONGS: u64 = 50_000;
const DOWNLOADS_PER_PEER_PER_DAY: usize = 60;
const WINDOW_DAYS: usize = 7;
const TREND_BAR: u64 = 10_000;

fn main() {
    let hierarchy = Hierarchy::balanced(PEERS, 3);
    let config = NetFilterConfig::builder()
        .filter_size(150)
        .filters(3)
        .threshold(Threshold::Absolute(TREND_BAR))
        .build();
    let mut windows = vec![SlidingWindow::new(WINDOW_DAYS); PEERS];
    // Every peer's live week, as the data set one netFilter run queries.
    let week = |windows: &[SlidingWindow]| {
        let local = windows.iter().map(SlidingWindow::local_items).collect();
        SystemData::from_local_sets(local, SONGS)
    };

    let catalogue = ZipfSampler::new(SONGS as usize, 0.9);
    let mut rng = DetRng::new(2008).derive(0x3A17);
    let viral_song = ItemId(777);

    println!("day  viral-downloads(day)  trending songs (week total ≥ {TREND_BAR})");
    for day in 1..=14u32 {
        // Background listening.
        for window in &mut windows {
            for _ in 0..DOWNLOADS_PER_PEER_PER_DAY {
                let song = ItemId(catalogue.sample(&mut rng) as u64);
                window.record(song, 1);
            }
        }
        // A song goes viral on days 3-5: a burst well above the bar.
        let viral_today = if (3..=5).contains(&day) { 6_000u64 } else { 0 };
        if viral_today > 0 {
            for _ in 0..viral_today {
                let p = rng.below(PEERS as u64) as usize;
                windows[p].record(viral_song, 1);
            }
        }

        let run = NetFilter::new(config.clone()).run(&hierarchy, &week(&windows));
        let viral_now = run
            .frequent_items()
            .iter()
            .find(|&&(s, _)| s == viral_song)
            .map(|&(_, v)| v);
        println!(
            "{day:>3}  {viral_today:>20}  {:>3} songs{}",
            run.frequent_items().len(),
            match viral_now {
                Some(v) => format!("  ← viral song at {v} this week"),
                None => String::new(),
            }
        );
        for window in &mut windows {
            window.advance();
        }
    }

    // The viral burst (18k over days 3-5) trends from day 4 (first week
    // total over the bar) through day 10 (the last window still holding
    // two burst days); by day 11 only one burst day remains in the window
    // (6k < 10k) and the song drops off the chart — all visible above.
    println!("\n(the viral song ages out of the 7-day window after day 10, as printed above)");

    // Bonus: exact top-5 chart of the final window via the top-k engine.
    let chart = topk::top_k(
        &hierarchy,
        &week(&windows),
        5,
        &topk::TopKConfig::lossless(5),
    );
    println!(
        "\nfinal-week top-5 chart ({} candidates verified, certified: {}):",
        chart.candidates, chart.certified
    );
    for (rank, &(song, downloads)) in chart.items.iter().enumerate() {
        println!(
            "  #{:<2} song {:>6}: {:>7} downloads",
            rank + 1,
            song.0,
            downloads
        );
    }
}
