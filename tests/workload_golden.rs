//! Golden digests of the input path: both placements, the Zipf
//! apportionment and the ground truth, at the corners of the parameter
//! space (one peer, uniform and steep skew, fewer items than peers, one
//! instance per item) and at one N = 10^4 point.
//!
//! Every figure, baseline and oracle starts from these inputs, so a
//! rewrite of the generators must reproduce them byte for byte. The
//! constants were recorded at commit 29ea509, before the generators and
//! `GroundTruth::compute` were rebuilt as linear passes over flat arrays.

use ifi_sim::{mix64, PeerId};
use ifi_workload::{GroundTruth, ItemId, SystemData, WorkloadParams, ZipfSampler};

/// Folds a stream of words into one 64-bit digest.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, |acc, w| mix64(acc ^ w))
}

/// Every peer's local item set, in peer order, plus the totals.
fn data_digest(data: &SystemData) -> u64 {
    let mut words = vec![
        data.peer_count() as u64,
        data.universe(),
        data.total_value(),
    ];
    for p in 0..data.peer_count() {
        let items = data.local_items(PeerId::new(p));
        words.push(items.len() as u64);
        words.extend(items.iter().flat_map(|&(id, v)| [id.0, v]));
    }
    digest(words)
}

/// `globals`, `value_of` over `0..n + 5`, `total_value` and
/// `present_items`.
fn truth_digest(data: &SystemData) -> u64 {
    let truth = GroundTruth::compute(data);
    let mut words = vec![truth.total_value(), truth.present_items() as u64];
    words.extend(truth.globals().iter().flat_map(|&(id, v)| [id.0, v]));
    words.extend((0..data.universe() + 5).map(|k| truth.value_of(ItemId(k))));
    digest(words)
}

/// `(label, params, seed, [generate, its truth, generate_paper, its
/// truth, apportion])`.
type Row = (&'static str, WorkloadParams, u64, [u64; 5]);

fn point(peers: usize, items: u64, instances_per_item: u64, theta: f64) -> WorkloadParams {
    WorkloadParams {
        peers,
        items,
        instances_per_item,
        theta,
    }
}

fn rows() -> Vec<Row> {
    vec![
        (
            "one peer",
            point(1, 300, 10, 1.0),
            11,
            [
                0x54c734af0fd5b1f6,
                0x89d273f104aae9af,
                0x0a9c9183440de235,
                0x178d2d349eef08f9,
                0xe3606acc3c2c4f10,
            ],
        ),
        (
            "uniform",
            point(40, 800, 10, 0.0),
            12,
            [
                0xe22ef81998ca4868,
                0xe40d698f8e8772cb,
                0xbb884d97e28f98c6,
                0x25430bbe8081dee6,
                0xa1a95ab252eddf14,
            ],
        ),
        (
            "steep skew",
            point(40, 800, 10, 2.0),
            13,
            [
                0xd676e7394a94a7d0,
                0xc4728b8d700a1104,
                0xd4051ef8d2d2fdec,
                0xf4f109d71ebd8392,
                0xd617f3c7efec4d3a,
            ],
        ),
        (
            "fewer items than peers",
            point(200, 60, 10, 1.0),
            14,
            [
                0x088bdd96cf0da795,
                0x813980b0f8ec527f,
                0x34e51bda6ec8d215,
                0xde176730aeff7f2a,
                0xcc5443e6daae8b6e,
            ],
        ),
        (
            "one instance per item",
            point(40, 800, 1, 1.0),
            15,
            [
                0x318f3d7660bcb9ec,
                0x757e6308f4be63f2,
                0x8e2179198c5f6a8a,
                0xa4409655133f716f,
                0xd571135b3aef7e01,
            ],
        ),
        (
            "N = 10^4",
            point(10_000, 20_000, 10, 1.0),
            16,
            [
                0xc8d5c6013c50b860,
                0x514f051b1a96a340,
                0xb1e181a43a1ed33f,
                0x3ca38f43e88bfc1f,
                0xf2b62f8b3d5633ed,
            ],
        ),
    ]
}

#[test]
fn inputs_match_their_golden_digests() {
    let mut stale = Vec::new();
    for (label, params, seed, want) in rows() {
        let drawn = SystemData::generate(&params, seed);
        let paper = SystemData::generate_paper(&params, seed);
        let zipf = ZipfSampler::new(params.items as usize, params.theta);
        let total = params.items * params.instances_per_item;
        let got = [
            data_digest(&drawn),
            truth_digest(&drawn),
            data_digest(&paper),
            truth_digest(&paper),
            digest(zipf.apportion(total)),
        ];
        if got != want {
            let hex: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
            stale.push(format!("{label}: [{}]", hex.join(", ")));
        }
    }
    assert!(
        stale.is_empty(),
        "input digests moved (the rows they now print):\n{}",
        stale.join("\n")
    );
}
