//! Scale check: every invariant oracle over `N = 10^4`-peer worlds.
//!
//! The explorer in [`crate::cases`] sweeps *small* worlds (9–25 peers)
//! across many perturbed schedules. This module is the complementary
//! axis: each protocol family runs **once**, at large `N`, on the
//! dense-arena state layout and timer-wheel event queue, and all six
//! invariant oracles are consulted — exactness and cost reconciliation
//! on a full netFilter epoch, tree well-formedness through a mid-run
//! crash, and epoch-fence / no-inflation / census-soundness across
//! periodic resilient epochs.
//!
//! CI's `scale` job runs the `#[ignore]`d `N = 10^4` test in release
//! mode (debug builds take minutes at this size):
//!
//! ```text
//! cargo test --release -p ifi-simcheck six_oracles_hold_at_n10000 -- --ignored
//! ```
//!
//! A small-`N` twin of the same harness runs in tier-1 so the plumbing
//! itself can never rot behind the ignore flag.

use ifi_hierarchy::{Hierarchy, MaintainProtocol, MultiHierarchy};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_sim::{sansio_world, DetRng, Duration, PeerId, SimConfig, SimTime};
use ifi_workload::{GroundTruth, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::resilient::{ResilientConfig, ResilientProtocol};
use netfilter::{NetFilterConfig, Threshold};

use crate::oracle::{
    CensusSoundnessOracle, Checkpoint, CostOracle, EpochFenceOracle, ExactnessOracle,
    NoInflationOracle, Oracle, TreeOracle,
};

/// One oracle's verdict from the scale run.
#[derive(Debug)]
pub struct ScaleVerdict {
    /// The oracle's stable name (matches [`Oracle::name`]).
    pub oracle: &'static str,
    /// `Err(detail)` if the invariant was violated.
    pub result: Result<(), String>,
}

fn secs(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

fn hb() -> HeartbeatConfig {
    HeartbeatConfig {
        interval: Duration::from_millis(500),
        timeout: Duration::from_millis(1600),
        bytes: 8,
    }
}

/// Keeps the *first* violation: later checkpoints of a stateful oracle
/// can cascade from the first broken invariant, so only the first report
/// is diagnostic.
fn record(slot: &mut Result<(), String>, fresh: Result<(), String>) {
    if slot.is_ok() {
        *slot = fresh;
    }
}

/// Runs each protocol family once at `n` peers and consults all six
/// invariant oracles. The stateful resilient oracles are additionally
/// checked every 2 s of sim time, mirroring the explorer's interval
/// checkpoints.
pub fn run_scale_check(n: usize, seed: u64) -> Vec<ScaleVerdict> {
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: n,
            items: 20_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    let cfg = NetFilterConfig::builder()
        .filter_size(100)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .build();
    let truth = GroundTruth::compute(&data);
    let expected = truth.frequent_items(cfg.threshold.resolve(data.total_value()));
    let mut verdicts = Vec::new();

    // netfilter family: one full epoch over the DES must equal ground
    // truth and owe no paper-phase message it did not send.
    {
        let h = Hierarchy::balanced(n, 3);
        let mut exact = ExactnessOracle {
            root: h.root(),
            expected: expected.clone(),
        };
        let mut cost = CostOracle(h.clone());
        let mut w = sansio_world(
            SimConfig::default().with_seed(seed),
            NetFilterProtocol::peers(&cfg, &h, &data, None),
        );
        w.enable_metrics_sink();
        w.start();
        w.run_to_quiescence();
        verdicts.push(ScaleVerdict {
            oracle: "exactness",
            result: exact.check(&w, Checkpoint::End),
        });
        verdicts.push(ScaleVerdict {
            oracle: "cost-reconcile",
            result: cost.check(&w, Checkpoint::End),
        });
    }

    // maintain family: repair through a mid-run interior crash; the
    // survivors must form a well-formed tree at the horizon.
    {
        let topo = Topology::random_regular(n, 4, &mut DetRng::new(seed));
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let peers: Vec<MaintainProtocol> = (0..n)
            .map(|i| {
                let p = PeerId::new(i);
                MaintainProtocol::new(&h, p, topo.neighbors(p).to_vec(), hb())
            })
            .collect();
        let mut w = sansio_world(SimConfig::default().with_seed(seed), peers);
        w.schedule_kill(secs(5), PeerId::new(7));
        w.start();
        w.run_until(secs(20));
        let mut tree = TreeOracle {
            topology: topo,
            root: PeerId::new(0),
        };
        verdicts.push(ScaleVerdict {
            oracle: "tree",
            result: tree.check(&w, Checkpoint::End),
        });
    }

    // resilient family: periodic epochs; the fence, inflation, and
    // census oracles watch every interval checkpoint plus the horizon.
    {
        let topo = Topology::random_regular(n, 5, &mut DetRng::new(seed ^ 0x5ca1e));
        let mh = MultiHierarchy::with_roots(&topo, &[PeerId::new(0)]);
        let rc = ResilientConfig {
            heartbeat: hb(),
            query_period: Duration::from_secs(4),
            epoch_timeout: Duration::from_secs(12),
            takeover_grace: Duration::from_secs(4),
            takeover_stagger: Duration::from_secs(3),
        };
        let mut w = sansio_world(
            SimConfig::default().with_seed(seed),
            ResilientProtocol::peers(&cfg, rc, &topo, &mh, &data, None),
        );
        w.start();
        let mut fence = EpochFenceOracle::new();
        let mut inflation = NoInflationOracle { truth };
        let mut census = CensusSoundnessOracle { expected };
        let (mut fence_r, mut inflation_r, mut census_r) = (Ok(()), Ok(()), Ok(()));
        const HORIZON_S: u64 = 14;
        for t in (2..=HORIZON_S).step_by(2) {
            w.run_until(secs(t));
            let at = if t == HORIZON_S {
                Checkpoint::End
            } else {
                Checkpoint::Interval
            };
            record(&mut fence_r, fence.check(&w, at));
            record(&mut inflation_r, inflation.check(&w, at));
            record(&mut census_r, census.check(&w, at));
        }
        verdicts.push(ScaleVerdict {
            oracle: "epoch-fence",
            result: fence_r,
        });
        verdicts.push(ScaleVerdict {
            oracle: "no-inflation",
            result: inflation_r,
        });
        verdicts.push(ScaleVerdict {
            oracle: "census-soundness",
            result: census_r,
        });
    }

    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_all_pass(verdicts: Vec<ScaleVerdict>) {
        assert_eq!(verdicts.len(), 6);
        let names: Vec<&str> = verdicts.iter().map(|v| v.oracle).collect();
        assert_eq!(
            names,
            [
                "exactness",
                "cost-reconcile",
                "tree",
                "epoch-fence",
                "no-inflation",
                "census-soundness"
            ]
        );
        for v in verdicts {
            assert!(v.result.is_ok(), "{}: {:?}", v.oracle, v.result);
        }
    }

    /// Tier-1-speed twin of the scale gate: same harness, small `N`.
    #[test]
    fn six_oracles_hold_at_n500() {
        assert_all_pass(run_scale_check(500, 20080617));
    }

    /// The scale lane's gate (see module docs for the release-mode
    /// invocation CI uses).
    #[test]
    #[ignore = "N = 10^4 takes minutes in debug; CI runs it with --release"]
    fn six_oracles_hold_at_n10000() {
        assert_all_pass(run_scale_check(10_000, 20080617));
    }
}
