//! # ifi-bench — experiment harness for the netFilter paper
//!
//! Regenerates every figure of the evaluation (§V):
//!
//! | experiment | paper | sweep |
//! |------------|-------|-------|
//! | [`fig5`]   | Fig. 5(a)+(b) | filter size `g`, `f = 3` |
//! | [`fig6`]   | Fig. 6(a)+(b) | number of filters `f`, `g = 100` |
//! | [`fig7`]   | Fig. 7(a)+(b) | data skewness `θ`, netFilter vs naive, `n ∈ {10^5, 10^6}` |
//! | [`fig8`]   | Fig. 8 | threshold ratio `φ` × skewness, `n = 10^6` |
//! | [`ablation`] | §IV | Eq. 3/6 optima vs measured; gossip vs hierarchy |
//!
//! The robustness gates CI runs — loss, churn, schedule exploration, real
//! fabrics, chaos and the approximate/continuous engines — are the rows
//! of one registry, [`smoke`]. Every committed snapshot under `baselines/`
//! is a row of another, [`baseline`], compared byte for byte.
//!
//! Run with `cargo run -p ifi-bench --release --bin experiments -- all`
//! (add `--quick` for a scaled-down smoke pass). Every experiment prints
//! the paper's table/series plus a *shape check* verifying the qualitative
//! claims (interior cost minimum, netFilter ≪ naive, monotone trends).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod approx_sweep;
pub mod baseline;
pub mod continuous_sweep;
pub mod depth;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod output;
pub mod par;
pub mod perfbench;
mod runner;
pub mod smoke;
pub mod table;

pub use runner::{instrumented_summary, summarize_netfilter, RunSummary, Scale};

/// Outcome of one qualitative shape check.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What the paper claims.
    pub claim: String,
    /// Whether the regenerated data exhibits it.
    pub holds: bool,
    /// Supporting numbers.
    pub detail: String,
}

impl ShapeCheck {
    /// Creates a check result.
    pub fn new(claim: impl Into<String>, holds: bool, detail: impl Into<String>) -> Self {
        ShapeCheck {
            claim: claim.into(),
            holds,
            detail: detail.into(),
        }
    }

    /// Prints the check as a `[PASS]`/`[FAIL]` line.
    pub fn print(&self) {
        println!(
            "  [{}] {} ({})",
            if self.holds { "PASS" } else { "FAIL" },
            self.claim,
            self.detail
        );
    }
}

/// Prints a labelled list of checks and returns whether all passed.
pub fn report_checks(title: &str, checks: &[ShapeCheck]) -> bool {
    println!("shape checks — {title}:");
    for c in checks {
        c.print();
    }
    checks.iter().all(|c| c.holds)
}

/// The rows of a `(name, _)` registry named in `only`, in that order,
/// or every row when `only` is `None`.
///
/// # Errors
///
/// Names the first unknown entry and lists the registered ones.
pub(crate) fn select<'r, F>(
    registry: &'r [(&'static str, F)],
    only: Option<&[&str]>,
    kind: &str,
) -> Result<Vec<&'r (&'static str, F)>, String> {
    let Some(names) = only else {
        return Ok(registry.iter().collect());
    };
    let known = || {
        registry
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(", ")
    };
    names
        .iter()
        .map(|want| {
            registry
                .iter()
                .find(|(n, _)| n == want)
                .ok_or_else(|| format!("unknown {kind} {want:?} (known: {})", known()))
        })
        .collect()
}
