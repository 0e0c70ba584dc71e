//! # ifi-bench — experiment harness for the netFilter paper
//!
//! Regenerates every figure of the evaluation (§V) from one registry,
//! [`FIGURES`], run in this order by `experiments all`:
//!
//! | row | paper | sweep |
//! |-----|-------|-------|
//! | [`fig5`]   | Fig. 5(a)+(b) | filter size `g`, `f = 3` |
//! | [`fig6`]   | Fig. 6(a)+(b) | number of filters `f`, `g = 100` |
//! | [`fig7`]   | Fig. 7(a)+(b) | data skewness `θ`, netFilter vs naive, `n ∈ {10^5, 10^6}` |
//! | [`fig8`]   | Fig. 8 | threshold ratio `φ` × skewness, `n = 10^6` |
//! | [`ablation`] | §IV | Eq. 3/6 optima vs measured; gossip vs hierarchy |
//! | [`depth`]  | §IV-A | bytes per peer at each hierarchy level |
//!
//! Each row returns [`Panel`]s: a table whose one column list also
//! writes the `.dat` file (`--out <dir>`), plus the *shape checks* that
//! verify the paper's qualitative claims (interior cost minimum,
//! netFilter ≪ naive, monotone trends). Every panel prints, dumps and
//! checks the same way, so a row is only its sweep and its claims.
//!
//! The robustness gates CI runs — loss, churn, schedule exploration, real
//! fabrics, chaos and the approximate/continuous engines, whose two
//! sweeps are panels too — are the rows of another registry, [`smoke`].
//! Every committed snapshot under `baselines/` is a row of a third,
//! [`baseline`], compared byte for byte.
//!
//! Run with `cargo run -p ifi-bench --release --bin experiments -- all`
//! (add `--quick` for a scaled-down pass, or name rows: `fig5 fig7`).

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

pub use output::Panel;
pub use runner::{summarize_netfilter, RunSummary, Scale};

/// A figure row: `(scale, seed) → panels`.
pub type Figure = fn(Scale, u64) -> Vec<Panel>;

/// Every experiment of the evaluation by name, in the order
/// `experiments all` runs them.
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::panels),
    ("fig8", fig8::run),
    ("ablation", ablation::run),
    ("depth", depth::run),
];

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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every figure at `--quick` scale, each on its own seed, prints one
    /// row per sweep point and holds every shape check it prints.
    #[test]
    fn every_figure_holds_its_shape_checks_at_quick_scale() {
        let expect: [(&str, u64, &[usize]); 6] = [
            ("fig5", 42, &[9]),
            ("fig6", 44, &[10]),
            ("fig7", 45, &[6, 6]),
            ("fig8", 46, &[6]),
            ("ablation", 47, &[7]),
            ("depth", 48, &[6]),
        ];
        assert_eq!(FIGURES.len(), expect.len());
        std::thread::scope(|s| {
            for (&(name, run), (want, seed, rows)) in FIGURES.iter().zip(expect) {
                assert_eq!(name, want);
                s.spawn(move || {
                    let panels = run(Scale::Quick, seed);
                    let lens: Vec<usize> =
                        panels.iter().map(|p| p.rows.len() + p.text.len()).collect();
                    assert_eq!(lens, rows, "{name}");
                    for panel in panels {
                        for c in &panel.checks {
                            assert!(c.holds, "{name}: {} ({})", c.claim, c.detail);
                        }
                    }
                });
            }
        });
    }
}
