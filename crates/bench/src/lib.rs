//! The benchmark harness: one module per paper table/figure.
//!
//! Every experiment of the paper's evaluation section (Sections 5.4, 6, 7)
//! is implemented as a function returning structured results, so the same
//! code backs two consumers:
//!
//! - the `repro` binary (`cargo run --release -p sb-bench --bin repro`),
//!   which prints paper-style rows for every experiment;
//! - shape assertions in the workspace integration tests.
//!
//! See `DESIGN.md` §3 for the experiment ↔ module index and
//! `EXPERIMENTS.md` for measured-vs-paper numbers.

pub mod controlplane;
pub mod dataplane_baseline;
pub mod fig10_dynamic_routing;
pub mod fig11_e2e_routing;
pub mod fig12_te;
pub mod fig13_ablations;
pub mod fig7_forwarder_overhead;
pub mod fig8_dataplane_scaling;
pub mod fig9_msgbus;
pub mod scenarios_report;
pub mod table2_edge_addition;
pub mod table3_cache_sharing;
pub mod timevarying;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast parameters: the full suite completes in minutes.
    Quick,
    /// The paper's parameters where computationally feasible.
    Paper,
}

impl Scale {
    /// Picks between a quick and a paper-scale value.
    #[must_use]
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}
