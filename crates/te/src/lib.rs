//! Global Switchboard traffic engineering.
//!
//! Section 4 of the paper: Global Switchboard builds a network model
//! (Table 1) and computes wide-area chain routes with either an optimal
//! linear program (SB-LP, Section 4.3) or a fast dynamic-programming
//! heuristic (SB-DP, Section 4.4). This crate implements both, the four
//! comparison baselines of Section 7.3 (Anycast, Compute-Aware, DP-Latency,
//! OneHop), and the two capacity-planning problems (Section 4.2):
//!
//! - [`NetworkModel`]: nodes, links, routing fractions, cloud sites with
//!   compute capacities, the VNF catalog with per-site capacities, and the
//!   chain set with per-stage forward/reverse traffic — Table 1 verbatim;
//! - [`lp::max_throughput`] / [`lp::min_latency`]: the chain-routing LP
//!   (objective Eq 3; compute, flow-conservation and MLU constraints
//!   Eqs 4-6) solved by the `sb-lp` simplex;
//! - [`dp::route_chains`]: SB-DP — per-chain dynamic program over the site
//!   table `E(z, s)` (Eq 8) with the Fortz-Thorup utilization cost, with
//!   iterative path extraction until the chain's demand is placed;
//! - [`baselines`]: the decentralized schemes Switchboard is compared to;
//! - [`capacity`]: the VNF-placement MIP and the cloud capacity LP with
//!   their uniform/random baselines (Figure 13b/c);
//! - [`eval::Evaluation`]: the shared evaluator that turns any scheme's
//!   [`RoutingSolution`] into the throughput/latency numbers reported in
//!   Figures 11-13, so all schemes are scored identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod batch;
pub mod capacity;
pub mod delta;
pub mod dp;
pub mod eval;
pub mod lp;
mod model;
mod route;

pub use batch::{route_chains_batched, CacheStats, SubproblemCache};
pub use model::{ChainSpec, NetworkModel, NetworkModelBuilder, Place, VnfSpec};
pub use route::{ChainRoutes, RoutePath, RoutingSolution, StageFlow};
