//! The Switchboard control plane.
//!
//! Section 3 of the paper: Switchboard translates a customer's high-level
//! chain specification into data-plane forwarding rules across
//! geo-distributed sites, through three phases — services exist before any
//! chain is specified; chain creation coordinates Global Switchboard, edge
//! and VNF controllers and Local Switchboards over the global message bus
//! (Figure 4, including the two-phase commit with VNF controllers); and
//! connection setup happens purely in the data plane.
//!
//! This crate implements every control-plane role:
//!
//! - [`VnfController`]: one per VNF service — owns the instances at each
//!   deployment site, votes in the two-phase commit, publishes instance
//!   lists and weights on the bus;
//! - [`EdgeController`] and [`EdgeInstance`]: resolve customer attachments
//!   to edge sites, affix/remove the two packet labels, pin each
//!   connection to a wide-area route;
//! - [`LocalSwitchboard`]: one per site — elastically maintains the
//!   forwarder pool, subscribes to the relevant topics (Figure 6), and
//!   combines wide-area routes with published instance weights into the
//!   hierarchical load-balancing rules installed at forwarders;
//! - [`ControlPlane`]: the Global Switchboard — the chain registry, label
//!   allocator, traffic-engineering driver, and the deployment saga whose
//!   per-step virtual-time latencies reproduce Figure 10a and Table 2.
//!
//! All cross-site interactions run over the [`sb_msgbus::ProxyBus`] on
//! virtual time, so every reported latency is deterministic.
//!
//! The control plane optionally consults a seeded
//! [`sb_faults::FaultPlan`] (attached with
//! [`ControlPlane::set_fault_plan`]): bus publishes are then subject to
//! loss/duplication/delay, crashed sites are routed around, and the
//! two-phase commit injects prepare/commit timeouts that are absorbed by
//! retries with exponential backoff — or rolled back without leaking a
//! reservation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

mod announce;
mod chain;
mod edge;
mod global;
mod install;
mod local;
mod messages;
pub mod reconcile;
mod reserve;
mod solve;
mod vnfctl;

pub use chain::{ChainHandle, ChainRequest, DeploymentReport};
pub use edge::{EdgeController, EdgeInstance};
pub use global::{ControlPlane, ControlPlaneConfig};
pub use reconcile::{DrainReport, FleetReconciler};
pub use local::LocalSwitchboard;
pub use messages::{ForwarderRecord, InstanceRecord, RouteAnnouncement};
pub use sb_faults::{FaultPlan, FaultSpec, SharedFaultPlan};
pub use vnfctl::VnfController;
