//! A chain as the verbs take and return it, and as the stages hand it
//! on: the request, the installed routes with their stage forwarders, and
//! the report every step writes into.

use crate::messages::{ForwarderRecord, RouteAnnouncement};
use sb_types::{ChainId, Millis, Rate, VnfId};
use std::sync::Arc;

/// A customer's chain specification (the portal form of Section 2).
#[derive(Debug, Clone)]
pub struct ChainRequest {
    /// Chain identifier.
    pub id: ChainId,
    /// Named ingress attachment (registered with the edge controller).
    pub ingress_attachment: String,
    /// Named egress attachment.
    pub egress_attachment: String,
    /// The ordered VNFs.
    pub vnfs: Vec<VnfId>,
    /// Estimated forward traffic per stage.
    pub forward: Rate,
    /// Estimated reverse traffic per stage.
    pub reverse: Rate,
}

/// Per-step virtual-time latencies of one control-plane operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeploymentReport {
    /// `(step name, latency)` in execution order.
    pub steps: Vec<(String, Millis)>,
    /// Degraded-but-survivable events observed while deploying (lost
    /// publishes that were retried, commit acknowledgments that never
    /// arrived, crashed sites routed around…). Empty on a clean run.
    pub partial_failures: Vec<String>,
    /// Wide-area message copies sent on the bus by this operation
    /// (critical path only). A delta-scoped update sends strictly fewer
    /// than a full redeploy — the Figure 10 comparison.
    pub wan_messages: usize,
    /// Distinct (VNF, site) participants prepared in two-phase commit.
    /// Delta-scoped 2PC contacts only participants whose reservation
    /// grows; unchanged reservations are never re-prepared.
    pub participants_2pc: usize,
}

impl DeploymentReport {
    pub(crate) fn push(&mut self, name: impl Into<String>, latency: Millis) {
        self.steps.push((name.into(), latency));
    }

    pub(crate) fn note(&mut self, what: impl Into<String>) {
        self.partial_failures.push(what.into());
    }

    /// Whether the operation completed without degraded events.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.partial_failures.is_empty()
    }

    /// Total latency across steps.
    #[must_use]
    pub fn total(&self) -> Millis {
        self.steps.iter().map(|&(_, d)| d).sum()
    }
}

/// A deployed chain: its routes and the deployment timing.
#[derive(Debug, Clone)]
pub struct ChainHandle {
    /// The chain.
    pub chain: ChainId,
    /// All active routes: the announcements the chain record holds.
    pub routes: Vec<Arc<RouteAnnouncement>>,
    /// The deployment timing report.
    pub report: DeploymentReport,
}

/// An installed route and the forwarder records each of its stages
/// published when it was installed (Figure 6). Stage `z`'s records are
/// stage `z - 1`'s next hops and stage `z + 1`'s previous hops, and stage
/// 0's are the first hop of every edge bound to the route. Both are the
/// values the bus carried, shared with the messages that published them.
#[derive(Debug, Clone)]
pub(crate) struct InstalledRoute {
    pub(crate) ann: Arc<RouteAnnouncement>,
    pub(crate) stages: Vec<Arc<Vec<ForwarderRecord>>>,
}
