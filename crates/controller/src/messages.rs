//! Control-plane message payloads exchanged over the global bus.
//!
//! The bus carries these values, each shared by every delivered copy, not
//! the JSON the prototype's ODL data store held (Section 4.5).

use sb_types::{ChainId, ForwarderId, InstanceId, LabelPair, RouteId, SiteId, VnfId};

/// A wide-area route for one chain, as propagated by Global Switchboard to
/// edge controllers, VNF controllers, and Local Switchboards (Figure 4,
/// arrow 3). Each route carries its own label pair ("allocates unique
/// labels to identify the chain and its wide-area routes").
#[derive(Debug, Clone, PartialEq)]
pub struct RouteAnnouncement {
    /// The chain this route belongs to.
    pub chain: ChainId,
    /// The route identifier.
    pub route: RouteId,
    /// The labels packets on this route carry.
    pub labels: LabelPair,
    /// The ingress edge site.
    pub ingress_site: SiteId,
    /// The egress edge site.
    pub egress_site: SiteId,
    /// The ordered VNFs of the chain.
    pub vnfs: Vec<VnfId>,
    /// The site hosting each VNF, in chain order.
    pub sites: Vec<SiteId>,
    /// The fraction of the chain's traffic carried by this route.
    pub fraction: f64,
    /// The configuration epoch that installed (or last updated) this
    /// route; deploy installs epoch 1. Forwarder rows are tagged with it,
    /// so an update installs an added route's rows beside the old routes'
    /// and a re-tag of a modified route's rows retires their old epoch at
    /// the *make* step (make-before-break, DESIGN.md §10).
    pub epoch: u64,
}

/// One VNF instance as published by its controller (Figure 4, arrow 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceRecord {
    /// The instance identifier.
    pub instance: InstanceId,
    /// The load-balancing weight the instance publishes (Section 5.2).
    pub weight: f64,
    /// Whether the instance understands Switchboard labels (Section 5.3).
    pub supports_labels: bool,
}

/// One forwarder with its aggregate weight ("a forwarder publishes its
/// weight based on the sum of the weights of the VNF instances with which
/// it is associated", Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwarderRecord {
    /// The forwarder identifier.
    pub forwarder: ForwarderId,
    /// The aggregate weight.
    pub weight: f64,
}
