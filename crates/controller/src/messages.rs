//! Control-plane message payloads exchanged over the global bus.
//!
//! All payloads serialize to JSON, mirroring the prototype's ODL/YANG data
//! store (Section 4.5: "data entries are stored as JSON objects").

use sb_types::{ChainId, ForwarderId, InstanceId, LabelPair, RouteId, SiteId, VnfId};
use serde::{Deserialize, Serialize};

/// A wide-area route for one chain, as propagated by Global Switchboard to
/// edge controllers, VNF controllers, and Local Switchboards (Figure 4,
/// arrow 3). Each route carries its own label pair ("allocates unique
/// labels to identify the chain and its wide-area routes").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForwarderRecord {
    /// The forwarder identifier.
    pub forwarder: ForwarderId,
    /// The aggregate weight.
    pub weight: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_types::{ChainLabel, EgressLabel};

    #[test]
    fn route_announcement_round_trips_json() {
        let ra = RouteAnnouncement {
            chain: ChainId::new(1),
            route: RouteId::new(2),
            labels: LabelPair::new(ChainLabel::new(3), EgressLabel::new(4)),
            ingress_site: SiteId::new(0),
            egress_site: SiteId::new(1),
            vnfs: vec![VnfId::new(5)],
            sites: vec![SiteId::new(2)],
            fraction: 0.5,
            epoch: 3,
        };
        let json = serde_json::to_string(&ra).unwrap();
        let back: RouteAnnouncement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ra);
    }

    #[test]
    fn records_serialize_compactly() {
        let r = InstanceRecord {
            instance: InstanceId::new(9),
            weight: 1.5,
            supports_labels: false,
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"instance\":9"), "{json}");
        let f = ForwarderRecord {
            forwarder: ForwarderId::new(3),
            weight: 2.0,
        };
        let back: ForwarderRecord =
            serde_json::from_str(&serde_json::to_string(&f).unwrap()).unwrap();
        assert_eq!(back, f);
    }
}
