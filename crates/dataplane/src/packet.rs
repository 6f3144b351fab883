//! Packets and data-plane addresses.

use sb_types::{EdgeInstanceId, FlowKey, ForwarderId, InstanceId, LabelPair, SiteId};
use std::fmt;

/// The address of a data-plane element a packet can be handed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Addr {
    /// A VNF instance attached to a forwarder.
    Vnf(InstanceId),
    /// A Switchboard forwarder (possibly at another site, via tunnel).
    Forwarder(ForwarderId),
    /// An edge instance (chain ingress/egress).
    Edge(EdgeInstanceId),
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Vnf(i) => write!(f, "{i}"),
            Addr::Forwarder(i) => write!(f, "{i}"),
            Addr::Edge(i) => write!(f, "{i}"),
        }
    }
}

/// A VXLAN-like tunnel header used when a packet crosses the wide area
/// between two forwarders (Section 5.4: "VXLAN tunnels help isolate
/// Switchboard's traffic in a shared cloud").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TunnelHeader {
    /// The virtual network identifier.
    pub vni: u32,
    /// The site of the encapsulating forwarder.
    pub src_site: SiteId,
    /// The site of the decapsulating forwarder.
    pub dst_site: SiteId,
}

/// A packet descriptor: the MPLS-like label pair, the connection 5-tuple,
/// the size, and a small metadata word VNFs may use (e.g. the object id a
/// cache request refers to).
///
/// `Packet` is `Copy` and heap-free so the forwarding hot path measured in
/// Figure 8 does no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Packet {
    /// The chain/egress label pair; `None` when labels were stripped for a
    /// label-unaware VNF or before a `Bridge`-mode forwarder.
    pub labels: Option<LabelPair>,
    /// The connection 5-tuple.
    pub key: FlowKey,
    /// The wide-area tunnel header, when in flight between forwarders.
    pub tunnel: Option<TunnelHeader>,
    /// Wire size in bytes.
    pub size: u16,
    /// Free-form metadata for VNFs (object ids, sequence numbers…).
    pub meta: u64,
}

impl Packet {
    /// Creates an unlabeled packet (as emitted by a customer host before the
    /// ingress edge instance affixes labels).
    #[must_use]
    pub fn unlabeled(key: FlowKey, size: u16) -> Self {
        Self {
            labels: None,
            key,
            tunnel: None,
            size,
            meta: 0,
        }
    }

    /// Creates a labeled packet (as it looks after the ingress edge).
    #[must_use]
    pub fn labeled(labels: LabelPair, key: FlowKey, size: u16) -> Self {
        Self {
            labels: Some(labels),
            key,
            tunnel: None,
            size,
            meta: 0,
        }
    }

    /// Returns a copy with the labels affixed (edge ingress behaviour).
    #[must_use]
    pub fn with_labels(mut self, labels: LabelPair) -> Self {
        self.labels = Some(labels);
        self
    }

    /// Returns a copy with the labels stripped (edge egress behaviour, or a
    /// forwarder handing the packet to a label-unaware VNF).
    #[must_use]
    pub fn without_labels(mut self) -> Self {
        self.labels = None;
        self
    }

    /// Returns a copy encapsulated in a wide-area tunnel.
    #[must_use]
    pub fn encapsulated(mut self, tunnel: TunnelHeader) -> Self {
        self.tunnel = Some(tunnel);
        self
    }

    /// Returns a copy with the tunnel header removed.
    #[must_use]
    pub fn decapsulated(mut self) -> Self {
        self.tunnel = None;
        self
    }

    /// Returns a copy with `meta` set.
    #[must_use]
    pub fn with_meta(mut self, meta: u64) -> Self {
        self.meta = meta;
        self
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.labels {
            Some(l) => write!(f, "[{l}] {} ({}B)", self.key, self.size),
            None => write!(f, "[-] {} ({}B)", self.key, self.size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_types::{ChainLabel, EgressLabel};

    fn key() -> FlowKey {
        FlowKey::tcp([1, 1, 1, 1], 1000, [2, 2, 2, 2], 80)
    }

    fn labels() -> LabelPair {
        LabelPair::new(ChainLabel::new(3), EgressLabel::new(4))
    }

    #[test]
    fn label_lifecycle() {
        let p = Packet::unlabeled(key(), 64);
        assert!(p.labels.is_none());
        let p = p.with_labels(labels());
        assert_eq!(p.labels, Some(labels()));
        let p = p.without_labels();
        assert!(p.labels.is_none());
    }

    #[test]
    fn tunnel_lifecycle() {
        let t = TunnelHeader {
            vni: 7,
            src_site: SiteId::new(0),
            dst_site: SiteId::new(1),
        };
        let p = Packet::labeled(labels(), key(), 500).encapsulated(t);
        assert_eq!(p.tunnel, Some(t));
        assert!(p.decapsulated().tunnel.is_none());
    }

    #[test]
    fn packet_is_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Packet>();
        // Keep the hot-path descriptor compact (fits in a cache line pair).
        assert!(std::mem::size_of::<Packet>() <= 64);
    }

    #[test]
    fn meta_travels_with_packet() {
        let p = Packet::unlabeled(key(), 100).with_meta(42);
        assert_eq!(p.meta, 42);
        assert_eq!(p.with_labels(labels()).meta, 42);
    }

    #[test]
    fn addr_display() {
        assert_eq!(Addr::Vnf(InstanceId::new(1)).to_string(), "inst-1");
        assert_eq!(Addr::Forwarder(ForwarderId::new(2)).to_string(), "fwd-2");
        assert_eq!(Addr::Edge(EdgeInstanceId::new(3)).to_string(), "edge-3");
    }
}
