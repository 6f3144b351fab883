//! The directed topology graph: nodes, capacitated links, adjacency.

use sb_types::{Error, LinkId, Millis, NodeId, Rate, Result};

/// A network node (a backbone PoP in the tier-1 setting).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: NodeId,
    name: String,
    /// Geographic position (latitude, longitude) in degrees; used by the
    /// tier-1 generator to derive propagation latencies and by the gravity
    /// traffic model. Zero for synthetic nodes without geography.
    position: (f64, f64),
    /// Relative demand weight of the node (e.g. metro population); drives
    /// the gravity traffic model.
    weight: f64,
}

impl Node {
    /// The node identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The human-readable node name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `(latitude, longitude)` in degrees.
    #[must_use]
    pub fn position(&self) -> (f64, f64) {
        self.position
    }

    /// The gravity-model demand weight.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

/// A directed, capacitated link between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    id: LinkId,
    from: NodeId,
    to: NodeId,
    bandwidth: Rate,
    latency: Millis,
}

impl Link {
    /// The link identifier (`e ∈ E` in Table 1).
    #[must_use]
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The upstream endpoint.
    #[must_use]
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// The downstream endpoint.
    #[must_use]
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// The bandwidth `b_e`.
    #[must_use]
    pub fn bandwidth(&self) -> Rate {
        self.bandwidth
    }

    /// The propagation latency of the link.
    #[must_use]
    pub fn latency(&self) -> Millis {
        self.latency
    }
}

/// An immutable directed network topology.
///
/// Construct with [`TopologyBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing link ids per node.
    out_links: Vec<Vec<LinkId>>,
}

impl Topology {
    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All node identifiers in insertion order.
    #[must_use]
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(Node::id).collect()
    }

    /// All nodes.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The node with identifier `id`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] if the node does not exist.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes
            .get(id.index())
            .ok_or_else(|| Error::unknown("node", id))
    }

    /// The link with identifier `id`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] if the link does not exist.
    pub fn link(&self, id: LinkId) -> Result<&Link> {
        self.links
            .get(id.index())
            .ok_or_else(|| Error::unknown("link", id))
    }

    /// Iterates over the links leaving `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn links_from(&self, node: NodeId) -> impl Iterator<Item = &Link> + '_ {
        self.out_links[node.index()]
            .iter()
            .map(move |l| &self.links[l.index()])
    }

    /// Looks up a node by name.
    #[must_use]
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// The directed link from `a` to `b`, if one exists.
    #[must_use]
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        self.links_from(a).find(|l| l.to() == b)
    }
}

/// Builder for [`Topology`] ([`C-BUILDER`]).
///
/// # Examples
///
/// ```
/// use sb_types::Millis;
/// use sb_topology::TopologyBuilder;
///
/// let mut b = TopologyBuilder::new();
/// let ny = b.add_node("NewYork", (40.7, -74.0), 8.4);
/// let ch = b.add_node("Chicago", (41.9, -87.6), 2.7);
/// b.add_duplex_link(ny, ch, 100.0, Millis::new(9.0));
/// let topo = b.build();
/// assert_eq!(topo.num_nodes(), 2);
/// assert_eq!(topo.num_links(), 2); // duplex = two directed links
/// ```
///
/// [`C-BUILDER`]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its identifier.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        position: (f64, f64),
        weight: f64,
    ) -> NodeId {
        let id = NodeId::new(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(Node {
            id,
            name: name.into(),
            position,
            weight,
        });
        id
    }

    /// Adds a directed link and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint has not been added, if `bandwidth` is not
    /// strictly positive, or if `latency` is negative.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, bandwidth: Rate, latency: Millis) -> LinkId {
        assert!(from.index() < self.nodes.len(), "unknown from-node {from}");
        assert!(to.index() < self.nodes.len(), "unknown to-node {to}");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        assert!(latency.value() >= 0.0, "latency must be non-negative");
        let id = LinkId::new(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link {
            id,
            from,
            to,
            bandwidth,
            latency,
        });
        id
    }

    /// Adds a pair of directed links `a→b` and `b→a` with identical
    /// bandwidth and latency; returns their identifiers.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: Rate,
        latency: Millis,
    ) -> (LinkId, LinkId) {
        (
            self.add_link(a, b, bandwidth, latency),
            self.add_link(b, a, bandwidth, latency),
        )
    }

    /// Finalizes the topology.
    #[must_use]
    pub fn build(self) -> Topology {
        let mut out_links = vec![Vec::new(); self.nodes.len()];
        for l in &self.links {
            out_links[l.from().index()].push(l.id());
        }
        Topology {
            nodes: self.nodes,
            links: self.links,
            out_links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a", (0.0, 0.0), 1.0);
        let c = b.add_node("b", (0.0, 1.0), 1.0);
        let d = b.add_node("c", (1.0, 0.0), 1.0);
        b.add_duplex_link(a, c, 10.0, Millis::new(1.0));
        b.add_duplex_link(c, d, 10.0, Millis::new(2.0));
        b.add_duplex_link(a, d, 10.0, Millis::new(5.0));
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 6);
        assert_eq!(t.node_ids(), vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn adjacency_contains_outgoing_only() {
        let t = triangle();
        let a = NodeId::new(0);
        let out: Vec<_> = t.links_from(a).map(|l| l.to()).collect();
        assert_eq!(out, vec![NodeId::new(1), NodeId::new(2)]);
        for l in t.links_from(a) {
            assert_eq!(l.from(), a);
        }
    }

    #[test]
    fn lookups_fail_gracefully() {
        let t = triangle();
        assert!(t.node(NodeId::new(99)).is_err());
        assert!(t.link(LinkId::new(99)).is_err());
        assert!(t.node_by_name("nowhere").is_none());
        assert!(t.node_by_name("b").is_some());
    }

    #[test]
    fn link_between_finds_direct_links() {
        let t = triangle();
        let l = t.link_between(NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!(l.latency(), Millis::new(5.0));
        assert!(t
            .link_between(NodeId::new(0), NodeId::new(0))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a", (0.0, 0.0), 1.0);
        let c = b.add_node("b", (0.0, 0.0), 1.0);
        b.add_link(a, c, 0.0, Millis::new(1.0));
    }

    #[test]
    #[should_panic(expected = "unknown to-node")]
    fn rejects_unknown_endpoint() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a", (0.0, 0.0), 1.0);
        b.add_link(a, NodeId::new(7), 1.0, Millis::new(1.0));
    }
}
