//! The network model of Table 1.

use sb_topology::{Routing, Topology};
use sb_types::{ChainId, Error, LinkId, LoadUnits, Millis, NodeId, Rate, Result, SiteId, VnfId};
use std::collections::HashMap;
use std::sync::Arc;

/// An endpoint of a chain stage: a network node, plus the cloud site when
/// the endpoint is a VNF location (ingress/egress endpoints are plain
/// nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Place {
    /// The network node (`n ∈ N`).
    pub node: NodeId,
    /// The cloud site co-located with the node, for VNF endpoints.
    pub site: Option<SiteId>,
}

impl Place {
    /// An ingress/egress endpoint.
    #[must_use]
    pub fn node(node: NodeId) -> Self {
        Self { node, site: None }
    }

    /// A VNF endpoint at a cloud site.
    #[must_use]
    pub fn site(node: NodeId, site: SiteId) -> Self {
        Self {
            node,
            site: Some(site),
        }
    }
}

/// A VNF in the catalog `F`: where it is deployed (`S_f`), its per-site
/// capacity (`m_sf`), and its compute cost per unit traffic (`l_f`,
/// CPU/byte in the evaluation).
#[derive(Debug, Clone, PartialEq)]
pub struct VnfSpec {
    /// Catalog identifier.
    pub id: VnfId,
    /// Per-site capacity `m_sf`; keys are the deployment sites `S_f`.
    pub site_capacity: HashMap<SiteId, LoadUnits>,
    /// Load per unit of traffic (`l_f`).
    pub load_per_unit: f64,
}

impl VnfSpec {
    /// The deployment sites `S_f`, sorted for determinism.
    #[must_use]
    pub fn sites(&self) -> Vec<SiteId> {
        let mut s: Vec<_> = self.site_capacity.keys().copied().collect();
        s.sort();
        s
    }
}

/// A customer chain `c ∈ C`: ingress node, egress node, the ordered VNF
/// list `F_c`, and per-stage forward/reverse traffic (`w_cz`, `v_cz`,
/// `1 ≤ z ≤ |F_c|+1`).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    /// Chain identifier.
    pub id: ChainId,
    /// Ingress node `i_c`.
    pub ingress: NodeId,
    /// Egress node `e_c`.
    pub egress: NodeId,
    /// Ordered VNFs `F_c`.
    pub vnfs: Vec<VnfId>,
    /// Forward traffic per stage (`w_cz`), length `|F_c| + 1`.
    pub forward: Vec<Rate>,
    /// Reverse traffic per stage (`v_cz`), length `|F_c| + 1`.
    pub reverse: Vec<Rate>,
}

impl ChainSpec {
    /// A chain with identical traffic at every stage.
    #[must_use]
    pub fn uniform(
        id: ChainId,
        ingress: NodeId,
        egress: NodeId,
        vnfs: Vec<VnfId>,
        forward: Rate,
        reverse: Rate,
    ) -> Self {
        let stages = vnfs.len() + 1;
        Self {
            id,
            ingress,
            egress,
            vnfs,
            forward: vec![forward; stages],
            reverse: vec![reverse; stages],
        }
    }

    /// Number of stages (`|F_c| + 1`).
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.vnfs.len() + 1
    }

    /// Combined forward + reverse traffic at stage `z` (0-based).
    #[must_use]
    pub fn stage_traffic(&self, z: usize) -> Rate {
        self.forward[z] + self.reverse[z]
    }

    /// Total demand of the chain (stage-0 combined traffic) — the quantity
    /// "throughput" is measured against.
    #[must_use]
    pub fn demand(&self) -> Rate {
        self.stage_traffic(0)
    }
}

/// The full Table 1 model: topology + routing + sites + VNF catalog +
/// chains + background traffic + the MLU limit β.
///
/// The all-pairs routing table is immutable once
/// [`NetworkModelBuilder::build`] has computed it, so every copy — a
/// `clone` or any `with_*` variant — shares that one table instead of
/// copying it.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    topology: Topology,
    routing: Arc<Routing>,
    /// Node hosting each site (dense by `SiteId`).
    site_node: Vec<NodeId>,
    /// Compute capacity `m_s` per site.
    site_capacity: Vec<LoadUnits>,
    vnfs: Vec<VnfSpec>,
    /// Each VNF's `(site, m_sf)` deployments ascending by site (dense by
    /// `VnfId`): `vnfs[f].site_capacity` in the order SB-DP visits it.
    deployments: Vec<Vec<(SiteId, LoadUnits)>>,
    chains: Vec<ChainSpec>,
    /// Background traffic `g_e` per link (dense by `LinkId`).
    background: Vec<Rate>,
    /// Maximum link utilization limit β.
    mlu: f64,
}

/// `site_capacity`'s entries ascending by site.
fn sorted_deployments(site_capacity: &HashMap<SiteId, LoadUnits>) -> Vec<(SiteId, LoadUnits)> {
    let mut sites: Vec<_> = site_capacity.iter().map(|(&s, &c)| (s, c)).collect();
    sites.sort_unstable_by_key(|&(s, _)| s);
    sites
}

impl NetworkModel {
    /// Starts building a model over a topology (routing is computed from
    /// its latencies).
    #[must_use]
    pub fn builder(topology: Topology) -> NetworkModelBuilder {
        let background = vec![0.0; topology.num_links()];
        NetworkModelBuilder {
            routing: Routing::shortest_paths(&topology),
            topology,
            site_node: Vec::new(),
            site_capacity: Vec::new(),
            vnfs: Vec::new(),
            chains: Vec::new(),
            background,
            mlu: 1.0,
        }
    }

    /// The underlying topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The all-pairs routing (latencies `d` and fractions `r`).
    #[must_use]
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Number of cloud sites.
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.site_node.len()
    }

    /// All site identifiers.
    #[must_use]
    pub fn sites(&self) -> Vec<SiteId> {
        (0..self.site_node.len())
            .map(|i| SiteId::new(u32::try_from(i).expect("site count fits u32")))
            .collect()
    }

    /// The node hosting `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is unknown.
    #[must_use]
    pub fn site_node(&self, site: SiteId) -> NodeId {
        self.site_node[site.index()]
    }

    /// The compute capacity `m_s`.
    #[must_use]
    pub fn site_capacity(&self, site: SiteId) -> LoadUnits {
        self.site_capacity[site.index()]
    }

    /// The VNF catalog.
    #[must_use]
    pub fn vnfs(&self) -> &[VnfSpec] {
        &self.vnfs
    }

    /// The VNF with identifier `id`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] for an unknown id.
    pub fn vnf(&self, id: VnfId) -> Result<&VnfSpec> {
        self.vnfs
            .get(id.index())
            .ok_or_else(|| Error::unknown("vnf", id))
    }

    /// The deployments of `vnf`: each site of `S_f` with its capacity
    /// `m_sf`, ascending by site.
    ///
    /// # Panics
    ///
    /// Panics if `vnf` is unknown.
    #[must_use]
    pub fn deployments(&self, vnf: VnfId) -> &[(SiteId, LoadUnits)] {
        &self.deployments[vnf.index()]
    }

    /// The chain set `C`.
    #[must_use]
    pub fn chains(&self) -> &[ChainSpec] {
        &self.chains
    }

    /// Background traffic `g_e` on `link`.
    #[must_use]
    pub fn background(&self, link: LinkId) -> Rate {
        self.background[link.index()]
    }

    /// The MLU limit β.
    #[must_use]
    pub fn mlu(&self) -> f64 {
        self.mlu
    }

    /// Stage-`z` sources `N^src_cz` (Eq 1): the ingress node at the first
    /// stage, the previous VNF's deployment sites otherwise.
    #[must_use]
    pub fn stage_sources(&self, chain: &ChainSpec, z: usize) -> Vec<Place> {
        if z == 0 {
            vec![Place::node(chain.ingress)]
        } else {
            let vnf = &self.vnfs[chain.vnfs[z - 1].index()];
            vnf.sites()
                .into_iter()
                .map(|s| Place::site(self.site_node(s), s))
                .collect()
        }
    }

    /// Stage-`z` destinations `N^dst_cz` (Eq 2): the egress node at the last
    /// stage, the stage VNF's deployment sites otherwise.
    #[must_use]
    pub fn stage_destinations(&self, chain: &ChainSpec, z: usize) -> Vec<Place> {
        if z == chain.num_stages() - 1 {
            vec![Place::node(chain.egress)]
        } else {
            let vnf = &self.vnfs[chain.vnfs[z].index()];
            vnf.sites()
                .into_iter()
                .map(|s| Place::site(self.site_node(s), s))
                .collect()
        }
    }

    /// The propagation latency `d_{n1n2}`.
    #[must_use]
    pub fn latency(&self, a: NodeId, b: NodeId) -> Millis {
        self.routing.latency(a, b)
    }

    /// Validates the model: every chain's VNFs exist and have at least one
    /// deployment site, ingress/egress nodes exist, traffic vectors have
    /// the right arity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidChain`] or [`Error::UnknownEntity`] on the
    /// first defect.
    pub fn validate(&self) -> Result<()> {
        for c in &self.chains {
            if c.ingress.index() >= self.topology.num_nodes()
                || c.egress.index() >= self.topology.num_nodes()
            {
                return Err(Error::invalid_chain(format!(
                    "{}: ingress/egress node out of range",
                    c.id
                )));
            }
            if c.forward.len() != c.num_stages() || c.reverse.len() != c.num_stages() {
                return Err(Error::invalid_chain(format!(
                    "{}: traffic vector arity mismatch",
                    c.id
                )));
            }
            for &v in &c.vnfs {
                let vnf = self.vnf(v)?;
                if vnf.site_capacity.is_empty() {
                    return Err(Error::invalid_chain(format!(
                        "{}: vnf {v} has no deployment sites",
                        c.id
                    )));
                }
            }
        }
        Ok(())
    }

    /// Returns a copy with one VNF's deployment map replaced (used by the
    /// capacity planners to trial placements).
    #[must_use]
    pub fn with_vnf_sites(&self, vnf: VnfId, site_capacity: HashMap<SiteId, LoadUnits>) -> Self {
        let mut m = self.clone();
        m.deployments[vnf.index()] = sorted_deployments(&site_capacity);
        m.vnfs[vnf.index()].site_capacity = site_capacity;
        m
    }

    /// Returns a copy with per-site capacities replaced (cloud capacity
    /// planning trials).
    ///
    /// # Panics
    ///
    /// Panics if the vector arity does not match the site count.
    #[must_use]
    pub fn with_site_capacities(&self, capacities: Vec<LoadUnits>) -> Self {
        assert_eq!(capacities.len(), self.site_node.len());
        let mut m = self.clone();
        m.site_capacity = capacities;
        m
    }

    /// Returns a copy with the chain set replaced (used by the control
    /// plane, which deploys chains incrementally).
    #[must_use]
    pub fn with_chains(&self, chains: Vec<ChainSpec>) -> Self {
        let mut m = self.clone();
        m.chains = chains;
        m
    }

    /// Returns a copy with every chain's traffic scaled by `factor`.
    #[must_use]
    pub fn with_scaled_traffic(&self, factor: f64) -> Self {
        let mut m = self.clone();
        for c in &mut m.chains {
            for w in &mut c.forward {
                *w *= factor;
            }
            for v in &mut c.reverse {
                *v *= factor;
            }
        }
        m
    }
}

/// Builder for [`NetworkModel`].
#[derive(Debug, Clone)]
pub struct NetworkModelBuilder {
    topology: Topology,
    routing: Routing,
    site_node: Vec<NodeId>,
    site_capacity: Vec<LoadUnits>,
    vnfs: Vec<VnfSpec>,
    chains: Vec<ChainSpec>,
    background: Vec<Rate>,
    mlu: f64,
}

impl NetworkModelBuilder {
    /// Adds a cloud site at `node` with compute capacity `m_s`; returns its
    /// identifier.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `capacity` is negative.
    pub fn add_site(&mut self, node: NodeId, capacity: LoadUnits) -> SiteId {
        assert!(node.index() < self.topology.num_nodes(), "unknown node");
        assert!(capacity >= 0.0, "capacity must be non-negative");
        let id = SiteId::new(u32::try_from(self.site_node.len()).expect("too many sites"));
        self.site_node.push(node);
        self.site_capacity.push(capacity);
        id
    }

    /// Adds a VNF with deployment sites and per-site capacities; returns its
    /// identifier.
    ///
    /// # Panics
    ///
    /// Panics if `load_per_unit` is not positive or a site is unknown.
    pub fn add_vnf(
        &mut self,
        site_capacity: HashMap<SiteId, LoadUnits>,
        load_per_unit: f64,
    ) -> VnfId {
        assert!(load_per_unit > 0.0, "load per unit must be positive");
        for s in site_capacity.keys() {
            assert!(s.index() < self.site_node.len(), "unknown site {s}");
        }
        let id = VnfId::new(u32::try_from(self.vnfs.len()).expect("too many vnfs"));
        self.vnfs.push(VnfSpec {
            id,
            site_capacity,
            load_per_unit,
        });
        id
    }

    /// Adds a chain.
    pub fn add_chain(&mut self, chain: ChainSpec) -> ChainId {
        let id = chain.id;
        self.chains.push(chain);
        id
    }

    /// Sets background traffic on a link.
    ///
    /// # Panics
    ///
    /// Panics if the link is unknown.
    pub fn set_background(&mut self, link: LinkId, traffic: Rate) -> &mut Self {
        self.background[link.index()] = traffic;
        self
    }

    /// Sets the MLU limit β (default 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `mlu` is not in `(0, 1]`.
    pub fn set_mlu(&mut self, mlu: f64) -> &mut Self {
        assert!(mlu > 0.0 && mlu <= 1.0, "mlu must be in (0, 1]");
        self.mlu = mlu;
        self
    }

    /// Finalizes the model.
    ///
    /// # Errors
    ///
    /// Returns the first validation defect (see
    /// [`NetworkModel::validate`]).
    pub fn build(self) -> Result<NetworkModel> {
        let model = NetworkModel {
            topology: self.topology,
            routing: Arc::new(self.routing),
            site_node: self.site_node,
            site_capacity: self.site_capacity,
            deployments: self
                .vnfs
                .iter()
                .map(|v| sorted_deployments(&v.site_capacity))
                .collect(),
            vnfs: self.vnfs,
            chains: self.chains,
            background: self.background,
            mlu: self.mlu,
        };
        model.validate()?;
        Ok(model)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use sb_topology::TopologyBuilder;

    /// A 4-node line topology `n0 - n1 - n2 - n3` with sites at n1 and n2,
    /// one VNF deployed at both sites, and one chain n0 -> vnf -> n3.
    pub(crate) fn line_model() -> NetworkModel {
        let mut tb = TopologyBuilder::new();
        let n0 = tb.add_node("n0", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("n1", (0.0, 1.0), 1.0);
        let n2 = tb.add_node("n2", (0.0, 2.0), 1.0);
        let n3 = tb.add_node("n3", (0.0, 3.0), 1.0);
        tb.add_duplex_link(n0, n1, 100.0, Millis::new(5.0));
        tb.add_duplex_link(n1, n2, 100.0, Millis::new(10.0));
        tb.add_duplex_link(n2, n3, 100.0, Millis::new(5.0));
        let mut b = NetworkModel::builder(tb.build());
        let s1 = b.add_site(n1, 100.0);
        let s2 = b.add_site(n2, 100.0);
        let vnf = b.add_vnf(
            HashMap::from([(s1, 50.0), (s2, 50.0)]),
            1.0,
        );
        b.add_chain(ChainSpec::uniform(
            ChainId::new(0),
            n0,
            n3,
            vec![vnf],
            10.0,
            2.0,
        ));
        b.build().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_topology::TopologyBuilder;

    #[test]
    fn line_model_stage_endpoints() {
        let m = testutil::line_model();
        let c = &m.chains()[0];
        assert_eq!(c.num_stages(), 2);
        // Stage 0: ingress -> VNF sites.
        let src = m.stage_sources(c, 0);
        assert_eq!(src, vec![Place::node(NodeId::new(0))]);
        let dst = m.stage_destinations(c, 0);
        assert_eq!(dst.len(), 2);
        assert!(dst.iter().all(|p| p.site.is_some()));
        // Stage 1: VNF sites -> egress.
        let src = m.stage_sources(c, 1);
        assert_eq!(src.len(), 2);
        let dst = m.stage_destinations(c, 1);
        assert_eq!(dst, vec![Place::node(NodeId::new(3))]);
    }

    #[test]
    fn chain_traffic_accessors() {
        let m = testutil::line_model();
        let c = &m.chains()[0];
        assert_eq!(c.stage_traffic(0), 12.0);
        assert_eq!(c.demand(), 12.0);
    }

    #[test]
    fn validation_rejects_empty_vnf_deployment() {
        let mut tb = TopologyBuilder::new();
        let n0 = tb.add_node("n0", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("n1", (0.0, 1.0), 1.0);
        tb.add_duplex_link(n0, n1, 10.0, Millis::new(1.0));
        let mut b = NetworkModel::builder(tb.build());
        let _site = b.add_site(n1, 10.0);
        let vnf = b.add_vnf(HashMap::new(), 1.0);
        b.add_chain(ChainSpec::uniform(
            ChainId::new(0),
            n0,
            n1,
            vec![vnf],
            1.0,
            0.0,
        ));
        assert!(b.build().is_err());
    }

    #[test]
    fn validation_rejects_traffic_arity_mismatch() {
        let mut tb = TopologyBuilder::new();
        let n0 = tb.add_node("n0", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("n1", (0.0, 1.0), 1.0);
        tb.add_duplex_link(n0, n1, 10.0, Millis::new(1.0));
        let mut b = NetworkModel::builder(tb.build());
        let s = b.add_site(n1, 10.0);
        let vnf = b.add_vnf(HashMap::from([(s, 5.0)]), 1.0);
        b.add_chain(ChainSpec {
            id: ChainId::new(0),
            ingress: n0,
            egress: n1,
            vnfs: vec![vnf],
            forward: vec![1.0], // needs 2 stages
            reverse: vec![0.0],
        });
        assert!(b.build().is_err());
    }

    #[test]
    fn scaled_traffic_copies_model() {
        let m = testutil::line_model();
        let m2 = m.with_scaled_traffic(2.0);
        assert_eq!(m2.chains()[0].demand(), 24.0);
        assert_eq!(m.chains()[0].demand(), 12.0);
    }

    #[test]
    fn with_site_capacities_replaces_vector() {
        let m = testutil::line_model();
        let m2 = m.with_site_capacities(vec![5.0, 7.0]);
        assert_eq!(m2.site_capacity(SiteId::new(0)), 5.0);
        assert_eq!(m2.site_capacity(SiteId::new(1)), 7.0);
    }

    #[test]
    fn with_vnf_sites_replaces_deployment() {
        let m = testutil::line_model();
        let m2 = m.with_vnf_sites(VnfId::new(0), HashMap::from([(SiteId::new(0), 9.0)]));
        assert_eq!(m2.vnfs()[0].sites(), vec![SiteId::new(0)]);
        assert_eq!(m2.deployments(VnfId::new(0)), [(SiteId::new(0), 9.0)]);
        assert_eq!(m.vnfs()[0].sites().len(), 2);
        assert_eq!(m.deployments(VnfId::new(0)).len(), 2);
    }

    #[test]
    fn vnf_sites_are_sorted() {
        let m = testutil::line_model();
        let sites = m.vnfs()[0].sites();
        assert!(sites.windows(2).all(|w| w[0] < w[1]));
        let deployed: Vec<SiteId> = m.deployments(VnfId::new(0)).iter().map(|d| d.0).collect();
        assert_eq!(deployed, sites);
    }
}
