//! Install stage (Figure 4, arrow 5): the forwarders' rules, the edge
//! bindings, and the compiled artifacts that carry them to standalone
//! forwarders.
//!
//! [`Install`] owns every site's [`LocalSwitchboard`], the
//! [`EdgeController`] and the latest compiled artifact per site. The verbs
//! hand it routes with their stage forwarders; it installs the rules,
//! binds the edges, and compiles what changed. It still exports the
//! artifacts from the in-process forwarders.

use crate::chain::InstalledRoute;
use crate::edge::EdgeController;
use crate::global::ControlPlane;
use crate::local::LocalSwitchboard;
use crate::messages::{ForwarderRecord, InstanceRecord, RouteAnnouncement};
use sb_dataplane::{artifact as sba, Addr, ArtifactKind, SiteArtifact, WeightedChoice};
use sb_telemetry::{Counter, Histogram, Telemetry};
use sb_types::{EdgeInstanceId, Error, ForwarderId, LabelPair, Result, RouteId, SiteId, VnfId};
use std::collections::{BTreeMap, HashMap};

/// VNF instances served by one forwarder before the pool grows.
const INSTANCES_PER_FORWARDER: usize = 2;

/// The rule-holding state of every site, and its compiled form.
pub(crate) struct Install {
    locals: HashMap<SiteId, LocalSwitchboard>,
    edge: EdgeController,
    /// The latest compiled route artifact per site, with its encoded
    /// bytes: refreshed by every verb that changes forwarder rules (full
    /// artifacts on deploys, patch artifacts on every change to an
    /// installed chain). This is what `sb compile` writes to disk and
    /// what a standalone forwarder boots from.
    artifacts: HashMap<SiteId, (SiteArtifact, Vec<u8>)>,
    /// `artifact.bytes`: total encoded size of every compiled site
    /// artifact (a pure function of the route state — deterministic).
    artifact_bytes: Counter,
    /// `artifact.compile_ns`: wall-clock export+encode time per site
    /// artifact. Like `fib.rebuild_ns`, this histogram is wall-clock and
    /// must be filtered out of any test that compares registry snapshots
    /// byte-for-byte.
    artifact_compile_ns: Histogram,
}

impl Install {
    /// One Local Switchboard per site, forwarders sampling 1-in-
    /// `sample_every` packets into `hub`, and no edge or artifact yet.
    pub(crate) fn new(sites: &[SiteId], sample_every: u64, hub: &Telemetry) -> Self {
        let mut locals = HashMap::new();
        for &s in sites {
            let mut local = LocalSwitchboard::new(s, INSTANCES_PER_FORWARDER);
            local.attach_telemetry(hub, sample_every);
            locals.insert(s, local);
        }
        Self {
            locals,
            edge: EdgeController::new(),
            artifacts: HashMap::new(),
            artifact_bytes: hub.registry.counter("artifact.bytes"),
            artifact_compile_ns: hub.registry.histogram("artifact.compile_ns"),
        }
    }

    /// Records forwarder and artifact metrics into `hub`.
    pub(crate) fn attach_telemetry(&mut self, hub: &Telemetry, sample_every: u64) {
        for local in self.locals.values_mut() {
            local.attach_telemetry(hub, sample_every);
        }
        self.artifact_bytes = hub.registry.counter("artifact.bytes");
        self.artifact_compile_ns = hub.registry.histogram("artifact.compile_ns");
    }

    /// The Local Switchboard at `site` attaches `vnf`'s instance `records`
    /// to forwarders and returns the forwarder records it publishes.
    pub(crate) fn attach_instances(
        &mut self,
        site: SiteId,
        vnf: VnfId,
        records: &[InstanceRecord],
    ) -> Vec<ForwarderRecord> {
        let local = self.locals.get_mut(&site).expect("site exists");
        local.attach_instances(vnf, records)
    }

    /// Arrow 5, first half: install every stage of `routes`, each row
    /// tagged with its announcement's epoch (an update's added routes
    /// carry fresh labels, so their rows sit beside the old routes' rows
    /// until those are retired). Returns how many forwarders held a pair
    /// at an older epoch: the epochs a re-tag retires.
    pub(crate) fn install_route_rules<'r>(
        &mut self,
        routes: impl IntoIterator<Item = &'r InstalledRoute>,
        added_edges: &BTreeMap<SiteId, RouteId>,
    ) -> Result<usize> {
        let mut retired = 0;
        for route in routes {
            for z in 0..route.stages.len() {
                retired += self.install_stage(route, z, added_edges)?;
            }
        }
        Ok(retired)
    }

    /// Installs stage `z` of `route` at its site, returning the epochs the
    /// install retires. The stage's hops are derived from the chain
    /// record: next is stage `z + 1`'s forwarders (the egress edge at the
    /// last stage), previous is stage `z - 1`'s forwarders or, at stage 0,
    /// the ingress edge followed by the edges `added_edges` binds to the
    /// route, ascending by site.
    fn install_stage(
        &mut self,
        route: &InstalledRoute,
        z: usize,
        added_edges: &BTreeMap<SiteId, RouteId>,
    ) -> Result<usize> {
        let ann = &route.ann;
        let next = match route.stages.get(z + 1) {
            Some(records) => forwarder_hops(records),
            None => vec![(self.edge_addr(ann.egress_site), 1.0)],
        };
        let prev = match z.checked_sub(1) {
            Some(before) => forwarder_hops(&route.stages[before]),
            None => std::iter::once(ann.ingress_site)
                .chain(
                    added_edges
                        .iter()
                        .filter(|&(_, &bound)| bound == ann.route)
                        .map(|(&site, _)| site),
                )
                .map(|site| (self.edge_addr(site), 1.0))
                .collect(),
        };
        let site = ann.sites[z];
        self.locals
            .get_mut(&site)
            .ok_or_else(|| Error::unknown("site", site))?
            .install_stage_rules(ann, z, next, prev)
    }

    /// Arrow 5, second half: point the ingress edge's weighted binding of
    /// each of `routes` at the route's first hop, with the route's
    /// fraction. Run *after* the rules of the route's epoch are installed
    /// — this is the traffic-shifting step of make-before-break.
    pub(crate) fn bind_ingress<'r>(
        &mut self,
        routes: impl IntoIterator<Item = &'r InstalledRoute>,
    ) -> Result<()> {
        for route in routes {
            self.bind(route.ann.ingress_site, route, route.ann.fraction)?;
        }
        Ok(())
    }

    /// Binds the edge instance at the added edge `site` to `route`: new
    /// flows entering there take the route through its first hop, as the
    /// ingress's do, and the route's stage-0 rules are reinstalled with the
    /// edges `added_edges` binds to it among the previous hops. Shared by
    /// edge-site addition and by an update that retires the edge's route.
    pub(crate) fn bind_added_edge(
        &mut self,
        site: SiteId,
        route: &InstalledRoute,
        added_edges: &BTreeMap<SiteId, RouteId>,
    ) -> Result<()> {
        self.bind(site, route, 1.0)?;
        self.install_stage(route, 0, added_edges)?;
        Ok(())
    }

    /// Points the edge instance at `site` at `route`'s first hop, weighted
    /// by `fraction`.
    fn bind(&mut self, site: SiteId, route: &InstalledRoute, fraction: f64) -> Result<()> {
        let (first_hop, ann) = (self.first_hop(route)?, &route.ann);
        let edge = self.edge.instance_at_mut(site);
        let edge = edge.ok_or_else(|| Error::unknown("edge instance at site", site))?;
        edge.install_route(ann.chain, ann.route, ann.labels, first_hop, fraction);
        Ok(())
    }

    /// Where every edge bound to `route` sends its new flows: the stage-0
    /// forwarders the route was installed with, or the egress edge for a
    /// VNF-less chain.
    fn first_hop(&self, route: &InstalledRoute) -> Result<WeightedChoice> {
        match route.stages.first() {
            Some(records) => WeightedChoice::new(forwarder_hops(records)),
            None => Ok(WeightedChoice::single(
                self.edge_addr(route.ann.egress_site),
            )),
        }
    }

    fn edge_addr(&self, site: SiteId) -> Addr {
        self.edge
            .instance_at(site)
            .map_or(Addr::Edge(EdgeInstanceId::new(u64::MAX)), |e| e.addr())
    }

    /// Retires `ann`'s rules: unbinds it at the `edges` bound to its chain
    /// and strips its rows at each of its sites. Pinned flows keep their
    /// forwarder flow-table entries and edge pins, so established
    /// connections drain rather than break (Section 5.3).
    pub(crate) fn retire<'e>(
        &mut self,
        ann: &RouteAnnouncement,
        edges: impl IntoIterator<Item = &'e SiteId>,
    ) {
        for site in edges {
            if let Some(edge) = self.edge.instance_at_mut(*site) {
                edge.remove_route(ann.chain, ann.route);
            }
        }
        let mut sites = ann.sites.clone();
        sites.sort_unstable();
        sites.dedup();
        for site in &sites {
            if let Some(local) = self.locals.get_mut(site) {
                local.remove_route_rules(ann.labels);
            }
        }
    }

    /// Compiles and stores one route artifact per site whose forwarder
    /// rules changed since the last compile. The scope is what the
    /// [`LocalSwitchboard`] rule mutators recorded, so after every verb a
    /// site's stored artifact is what its forwarders run. `Full` is a
    /// snapshot of the site; `Patch` is scoped to the label pairs the
    /// operation touched at any site (a site that never had one of them
    /// lists it as a removal). Records `artifact.bytes` and
    /// `artifact.compile_ns` per artifact.
    pub(crate) fn compile_artifacts(&mut self, epoch: u64, kind: ArtifactKind) {
        let mut sites: Vec<SiteId> = Vec::new();
        let mut labels: Vec<LabelPair> = Vec::new();
        for (&site, local) in &mut self.locals {
            let touched = local.take_touched();
            if !touched.is_empty() {
                sites.push(site);
                labels.extend(touched);
            }
        }
        labels.sort_unstable();
        labels.dedup();
        for site in sites {
            let local = &self.locals[&site];
            let started = std::time::Instant::now();
            let artifact = match kind {
                ArtifactKind::Full => local.export_site_artifact(epoch),
                ArtifactKind::Patch => local.export_patch_artifact(&labels, epoch),
            };
            let bytes = sba::encode(&artifact);
            self.artifact_bytes.add(bytes.len() as u64);
            #[allow(clippy::cast_possible_truncation)]
            self.artifact_compile_ns
                .record(started.elapsed().as_nanos() as u64);
            self.artifacts.insert(site, (artifact, bytes));
        }
    }
}

/// The install stage's state as the public API reads it.
impl ControlPlane {
    /// The edge controller.
    #[must_use]
    pub fn edge(&self) -> &EdgeController {
        &self.install.edge
    }

    /// Mutable edge controller (the data-plane harness drives edge
    /// instances through this).
    pub fn edge_mut(&mut self) -> &mut EdgeController {
        &mut self.install.edge
    }

    /// Registers a customer attachment at an edge site.
    pub fn register_attachment(&mut self, name: impl Into<String>, site: SiteId) -> EdgeInstanceId {
        self.install.edge.register_attachment(name, site)
    }

    /// The Local Switchboard at `site`.
    #[must_use]
    pub fn local(&self, site: SiteId) -> Option<&LocalSwitchboard> {
        self.install.locals.get(&site)
    }

    /// Mutable Local Switchboard at `site`.
    pub fn local_mut(&mut self, site: SiteId) -> Option<&mut LocalSwitchboard> {
        self.install.locals.get_mut(&site)
    }

    /// All sites with a Local Switchboard, in ascending site order so that
    /// callers iterating over them (e.g. fault application) behave
    /// deterministically.
    #[must_use]
    pub fn sites(&self) -> Vec<SiteId> {
        sorted(self.install.locals.keys())
    }

    /// The site owning forwarder `id` (known after instance attachment).
    #[must_use]
    pub fn forwarder_site(&self, id: ForwarderId) -> Option<SiteId> {
        let site = LocalSwitchboard::allocating_site(id)?;
        self.local(site)?.forwarder(id).map(|_| site)
    }

    /// The latest compiled route artifact for `site`, if any verb has
    /// changed its forwarder rules. A deploy leaves a full artifact; a
    /// route addition, update, reroute, edge-site addition or removal
    /// leaves a patch (compose it onto the previous state via
    /// `Forwarder::apply_artifact`).
    #[must_use]
    pub fn site_artifact(&self, site: SiteId) -> Option<&SiteArtifact> {
        self.install.artifacts.get(&site).map(|(a, _)| a)
    }

    /// The encoded bytes of [`site_artifact`](Self::site_artifact) — what
    /// `sb compile` writes to an `.sba` file. Byte-deterministic for a
    /// given route solution.
    #[must_use]
    pub fn site_artifact_bytes(&self, site: SiteId) -> Option<&[u8]> {
        self.install.artifacts.get(&site).map(|(_, b)| b.as_slice())
    }

    /// Sites with a compiled artifact, sorted.
    #[must_use]
    pub fn artifact_sites(&self) -> Vec<SiteId> {
        sorted(self.install.artifacts.keys())
    }
}

fn sorted<'a>(sites: impl Iterator<Item = &'a SiteId>) -> Vec<SiteId> {
    let mut sites: Vec<SiteId> = sites.copied().collect();
    sites.sort_unstable();
    sites
}

/// Forwarder records as weighted hops: each forwarder weighted by the
/// instances it serves.
fn forwarder_hops(records: &[ForwarderRecord]) -> Vec<(Addr, f64)> {
    records
        .iter()
        .map(|fr| (Addr::Forwarder(fr.forwarder), fr.weight))
        .collect()
}
