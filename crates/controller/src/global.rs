//! Global Switchboard: the centralized controller and its deployment saga.
//!
//! [`ControlPlane`] wires every control-plane role together over the
//! global message bus and drives the five-arrow chain-creation flow of
//! Figure 4 on virtual time:
//!
//! 1. resolve ingress/egress sites from the edge controller;
//! 2. compute wide-area routes (SB-DP against the live load state) and
//!    allocate per-route labels;
//! 3. two-phase commit the per-(VNF, site) reservations with the VNF
//!    controllers, recomputing on rejection;
//! 4. propagate route announcements; VNF controllers allocate instances
//!    and publish them, Local Switchboards attach instances to forwarders
//!    and publish forwarder records;
//! 5. Local Switchboards combine routes and weights into load-balancing
//!    rules and install them at forwarders; the ingress edge instance gets
//!    its route bindings.
//!
//! Every step's virtual-time cost is recorded in a [`DeploymentReport`] —
//! the data behind Figure 10a and Table 2.
//!
//! The Local Switchboards' receive side runs inline: the code after each
//! publish is the receivers acting on it. Every publish therefore consumes
//! the site mailboxes it delivered into, and retiring a route drops the
//! topics and reservation keys named after its label pair — the control
//! plane's memory follows the installed state, not the number of messages
//! ever sent (DESIGN.md §4.4, §10).
//!
//! Routes reach every site (Section 6) as the announcement each Local
//! Switchboard receives on the Global Switchboard's route topic, charged in
//! a deploy's `wan_messages`; in process they are held once, with each
//! stage's forwarders, in the chain record ([`ControlPlane::routes_of`])
//! that edge-site addition reads.

use crate::edge::EdgeController;
use crate::local::LocalSwitchboard;
use crate::messages::{ForwarderRecord, InstanceRecord, RouteAnnouncement};
use crate::vnfctl::VnfController;
use sb_dataplane::{artifact as sba, Addr, ArtifactKind, SiteArtifact, WeightedChoice};
use sb_faults::{RpcPhase, SharedFaultPlan};
use sb_msgbus::{
    BusTopology, DelayModel, Message, ProxyBus, PublishOutcome, SubscriberId, Topic,
};
use sb_netsim::SimTime;
use sb_te::delta::RouteDelta;
use sb_te::dp::{self, DpConfig, LoadTracker};
use sb_telemetry::{Counter, Histogram, SpanId, Telemetry, TraceRecorder};
use sb_te::{ChainSpec, NetworkModel, RoutePath};
use sb_types::{
    ChainId, ChainLabel, EdgeInstanceId, EgressLabel, Error, ForwarderId, InstanceId, LabelPair,
    Millis, Rate, Result, RouteId, SiteId, VnfId,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// Weighted next-hop addresses, as a rule set's weighted choice takes them.
type Hops = Vec<(Addr, f64)>;

/// The site hosting Global Switchboard (and the edge controller).
const GSB_SITE: SiteId = SiteId::new(0);
/// VNF instances served by one forwarder before the pool grows.
const INSTANCES_PER_FORWARDER: usize = 2;
/// Route recomputation attempts after two-phase-commit rejections.
const MAX_2PC_RETRIES: usize = 3;
/// Modeled route-computation time.
const COMPUTE_TIME: Millis = Millis::new(5.0);
/// Modeled data-plane configuration time per element.
const CONFIG_DELAY: Millis = Millis::new(30.0);
/// Control-plane RPC retries (beyond the first attempt) before a peer is
/// declared failed. Only exercised under a fault plan.
const MAX_RPC_RETRIES: usize = 2;
/// Virtual time charged per timed-out control-plane RPC attempt.
const RPC_TIMEOUT: Millis = Millis::new(200.0);
/// Base of the exponential backoff between RPC retries (doubles with
/// each attempt).
const RETRY_BACKOFF_BASE: Millis = Millis::new(25.0);

/// Tuning knobs of the control plane.
#[derive(Debug, Clone)]
pub struct ControlPlaneConfig {
    /// Instances auto-created per VNF deployment site.
    pub instances_per_site: usize,
    /// Packet sampling period for forwarder trace spans: 1-in-`N` packets
    /// record a `pkt.hop` event. `0` leaves forwarders uninstrumented.
    pub sample_every: u64,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        Self {
            instances_per_site: 2,
            sample_every: sb_telemetry::trace::DEFAULT_SAMPLE_EVERY,
        }
    }
}

/// The control plane's telemetry handles: the shared hub plus its
/// pre-registered counters. Always present — [`ControlPlane::new`] starts
/// with a private hub, [`ControlPlane::attach_telemetry`] swaps in a
/// shared one — so spans and counters are recorded identically whether or
/// not anyone is watching.
#[derive(Debug, Clone)]
struct CpTelemetry {
    hub: Telemetry,
    deploys: Counter,
    deploy_failures: Counter,
    updates: Counter,
    update_failures: Counter,
    removes: Counter,
    epochs_retired: Counter,
    commits_2pc: Counter,
    aborts_2pc: Counter,
    retries_2pc: Counter,
    publish_retries: Counter,
    /// `artifact.bytes`: total encoded size of every compiled site
    /// artifact (a pure function of the route state — deterministic).
    artifact_bytes: Counter,
    /// `artifact.compile_ns`: wall-clock export+encode time per site
    /// artifact. Like `fib.rebuild_ns`, this histogram is wall-clock and
    /// must be filtered out of any test that compares registry snapshots
    /// byte-for-byte.
    artifact_compile_ns: Histogram,
}

impl CpTelemetry {
    fn new(hub: &Telemetry) -> Self {
        Self {
            hub: hub.clone(),
            deploys: hub.registry.counter("cp.deploy.total"),
            deploy_failures: hub.registry.counter("cp.deploy.failures"),
            updates: hub.registry.counter("cp.update.total"),
            update_failures: hub.registry.counter("cp.update.failures"),
            removes: hub.registry.counter("cp.remove.total"),
            epochs_retired: hub.registry.counter("cp.epochs.retired"),
            commits_2pc: hub.registry.counter("cp.2pc.commits"),
            aborts_2pc: hub.registry.counter("cp.2pc.aborts"),
            retries_2pc: hub.registry.counter("cp.2pc.retries"),
            publish_retries: hub.registry.counter("cp.publish.retries"),
            artifact_bytes: hub.registry.counter("artifact.bytes"),
            artifact_compile_ns: hub.registry.histogram("artifact.compile_ns"),
        }
    }
}

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
#[derive(Debug, Clone, PartialEq)]
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
    fn new() -> Self {
        Self {
            steps: Vec::new(),
            partial_failures: Vec::new(),
            wan_messages: 0,
            participants_2pc: 0,
        }
    }

    fn push(&mut self, name: impl Into<String>, latency: Millis) {
        self.steps.push((name.into(), latency));
    }

    fn note(&mut self, what: impl Into<String>) {
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
    /// All active routes.
    pub routes: Vec<RouteAnnouncement>,
    /// The deployment timing report.
    pub report: DeploymentReport,
}

/// Book-keeping for one deployed chain.
#[derive(Debug, Clone)]
struct ChainState {
    request: ChainRequest,
    ingress_site: SiteId,
    egress_site: SiteId,
    /// The installed routes in route-id order, each with its stage
    /// forwarders: the one copy of them.
    routes: Vec<InstalledRoute>,
    /// The chain's current configuration epoch. Deploy installs epoch 1;
    /// every successful [`ControlPlane::update_chain`] /
    /// [`ControlPlane::reroute_chain`] bumps it by one, and re-tagging a
    /// route's rows at the new epoch retires the previous one.
    epoch: u64,
    /// Edge sites added after the deploy ([`ControlPlane::add_edge_site`])
    /// and the route each one's edge instance is bound to; it is a
    /// previous hop of that route's stage 0, and its [`edge_topic`] lives
    /// as long as the chain does.
    added_edges: BTreeMap<SiteId, RouteId>,
}

/// An installed route and the forwarder records each of its stages
/// published when it was installed (Figure 6). Stage `z`'s records are
/// stage `z - 1`'s next hops and stage `z + 1`'s previous hops, and stage
/// 0's are the first hop of every edge bound to the route.
#[derive(Debug, Clone)]
struct InstalledRoute {
    ann: RouteAnnouncement,
    stages: Vec<Vec<ForwarderRecord>>,
}

/// One (VNF, site) reservation of a two-phase commit round. Deploy
/// prepares every stage of every route; a delta-scoped update prepares
/// only the load *increases* (added routes in full, grown fractions by
/// their increment under the existing reservation key). Decreases and
/// removals are handled by `release` at retire time and need no vote.
struct PrepareItem {
    vnf: VnfId,
    site: SiteId,
    chain: ChainId,
    route: RouteId,
    load: f64,
}

/// The assembled Switchboard control plane; see the module docs above for
/// the five-step deployment saga.
pub struct ControlPlane {
    config: ControlPlaneConfig,
    /// Sites/VNF catalog/topology, with an empty chain list.
    base_model: NetworkModel,
    delays: DelayModel,
    bus: ProxyBus,
    /// Injected faults; `None` runs the control plane fault-free.
    faults: Option<SharedFaultPlan>,
    /// One bus endpoint per site (its Local Switchboard).
    site_subs: HashMap<SiteId, SubscriberId>,
    now: SimTime,
    edge: EdgeController,
    vnf_ctls: HashMap<VnfId, VnfController>,
    locals: HashMap<SiteId, LocalSwitchboard>,
    tracker: LoadTracker,
    chains: HashMap<ChainId, ChainState>,
    next_label: u32,
    next_route: u64,
    next_instance: u64,
    tele: CpTelemetry,
    /// The latest compiled route artifact per site, with its encoded
    /// bytes: refreshed by every verb that changes forwarder rules (full
    /// artifacts on deploys, patch artifacts on every change to an
    /// installed chain). This is what `sb compile` writes to disk and
    /// what a standalone forwarder boots from.
    artifacts: HashMap<SiteId, (SiteArtifact, Vec<u8>)>,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("sites", &self.locals.len())
            .field("vnfs", &self.vnf_ctls.len())
            .field("chains", &self.chains.len())
            .field("now", &self.now)
            .finish()
    }
}

impl ControlPlane {
    /// Builds the control plane over a traffic-engineering model (sites and
    /// VNF catalog; its chain list is ignored) and a WAN delay model.
    /// VNF controllers and instances are created for every deployment site
    /// (Section 3, phase 1: services exist before chains are specified).
    #[must_use]
    pub fn new(model: NetworkModel, delays: DelayModel, config: ControlPlaneConfig) -> Self {
        let base_model = model.with_chains(Vec::new());
        let sites = base_model.sites();
        let hub = Telemetry::new();
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites.clone(), delays.clone()));
        bus.attach_telemetry(&hub);
        let mut site_subs = HashMap::new();
        let mut locals = HashMap::new();
        let route_topic = gsb_route_topic();
        for &s in &sites {
            // Routes are replicated at every site (Section 6): each Local
            // Switchboard listens on the GSB's route topic from the start.
            let sub = bus.register_subscriber(s);
            bus.subscribe(sub, route_topic.clone());
            site_subs.insert(s, sub);
            let mut local = LocalSwitchboard::new(s, INSTANCES_PER_FORWARDER);
            local.attach_telemetry(&hub, config.sample_every);
            locals.insert(s, local);
        }

        let mut next_instance = 0u64;
        let mut vnf_ctls = HashMap::new();
        for vnf in base_model.vnfs() {
            let vnf_sites = vnf.sites();
            let home = vnf_sites.first().copied().unwrap_or(GSB_SITE);
            let mut ctl = VnfController::new(vnf.id, home);
            for s in vnf_sites {
                let cap = vnf.site_capacity[&s];
                let instances: Vec<InstanceRecord> = (0..config.instances_per_site)
                    .map(|_| {
                        let id = InstanceId::new(next_instance);
                        next_instance += 1;
                        InstanceRecord {
                            instance: id,
                            weight: 1.0,
                            supports_labels: true,
                        }
                    })
                    .collect();
                ctl.deploy_at(s, cap, instances);
            }
            vnf_ctls.insert(vnf.id, ctl);
        }

        let tracker = LoadTracker::new(&base_model);
        Self {
            config,
            base_model,
            delays,
            bus,
            faults: None,
            site_subs,
            now: SimTime::ZERO,
            edge: EdgeController::new(),
            vnf_ctls,
            locals,
            tracker,
            chains: HashMap::new(),
            next_label: 1,
            next_route: 1,
            next_instance,
            tele: CpTelemetry::new(&hub),
            artifacts: HashMap::new(),
        }
    }

    /// The telemetry hub: registry (`cp.*`, `bus.*`, `fwd-*` metrics) plus
    /// the trace ring holding deployment and 2PC spans. The control plane
    /// always records into one — this returns it for export.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele.hub
    }

    /// Swaps in a shared telemetry hub (e.g. the bench harness's), so this
    /// control plane's metrics and spans land in an external registry.
    /// Re-wires the bus, the fault plan, and every site's forwarders.
    pub fn attach_telemetry(&mut self, hub: &Telemetry) {
        self.tele = CpTelemetry::new(hub);
        self.bus.attach_telemetry(hub);
        if let Some(plan) = &self.faults {
            plan.lock()
                .expect("fault plan lock poisoned")
                .attach_telemetry(hub);
        }
        for local in self.locals.values_mut() {
            local.attach_telemetry(hub, self.config.sample_every);
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The traffic-engineering model the control plane was built over:
    /// sites, VNF catalog and topology. Its chain list is empty; deployed
    /// chains live in the chain records ([`routes_of`](Self::routes_of)).
    #[must_use]
    pub fn model(&self) -> &NetworkModel {
        &self.base_model
    }

    /// Attaches a fault plan: bus messages and control-plane RPCs now
    /// consult it. The same shared plan drives the message bus, so a
    /// single seed determines the whole run.
    pub fn set_fault_plan(&mut self, plan: SharedFaultPlan) {
        plan.lock()
            .expect("fault plan lock poisoned")
            .attach_telemetry(&self.tele.hub);
        self.bus.set_fault_plan(plan.clone());
        self.faults = Some(plan);
    }

    /// The attached fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&SharedFaultPlan> {
        self.faults.as_ref()
    }

    /// The failure detector's current view: sites whose crash window
    /// covers the present virtual time. Empty without a fault plan.
    #[must_use]
    pub fn dead_sites(&self) -> Vec<SiteId> {
        let Some(plan) = &self.faults else {
            return Vec::new();
        };
        let plan = plan.lock().expect("fault plan lock poisoned");
        self.base_model
            .sites()
            .into_iter()
            .filter(|&s| plan.site_is_down(self.now, s))
            .collect()
    }

    fn site_down_now(&self, site: SiteId) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            f.lock()
                .expect("fault plan lock poisoned")
                .site_is_down(self.now, site)
        })
    }

    fn rpc_times_out(&self, phase: RpcPhase, site: SiteId) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            f.lock()
                .expect("fault plan lock poisoned")
                .rpc_times_out(phase, site)
        })
    }

    /// Drives one logical RPC's reply under the fault plan: draws
    /// per-attempt timeouts, charging `rpc_timeout` plus exponential
    /// backoff for each failed attempt. Returns the total extra virtual
    /// time when some attempt got through, or `None` when the retry
    /// budget is exhausted.
    fn retry_rpc(&self, phase: RpcPhase, site: SiteId) -> Option<Millis> {
        let mut extra = Millis::ZERO;
        for attempt in 0..=MAX_RPC_RETRIES {
            if !self.rpc_times_out(phase, site) {
                return Some(extra);
            }
            extra += RPC_TIMEOUT + backoff(attempt);
        }
        None
    }

    /// The model a route solve may use: the shared model without crashed
    /// sites' VNF capacity and without the `excluded` (VNF, site)
    /// deployments that 2PC vetoed, so route (re)computation degrades
    /// gracefully instead of proposing routes through them. It stays
    /// borrowed while there is nothing to remove — a healthy solve copies
    /// nothing — and otherwise replaces each affected VNF's deployment map
    /// once.
    fn solve_model(&self, excluded: &[(VnfId, SiteId)]) -> Cow<'_, NetworkModel> {
        let dead = self.dead_sites();
        let stripped =
            |vnf: VnfId, site: &SiteId| dead.contains(site) || excluded.contains(&(vnf, *site));
        let mut model = Cow::Borrowed(&self.base_model);
        for vnf in self.base_model.vnfs() {
            if vnf.site_capacity.keys().any(|s| stripped(vnf.id, s)) {
                let mut caps = vnf.site_capacity.clone();
                caps.retain(|s, _| !stripped(vnf.id, s));
                model = Cow::Owned(model.with_vnf_sites(vnf.id, caps));
            }
        }
        model
    }

    /// The one route solve: SB-DP for `spec` on the
    /// [`solve_model`](Self::solve_model) against a trial copy of the live
    /// tracker, with the `installed` paths (a rerouted chain's own routes;
    /// empty otherwise) lifted off it first, so only this chain's load is
    /// re-solved. Admission-controlled by [`check_placeable`], which names
    /// the solve by `when`. The live tracker is untouched.
    fn solve(
        &self,
        spec: &ChainSpec,
        excluded: &[(VnfId, SiteId)],
        installed: &[RoutePath],
        when: &str,
    ) -> Result<Vec<RoutePath>> {
        let model = self.solve_model(excluded);
        let mut trial = self.tracker.clone();
        for p in installed {
            let coefs = dp::path_coefficients(&model, spec, &p.sites);
            trial.apply(&coefs, -p.fraction);
        }
        let paths = dp::route_chain(&model, &mut trial, &DpConfig::default(), spec);
        check_placeable(&paths, spec.id, when)?;
        Ok(paths)
    }

    /// The edge controller.
    #[must_use]
    pub fn edge(&self) -> &EdgeController {
        &self.edge
    }

    /// Mutable edge controller (the data-plane harness drives edge
    /// instances through this).
    pub fn edge_mut(&mut self) -> &mut EdgeController {
        &mut self.edge
    }

    /// The Local Switchboard at `site`.
    #[must_use]
    pub fn local(&self, site: SiteId) -> Option<&LocalSwitchboard> {
        self.locals.get(&site)
    }

    /// Mutable Local Switchboard at `site`.
    pub fn local_mut(&mut self, site: SiteId) -> Option<&mut LocalSwitchboard> {
        self.locals.get_mut(&site)
    }

    /// All sites with a Local Switchboard, in ascending site order so that
    /// callers iterating over them (e.g. fault application) behave
    /// deterministically.
    #[must_use]
    pub fn sites(&self) -> Vec<SiteId> {
        let mut sites: Vec<SiteId> = self.locals.keys().copied().collect();
        sites.sort_unstable();
        sites
    }

    /// The VNF controller of `vnf`.
    #[must_use]
    pub fn vnf_controller(&self, vnf: VnfId) -> Option<&VnfController> {
        self.vnf_ctls.get(&vnf)
    }

    /// The site owning forwarder `id` (known after instance attachment).
    #[must_use]
    pub fn forwarder_site(&self, id: ForwarderId) -> Option<SiteId> {
        let site = LocalSwitchboard::allocating_site(id)?;
        self.locals.get(&site)?.forwarder(id).map(|_| site)
    }

    /// The routes of a deployed chain.
    #[must_use]
    pub fn routes_of(&self, chain: ChainId) -> Vec<RouteAnnouncement> {
        self.chains
            .get(&chain)
            .map(|c| c.routes.iter().map(|r| r.ann.clone()).collect())
            .unwrap_or_default()
    }

    /// Registers a customer attachment at an edge site.
    pub fn register_attachment(
        &mut self,
        name: impl Into<String>,
        site: SiteId,
    ) -> EdgeInstanceId {
        self.edge.register_attachment(name, site)
    }

    /// Replaces the auto-created instances of `vnf` at `site` (e.g. to
    /// register label-unaware instances or custom weights).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] when the VNF or site is unknown.
    pub fn set_instances(
        &mut self,
        vnf: VnfId,
        site: SiteId,
        instances: Vec<InstanceRecord>,
    ) -> Result<()> {
        let ctl = self
            .vnf_ctls
            .get_mut(&vnf)
            .ok_or_else(|| Error::unknown("vnf", vnf))?;
        if !ctl.sites().contains(&site) {
            return Err(Error::unknown("vnf deployment site", site));
        }
        let cap = self.base_model.vnfs()[vnf.index()].site_capacity[&site];
        ctl.deploy_at(site, cap, instances);
        Ok(())
    }

    /// Allocates a fresh globally-unique instance id (for custom
    /// registrations).
    pub fn allocate_instance_id(&mut self) -> InstanceId {
        let id = InstanceId::new(self.next_instance);
        self.next_instance += 1;
        id
    }

    /// Deploys a chain, computing its wide-area routes with SB-DP against
    /// the live load state.
    ///
    /// # Errors
    ///
    /// - [`Error::UnknownEntity`] for unresolved attachments or VNFs.
    /// - [`Error::Infeasible`] when no capacity remains for the chain.
    /// - [`Error::CommitRejected`] when every recomputation attempt was
    ///   vetoed in two-phase commit.
    pub fn deploy_chain(&mut self, request: ChainRequest) -> Result<ChainHandle> {
        self.deploy_chain_inner(request, None)
    }

    /// Deploys a chain over caller-specified routes (used by experiments
    /// that compare routing schemes end-to-end: the scheme computes the
    /// site sequences, the control plane installs them verbatim).
    ///
    /// # Errors
    ///
    /// As [`deploy_chain`](Self::deploy_chain); additionally
    /// [`Error::InvalidArgument`] for a route set that is not a split of
    /// the whole demand (see [`update_chain`](Self::update_chain)).
    pub fn deploy_chain_via(
        &mut self,
        request: ChainRequest,
        routes: Vec<(Vec<SiteId>, f64)>,
    ) -> Result<ChainHandle> {
        check_route_set(&routes, request.vnfs.len())?;
        self.deploy_chain_inner(request, Some(routes))
    }

    fn chain_spec(&self, request: &ChainRequest, ingress: SiteId, egress: SiteId) -> ChainSpec {
        ChainSpec::uniform(
            request.id,
            self.base_model.site_node(ingress),
            self.base_model.site_node(egress),
            request.vnfs.clone(),
            request.forward,
            request.reverse,
        )
    }

    fn deploy_chain_inner(
        &mut self,
        request: ChainRequest,
        forced_routes: Option<Vec<(Vec<SiteId>, f64)>>,
    ) -> Result<ChainHandle> {
        self.tele.deploys.inc();
        let span = self
            .tele
            .hub
            .tracer
            .begin("cp.deploy", None, self.now.as_nanos());
        self.tele
            .hub
            .tracer
            .attr(span, "chain", &request.id.to_string());
        let res = self.deploy_chain_core(request, forced_routes, span);
        self.tele.hub.tracer.end(span, self.now.as_nanos());
        let outcome = match &res {
            Ok(_) => "ok",
            Err(_) => {
                self.tele.deploy_failures.inc();
                "failed"
            }
        };
        self.tele.hub.tracer.attr(span, "outcome", outcome);
        res
    }

    /// Records a completed deployment step as a child span of `parent`,
    /// spanning virtual time `start..self.now`.
    fn trace_step(&self, parent: Option<SpanId>, name: &str, start: SimTime) {
        self.tele
            .hub
            .tracer
            .span(name, parent, start.as_nanos(), self.now.as_nanos(), &[]);
    }

    fn deploy_chain_core(
        &mut self,
        request: ChainRequest,
        forced_routes: Option<Vec<(Vec<SiteId>, f64)>>,
        span: SpanId,
    ) -> Result<ChainHandle> {
        if self.chains.contains_key(&request.id) {
            return Err(Error::duplicate("chain", request.id));
        }
        // A repeated VNF within one chain cannot be disambiguated by the
        // (label, arrival-context) pair our data plane keys rules on; the
        // paper's prototype needs per-label VNF interfaces for this case
        // (Section 5.3), which an in-process data plane cannot express.
        {
            let mut seen = request.vnfs.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != request.vnfs.len() {
                return Err(Error::invalid_chain(format!(
                    "{}: a VNF appears more than once; repeated VNFs need \
                     per-label interfaces (paper §5.3), which this data \
                     plane does not model",
                    request.id
                )));
            }
        }
        let mut report = DeploymentReport::new();

        // (1) Resolve ingress/egress sites (edge controller co-located with
        // Global Switchboard: one local round trip).
        let t_step = self.now;
        let ingress_site = self.edge.resolve(&request.ingress_attachment)?;
        let egress_site = self.edge.resolve(&request.egress_attachment)?;
        let dt = self.delays.local() * 2.0;
        self.now += dt;
        report.push("resolve ingress/egress sites", dt);
        self.trace_step(Some(span), "cp.resolve", t_step);

        // (2) Compute routes + allocate labels.
        let spec = self.chain_spec(&request, ingress_site, egress_site);
        let mut paths: Vec<RoutePath> = match &forced_routes {
            Some(routes) => routes
                .iter()
                .map(|(sites, fraction)| RoutePath {
                    sites: sites.clone(),
                    fraction: *fraction,
                })
                .collect(),
            None => {
                let dead = self.dead_sites();
                if !dead.is_empty() {
                    report.note(format!(
                        "route computation excluded {} crashed site(s)",
                        dead.len()
                    ));
                }
                self.solve(&spec, &[], &[], "")?
            }
        };
        let t_step = self.now;
        self.now += COMPUTE_TIME;
        report.push("compute wide-area routes", COMPUTE_TIME);
        self.trace_step(Some(span), "cp.route_compute", t_step);

        // (3) Two-phase commit, with recomputation on veto.
        let mut attempt = 0usize;
        let mut excluded: Vec<(VnfId, SiteId)> = Vec::new();
        let announcements = loop {
            let announcements = self.announce(&request, ingress_site, egress_site, &paths, 1);
            let items = self.prepare_items(&spec, &announcements);
            match self.two_phase_commit(&items, &mut report, Some(span)) {
                Ok(()) => break announcements,
                Err(Error::CommitRejected {
                    participant,
                    reason,
                }) if forced_routes.is_none() && attempt < MAX_2PC_RETRIES => {
                    attempt += 1;
                    self.tele.retries_2pc.inc();
                    // Recompute excluding the rejecting deployment.
                    if let Some((vnf, site)) = parse_participant(&participant) {
                        excluded.push((vnf, site));
                    } else {
                        return Err(Error::CommitRejected {
                            participant,
                            reason,
                        });
                    }
                    // Degrade gracefully: never re-propose a site that has
                    // crashed since the last attempt. The vetoed round has
                    // aborted, so a refusal here leaves nothing reserved.
                    paths = self.solve(&spec, &excluded, &[], " after 2pc rejections")?;
                    let t_step = self.now;
                    self.now += COMPUTE_TIME;
                    report.push("recompute after 2pc rejection", COMPUTE_TIME);
                    self.trace_step(Some(span), "cp.route_recompute", t_step);
                }
                Err(e) => return Err(e),
            }
        };

        // Account the committed load against the live tracker.
        for ann in &announcements {
            let coefs = dp::path_coefficients(&self.base_model, &spec, &ann.sites);
            self.tracker.apply(&coefs, ann.fraction);
        }

        // (4)+(5) Propagate, allocate, install.
        let routes = self.propagate_and_install(&announcements, &mut report, Some(span))?;

        self.chains.insert(
            request.id,
            ChainState {
                request,
                ingress_site,
                egress_site,
                routes,
                epoch: 1,
                added_edges: BTreeMap::new(),
            },
        );
        Ok(ChainHandle {
            chain: announcements[0].chain,
            routes: announcements,
            report,
        })
    }

    /// Builds route announcements with fresh labels/ids for a path set,
    /// tagged with the configuration epoch installing them.
    fn announce(
        &mut self,
        request: &ChainRequest,
        ingress_site: SiteId,
        egress_site: SiteId,
        paths: &[RoutePath],
        epoch: u64,
    ) -> Vec<RouteAnnouncement> {
        paths
            .iter()
            .map(|p| {
                let labels = LabelPair::new(
                    ChainLabel::new(self.next_label),
                    EgressLabel::new(egress_site.value()),
                );
                self.next_label += 1;
                let route = RouteId::new(self.next_route);
                self.next_route += 1;
                RouteAnnouncement {
                    chain: request.id,
                    route,
                    labels,
                    ingress_site,
                    egress_site,
                    vnfs: request.vnfs.clone(),
                    sites: p.sites.clone(),
                    fraction: p.fraction,
                    epoch,
                }
            })
            .collect()
    }

    /// Per-stage 2PC reservation load: the VNF's load coefficient times
    /// the stage's in+out traffic, scaled by the route's fraction.
    fn stage_load(&self, spec: &ChainSpec, vnf: VnfId, z: usize, fraction: f64) -> f64 {
        self.base_model.vnfs()[vnf.index()].load_per_unit
            * (spec.stage_traffic(z) + spec.stage_traffic(z + 1))
            * fraction
    }

    /// Expands announcements into one [`PrepareItem`] per stage — the
    /// full-scope reservation set of a deploy.
    fn prepare_items(
        &self,
        spec: &ChainSpec,
        announcements: &[RouteAnnouncement],
    ) -> Vec<PrepareItem> {
        let mut items = Vec::new();
        for ann in announcements {
            for (z, (&vnf, &site)) in ann.vnfs.iter().zip(&ann.sites).enumerate() {
                items.push(PrepareItem {
                    vnf,
                    site,
                    chain: ann.chain,
                    route: ann.route,
                    load: self.stage_load(spec, vnf, z, ann.fraction),
                });
            }
        }
        items
    }

    /// Phase-1/phase-2 exchange with every VNF controller on the routes.
    /// Virtual time advances by two round trips to the farthest
    /// participant (prepares run in parallel, then commits), plus any
    /// timeout and backoff penalties under an attached fault plan.
    ///
    /// Fault handling follows the coordinator rules that keep 2PC atomic:
    ///
    /// - A prepare whose reply times out is retried with exponential
    ///   backoff; when every attempt times out the participant is treated
    ///   as failed and **every** prepared reservation — including the
    ///   timed-out participant's, which may have been applied before its
    ///   reply was lost — is aborted. Nothing leaks.
    /// - A commit whose acknowledgment times out is re-sent (commit is
    ///   idempotent at the participant). The commit decision is final, so
    ///   an exhausted budget degrades to a report note, never an abort:
    ///   the reservation is already durable at the participant.
    /// - A reservation at a site whose crash window covers the present is
    ///   vetoed outright by the controller's failure detector; every other
    ///   prepare is aborted and the coordinator recomputes around the
    ///   dead site.
    ///
    /// One round serves deploy (full scope: every stage of every route)
    /// and update (delta scope): only the given reservations vote.
    fn two_phase_commit(
        &mut self,
        items: &[PrepareItem],
        report: &mut DeploymentReport,
        parent: Option<SpanId>,
    ) -> Result<()> {
        let mut prepared: Vec<(VnfId, ChainId, RouteId, SiteId)> = Vec::new();
        let mut max_rtt = Millis::ZERO;
        let mut penalty = Millis::ZERO;
        let mut failure: Option<Error> = None;
        let tracer = self.tele.hub.tracer.clone();
        let span_2pc = tracer.begin("cp.2pc", parent, self.now.as_nanos());
        // The span of the phase record that failed, if any — the phase
        // noted in the report is read back from this record, so report and
        // trace can never disagree.
        let mut failed_span: Option<SpanId> = None;

        for it in items {
            let (vnf, site) = (it.vnf, it.site);
            let home = match self.vnf_ctls.get(&vnf) {
                Some(ctl) => ctl.home_site(),
                None => {
                    failure = Some(Error::unknown("vnf", vnf));
                    break;
                }
            };
            let rtt = self.delays.between(GSB_SITE, home) * 2.0;
            if rtt > max_rtt {
                max_rtt = rtt;
            }
            let vnf_s = vnf.to_string();
            let site_s = site.to_string();
            let now = self.now;
            let prep_span = |end: Millis, outcome: &str| {
                tracer.span(
                    "2pc.prepare",
                    Some(span_2pc),
                    now.as_nanos(),
                    (now + end).as_nanos(),
                    &[("vnf", &vnf_s), ("site", &site_s), ("outcome", outcome)],
                )
            };
            // A reservation at a crashed site can never be honoured —
            // the instances there are gone. The controller's failure
            // detector vetoes it outright (no timeout burned), and the
            // coordinator recomputes around the site.
            if self.site_down_now(site) {
                failed_span = Some(prep_span(Millis::ZERO, "site-down"));
                failure = Some(Error::CommitRejected {
                    participant: format!("{vnf}@{site}"),
                    reason: format!("{site} is down; reservation refused"),
                });
                break;
            }
            match self
                .vnf_ctls
                .get_mut(&vnf)
                .expect("looked up above")
                .prepare(it.chain, it.route, site, it.load)
            {
                Ok(()) => {
                    // The reservation now exists at the participant.
                    // A lost reply leaves the coordinator unsure of
                    // the vote: it must either reach the participant
                    // on retry or abort everything, including this
                    // reservation.
                    prepared.push((vnf, it.chain, it.route, site));
                    match self.retry_rpc(RpcPhase::Prepare, site) {
                        Some(extra) => {
                            prep_span(rtt + extra, "ok");
                            penalty += extra;
                        }
                        None => {
                            let full = full_retry_penalty();
                            failed_span = Some(prep_span(rtt + full, "timeout"));
                            penalty += full;
                            failure = Some(Error::CommitRejected {
                                participant: format!("{vnf}@{site}"),
                                reason: format!(
                                    "prepare timed out after {MAX_RPC_RETRIES} retries"
                                ),
                            });
                            break;
                        }
                    }
                }
                Err(e) => {
                    failed_span = Some(prep_span(rtt, "vetoed"));
                    failure = Some(e);
                    break;
                }
            }
        }

        // A chain may use the same VNF at the same site more than once (two
        // stages of the same function): its reservations accumulate under
        // one (chain, route) key at the controller, so abort/commit exactly
        // once per distinct participant key.
        prepared.sort_unstable_by_key(|&(vnf, chain, route, site)| {
            (vnf.value(), chain.value(), route.value(), site.value())
        });
        prepared.dedup();

        if let Some(e) = failure {
            for (vnf, chain, route, site) in prepared {
                self.vnf_ctls
                    .get_mut(&vnf)
                    .expect("prepared controller exists")
                    .abort(chain, route, site);
            }
            self.tele.aborts_2pc.inc();
            let dt = max_rtt + penalty;
            self.now += dt;
            report.push("two-phase commit (rejected)", dt);
            // Which phase failed, read back from the trace record so the
            // report can never contradict the span data.
            if let Some(note) = failed_span.and_then(|id| phase_failure_note(&tracer, id)) {
                report.note(note);
            }
            tracer.end(span_2pc, self.now.as_nanos());
            tracer.attr(span_2pc, "outcome", "aborted");
            return Err(e);
        }

        for &(vnf, chain, route, site) in &prepared {
            let mut acked = false;
            // The commit round starts once the slowest prepare ack is in
            // (the phase's virtual-time cost is one RTT per round).
            let t_commit = self.now + max_rtt;
            for attempt in 0..=MAX_RPC_RETRIES {
                // Re-sent commits are idempotent no-ops at the
                // participant, so retrying after a lost ack is safe.
                self.vnf_ctls
                    .get_mut(&vnf)
                    .expect("prepared controller exists")
                    .commit(chain, route, site)?;
                if !self.rpc_times_out(RpcPhase::Commit, site) {
                    acked = true;
                    break;
                }
                penalty += RPC_TIMEOUT + backoff(attempt);
            }
            let commit_span = tracer.span(
                "2pc.commit",
                Some(span_2pc),
                t_commit.as_nanos(),
                (t_commit + max_rtt).as_nanos(),
                &[
                    ("vnf", &vnf.to_string()),
                    ("site", &site.to_string()),
                    ("outcome", if acked { "acked" } else { "ack-lost" }),
                ],
            );
            if !acked {
                if let Some(note) = phase_failure_note(&tracer, commit_span) {
                    report.note(note);
                }
                report.note(format!(
                    "commit ack from {vnf}@{site} lost after {MAX_RPC_RETRIES} retries; \
                     the reservation is durable at the participant"
                ));
            }
        }
        self.tele.commits_2pc.inc();
        report.participants_2pc += prepared.len();
        let dt = max_rtt * 2.0 + penalty; // prepare RTT + commit RTT
        self.now += dt;
        report.push("two-phase commit", dt);
        tracer.end(span_2pc, self.now.as_nanos());
        tracer.attr(span_2pc, "outcome", "committed");
        Ok(())
    }

    /// Publishes `msg` from `from` at `at`, re-sending with exponential
    /// backoff while copies are lost under the fault plan. Republishing
    /// re-sends to every subscriber (at-least-once delivery); state
    /// messages are idempotent, so duplicates are harmless. Exhausted
    /// retries are recorded as a partial failure in `report`.
    fn publish_with_retry(
        &mut self,
        at: SimTime,
        from: SiteId,
        msg: Message,
        what: &str,
        report: &mut DeploymentReport,
    ) -> PublishOutcome {
        // Without a fault plan nothing can be lost: no copy is kept back.
        let kept = self.faults.is_some().then(|| msg.clone());
        let mut out = self.publish(at, from, msg);
        let Some(msg) = kept.filter(|_| out.dropped > 0 || out.delivered == 0) else {
            report.wan_messages += out.wan_copies;
            return out;
        };
        let mut extra = Millis::ZERO;
        for attempt in 0..MAX_RPC_RETRIES {
            extra += RPC_TIMEOUT + backoff(attempt);
            self.tele.publish_retries.inc();
            self.tele.hub.tracer.event(
                "cp.publish.retry",
                None,
                (at + extra).as_nanos(),
                &[("what", what), ("attempt", &(attempt + 1).to_string())],
            );
            let retry = self.publish(at + extra, from, msg.clone());
            let clean = retry.dropped == 0 && retry.delivered > 0;
            out.delivered += retry.delivered;
            out.wan_copies += retry.wan_copies;
            out.dropped += retry.dropped;
            out.last_delivery = match (out.last_delivery, retry.last_delivery) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            if clean {
                report.note(format!(
                    "{what}: republished after message loss ({} attempt(s))",
                    attempt + 1
                ));
                report.wan_messages += out.wan_copies;
                return out;
            }
        }
        report.note(format!(
            "{what}: delivery incomplete after {MAX_RPC_RETRIES} republish attempts"
        ));
        report.wan_messages += out.wan_copies;
        out
    }

    /// Publishes on the bus and consumes what was delivered — the
    /// in-process stand-in for every Local Switchboard reading its inbox.
    /// The receivers run inline (the code after each publish attaches the
    /// instances, installs the rules), so a delivery has been acted on as
    /// soon as it is made. Cleared in place: the
    /// mailboxes keep their buffers, so steady-state delivery allocates
    /// nothing, and the message is freed where the publisher's own copy
    /// used to be — consuming only when the verb ends costs
    /// `fleet_deploy` throughput (CHANGES.md, PR 24).
    fn publish(&mut self, at: SimTime, from: SiteId, msg: Message) -> PublishOutcome {
        let out = self.bus.publish(at, from, msg);
        for &sub in self.site_subs.values() {
            self.bus.discard(sub);
        }
        out
    }

    /// Arrows 3-5 of Figure 4 for a set of routes; returns them with
    /// their stage forwarders.
    fn propagate_and_install(
        &mut self,
        announcements: &[RouteAnnouncement],
        report: &mut DeploymentReport,
        parent: Option<SpanId>,
    ) -> Result<Vec<InstalledRoute>> {
        // (3) Route propagation: one publish per route on the GSB's route
        // topic; every Local Switchboard is a subscriber (routes are
        // replicated at every site, Section 6).
        let t_start = self.now;
        let route_topic = gsb_route_topic();
        let mut t_done = self.now;
        for ann in announcements {
            let msg = Message::json(route_topic.clone(), ann);
            let out =
                self.publish_with_retry(self.now, GSB_SITE, msg, "route announcement", report);
            if let Some(t) = out.last_delivery {
                t_done = t_done.max(t);
            }
        }
        self.now = self.now.max(t_done);
        report.push("propagate routes", self.now.since(t_start));
        self.trace_step(parent, "cp.propagate_routes", t_start);

        // (4)+(5): shared with the delta update path. A chain gains added
        // edges only once it is deployed.
        let routes = self.allocate_and_publish(announcements, report, parent)?;
        let t_start = self.now;
        self.install_route_rules(&routes, &BTreeMap::new())?;
        self.bind_ingress(&routes)?;
        // The install is now authoritative: compile one full route
        // artifact per participant site — the serialized form of what was
        // just installed, ready for standalone forwarders. A deploy is
        // the chain's epoch 1.
        self.compile_artifacts(1, ArtifactKind::Full);
        self.now += CONFIG_DELAY;
        report.push("install load-balancing rules", self.now.since(t_start));
        self.trace_step(parent, "cp.install_rules", t_start);
        Ok(routes)
    }

    /// Arrow 4 of Figure 4: for each stage of each route, the VNF
    /// controller publishes its instances at the site (from its home site,
    /// on the site-owned topic), the Local Switchboard attaches them to
    /// forwarders and publishes forwarder records. Publishes are
    /// concurrent; the step costs the slowest. Returns each route with the
    /// forwarder records of its stages.
    fn allocate_and_publish(
        &mut self,
        announcements: &[RouteAnnouncement],
        report: &mut DeploymentReport,
        parent: Option<SpanId>,
    ) -> Result<Vec<InstalledRoute>> {
        let t_start = self.now;
        let mut t_done = self.now;
        let mut routes = Vec::with_capacity(announcements.len());
        for ann in announcements {
            let mut stages = Vec::with_capacity(ann.sites.len());
            for (z, (&vnf, &site)) in ann.vnfs.iter().zip(&ann.sites).enumerate() {
                let ctl = self
                    .vnf_ctls
                    .get(&vnf)
                    .ok_or_else(|| Error::unknown("vnf", vnf))?;
                let records = ctl.instances_at(site);
                let home = ctl.home_site();
                let inst_topic = Topic::vnf_instances(
                    ann.labels.chain().value(),
                    ann.labels.egress().value(),
                    vnf.value(),
                    site,
                );
                let sub = self.site_subs[&site];
                self.bus.subscribe(sub, inst_topic.clone());
                let msg = Message::json(inst_topic, &records);
                let out = self.publish_with_retry(t_start, home, msg, "instance records", report);
                if let Some(t) = out.last_delivery {
                    t_done = t_done.max(t);
                }

                let local = self.locals.get_mut(&site).expect("site exists");
                let fwd_records = local.attach_instances(vnf, &records);
                // Publish forwarder records on the Figure 6 topic; the
                // adjacent stages' sites subscribe.
                let fwd_topic = Topic::vnf_forwarders(
                    ann.labels.chain().value(),
                    ann.labels.egress().value(),
                    vnf.value(),
                    site,
                );
                let neighbors = [
                    z.checked_sub(1).map(|pz| ann.sites[pz]),
                    ann.sites.get(z + 1).copied(),
                    Some(ann.ingress_site),
                    Some(ann.egress_site),
                ];
                for n in neighbors.into_iter().flatten() {
                    let sub = self.site_subs[&n];
                    self.bus.subscribe(sub, fwd_topic.clone());
                }
                let msg = Message::json(fwd_topic, &fwd_records);
                let out = self.publish_with_retry(t_start, site, msg, "forwarder records", report);
                if let Some(t) = out.last_delivery {
                    t_done = t_done.max(t);
                }
                stages.push(fwd_records);
            }
            routes.push(InstalledRoute {
                ann: ann.clone(),
                stages,
            });
        }
        self.now = self.now.max(t_done);
        report.push(
            "allocate instances and publish weights",
            self.now.since(t_start),
        );
        self.trace_step(parent, "cp.allocate_instances", t_start);
        Ok(routes)
    }

    /// Arrow 5, first half: install every stage of `routes`, each row
    /// tagged with its announcement's epoch (an update's added routes
    /// carry fresh labels, so their rows sit beside the old routes' rows
    /// until those are retired). Returns how many forwarders held a pair
    /// at an older epoch: the epochs a re-tag retires.
    fn install_route_rules<'r>(
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
    fn bind_ingress<'r>(
        &mut self,
        routes: impl IntoIterator<Item = &'r InstalledRoute>,
    ) -> Result<()> {
        for route in routes {
            let first_hop = self.first_hop(route)?;
            let ann = &route.ann;
            self.edge
                .instance_at_mut(ann.ingress_site)
                .ok_or_else(|| Error::unknown("edge instance at site", ann.ingress_site))?
                .install_route(ann.chain, ann.route, ann.labels, first_hop, ann.fraction);
        }
        Ok(())
    }

    /// Where every edge bound to `route` sends its new flows: the stage-0
    /// forwarders the route was installed with, or the egress edge for a
    /// VNF-less chain.
    fn first_hop(&self, route: &InstalledRoute) -> Result<WeightedChoice> {
        match route.stages.first() {
            Some(records) => WeightedChoice::new(forwarder_hops(records)),
            None => Ok(WeightedChoice::single(self.edge_addr(route.ann.egress_site))),
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
    fn compile_artifacts(&mut self, epoch: u64, kind: ArtifactKind) {
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
            self.tele.artifact_bytes.add(bytes.len() as u64);
            #[allow(clippy::cast_possible_truncation)]
            self.tele
                .artifact_compile_ns
                .record(started.elapsed().as_nanos() as u64);
            self.artifacts.insert(site, (artifact, bytes));
        }
    }

    /// The latest compiled route artifact for `site`, if any verb has
    /// changed its forwarder rules. A deploy leaves a full artifact; a
    /// route addition, update, reroute, edge-site addition or removal
    /// leaves a patch (compose it onto the previous state via
    /// `Forwarder::apply_artifact`).
    #[must_use]
    pub fn site_artifact(&self, site: SiteId) -> Option<&SiteArtifact> {
        self.artifacts.get(&site).map(|(a, _)| a)
    }

    /// The encoded bytes of [`site_artifact`](Self::site_artifact) — what
    /// `sb compile` writes to an `.sba` file. Byte-deterministic for a
    /// given route solution.
    #[must_use]
    pub fn site_artifact_bytes(&self, site: SiteId) -> Option<&[u8]> {
        self.artifacts.get(&site).map(|(_, b)| b.as_slice())
    }

    /// Sites with a compiled artifact, sorted.
    #[must_use]
    pub fn artifact_sites(&self) -> Vec<SiteId> {
        let mut sites: Vec<SiteId> = self.artifacts.keys().copied().collect();
        sites.sort_unstable();
        sites
    }

    /// Adds a new wide-area route to a deployed chain through the given
    /// VNF sites, rebalancing traffic evenly across all routes — the
    /// Figure 10 experiment ("requesting Global Switchboard to create a
    /// new route via VNF instances in site B ... load is balanced evenly
    /// on the two routes"). A route addition *is* an update: the target is
    /// the installed routes and the new one at `1/(n+1)` each, run through
    /// the delta pipeline of [`update_chain`](Self::update_chain) — only
    /// the new route votes in 2PC, the shrunk routes release what they
    /// gave up, and established flows drain on the old epoch.
    ///
    /// # Errors
    ///
    /// - [`Error::UnknownEntity`] for unknown chains.
    /// - [`Error::InvalidArgument`] when the site count mismatches the
    ///   chain's VNF count, or the chain already has a route through
    ///   exactly these sites (routes are keyed by site sequence; shifting
    ///   weight between installed routes is `update_chain`'s job).
    /// - [`Error::CommitRejected`] when the new route's reservations are
    ///   vetoed; the installed routes keep serving untouched.
    pub fn add_route_via(
        &mut self,
        chain: ChainId,
        sites: Vec<SiteId>,
    ) -> Result<(RouteAnnouncement, DeploymentReport)> {
        let state = self
            .chains
            .get(&chain)
            .ok_or_else(|| Error::unknown("chain", chain))?;
        if sites.len() != state.request.vnfs.len() {
            return Err(Error::invalid_argument(
                "route site count must match chain VNF count",
            ));
        }
        if state.routes.iter().any(|r| r.ann.sites == sites) {
            return Err(Error::invalid_argument(
                "the chain already has a route through these sites; \
                 rebalance it with update_chain",
            ));
        }
        let mut target = installed_paths(&state.routes);
        #[allow(clippy::cast_precision_loss)]
        let even = 1.0 / (target.len() as f64 + 1.0);
        for path in &mut target {
            path.fraction = even;
        }
        target.push(RoutePath {
            sites: sites.clone(),
            fraction: even,
        });
        let handle = self.update_chain_inner(chain, target)?;
        let added = handle
            .routes
            .into_iter()
            .find(|r| r.sites == sites)
            .expect("the delta adds a route through `sites`");
        Ok((added, handle.report))
    }

    fn edge_addr(&self, site: SiteId) -> Addr {
        self.edge
            .instance_at(site)
            .map_or(Addr::Edge(EdgeInstanceId::new(u64::MAX)), |e| e.addr())
    }

    /// Extends a chain to a new edge site (the user-mobility flow of
    /// Section 6 and Table 2): the site's Local Switchboard picks the
    /// chain's route whose first VNF is nearest (the lowest route id on a
    /// tie), learns the first VNF's forwarders from the bus, and configures
    /// the data plane in both directions.
    ///
    /// # Errors
    ///
    /// - [`Error::UnknownEntity`] for unknown chains or sites.
    /// - [`Error::InvalidChain`] for chains without VNFs (nothing to
    ///   attach to).
    /// - [`Error::DuplicateEntity`], before any state changes, when
    ///   `attachment` is already registered at another site.
    /// - [`Error::InvalidArgument`], before any state changes, when `site`
    ///   is the chain's ingress site, whose edge already binds every route.
    pub fn add_edge_site(
        &mut self,
        chain: ChainId,
        attachment: impl Into<String>,
        site: SiteId,
    ) -> Result<DeploymentReport> {
        let state = self
            .chains
            .get(&chain)
            .ok_or_else(|| Error::unknown("chain", chain))?;
        if state.request.vnfs.is_empty() {
            return Err(Error::invalid_chain(
                "cannot extend a chain without VNFs to a new edge site",
            ));
        }
        if !self.locals.contains_key(&site) {
            return Err(Error::unknown("site", site));
        }
        let attachment = attachment.into();
        if self.edge.resolve(&attachment).is_ok_and(|at| at != site) {
            return Err(Error::duplicate("attachment", attachment));
        }
        // The ingress edge binds each route at its fraction; binding one at
        // fraction 1 there would skew the split the reservations are sized
        // for.
        if site == state.ingress_site {
            return Err(Error::invalid_argument(format!(
                "{site} is the ingress site of {chain}"
            )));
        }
        // Step 1: the site's Local Switchboard chooses the first VNF's site
        // among the chain's routes, which every site received when they
        // were announced — pure local computation (0 ms in Table 2).
        let nearest = nearest_route(&self.base_model, &state.routes, site)
            .ok_or_else(|| Error::unknown("routes for chain", chain))?
            .clone();
        let epoch = state.epoch;
        let mut report = DeploymentReport::new();
        let root = self
            .tele
            .hub
            .tracer
            .begin("cp.add_edge_site", None, self.now.as_nanos());
        self.tele
            .hub
            .tracer
            .attr(root, "site", &site.to_string());
        report.push("local SB chooses the 1st VNF's site", Millis::ZERO);
        let first_site = nearest.ann.sites[0];

        // Step 2: the edge's forwarder receives the first VNF's forwarder
        // info (one-way publish from the first VNF's site): the records
        // the route's stage 0 published at install.
        let fwd_topic = Topic::vnf_forwarders(
            nearest.ann.labels.chain().value(),
            nearest.ann.labels.egress().value(),
            nearest.ann.vnfs[0].value(),
            first_site,
        );
        let sub = self.site_subs[&site];
        self.bus.subscribe(sub, fwd_topic.clone());
        let t_start = self.now;
        let msg = Message::json(fwd_topic, &nearest.stages[0]);
        let out = self.publish_with_retry(
            t_start,
            first_site,
            msg,
            "first VNF forwarder info",
            &mut report,
        );
        let t_recv = out.last_delivery.unwrap_or(t_start);
        self.now = self.now.max(t_recv);
        report.push(
            "edge instance's fwrdr receives 1st VNF's info",
            t_recv.since(t_start),
        );

        // Step 3: configure the edge data plane (the tunnel; the route
        // binding lands with the stage-0 rules in step 6).
        let edge_id = self.edge.register_attachment(attachment, site);
        self.now += CONFIG_DELAY;
        report.push("edge instance's fwrdr dataplane configured", CONFIG_DELAY);

        // Step 4: the first VNF's forwarders receive the edge's info
        // (one-way publish from the new edge site).
        let topic = edge_topic(chain, site);
        let vnf_sub = self.site_subs[&first_site];
        self.bus.subscribe(vnf_sub, topic.clone());
        let t_start = self.now;
        let msg = Message::json(topic, &vec![edge_id.value()]);
        let out = self.publish_with_retry(t_start, site, msg, "edge forwarder info", &mut report);
        let t_recv = out.last_delivery.unwrap_or(t_start);
        self.now = self.now.max(t_recv);
        report.push(
            "1st VNF's fwrdr receives edge's fwrdr info",
            t_recv.since(t_start),
        );

        // Step 5: the first VNF's forwarders schedule reconfiguration
        // (queueing behind in-flight rule updates).
        self.now += CONFIG_DELAY;
        report.push("1st VNF's fwrdr starts dataplane configuration", CONFIG_DELAY);

        // Step 6: bind the edge to the route and reinstall stage-0 rules
        // with the new edge among the previous hops, completing the
        // reverse path.
        let state = self.chains.get_mut(&chain).expect("looked up above");
        state.added_edges.insert(site, nearest.ann.route);
        let added_edges = state.added_edges.clone();
        self.bind_added_edge(site, &nearest, &added_edges)?;
        self.compile_artifacts(epoch, ArtifactKind::Patch);
        self.now += CONFIG_DELAY;
        report.push("1st VNF's fwrdr finishes configuration", CONFIG_DELAY);
        self.tele.hub.tracer.end(root, self.now.as_nanos());
        Ok(report)
    }

    /// Binds the edge instance at the added edge `site` to `route`: new
    /// flows entering there take the route through its first hop, as the
    /// ingress's do, and the route's stage-0 rules are reinstalled with the
    /// edges `added_edges` binds to it among the previous hops. Shared by
    /// edge-site addition and by an update that retires the edge's route.
    fn bind_added_edge(
        &mut self,
        site: SiteId,
        route: &InstalledRoute,
        added_edges: &BTreeMap<SiteId, RouteId>,
    ) -> Result<()> {
        let first_hop = self.first_hop(route)?;
        let ann = &route.ann;
        self.edge
            .instance_at_mut(site)
            .ok_or_else(|| Error::unknown("edge instance at site", site))?
            .install_route(ann.chain, ann.route, ann.labels, first_hop, 1.0);
        self.install_stage(route, 0, added_edges)?;
        Ok(())
    }

    /// Updates a deployed chain's wide-area routes to an explicit target
    /// path set through the epoch-versioned delta pipeline (DESIGN.md
    /// §10): diff → delta-scoped 2PC → install new-epoch rules → shift
    /// edge weights → retire the old epoch. Routes whose site sequence
    /// and fraction are unchanged are never touched: their reservations
    /// are not re-prepared, their rules are not reinstalled, and no
    /// message is sent for them.
    ///
    /// # Errors
    ///
    /// - [`Error::UnknownEntity`] for unknown chains.
    /// - [`Error::InvalidArgument`], before any state changes, when the
    ///   route set is not a split of the whole demand: it is empty, a
    ///   route's site count mismatches the chain's VNF count, a fraction
    ///   is not finite and positive, or the fractions do not sum to 1.
    /// - [`Error::CommitRejected`] when a grown reservation is vetoed;
    ///   the old epoch remains fully installed and serving.
    pub fn update_chain(
        &mut self,
        chain: ChainId,
        routes: Vec<(Vec<SiteId>, f64)>,
    ) -> Result<ChainHandle> {
        let state = self
            .chains
            .get(&chain)
            .ok_or_else(|| Error::unknown("chain", chain))?;
        check_route_set(&routes, state.request.vnfs.len())?;
        let target: Vec<RoutePath> = routes
            .into_iter()
            .map(|(sites, fraction)| RoutePath { sites, fraction })
            .collect();
        self.update_chain_inner(chain, target)
    }

    /// Recomputes a deployed chain's routes warm-started from the live
    /// load state — only this chain's load is unwound and re-solved;
    /// every other chain's contribution stays in place — and applies the
    /// result through the same delta pipeline as
    /// [`update_chain`](Self::update_chain). Crashed sites are excluded
    /// from the recomputation, so this is the recovery verb after a site
    /// failure.
    ///
    /// # Errors
    ///
    /// As [`update_chain`](Self::update_chain), plus
    /// [`Error::Infeasible`] when the surviving capacity cannot place the
    /// chain's full demand.
    pub fn reroute_chain(&mut self, chain: ChainId) -> Result<ChainHandle> {
        let state = self
            .chains
            .get(&chain)
            .ok_or_else(|| Error::unknown("chain", chain))?;
        let spec = self.chain_spec(&state.request, state.ingress_site, state.egress_site);
        let installed = installed_paths(&state.routes);
        let paths = self.solve(&spec, &[], &installed, " after reroute")?;
        self.update_chain_inner(chain, paths)
    }

    fn update_chain_inner(&mut self, chain: ChainId, target: Vec<RoutePath>) -> Result<ChainHandle> {
        self.tele.updates.inc();
        let span = self
            .tele
            .hub
            .tracer
            .begin("cp.update", None, self.now.as_nanos());
        self.tele.hub.tracer.attr(span, "chain", &chain.to_string());
        let res = self.update_chain_core(chain, &target, span);
        self.tele.hub.tracer.end(span, self.now.as_nanos());
        let outcome = match &res {
            Ok(_) => "ok",
            Err(_) => {
                self.tele.update_failures.inc();
                "failed"
            }
        };
        self.tele.hub.tracer.attr(span, "outcome", outcome);
        res
    }

    #[allow(clippy::too_many_lines)]
    fn update_chain_core(
        &mut self,
        chain: ChainId,
        target: &[RoutePath],
        span: SpanId,
    ) -> Result<ChainHandle> {
        let state = self
            .chains
            .get(&chain)
            .ok_or_else(|| Error::unknown("chain", chain))?
            .clone();
        let spec = self.chain_spec(&state.request, state.ingress_site, state.egress_site);
        let mut report = DeploymentReport::new();

        // (1) Diff the installed routes against the target — pure local
        // computation at Global Switchboard.
        let t_step = self.now;
        let installed = installed_paths(&state.routes);
        let delta = RouteDelta::diff(&installed, target);
        self.now += COMPUTE_TIME;
        report.push("diff routes against target", COMPUTE_TIME);
        self.trace_step(Some(span), "cp.diff", t_step);
        if delta.is_empty() {
            return Ok(ChainHandle {
                chain,
                routes: state.routes.into_iter().map(|r| r.ann).collect(),
                report,
            });
        }
        let new_epoch = state.epoch + 1;

        // Partition the installed routes by the delta's verdicts.
        // Several installed routes can share one site sequence (forced
        // deploys); the diff is keyed by the merged sequence, so such a
        // modified group is replaced wholesale (remove + add) while a
        // lone modified route keeps its identity and shifts fraction.
        let mut kept: Vec<InstalledRoute> = Vec::new();
        let mut removed: Vec<InstalledRoute> = Vec::new();
        let mut modified: Vec<(InstalledRoute, f64)> = Vec::new();
        let mut added_paths: Vec<RoutePath> = delta.added.clone();
        for route in &state.routes {
            let ann = &route.ann;
            if delta.removed.iter().any(|p| p.sites == ann.sites) {
                removed.push(route.clone());
            } else if let Some(m) = delta.modified.iter().find(|m| m.sites == ann.sites) {
                let group = state.routes.iter().filter(|r| r.ann.sites == ann.sites).count();
                if group > 1 {
                    removed.push(route.clone());
                    if !added_paths.iter().any(|p| p.sites == m.sites) {
                        added_paths.push(RoutePath {
                            sites: m.sites.clone(),
                            fraction: m.new_fraction,
                        });
                    }
                } else {
                    let mut nu = route.clone();
                    nu.ann.fraction = m.new_fraction;
                    nu.ann.epoch = new_epoch;
                    modified.push((nu, ann.fraction));
                }
            } else {
                kept.push(route.clone());
            }
        }
        let added = self.announce(
            &state.request,
            state.ingress_site,
            state.egress_site,
            &added_paths,
            new_epoch,
        );

        // (2) Delta-scoped 2PC: only load *increases* vote. Added routes
        // are prepared in full under fresh keys; grown fractions by their
        // increment under the existing (chain, route) key — the site pool
        // accumulates. Decreases and removals release at retire time and
        // need no vote, so a pure scale-down or teardown commits for
        // free. On rejection nothing has been installed: the old epoch
        // keeps serving untouched.
        let mut items = self.prepare_items(&spec, &added);
        for (InstalledRoute { ann: nu, .. }, old_fraction) in &modified {
            let grow = nu.fraction - old_fraction;
            if grow > 1e-12 {
                for (z, (&vnf, &site)) in nu.vnfs.iter().zip(&nu.sites).enumerate() {
                    items.push(PrepareItem {
                        vnf,
                        site,
                        chain,
                        route: nu.route,
                        load: self.stage_load(&spec, vnf, z, grow),
                    });
                }
            }
        }
        if items.is_empty() {
            report.push("two-phase commit (no load increases)", Millis::ZERO);
        } else {
            self.two_phase_commit(&items, &mut report, Some(span))?;
        }

        // Account the committed load changes against the live tracker
        // (removed routes are unwound in retire_routes below).
        for ann in &added {
            let coefs = dp::path_coefficients(&self.base_model, &spec, &ann.sites);
            self.tracker.apply(&coefs, ann.fraction);
        }
        for (InstalledRoute { ann: nu, .. }, old_fraction) in &modified {
            let coefs = dp::path_coefficients(&self.base_model, &spec, &nu.sites);
            self.tracker.apply(&coefs, nu.fraction - old_fraction);
        }

        // (3) Propagate the delta to the affected sites only — one
        // site-owned topic per affected site, so the WAN message count
        // scales with the delta, not the chain (unchanged routes'
        // sites hear nothing).
        let t_pub = self.now;
        let changed: Vec<&RouteAnnouncement> = added
            .iter()
            .chain(modified.iter().map(|(nu, _)| &nu.ann))
            .collect();
        let affected = delta.affected_sites();
        let t_done =
            self.publish_route_deltas(chain, &changed, &affected, "route delta", &mut report);
        self.now = self.now.max(t_done);
        report.push("propagate route deltas", self.now.since(t_pub));
        self.trace_step(Some(span), "cp.propagate_routes", t_pub);

        // (4) Make: allocate instances for added routes and install their
        // rules beside the old routes' rows, which stay for pinned flows;
        // nothing is serving the added routes yet. The modified routes'
        // (content-identical) rows are re-tagged at the new epoch from the
        // stage forwarders in the chain record; each re-tagged row retires
        // its old epoch.
        let added = if added.is_empty() {
            Vec::new()
        } else {
            self.allocate_and_publish(&added, &mut report, Some(span))?
        };
        let t_inst = self.now;
        let changed = || added.iter().chain(modified.iter().map(|(nu, _)| nu));
        let epochs_retired = self.install_route_rules(changed(), &state.added_edges)?;
        self.tele.epochs_retired.add(epochs_retired as u64);
        self.now += CONFIG_DELAY;
        report.push("install new-epoch rules", self.now.since(t_inst));
        self.trace_step(Some(span), "cp.install_rules", t_inst);

        // (5) Shift: repoint the ingress edge's weighted bindings. From
        // here, new flows select the target split and hash onto the new
        // epoch; pinned flows keep draining on the old one. An added edge
        // site whose route is being retired moves to the new route nearest
        // to it, by `add_edge_site`'s own rule.
        let t_shift = self.now;
        self.bind_ingress(changed())?;
        let mut new_routes = kept;
        new_routes.extend(added);
        new_routes.extend(modified.iter().map(|(nu, _)| nu.clone()));
        new_routes.sort_by_key(|r| r.ann.route);
        let mut added_edges = state.added_edges.clone();
        for (&site, bound) in &state.added_edges {
            if removed.iter().any(|r| r.ann.route == *bound) {
                let nearest = nearest_route(&self.base_model, &new_routes, site)
                    .expect("an update leaves the chain a route");
                added_edges.insert(site, nearest.ann.route);
                self.bind_added_edge(site, nearest, &added_edges)?;
            }
        }
        self.now += CONFIG_DELAY;
        report.push("shift load-balancing weights", self.now.since(t_shift));
        self.trace_step(Some(span), "cp.weight_shift", t_shift);

        // (6) Break: retire removed routes and release the shrunk
        // fractions' capacity.
        let t_retire = self.now;
        self.retire_routes(&spec, &removed, &state, |site| {
            new_routes.iter().any(|r| r.ann.sites.contains(&site))
        });
        for (InstalledRoute { ann: nu, .. }, old_fraction) in &modified {
            let shrink = old_fraction - nu.fraction;
            if shrink > 1e-12 {
                for (z, (&vnf, &site)) in nu.vnfs.iter().zip(&nu.sites).enumerate() {
                    let load = self.stage_load(&spec, vnf, z, shrink);
                    if let Some(ctl) = self.vnf_ctls.get_mut(&vnf) {
                        ctl.release(site, load);
                    }
                }
            }
        }
        self.now += CONFIG_DELAY;
        report.push("retire old epoch", self.now.since(t_retire));
        self.trace_step(Some(span), "cp.retire", t_retire);

        // Delta install → patch artifacts at the sites of every added,
        // modified or removed route. Composing one onto the site's
        // previous artifact reproduces the post-update state.
        self.compile_artifacts(new_epoch, ArtifactKind::Patch);

        let routes = new_routes.iter().map(|r| r.ann.clone()).collect();
        let st = self.chains.get_mut(&chain).expect("chain exists");
        st.routes = new_routes;
        st.epoch = new_epoch;
        st.added_edges = added_edges;
        Ok(ChainHandle {
            chain,
            routes,
            report,
        })
    }

    /// Publishes epoch-tagged announcement deltas to the affected sites
    /// only: one message per affected site on its own
    /// [`Topic::route_delta`] topic. The topic is owned by the affected
    /// site itself, so each publish costs at most one WAN copy — unlike
    /// the chain-wide `/routes/site_<gsb>_gsb` replication topic every
    /// site subscribes to. Returns the latest delivery time.
    fn publish_route_deltas(
        &mut self,
        chain: ChainId,
        payload: &[&RouteAnnouncement],
        affected: &[SiteId],
        what: &str,
        report: &mut DeploymentReport,
    ) -> SimTime {
        let t_start = self.now;
        let mut t_done = t_start;
        for &site in affected {
            let Some(&sub) = self.site_subs.get(&site) else {
                continue;
            };
            let topic = Topic::route_delta(chain.value() as u32, site);
            self.bus.subscribe(sub, topic.clone());
            let msg = Message::json(topic, &payload);
            let out = self.publish_with_retry(t_start, GSB_SITE, msg, what, report);
            if let Some(t) = out.last_delivery {
                t_done = t_done.max(t);
            }
        }
        t_done
    }

    /// Retires a set of routes of the chain `state` records: unbinds them
    /// at its ingress and added edges, strips their forwarder rules at
    /// each stage site, releases the reserved VNF capacity, and unwinds
    /// their load from the live tracker. Pinned flows keep their forwarder flow-table entries and
    /// edge pins, so established connections drain rather than break
    /// (Section 5.3).
    ///
    /// A retired route takes its bus and 2PC state with it: the
    /// `vnf_instances` / `vnf_forwarders` topics of its label pair are
    /// dropped, its stage sites stop listening for the chain's route
    /// deltas unless `still_routed` says a surviving route of the chain
    /// crosses them, and the VNF controllers forget its reservation key.
    fn retire_routes(
        &mut self,
        spec: &ChainSpec,
        routes: &[InstalledRoute],
        state: &ChainState,
        still_routed: impl Fn(SiteId) -> bool,
    ) {
        for InstalledRoute { ann, .. } in routes {
            for &site in std::iter::once(&state.ingress_site).chain(state.added_edges.keys()) {
                if let Some(edge) = self.edge.instance_at_mut(site) {
                    edge.remove_route(ann.chain, ann.route);
                }
            }
            let (label, egress) = (ann.labels.chain().value(), ann.labels.egress().value());
            for (z, (&vnf, &site)) in ann.vnfs.iter().zip(&ann.sites).enumerate() {
                let load = self.stage_load(spec, vnf, z, ann.fraction);
                if let Some(ctl) = self.vnf_ctls.get_mut(&vnf) {
                    ctl.retire(ann.chain, ann.route, site, load);
                }
                self.bus
                    .remove_topic(&Topic::vnf_instances(label, egress, vnf.value(), site));
                self.bus
                    .remove_topic(&Topic::vnf_forwarders(label, egress, vnf.value(), site));
            }
            let mut sites = ann.sites.clone();
            sites.sort_unstable();
            sites.dedup();
            for site in sites {
                if let Some(local) = self.locals.get_mut(&site) {
                    local.remove_route_rules(ann.labels);
                }
                if !still_routed(site) {
                    #[allow(clippy::cast_possible_truncation)]
                    self.bus
                        .remove_topic(&Topic::route_delta(ann.chain.value() as u32, site));
                }
            }
            let coefs = dp::path_coefficients(&self.base_model, spec, &ann.sites);
            self.tracker.apply(&coefs, -ann.fraction);
        }
    }

    /// Tears down a chain through the same delta pipeline as an update —
    /// the to-empty degenerate delta. Releases the committed VNF capacity
    /// AND removes the forwarder rules, the route bindings at the ingress
    /// and every added edge, and the chain record with its routes.
    /// Established flows keep their flow-table pins and drain
    /// (Section 5.3). Teardown never needs a 2PC round: it only shrinks
    /// reservations.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] for unknown chains.
    pub fn remove_chain(&mut self, chain: ChainId) -> Result<DeploymentReport> {
        let state = self
            .chains
            .remove(&chain)
            .ok_or_else(|| Error::unknown("chain", chain))?;
        self.tele.removes.inc();
        let span = self
            .tele
            .hub
            .tracer
            .begin("cp.remove", None, self.now.as_nanos());
        self.tele.hub.tracer.attr(span, "chain", &chain.to_string());
        let mut report = DeploymentReport::new();
        let spec = self.chain_spec(&state.request, state.ingress_site, state.egress_site);

        // Removal delta to the affected sites only (payload: the retiring
        // announcements, so receivers know which route ids die).
        let t_pub = self.now;
        let mut affected: Vec<SiteId> = state
            .routes
            .iter()
            .flat_map(|r| r.ann.sites.iter().copied())
            .collect();
        affected.sort();
        affected.dedup();
        let anns: Vec<&RouteAnnouncement> = state.routes.iter().map(|r| &r.ann).collect();
        let t_done = self.publish_route_deltas(
            chain,
            &anns,
            &affected,
            "route removal delta",
            &mut report,
        );
        self.now = self.now.max(t_done);
        report.push("propagate route deltas", self.now.since(t_pub));
        self.trace_step(Some(span), "cp.propagate_routes", t_pub);

        let t_retire = self.now;
        self.retire_routes(&spec, &state.routes, &state, |_| false);
        for &site in state.added_edges.keys() {
            self.bus.remove_topic(&edge_topic(chain, site));
        }
        // The patch lists the chain's label pairs as removals.
        self.compile_artifacts(state.epoch, ArtifactKind::Patch);
        self.now += CONFIG_DELAY;
        report.push("retire routes and release capacity", self.now.since(t_retire));
        self.trace_step(Some(span), "cp.retire", t_retire);
        self.tele.hub.tracer.end(span, self.now.as_nanos());
        Ok(report)
    }
}

/// The chain-wide replication topic: owned by the Global Switchboard's
/// site, subscribed by every Local Switchboard for the control plane's
/// whole life.
fn gsb_route_topic() -> Topic {
    Topic::with_owner(format!("/routes/site_{}_gsb", GSB_SITE.value()), GSB_SITE)
}

/// Forwarder records as weighted hops: each forwarder weighted by the
/// instances it serves.
fn forwarder_hops(records: &[ForwarderRecord]) -> Hops {
    records
        .iter()
        .map(|fr| (Addr::Forwarder(fr.forwarder), fr.weight))
        .collect()
}

/// The topic an edge site added to `chain` publishes its forwarder info
/// on; the chain's first VNF sites subscribe.
fn edge_topic(chain: ChainId, site: SiteId) -> Topic {
    Topic::with_owner(
        format!("/c{}/edge/site_{}_forwarders", chain.value(), site.value()),
        site,
    )
}

/// The route, of `routes` held in route-id order, whose first VNF site is
/// nearest to `site`. `min_by` keeps the first of equals, so the lowest
/// route id wins a tie.
fn nearest_route<'a>(
    model: &NetworkModel,
    routes: &'a [InstalledRoute],
    site: SiteId,
) -> Option<&'a InstalledRoute> {
    let latency = |r: &InstalledRoute| {
        model
            .latency(model.site_node(site), model.site_node(r.ann.sites[0]))
            .value()
    };
    routes
        .iter()
        .min_by(|a, b| latency(a).total_cmp(&latency(b)))
}

/// Rejects a caller-specified route set that is not a split of the whole
/// demand: empty, a route whose site count mismatches the chain's VNFs,
/// a fraction that is not finite and positive, or fractions not summing
/// to 1 within deploy's admission tolerance.
fn check_route_set(routes: &[(Vec<SiteId>, f64)], num_vnfs: usize) -> Result<()> {
    if routes.is_empty() {
        return Err(Error::invalid_argument("a chain needs at least one route"));
    }
    for (sites, fraction) in routes {
        if sites.len() != num_vnfs {
            return Err(Error::invalid_argument(
                "route site count must match chain VNF count",
            ));
        }
        if !fraction.is_finite() || *fraction <= 0.0 {
            return Err(Error::invalid_argument(format!(
                "route fraction {fraction} is not finite and positive"
            )));
        }
    }
    let total: f64 = routes.iter().map(|(_, fraction)| fraction).sum();
    if (total - 1.0).abs() > 1e-6 {
        return Err(Error::invalid_argument(format!(
            "route fractions sum to {total}, not 1"
        )));
    }
    Ok(())
}

/// Admission control on a solved route set: a chain is installed only
/// when its full estimated demand is placed. `when` names the solve in
/// the error (empty for a first deploy).
fn check_placeable(paths: &[RoutePath], chain: ChainId, when: &str) -> Result<()> {
    let routed: f64 = paths.iter().map(|p| p.fraction).sum();
    if routed < 1.0 - 1e-6 {
        return Err(Error::infeasible(format!(
            "only {:.1}% of {chain} demand is placeable{when}",
            routed * 100.0
        )));
    }
    Ok(())
}

/// The installed routes as the TE layer's `(site sequence, fraction)`
/// paths — what a target is diffed against.
fn installed_paths(routes: &[InstalledRoute]) -> Vec<RoutePath> {
    routes
        .iter()
        .map(|r| RoutePath {
            sites: r.ann.sites.clone(),
            fraction: r.ann.fraction,
        })
        .collect()
}

/// Exponential backoff before retry `attempt` (0-based).
fn backoff(attempt: usize) -> Millis {
    let mut b = RETRY_BACKOFF_BASE;
    for _ in 0..attempt.min(16) {
        b = b * 2.0;
    }
    b
}

/// The virtual-time cost of a fully exhausted RPC retry budget.
fn full_retry_penalty() -> Millis {
    let mut extra = Millis::ZERO;
    for attempt in 0..=MAX_RPC_RETRIES {
        extra += RPC_TIMEOUT + backoff(attempt);
    }
    extra
}

/// Builds a report note naming the 2PC phase that failed, sourced from
/// trace record `id` (its name and attributes) rather than from local
/// variables — the narrative in [`DeploymentReport::partial_failures`] can
/// never contradict the span data. `None` if the record was evicted.
fn phase_failure_note(tracer: &TraceRecorder, id: SpanId) -> Option<String> {
    let records = tracer.snapshot();
    let rec = records.iter().rev().find(|r| r.id == id)?;
    let phase = rec.name.strip_prefix("2pc.")?;
    Some(format!(
        "2pc {phase} phase failed at {}@{}: {}",
        rec.attr("vnf").unwrap_or("?"),
        rec.attr("site").unwrap_or("?"),
        rec.attr("outcome").unwrap_or("unknown"),
    ))
}

/// Parses the `"{vnf}@{site}"` participant string of a
/// [`Error::CommitRejected`].
fn parse_participant(s: &str) -> Option<(VnfId, SiteId)> {
    let (vnf_s, site_s) = s.split_once('@')?;
    let vnf = vnf_s.strip_prefix("vnf-")?.parse().ok()?;
    let site = site_s.strip_prefix("site-")?.parse().ok()?;
    Some((VnfId::new(vnf), SiteId::new(site)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_topology::TopologyBuilder;
    use std::collections::HashMap as Map;

    /// Line topology with sites at every node; one VNF at sites 1 and 2.
    fn model() -> NetworkModel {
        let mut tb = TopologyBuilder::new();
        let n0 = tb.add_node("n0", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("n1", (0.0, 1.0), 1.0);
        let n2 = tb.add_node("n2", (0.0, 2.0), 1.0);
        let n3 = tb.add_node("n3", (0.0, 3.0), 1.0);
        tb.add_duplex_link(n0, n1, 100.0, Millis::new(5.0));
        tb.add_duplex_link(n1, n2, 100.0, Millis::new(10.0));
        tb.add_duplex_link(n2, n3, 100.0, Millis::new(5.0));
        let mut b = NetworkModel::builder(tb.build());
        let s0 = b.add_site(n0, 1000.0);
        let s1 = b.add_site(n1, 1000.0);
        let s2 = b.add_site(n2, 1000.0);
        let s3 = b.add_site(n3, 1000.0);
        let _ = (s0, s3);
        b.add_vnf(Map::from([(s1, 100.0), (s2, 100.0)]), 1.0);
        b.build().unwrap()
    }

    fn control_plane() -> ControlPlane {
        let delays = DelayModel::uniform(Millis::new(0.1), Millis::new(30.0));
        ControlPlane::new(model(), delays, ControlPlaneConfig::default())
    }

    fn request(id: u64) -> ChainRequest {
        ChainRequest {
            id: ChainId::new(id),
            ingress_attachment: "customer-in".into(),
            egress_attachment: "customer-out".into(),
            vnfs: vec![VnfId::new(0)],
            forward: 10.0,
            reverse: 2.0,
        }
    }

    #[test]
    fn deploy_chain_end_to_end() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let handle = cp.deploy_chain(request(1)).unwrap();
        assert_eq!(handle.routes.len(), 1);
        let route = &handle.routes[0];
        assert_eq!(route.sites.len(), 1);
        assert!((route.fraction - 1.0).abs() < 1e-9);
        // Timing: positive, sub-second (Figure 10a's regime).
        let total = handle.report.total();
        assert!(total.value() > 50.0, "{total}");
        assert!(total.value() < 1000.0, "{total}");
        // Steps include the Figure 4 arrows.
        let names: Vec<_> = handle.report.steps.iter().map(|(n, _)| n.clone()).collect();
        assert!(names.iter().any(|n| n.contains("two-phase commit")));
        assert!(names.iter().any(|n| n.contains("propagate routes")));
    }

    #[test]
    fn deploy_requires_registered_attachments() {
        let mut cp = control_plane();
        assert!(matches!(
            cp.deploy_chain(request(1)),
            Err(Error::UnknownEntity { .. })
        ));
    }

    #[test]
    fn duplicate_chain_rejected() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        cp.deploy_chain(request(1)).unwrap();
        assert!(matches!(
            cp.deploy_chain(request(1)),
            Err(Error::DuplicateEntity { .. })
        ));
    }

    #[test]
    fn capacity_is_committed_through_2pc() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let handle = cp.deploy_chain(request(1)).unwrap();
        let site = handle.routes[0].sites[0];
        let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
        // Chain load: l_f * (12 + 12) = 24 committed at the chosen site.
        assert!((ctl.available_at(site) - 76.0).abs() < 1e-9);
    }

    #[test]
    fn rejection_triggers_recomputation_to_other_site() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        // Fill site 1 and site 2 alternately: each chain takes 24 load, so
        // 4 chains fit per site (cap 100). Deploy many chains; all must
        // succeed until both sites are full (8 chains), then fail.
        let mut deployed = 0;
        for i in 0..9 {
            let mut req = request(i);
            req.ingress_attachment = "customer-in".into();
            req.egress_attachment = "customer-out".into();
            match cp.deploy_chain(req) {
                Ok(_) => deployed += 1,
                Err(e) => {
                    assert!(
                        matches!(e, Error::Infeasible { .. } | Error::CommitRejected { .. }),
                        "unexpected error: {e}"
                    );
                    break;
                }
            }
        }
        assert_eq!(deployed, 8, "both sites should fill before failure");
    }

    #[test]
    fn forwarders_get_rules_installed() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let handle = cp.deploy_chain(request(1)).unwrap();
        let site = handle.routes[0].sites[0];
        let local = cp.local(site).unwrap();
        assert!(local.num_forwarders() >= 1);
        // The ingress edge has a route binding.
        let edge = cp.edge().instance_at(SiteId::new(0)).unwrap();
        assert_eq!(edge.routes_for(ChainId::new(1)), 1);
    }

    #[test]
    fn forwarder_site_names_the_site_of_a_live_forwarder_only() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let site = cp.deploy_chain(request(1)).unwrap().routes[0].sites[0];
        let ids = cp.local(site).unwrap().forwarder_ids();
        for &id in &ids {
            assert_eq!(cp.forwarder_site(id), Some(site));
        }
        // The next id this site would allocate, and an id allocated at a
        // site the control plane does not have.
        let unallocated = ForwarderId::new(ids.last().unwrap().value() + 1);
        assert_eq!(cp.forwarder_site(unallocated), None);
        let mut elsewhere = LocalSwitchboard::new(SiteId::new(9), 1);
        let record = InstanceRecord {
            instance: InstanceId::new(0),
            weight: 1.0,
            supports_labels: true,
        };
        let foreign = elsewhere.attach_instances(VnfId::new(0), &[record])[0].forwarder;
        assert_eq!(cp.forwarder_site(foreign), None);
    }

    #[test]
    fn add_route_rebalances_fractions() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let handle = cp.deploy_chain(request(1)).unwrap();
        let first_site = handle.routes[0].sites[0];
        let other = if first_site == SiteId::new(1) {
            SiteId::new(2)
        } else {
            SiteId::new(1)
        };
        let (ann, report) = cp.add_route_via(ChainId::new(1), vec![other]).unwrap();
        assert_eq!(ann.sites, vec![other]);
        assert!((ann.fraction - 0.5).abs() < 1e-9);
        let routes = cp.routes_of(ChainId::new(1));
        assert_eq!(routes.len(), 2);
        assert!(routes.iter().all(|r| (r.fraction - 0.5).abs() < 1e-9));
        // Figure 10a: the update completes in well under a second.
        assert!(report.total().value() < 1000.0);
        assert!(report.total().value() > 10.0);
    }

    #[test]
    fn add_route_via_rejects_an_installed_site_sequence() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let handle = cp.deploy_chain(request(1)).unwrap();
        // Routes are keyed by site sequence: "adding" an installed one
        // would merge into it and announce a route the chain never gets.
        let err = cp
            .add_route_via(ChainId::new(1), handle.routes[0].sites.clone())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { .. }), "{err}");
        assert_eq!(cp.routes_of(ChainId::new(1)), handle.routes);
        let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
        assert!((ctl.available_at(handle.routes[0].sites[0]) - 76.0).abs() < 1e-9);
    }

    #[test]
    fn add_edge_site_reports_table2_steps() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        cp.deploy_chain(request(1)).unwrap();
        let report = cp
            .add_edge_site(ChainId::new(1), "mobile-user", SiteId::new(2))
            .unwrap();
        assert_eq!(report.steps.len(), 6);
        assert_eq!(report.steps[0].1, Millis::ZERO, "step 1 is local");
        // Total under 600 ms, as in Table 2.
        assert!(report.total().value() < 600.0, "{}", report.total());
        // The new edge instance has a binding for the chain.
        let edge = cp.edge().instance_at(SiteId::new(2)).unwrap();
        assert_eq!(edge.routes_for(ChainId::new(1)), 1);
    }

    #[test]
    fn remove_chain_releases_capacity() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let handle = cp.deploy_chain(request(1)).unwrap();
        let site = handle.routes[0].sites[0];
        cp.remove_chain(ChainId::new(1)).unwrap();
        let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
        assert!((ctl.available_at(site) - 100.0).abs() < 1e-9);
        assert!(cp.routes_of(ChainId::new(1)).is_empty());
    }

    #[test]
    fn forced_routes_are_installed_verbatim() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let handle = cp
            .deploy_chain_via(
                request(1),
                vec![
                    (vec![SiteId::new(1)], 0.7),
                    (vec![SiteId::new(2)], 0.3),
                ],
            )
            .unwrap();
        assert_eq!(handle.routes.len(), 2);
        assert!((handle.routes[0].fraction - 0.7).abs() < 1e-9);
        assert_eq!(handle.routes[1].sites, vec![SiteId::new(2)]);
        // Labels are distinct per route.
        assert_ne!(handle.routes[0].labels, handle.routes[1].labels);
    }

    #[test]
    fn deployment_records_2pc_phase_spans_and_counters() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        cp.deploy_chain(request(1)).unwrap();
        let recs = cp.telemetry().tracer.snapshot();
        let prepares: Vec<_> = recs.iter().filter(|r| r.name == "2pc.prepare").collect();
        assert!(!prepares.is_empty(), "no prepare spans recorded");
        assert!(prepares.iter().all(|r| r.attr("outcome") == Some("ok")));
        assert!(prepares.iter().all(|r| r.attr("site").is_some()));
        assert!(recs
            .iter()
            .any(|r| r.name == "2pc.commit" && r.attr("outcome") == Some("acked")));
        // The Figure 4 steps nest under the deploy span.
        let deploy = recs
            .iter()
            .find(|r| r.name == "cp.deploy")
            .expect("deploy span");
        assert_eq!(deploy.attr("outcome"), Some("ok"));
        for step in ["cp.resolve", "cp.route_compute", "cp.2pc", "cp.install_rules"] {
            assert!(
                recs.iter()
                    .any(|r| r.parent == Some(deploy.id) && r.name == step),
                "missing child span {step}"
            );
        }
        let snap = cp.telemetry().registry.snapshot();
        assert_eq!(snap.counter("cp.deploy.total"), 1);
        assert_eq!(snap.counter("cp.2pc.commits"), 1);
        assert_eq!(snap.counter("cp.2pc.aborts"), 0);
    }

    #[test]
    fn vetoed_prepare_phase_is_noted_from_span_data() {
        use sb_faults::{CrashWindow, FaultPlan, FaultSpec};
        let mut cp = control_plane();
        // Site 1 (the router's first choice) crashes in the window between
        // route computation (~0.2 ms virtual) and two-phase commit
        // (~5.2 ms): the failure detector vetoes the prepare, the route is
        // recomputed through site 2, and the surviving report must name
        // the failed phase — sourced from the span record.
        cp.set_fault_plan(sb_faults::shared(FaultPlan::new(
            FaultSpec::new(1).with_crash(CrashWindow::recovering(
                SiteId::new(1),
                SimTime::from_millis(1.0),
                SimTime::from_millis(6.0),
            )),
        )));
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let h = cp.deploy_chain(request(1)).unwrap();
        assert_eq!(h.routes[0].sites, vec![SiteId::new(2)]);
        assert!(
            h.report
                .partial_failures
                .iter()
                .any(|n| n.contains("2pc prepare phase failed") && n.contains("site-down")),
            "phase note missing: {:?}",
            h.report.partial_failures
        );
        let snap = cp.telemetry().registry.snapshot();
        assert!(snap.counter("cp.2pc.aborts") >= 1);
        assert!(snap.counter("cp.2pc.retries") >= 1);
        assert!(cp
            .telemetry()
            .tracer
            .snapshot()
            .iter()
            .any(|r| r.name == "2pc.prepare" && r.attr("outcome") == Some("site-down")));
    }

    #[test]
    fn participant_string_round_trips() {
        assert_eq!(
            parse_participant("vnf-3@site-7"),
            Some((VnfId::new(3), SiteId::new(7)))
        );
        assert_eq!(parse_participant("garbage"), None);
    }

    #[test]
    fn update_chain_shifts_fractions_with_delta_scoped_2pc() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let deploy = cp
            .deploy_chain_via(
                request(1),
                vec![
                    (vec![SiteId::new(1)], 0.7),
                    (vec![SiteId::new(2)], 0.3),
                ],
            )
            .unwrap();
        let h = cp
            .update_chain(
                ChainId::new(1),
                vec![
                    (vec![SiteId::new(1)], 0.5),
                    (vec![SiteId::new(2)], 0.5),
                ],
            )
            .unwrap();
        let mut fractions: Vec<f64> = h.routes.iter().map(|r| r.fraction).collect();
        fractions.sort_by(f64::total_cmp);
        assert!((fractions[0] - 0.5).abs() < 1e-9 && (fractions[1] - 0.5).abs() < 1e-9);
        // Route identity is preserved across the fraction shift.
        assert_eq!(
            h.routes.iter().map(|r| r.route).collect::<Vec<_>>(),
            deploy.routes.iter().map(|r| r.route).collect::<Vec<_>>(),
        );
        // Delta-scoped 2PC: only the grown route (site 2, +0.2) votes —
        // the shrunk one releases at retire time without a prepare round.
        assert_eq!(h.report.participants_2pc, 1);
        assert!(deploy.report.participants_2pc >= 2);
        // Fewer WAN messages than the full deploy.
        assert!(
            h.report.wan_messages < deploy.report.wan_messages,
            "update {} vs deploy {}",
            h.report.wan_messages,
            deploy.report.wan_messages
        );
        // Make-before-break step order: install, then shift, then retire.
        let names: Vec<&str> = h.report.steps.iter().map(|(n, _)| n.as_str()).collect();
        let idx = |what: &str| {
            names
                .iter()
                .position(|n| n.contains(what))
                .unwrap_or_else(|| panic!("missing step {what}: {names:?}"))
        };
        assert!(idx("install new-epoch rules") < idx("shift load-balancing weights"));
        assert!(idx("shift load-balancing weights") < idx("retire old epoch"));
        // Committed capacity matches the new split: 0.5 * 24 = 12 each.
        let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
        assert!((ctl.available_at(SiteId::new(1)) - 88.0).abs() < 1e-9);
        assert!((ctl.available_at(SiteId::new(2)) - 88.0).abs() < 1e-9);
    }

    #[test]
    fn update_to_identical_target_is_a_noop() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let deploy = cp
            .deploy_chain_via(request(1), vec![(vec![SiteId::new(1)], 1.0)])
            .unwrap();
        let h = cp
            .update_chain(ChainId::new(1), vec![(vec![SiteId::new(1)], 1.0)])
            .unwrap();
        assert_eq!(h.routes, deploy.routes);
        assert_eq!(h.report.wan_messages, 0);
        assert_eq!(h.report.participants_2pc, 0);
        assert_eq!(h.report.steps.len(), 1, "{:?}", h.report.steps);
    }

    #[test]
    fn update_moves_traffic_to_a_new_route_and_retires_the_old() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let deploy = cp
            .deploy_chain_via(request(1), vec![(vec![SiteId::new(1)], 1.0)])
            .unwrap();
        let old_labels = deploy.routes[0].labels;
        let h = cp
            .update_chain(ChainId::new(1), vec![(vec![SiteId::new(2)], 1.0)])
            .unwrap();
        assert_eq!(h.routes.len(), 1);
        assert_eq!(h.routes[0].sites, vec![SiteId::new(2)]);
        let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
        assert!((ctl.available_at(SiteId::new(1)) - 100.0).abs() < 1e-9);
        assert!((ctl.available_at(SiteId::new(2)) - 76.0).abs() < 1e-9);
        // The chain record carries only the new route, and the old route's
        // rules are gone at site 1.
        assert_eq!(cp.routes_of(ChainId::new(1)), h.routes);
        let local = cp.local(SiteId::new(1)).unwrap();
        for f in local.forwarder_ids() {
            let fwd = local.forwarder(f).unwrap();
            assert!(
                fwd.active_epoch(old_labels).is_none(),
                "old rules must be gone"
            );
        }
        // The ingress edge carries exactly the new route.
        let edge = cp.edge().instance_at(SiteId::new(0)).unwrap();
        assert_eq!(edge.routes_for(ChainId::new(1)), 1);
    }

    #[test]
    fn vetoed_update_leaves_the_old_epoch_serving() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        cp.deploy_chain_via(
            request(1),
            vec![(vec![SiteId::new(1)], 0.5), (vec![SiteId::new(2)], 0.5)],
        )
        .unwrap();
        // Fill site 2 to 4.0 spare capacity: growing chain 1's site-2 route
        // by 0.2 needs 4.8 and must be vetoed.
        for i in 2..=4 {
            cp.deploy_chain_via(request(i), vec![(vec![SiteId::new(2)], 1.0)])
                .unwrap();
        }
        cp.deploy_chain_via(
            request(5),
            vec![(vec![SiteId::new(2)], 0.5), (vec![SiteId::new(1)], 0.5)],
        )
        .unwrap();
        let before = cp.routes_of(ChainId::new(1));
        let err = cp
            .update_chain(
                ChainId::new(1),
                vec![(vec![SiteId::new(1)], 0.3), (vec![SiteId::new(2)], 0.7)],
            )
            .unwrap_err();
        assert!(matches!(err, Error::CommitRejected { .. }), "{err}");
        // Nothing changed: routes, capacity, edge bindings.
        assert_eq!(cp.routes_of(ChainId::new(1)), before);
        let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
        assert!((ctl.available_at(SiteId::new(2)) - 4.0).abs() < 1e-9);
        assert!(
            ctl.pending_reservations().is_empty(),
            "aborted prepare must release"
        );
        let snap = cp.telemetry().registry.snapshot();
        assert_eq!(snap.counter("cp.update.failures"), 1);
    }

    #[test]
    fn update_emits_span_timeline_and_counters() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        cp.deploy_chain_via(request(1), vec![(vec![SiteId::new(1)], 1.0)])
            .unwrap();
        cp.update_chain(ChainId::new(1), vec![(vec![SiteId::new(2)], 1.0)])
            .unwrap();
        let recs = cp.telemetry().tracer.snapshot();
        let update = recs
            .iter()
            .find(|r| r.name == "cp.update")
            .expect("update span");
        assert_eq!(update.attr("outcome"), Some("ok"));
        for step in [
            "cp.diff",
            "cp.2pc",
            "cp.propagate_routes",
            "cp.install_rules",
            "cp.weight_shift",
            "cp.retire",
        ] {
            assert!(
                recs.iter()
                    .any(|r| r.parent == Some(update.id) && r.name == step),
                "missing child span {step}"
            );
        }
        let snap = cp.telemetry().registry.snapshot();
        assert_eq!(snap.counter("cp.update.total"), 1);
        assert_eq!(snap.counter("cp.update.failures"), 0);
    }

    #[test]
    fn remove_chain_strips_rules_routes_and_bindings() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let handle = cp.deploy_chain(request(1)).unwrap();
        let site = handle.routes[0].sites[0];
        let report = cp.remove_chain(ChainId::new(1)).unwrap();
        // Capacity is back, and the chain's state is gone everywhere: its
        // routes, the forwarder rules, the edge bindings.
        let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
        assert!((ctl.available_at(site) - 100.0).abs() < 1e-9);
        assert!(cp.routes_of(ChainId::new(1)).is_empty());
        let (local, labels) = (cp.local(site).unwrap(), handle.routes[0].labels);
        for f in local.forwarder_ids() {
            let fwd = local.forwarder(f).unwrap();
            assert!(fwd.active_epoch(labels).is_none());
        }
        let edge = cp.edge().instance_at(SiteId::new(0)).unwrap();
        assert_eq!(edge.routes_for(ChainId::new(1)), 0);
        // Teardown only shrinks reservations — no 2PC round, but it does
        // pay WAN propagation to the affected sites.
        assert_eq!(report.participants_2pc, 0);
        assert!(report.wan_messages >= 1);
        let snap = cp.telemetry().registry.snapshot();
        assert_eq!(snap.counter("cp.remove.total"), 1);
        assert!(cp
            .telemetry()
            .tracer
            .snapshot()
            .iter()
            .any(|r| r.name == "cp.remove" && r.attr("chain").is_some()));
    }

    #[test]
    fn reroute_chain_recovers_from_a_dead_site() {
        use sb_faults::{CrashWindow, FaultPlan, FaultSpec};
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        cp.deploy_chain_via(request(1), vec![(vec![SiteId::new(1)], 1.0)])
            .unwrap();
        // Site 1 dies permanently; reroute must move the chain to site 2
        // through the delta pipeline.
        cp.set_fault_plan(sb_faults::shared(FaultPlan::new(
            FaultSpec::new(1).with_crash(CrashWindow::permanent(SiteId::new(1), SimTime::ZERO)),
        )));
        let h = cp.reroute_chain(ChainId::new(1)).unwrap();
        assert_eq!(h.routes.len(), 1);
        assert_eq!(h.routes[0].sites, vec![SiteId::new(2)]);
        assert!((h.routes[0].fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_reroute_under_unchanged_load_is_a_noop() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let deploy = cp.deploy_chain(request(1)).unwrap();
        // The chain's own load is lifted off before the re-solve, so with
        // nothing else changed SB-DP re-picks what is installed.
        let h = cp.reroute_chain(ChainId::new(1)).unwrap();
        let bits = |routes: &[RouteAnnouncement]| -> Vec<(RouteId, u64)> {
            routes
                .iter()
                .map(|r| (r.route, r.fraction.to_bits()))
                .collect()
        };
        assert_eq!(bits(&h.routes), bits(&deploy.routes));
        assert_eq!(cp.routes_of(ChainId::new(1)), deploy.routes);
        assert!(h.routes.iter().all(|r| r.epoch == 1));
        assert_eq!(cp.chains[&ChainId::new(1)].epoch, 1);
        assert_eq!(h.report.wan_messages, 0);
        let names: Vec<&str> = h.report.steps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["diff routes against target"]);
    }

    #[test]
    fn a_stray_commit_for_a_retired_route_is_not_acknowledged() {
        let (chain, vnf) = (ChainId::new(1), VnfId::new(0));
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let deploy = cp
            .deploy_chain_via(request(1), vec![(vec![s1], 1.0)])
            .unwrap();
        let old = deploy.routes[0].route;
        // Live route: a commit re-sent after a lost ack is a no-op success.
        cp.vnf_ctls
            .get_mut(&vnf)
            .unwrap()
            .commit(chain, old, s1)
            .unwrap();

        // The update retires the site-1 route and releases its reservation;
        // acknowledging a commit for it now would vouch for capacity the
        // participant no longer holds.
        let h = cp.update_chain(chain, vec![(vec![s2], 1.0)]).unwrap();
        let err = cp
            .vnf_ctls
            .get_mut(&vnf)
            .unwrap()
            .commit(chain, old, s1)
            .unwrap_err();
        assert!(matches!(err, Error::UnknownEntity { .. }), "{err}");
        assert!((cp.vnf_ctls[&vnf].available_at(s1) - 100.0).abs() < 1e-9);

        // Teardown forgets the live route's key too, and the same chain id
        // deploys — and commits — again.
        let live = h.routes[0].route;
        cp.remove_chain(chain).unwrap();
        assert!(cp
            .vnf_ctls
            .get_mut(&vnf)
            .unwrap()
            .commit(chain, live, s2)
            .is_err());
        let again = cp
            .deploy_chain_via(request(1), vec![(vec![s1], 1.0)])
            .unwrap();
        assert_eq!(again.report.participants_2pc, 1);
        assert!((cp.vnf_ctls[&vnf].available_at(s1) - 76.0).abs() < 1e-9);
        assert_eq!(cp.telemetry().registry.snapshot().counter("cp.2pc.commits"), 3);
    }

    #[test]
    fn verbs_consume_their_deliveries_and_retired_routes_take_their_topics() {
        fn assert_consumed(cp: &ControlPlane, verb: &str) {
            for (site, &sub) in &cp.site_subs {
                assert_eq!(cp.bus.pending(sub), 0, "{site} mailbox after {verb}");
            }
        }
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let at_rest = cp.bus.topic_count();
        assert_eq!(at_rest, 1, "every site listens on the GSB route topic");

        let chains = [ChainId::new(1), ChainId::new(2)];
        for &chain in &chains {
            cp.deploy_chain_via(request(chain.value()), vec![(vec![s1], 1.0)])
                .unwrap();
            assert_consumed(&cp, "deploy");
        }
        // Per chain: the route's instance and forwarder topics.
        assert_eq!(cp.bus.topic_count(), at_rest + 4);

        for &chain in &chains {
            cp.update_chain(chain, vec![(vec![s1], 0.5), (vec![s2], 0.5)])
                .unwrap();
            assert_consumed(&cp, "update (split)");
        }
        // Per chain: two routes' topic pairs and a delta topic at each site.
        assert_eq!(cp.bus.topic_count(), at_rest + 12);

        // A flap retires one label pair per update and takes its topics
        // along: the topic count is that of the installed state, however
        // many updates went by.
        for round in 0..6 {
            let to = if round % 2 == 0 { s2 } else { s1 };
            for &chain in &chains {
                cp.update_chain(chain, vec![(vec![to], 1.0)]).unwrap();
                assert_consumed(&cp, "update (move)");
            }
            // Per chain: one route's topic pair, one delta topic at its site.
            assert_eq!(cp.bus.topic_count(), at_rest + 6, "round {round}");
        }

        cp.add_edge_site(chains[0], "roamer", SiteId::new(2))
            .unwrap();
        assert_consumed(&cp, "add-edge-site");
        cp.add_route_via(chains[1], vec![s2]).unwrap();
        assert_consumed(&cp, "add-route");
        for &chain in &chains {
            cp.reroute_chain(chain).unwrap();
            assert_consumed(&cp, "reroute");
        }
        for &chain in &chains {
            cp.remove_chain(chain).unwrap();
            assert_consumed(&cp, "remove");
        }
        assert_eq!(cp.bus.topic_count(), at_rest, "no chain, no chain topics");
        let stats = cp.bus.stats();
        assert!(stats.delivered > stats.published, "{stats:?}");
    }

    #[test]
    fn route_sets_that_split_no_demand_are_rejected_before_any_state_changes() {
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let bad: Vec<Vec<(Vec<SiteId>, f64)>> = vec![
            vec![],
            vec![(vec![s1], f64::NAN)],
            vec![(vec![s1], f64::INFINITY)],
            vec![(vec![s1], 0.0)],
            vec![(vec![s1], 2.0)],
            vec![(vec![s1], 0.5)],
            vec![(vec![s1], 1.5), (vec![s2], -0.5)],
            vec![(vec![s1, s2], 1.0)],
        ];
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let loads = |cp: &ControlPlane| {
            let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
            (
                ctl.available_at(s1),
                ctl.available_at(s2),
                cp.tracker.site_load.clone(),
            )
        };
        let pristine = loads(&cp);
        for routes in &bad {
            let err = cp.deploy_chain_via(request(1), routes.clone()).unwrap_err();
            assert!(
                matches!(err, Error::InvalidArgument { .. }),
                "{routes:?}: {err}"
            );
            assert!(cp.routes_of(ChainId::new(1)).is_empty(), "{routes:?}");
            assert_eq!(loads(&cp), pristine, "{routes:?}");
        }

        let deploy = cp
            .deploy_chain_via(request(1), vec![(vec![s1], 1.0)])
            .unwrap();
        let deployed = loads(&cp);
        let commits = cp.telemetry().registry.snapshot().counter("cp.2pc.commits");
        for routes in &bad {
            let err = cp
                .update_chain(ChainId::new(1), routes.clone())
                .unwrap_err();
            assert!(
                matches!(err, Error::InvalidArgument { .. }),
                "{routes:?}: {err}"
            );
            assert_eq!(cp.routes_of(ChainId::new(1)), deploy.routes, "{routes:?}");
            assert_eq!(loads(&cp), deployed, "{routes:?}");
        }
        let snap = cp.telemetry().registry.snapshot();
        assert_eq!(snap.counter("cp.2pc.commits"), commits);
        assert_eq!(snap.counter("cp.update.total"), 0);
    }

    #[test]
    fn live_tracker_is_the_load_of_the_installed_routes_after_every_verb() {
        /// The tracker rebuilt from scratch over every installed route.
        fn rebuilt(cp: &ControlPlane) -> LoadTracker {
            let mut tracker = LoadTracker::new(&cp.base_model);
            for st in cp.chains.values() {
                let spec = cp.chain_spec(&st.request, st.ingress_site, st.egress_site);
                for InstalledRoute { ann, .. } in &st.routes {
                    let coefs = dp::path_coefficients(&cp.base_model, &spec, &ann.sites);
                    tracker.apply(&coefs, ann.fraction);
                }
            }
            tracker
        }
        fn assert_close(live: &LoadTracker, want: &LoadTracker, verb: &str) {
            let pairs = live
                .link_load
                .iter()
                .zip(&want.link_load)
                .chain(live.site_load.iter().zip(&want.site_load));
            for (a, b) in pairs {
                assert!((a - b).abs() < 1e-9, "after {verb}: {a} vs {b}");
            }
            for key in live.vnf_site_load.keys().chain(want.vnf_site_load.keys()) {
                let (a, b) = (
                    live.vnf_site_load.get(key).copied().unwrap_or(0.0),
                    want.vnf_site_load.get(key).copied().unwrap_or(0.0),
                );
                assert!((a - b).abs() < 1e-9, "after {verb}: {key:?} {a} vs {b}");
            }
        }
        let (one, two) = (ChainId::new(1), ChainId::new(2));
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));

        let home = cp.deploy_chain(request(1)).unwrap().routes[0].sites.clone();
        assert_close(&cp.tracker, &rebuilt(&cp), "deploy");
        cp.deploy_chain_via(request(2), vec![(vec![s1], 1.0)])
            .unwrap();
        assert_close(&cp.tracker, &rebuilt(&cp), "deploy via");
        let away = if home == vec![s1] { s2 } else { s1 };
        cp.update_chain(one, vec![(vec![away], 1.0)]).unwrap();
        assert_close(&cp.tracker, &rebuilt(&cp), "update");
        cp.update_chain(one, vec![(home, 1.0)]).unwrap();
        assert_close(&cp.tracker, &rebuilt(&cp), "update back");
        cp.add_route_via(two, vec![s2]).unwrap();
        assert_close(&cp.tracker, &rebuilt(&cp), "add-route");
        cp.reroute_chain(one).unwrap();
        assert_close(&cp.tracker, &rebuilt(&cp), "reroute");
        cp.remove_chain(one).unwrap();
        assert_close(&cp.tracker, &rebuilt(&cp), "remove");
        cp.remove_chain(two).unwrap();
        assert_close(
            &cp.tracker,
            &LoadTracker::new(&cp.base_model),
            "last remove",
        );
    }
}
