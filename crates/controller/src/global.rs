//! Global Switchboard: the centralized controller and its deployment saga.
//!
//! [`ControlPlane`] drives the chain-creation flow of Figure 4 on virtual
//! time. Each arrow is a stage module that owns the state it writes and
//! hands one value to the next:
//!
//! 1. resolve ingress/egress sites from the edge controller;
//! 2. `solve`: compute wide-area routes with SB-DP against the live load
//!    state; labeled here, they are the route announcements;
//! 3. `reserve`: two-phase commit the per-(VNF, site) reservations with the
//!    VNF controllers, recomputing on rejection;
//! 4. `announce`: propagate the announcements; VNF controllers publish their
//!    instances, Local Switchboards attach them to forwarders and publish
//!    forwarder records — each route with its stage forwarders;
//! 5. `install`: Local Switchboards install load-balancing rules at the
//!    forwarders, the edges bind the routes, and the changed sites'
//!    artifacts are compiled.
//!
//! This module keeps what spans the stages: the configuration, the fault
//! plan, the virtual clock, the chain records, the label/route/instance
//! counters and the verbs' telemetry; every verb is a short composition
//! of stages. A stage takes the virtual time in and returns when it
//! finished (a 2PC round: what it cost); only the verbs advance the clock
//! and record each step's cost in a [`DeploymentReport`] — the data
//! behind Figure 10a and Table 2 — and as a child span of the verb's.
//!
//! The Local Switchboards' receive side runs inline: the code after each
//! publish is the receivers acting on it. The bus stores no message, and
//! retiring a route drops the topics and reservation keys named after its
//! label pair — the control plane's memory follows the installed state,
//! not the number of messages ever sent (DESIGN.md §4.4, §10).
//!
//! Routes reach every site (Section 6) as the announcement each Local
//! Switchboard receives on the Global Switchboard's route topic, charged in
//! a deploy's `wan_messages`; in process they are held once, with each
//! stage's forwarders, in the chain record ([`ControlPlane::routes_of`])
//! that edge-site addition reads.

use crate::announce::Announce;
use crate::chain::{ChainHandle, ChainRequest, DeploymentReport, InstalledRoute};
use crate::install::Install;
use crate::messages::RouteAnnouncement;
use crate::reserve::{prepare_items, PrepareItem, Reserve};
use crate::solve::{check_route_set, Solve};
use sb_dataplane::ArtifactKind;
use sb_faults::SharedFaultPlan;
use sb_msgbus::DelayModel;
use sb_netsim::SimTime;
use sb_te::delta::RouteDelta;
use sb_te::{ChainSpec, NetworkModel, RoutePath};
use sb_telemetry::{Counter, SpanId, Telemetry};
use sb_types::{
    ChainId, ChainLabel, EgressLabel, Error, InstanceId, LabelPair, Millis, Result, RouteId, SiteId,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The site hosting Global Switchboard (and the edge controller).
pub(crate) const GSB_SITE: SiteId = SiteId::new(0);
/// Route recomputation attempts after two-phase-commit rejections.
const MAX_2PC_RETRIES: usize = 3;
/// Modeled route-computation time.
const COMPUTE_TIME: Millis = Millis::new(5.0);
/// Modeled data-plane configuration time per element.
const CONFIG_DELAY: Millis = Millis::new(30.0);

/// A verb: its root span and the counters it counts in.
type Verb = (&'static str, fn(&CpTelemetry) -> &VerbCounters);
const DEPLOY: Verb = ("cp.deploy", |t| &t.deploy);
const UPDATE: Verb = ("cp.update", |t| &t.update);

/// A step of a verb: its child span and its name in the report.
type Step = (&'static str, &'static str);
const RESOLVE: Step = ("cp.resolve", "resolve ingress/egress sites");
const COMPUTE: Step = ("cp.route_compute", "compute wide-area routes");
const RECOMPUTE: Step = ("cp.route_recompute", "recompute after 2pc rejection");
const PROPAGATE: Step = ("cp.propagate_routes", "propagate routes");
const ALLOCATE: Step = (
    "cp.allocate_instances",
    "allocate instances and publish weights",
);
const INSTALL: Step = ("cp.install_rules", "install load-balancing rules");
const DIFF: Step = ("cp.diff", "diff routes against target");
const PROPAGATE_DELTA: Step = ("cp.propagate_routes", "propagate route deltas");
const INSTALL_EPOCH: Step = ("cp.install_rules", "install new-epoch rules");
const SHIFT: Step = ("cp.weight_shift", "shift load-balancing weights");
const RETIRE_EPOCH: Step = ("cp.retire", "retire old epoch");
const RETIRE_CHAIN: Step = ("cp.retire", "retire routes and release capacity");

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

/// The verbs' telemetry handles: the shared hub plus its pre-registered
/// counters. Always present — [`ControlPlane::new`] starts with a private
/// hub, [`ControlPlane::attach_telemetry`] swaps in a shared one — so
/// spans and counters are recorded identically whether or not anyone is
/// watching. The stages hold their own.
#[derive(Debug, Clone)]
struct CpTelemetry {
    hub: Telemetry,
    deploy: VerbCounters,
    update: VerbCounters,
    removes: Counter,
    epochs_retired: Counter,
    retries_2pc: Counter,
}

/// How often a verb ran, and failed.
#[derive(Debug, Clone)]
struct VerbCounters {
    total: Counter,
    failures: Counter,
}

impl CpTelemetry {
    fn new(hub: &Telemetry) -> Self {
        let verb = |name: &str| VerbCounters {
            total: hub.registry.counter(&format!("cp.{name}.total")),
            failures: hub.registry.counter(&format!("cp.{name}.failures")),
        };
        Self {
            hub: hub.clone(),
            deploy: verb("deploy"),
            update: verb("update"),
            removes: hub.registry.counter("cp.remove.total"),
            epochs_retired: hub.registry.counter("cp.epochs.retired"),
            retries_2pc: hub.registry.counter("cp.2pc.retries"),
        }
    }
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
    /// previous hop of that route's stage 0, and its edge topic lives as
    /// long as the chain does.
    added_edges: BTreeMap<SiteId, RouteId>,
}

impl ChainState {
    /// The installed routes as the TE layer's `(site sequence, fraction)`
    /// paths — what a target is diffed against.
    fn paths(&self) -> Vec<RoutePath> {
        let path = |r: &InstalledRoute| RoutePath {
            sites: r.ann.sites.clone(),
            fraction: r.ann.fraction,
        };
        self.routes.iter().map(path).collect()
    }
}

/// The assembled Switchboard control plane; see the module docs above for
/// the five-step deployment saga and its stages.
pub struct ControlPlane {
    config: ControlPlaneConfig,
    /// Injected faults; `None` runs the control plane fault-free.
    faults: Option<SharedFaultPlan>,
    now: SimTime,
    chains: HashMap<ChainId, ChainState>,
    next_label: u32,
    next_route: u64,
    next_instance: u64,
    tele: CpTelemetry,
    // The stages. Each one's module also holds the public accessors of
    // the state it owns.
    pub(crate) solve: Solve,
    pub(crate) reserve: Reserve,
    pub(crate) announce: Announce,
    pub(crate) install: Install,
}

/// A verb in progress: the report its steps fill and the root span they
/// nest under.
struct Op {
    report: DeploymentReport,
    span: SpanId,
}

impl Op {
    /// The verb's outcome: `chain`'s `routes`, with the report.
    fn handle(&mut self, chain: ChainId, routes: &[InstalledRoute]) -> ChainHandle {
        let report = std::mem::take(&mut self.report);
        ChainHandle {
            chain,
            routes: routes.iter().map(|r| Arc::clone(&r.ann)).collect(),
            report,
        }
    }
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("sites", &self.sites().len())
            .field("vnfs", &self.model().vnfs().len())
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
        let (sites, hub) = (model.sites(), Telemetry::new());
        let (mut next_instance, per_site) = (0, config.instances_per_site);
        let reserve = Reserve::new(&model, &delays, per_site, &mut next_instance, &hub);
        Self {
            solve: Solve::new(&model),
            reserve,
            announce: Announce::new(&sites, delays, &hub),
            install: Install::new(&sites, config.sample_every, &hub),
            config,
            faults: None,
            now: SimTime::ZERO,
            chains: HashMap::new(),
            next_label: 1,
            next_route: 1,
            next_instance,
            tele: CpTelemetry::new(&hub),
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
    /// Re-wires the stages, the fault plan, and every site's forwarders.
    pub fn attach_telemetry(&mut self, hub: &Telemetry) {
        self.tele = CpTelemetry::new(hub);
        self.reserve.attach_telemetry(hub);
        self.announce.attach_telemetry(hub);
        self.install.attach_telemetry(hub, self.config.sample_every);
        if let Some(plan) = &self.faults {
            let mut plan = plan.lock().expect("fault plan lock poisoned");
            plan.attach_telemetry(hub);
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Attaches a fault plan: bus messages and control-plane RPCs now
    /// consult it. The same shared plan drives the message bus, so a
    /// single seed determines the whole run.
    pub fn set_fault_plan(&mut self, plan: SharedFaultPlan) {
        plan.lock()
            .expect("fault plan lock poisoned")
            .attach_telemetry(&self.tele.hub);
        self.announce.set_fault_plan(plan.clone());
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
        let mut sites = self.model().sites();
        sites.retain(|&s| plan.site_is_down(self.now, s));
        sites
    }

    /// The routes of a deployed chain: the announcements its record holds.
    #[must_use]
    pub fn routes_of(&self, chain: ChainId) -> Vec<Arc<RouteAnnouncement>> {
        self.chains
            .get(&chain)
            .map(|c| c.routes.iter().map(|r| Arc::clone(&r.ann)).collect())
            .unwrap_or_default()
    }

    /// Allocates a fresh globally-unique instance id (for custom
    /// registrations).
    pub fn allocate_instance_id(&mut self) -> InstanceId {
        let id = InstanceId::new(self.next_instance);
        self.next_instance += 1;
        id
    }

    fn chain_state(&self, chain: ChainId) -> Result<&ChainState> {
        let state = self.chains.get(&chain);
        state.ok_or_else(|| Error::unknown("chain", chain))
    }

    fn chain_spec(&self, state: &ChainState) -> ChainSpec {
        self.solve
            .spec(&state.request, (state.ingress_site, state.egress_site))
    }

    /// Runs `body` as `verb` on `chain`: under the verb's root span, which
    /// records the chain and the outcome, counted in its counters.
    fn verb<T>(
        &mut self,
        (name, counters): Verb,
        chain: ChainId,
        body: impl FnOnce(&mut Self, &mut Op) -> Result<T>,
    ) -> Result<T> {
        counters(&self.tele).total.inc();
        let tracer = &self.tele.hub.tracer;
        let span = tracer.begin(name, None, self.now.as_nanos());
        tracer.attr(span, "chain", &chain.to_string());
        let report = DeploymentReport::default();
        let res = body(self, &mut Op { report, span });
        self.tele.hub.tracer.end(span, self.now.as_nanos());
        if res.is_err() {
            counters(&self.tele).failures.inc();
        }
        let outcome = if res.is_ok() { "ok" } else { "failed" };
        self.tele.hub.tracer.attr(span, "outcome", outcome);
        res
    }

    /// Ends `step` at the fixed cost `dt`: the clock advances by it, and
    /// the step is recorded in `op`'s report and under its root span.
    fn spend(&mut self, op: &mut Op, (span, name): Step, dt: Millis) {
        let from = self.now;
        self.now += dt;
        op.report.push(name, dt);
        let (tracer, from, to) = (&self.tele.hub.tracer, from.as_nanos(), self.now.as_nanos());
        tracer.span(span, Some(op.span), from, to, &[]);
    }

    /// Ends `step`, begun at `from`, once `until` has passed: the clock
    /// moves there, never back, and the step is recorded as in
    /// [`spend`](Self::spend).
    fn wait(&mut self, op: &mut Op, (span, name): Step, (from, until): (SimTime, SimTime)) {
        self.now = self.now.max(until);
        op.report.push(name, self.now.since(from));
        let (tracer, from, to) = (&self.tele.hub.tracer, from.as_nanos(), self.now.as_nanos());
        tracer.span(span, Some(op.span), from, to, &[]);
    }

    /// Deploys a chain, computing its wide-area routes with SB-DP against
    /// the live load state.
    ///
    /// # Errors
    ///
    /// - [`Error::UnknownEntity`] for unresolved attachments or VNFs (a
    ///   VNF outside the catalog is refused before any state changes).
    /// - [`Error::InvalidChain`] for a VNF that appears twice.
    /// - [`Error::InvalidArgument`], before any state changes, for a
    ///   forward or reverse rate that is not finite and non-negative.
    /// - [`Error::Infeasible`] when no capacity remains for the chain.
    /// - [`Error::CommitRejected`] when every recomputation attempt was
    ///   vetoed in two-phase commit.
    pub fn deploy_chain(&mut self, request: ChainRequest) -> Result<ChainHandle> {
        let id = request.id;
        self.verb(DEPLOY, id, |cp, op| cp.deploy(request, None, op))
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
        let id = request.id;
        self.verb(DEPLOY, id, |cp, op| cp.deploy(request, Some(routes), op))
    }

    /// The deploy saga: steps 1–3, the committed load, steps 4 and 5,
    /// then the chain record.
    fn deploy(
        &mut self,
        request: ChainRequest,
        forced: Option<Vec<(Vec<SiteId>, f64)>>,
        op: &mut Op,
    ) -> Result<ChainHandle> {
        self.check_request(&request)?;
        // (1) Resolve ingress/egress sites (edge controller co-located with
        // Global Switchboard: one local round trip).
        let ingress = self.edge().resolve(&request.ingress_attachment)?;
        let egress = self.edge().resolve(&request.egress_attachment)?;
        self.spend(op, RESOLVE, self.reserve.delays().local() * 2.0);

        // (2)+(3) Compute routes, allocate labels, two-phase commit.
        let ends = (ingress, egress);
        let spec = self.solve.spec(&request, ends);
        let routes = self.commit_routes(&request, ends, &spec, forced, op)?;
        for ann in &routes {
            self.solve.account(&spec, &ann.sites, ann.fraction);
        }

        // (4)+(5) Propagate, allocate, install.
        let t = self.now;
        let done = self.announce.routes(&routes, t, &mut op.report);
        self.wait(op, PROPAGATE, (t, done));
        let installed = self.allocate(&routes, op)?;
        // A chain gains added edges only once it is deployed.
        let no_edges = BTreeMap::new();
        self.install.install_route_rules(&installed, &no_edges)?;
        self.install.bind_ingress(&installed)?;
        // The install is now authoritative: compile one full route
        // artifact per participant site — the serialized form of what was
        // just installed, ready for standalone forwarders. A deploy is
        // the chain's epoch 1.
        self.install.compile_artifacts(1, ArtifactKind::Full);
        self.spend(op, INSTALL, CONFIG_DELAY);

        let id = request.id;
        let state = ChainState {
            request,
            ingress_site: ingress,
            egress_site: egress,
            routes: installed,
            epoch: 1,
            added_edges: BTreeMap::new(),
        };
        self.chains.insert(id, state);
        Ok(op.handle(id, &self.chains[&id].routes))
    }

    /// Refuses a request before any state changes: a chain that is
    /// already deployed, a repeated or unknown VNF, or a rate a reservation
    /// cannot be sized by.
    fn check_request(&self, request: &ChainRequest) -> Result<()> {
        if self.chains.contains_key(&request.id) {
            return Err(Error::duplicate("chain", request.id));
        }
        // A repeated VNF within one chain cannot be disambiguated by the
        // (label, arrival-context) pair our data plane keys rules on; the
        // paper's prototype needs per-label VNF interfaces for this case
        // (Section 5.3), which an in-process data plane cannot express.
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
        let catalog = self.model().vnfs().len();
        if let Some(vnf) = request.vnfs.iter().find(|v| v.index() >= catalog) {
            return Err(Error::unknown("vnf", vnf));
        }
        // A negative load would grow a VNF's capacity, and a NaN one would
        // stop its controller from ever vetoing a reservation.
        for (direction, rate) in [("forward", request.forward), ("reverse", request.reverse)] {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(Error::invalid_argument(format!(
                    "{}: {direction} rate {rate} is not finite and non-negative",
                    request.id
                )));
            }
        }
        Ok(())
    }

    /// Steps 2 and 3 of a deploy: the `forced` routes, or SB-DP's, labeled
    /// and committed in 2PC. A veto of SB-DP's routes re-solves around
    /// the vetoed deployment, up to [`MAX_2PC_RETRIES`] times. Returns
    /// the committed announcements.
    fn commit_routes(
        &mut self,
        request: &ChainRequest,
        ends: (SiteId, SiteId),
        spec: &ChainSpec,
        forced: Option<Vec<(Vec<SiteId>, f64)>>,
        op: &mut Op,
    ) -> Result<Vec<Arc<RouteAnnouncement>>> {
        let resolvable = forced.is_none();
        let mut paths: Vec<RoutePath> = match forced {
            Some(routes) => routes
                .into_iter()
                .map(|(sites, fraction)| RoutePath { sites, fraction })
                .collect(),
            None => {
                let dead = self.dead_sites();
                if !dead.is_empty() {
                    let note = format!("route computation excluded {} crashed site(s)", dead.len());
                    op.report.note(note);
                }
                self.solve.solve(spec, &dead, &[], &[], "")?
            }
        };
        self.spend(op, COMPUTE, COMPUTE_TIME);

        let mut excluded = Vec::new();
        loop {
            let routes = self.label_routes(request, ends, &paths, 1);
            let full = routes.iter().map(|a| (a.as_ref(), a.fraction));
            let items = prepare_items(&self.solve, spec, full);
            let Err(e) = self.two_phase_commit(&items, op) else {
                return Ok(routes);
            };
            let Error::CommitRejected { vnf, site, .. } = e else {
                return Err(e);
            };
            if !(resolvable && excluded.len() < MAX_2PC_RETRIES) {
                return Err(e);
            }
            self.tele.retries_2pc.inc();
            // Recompute excluding the rejecting deployment.
            excluded.push((vnf, site));
            // Degrade gracefully: never re-propose a site that has crashed
            // since the last attempt. The vetoed round has aborted, so a
            // refusal here leaves nothing reserved.
            let (dead, when) = (self.dead_sites(), " after 2pc rejections");
            paths = self.solve.solve(spec, &dead, &excluded, &[], when)?;
            self.spend(op, RECOMPUTE, COMPUTE_TIME);
        }
    }

    /// Builds route announcements with fresh labels/ids for a path set
    /// between the `(ingress, egress)` sites, tagged with the
    /// configuration epoch installing them.
    fn label_routes(
        &mut self,
        request: &ChainRequest,
        (ingress_site, egress_site): (SiteId, SiteId),
        paths: &[RoutePath],
        epoch: u64,
    ) -> Vec<Arc<RouteAnnouncement>> {
        let mut routes = Vec::with_capacity(paths.len());
        for p in paths {
            let egress = EgressLabel::new(egress_site.value());
            let labels = LabelPair::new(ChainLabel::new(self.next_label), egress);
            self.next_label += 1;
            let route = RouteId::new(self.next_route);
            self.next_route += 1;
            routes.push(Arc::new(RouteAnnouncement {
                chain: request.id,
                route,
                labels,
                ingress_site,
                egress_site,
                vnfs: request.vnfs.clone(),
                sites: p.sites.clone(),
                fraction: p.fraction,
                epoch,
            }));
        }
        routes
    }

    /// Step 3: one two-phase commit round over `items`, under the fault
    /// plan. The clock advances by what the round cost, committed or not.
    fn two_phase_commit(&mut self, items: &[PrepareItem], op: &mut Op) -> Result<()> {
        let (faults, report, reserve) = (self.faults.as_ref(), &mut op.report, &mut self.reserve);
        let (dt, res) = reserve.two_phase_commit(items, faults, self.now, report, op.span);
        self.now += dt;
        let name = match res {
            Ok(()) => "two-phase commit",
            Err(_) => "two-phase commit (rejected)",
        };
        op.report.push(name, dt);
        res
    }

    /// Step 4, second half: allocate and publish the instances and
    /// forwarders of every stage of `routes`, concurrently. Returns them
    /// with their stage forwarders.
    fn allocate(
        &mut self,
        routes: &[Arc<RouteAnnouncement>],
        op: &mut Op,
    ) -> Result<Vec<InstalledRoute>> {
        let (t, report, announce) = (self.now, &mut op.report, &mut self.announce);
        let (reserve, install) = (&self.reserve, &mut self.install);
        let (installed, done) =
            announce.allocate_and_publish(reserve, install, routes, t, report)?;
        self.wait(op, ALLOCATE, (t, done));
        Ok(installed)
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
    ) -> Result<(Arc<RouteAnnouncement>, DeploymentReport)> {
        let state = self.chain_state(chain)?;
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
        let mut target = state.paths();
        #[allow(clippy::cast_precision_loss)]
        let even = 1.0 / (target.len() as f64 + 1.0);
        for path in &mut target {
            path.fraction = even;
        }
        let added = sites.clone();
        target.push(RoutePath {
            sites: added,
            fraction: even,
        });
        let handle = self.update(chain, target)?;
        let added = handle.routes.into_iter().find(|r| r.sites == sites);
        let added = added.expect("the delta adds a route through `sites`");
        Ok((added, handle.report))
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
        let state = self.chain_state(chain)?;
        if state.request.vnfs.is_empty() {
            return Err(Error::invalid_chain(
                "cannot extend a chain without VNFs to a new edge site",
            ));
        }
        if self.local(site).is_none() {
            return Err(Error::unknown("site", site));
        }
        let attachment = attachment.into();
        if self.edge().resolve(&attachment).is_ok_and(|at| at != site) {
            return Err(Error::duplicate("attachment", attachment));
        }
        // The ingress edge binds each route at its fraction; binding one at
        // fraction 1 there would skew the split the reservations are sized
        // for.
        if site == state.ingress_site {
            let msg = format!("{site} is the ingress site of {chain}");
            return Err(Error::invalid_argument(msg));
        }
        // Step 1: the site's Local Switchboard chooses the first VNF's site
        // among the chain's routes, which every site received when they
        // were announced — pure local computation (0 ms in Table 2).
        let nearest = self.solve.nearest_route(&state.routes, site);
        let nearest = nearest.ok_or_else(|| Error::unknown("routes for chain", chain))?;
        let (nearest, epoch) = (nearest.clone(), state.epoch);
        let mut report = DeploymentReport::default();
        let tracer = &self.tele.hub.tracer;
        let root = tracer.begin("cp.add_edge_site", None, self.now.as_nanos());
        tracer.attr(root, "site", &site.to_string());
        report.push("local SB chooses the 1st VNF's site", Millis::ZERO);

        // Step 2: the edge's forwarder receives the first VNF's forwarder
        // info: the records the route's stage 0 published at install.
        let t = self.now;
        let announce = &mut self.announce;
        self.now = self
            .now
            .max(announce.first_stage_info(site, &nearest, t, &mut report));
        let dt = self.now.since(t);
        report.push("edge instance's fwrdr receives 1st VNF's info", dt);

        // Step 3: configure the edge data plane (the tunnel; the route
        // binding lands with the stage-0 rules in step 6).
        self.register_attachment(attachment, site);
        self.now += CONFIG_DELAY;
        report.push("edge instance's fwrdr dataplane configured", CONFIG_DELAY);

        // Step 4: the first VNF's forwarders receive the edge's info.
        let t = self.now;
        let first_site = nearest.ann.sites[0];
        let done = self
            .announce
            .edge_info((chain, site), first_site, t, &mut report);
        self.now = self.now.max(done);
        let dt = self.now.since(t);
        report.push("1st VNF's fwrdr receives edge's fwrdr info", dt);

        // Step 5: the first VNF's forwarders schedule reconfiguration
        // (queueing behind in-flight rule updates).
        self.now += CONFIG_DELAY;
        let name = "1st VNF's fwrdr starts dataplane configuration";
        report.push(name, CONFIG_DELAY);

        // Step 6: bind the edge to the route and reinstall stage-0 rules
        // with the new edge among the previous hops, completing the
        // reverse path.
        let state = self.chains.get_mut(&chain).expect("looked up above");
        state.added_edges.insert(site, nearest.ann.route);
        let added_edges = &state.added_edges;
        self.install.bind_added_edge(site, &nearest, added_edges)?;
        self.install.compile_artifacts(epoch, ArtifactKind::Patch);
        self.now += CONFIG_DELAY;
        report.push("1st VNF's fwrdr finishes configuration", CONFIG_DELAY);
        self.tele.hub.tracer.end(root, self.now.as_nanos());
        Ok(report)
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
        check_route_set(&routes, self.chain_state(chain)?.request.vnfs.len())?;
        let target = routes.into_iter();
        let target = target.map(|(sites, fraction)| RoutePath { sites, fraction });
        self.update(chain, target.collect())
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
        let state = self.chain_state(chain)?;
        let (spec, installed, dead) = (self.chain_spec(state), state.paths(), self.dead_sites());
        let when = " after reroute";
        let paths = self.solve.solve(&spec, &dead, &[], &installed, when)?;
        self.update(chain, paths)
    }

    fn update(&mut self, chain: ChainId, target: Vec<RoutePath>) -> Result<ChainHandle> {
        self.verb(UPDATE, chain, |cp, op| cp.update_to(chain, &target, op))
    }

    /// The update saga: diff, delta-scoped 2PC, propagate, then make,
    /// shift and break ([`switch_over`](Self::switch_over)).
    fn update_to(
        &mut self,
        chain: ChainId,
        target: &[RoutePath],
        op: &mut Op,
    ) -> Result<ChainHandle> {
        let state = self.chain_state(chain)?.clone();
        let spec = self.chain_spec(&state);

        // (1) Diff the installed routes against the target — pure local
        // computation at Global Switchboard.
        let delta = RouteDelta::diff(&state.paths(), target);
        self.spend(op, DIFF, COMPUTE_TIME);
        if delta.is_empty() {
            return Ok(op.handle(chain, &state.routes));
        }
        let epoch = state.epoch + 1;
        let plan = Plan::new(&state.routes, &delta, epoch);
        let ends = (state.ingress_site, state.egress_site);
        let added = self.label_routes(&state.request, ends, &plan.added, epoch);

        // (2) Delta-scoped 2PC: only load *increases* vote. Added routes
        // are prepared in full under fresh keys; grown fractions by their
        // increment under the existing (chain, route) key — the site pool
        // accumulates. Decreases and removals release at retire time and
        // need no vote, so a pure scale-down or teardown commits for
        // free. On rejection nothing has been installed: the old epoch
        // keeps serving untouched.
        let grown = plan.modified.iter().filter_map(|(nu, old)| {
            let grow = nu.ann.fraction - old;
            (grow > 1e-12).then_some((nu.ann.as_ref(), grow))
        });
        let full = added.iter().map(|a| (a.as_ref(), a.fraction));
        let items = prepare_items(&self.solve, &spec, full.chain(grown));
        if items.is_empty() {
            let name = "two-phase commit (no load increases)";
            op.report.push(name, Millis::ZERO);
        } else {
            self.two_phase_commit(&items, op)?;
        }
        // Account the committed load changes against the live tracker
        // (removed routes are unwound when they retire).
        for ann in &added {
            self.solve.account(&spec, &ann.sites, ann.fraction);
        }
        for (nu, old) in &plan.modified {
            let grow = nu.ann.fraction - old;
            self.solve.account(&spec, &nu.ann.sites, grow);
        }

        // (3) Propagate the delta to the affected sites only — one
        // site-owned topic per affected site, so the WAN message count
        // scales with the delta, not the chain (unchanged routes'
        // sites hear nothing).
        let t = self.now;
        let (affected, report) = (delta.affected_sites(), &mut op.report);
        let what = "route delta";
        let done = self
            .announce
            .route_deltas(chain, &affected, what, t, report);
        self.wait(op, PROPAGATE_DELTA, (t, done));

        let added = if added.is_empty() {
            Vec::new()
        } else {
            self.allocate(&added, op)?
        };
        let (routes, added_edges) = self.switch_over(&spec, &state, plan, added, op)?;
        let st = self.chains.get_mut(&chain).expect("chain exists");
        (st.routes, st.epoch, st.added_edges) = (routes, epoch, added_edges);
        Ok(op.handle(chain, &st.routes))
    }

    /// Steps 4–6 of an update, make-before-break: install the new-epoch
    /// rules of the `plan`'s modified routes and of the `added` routes,
    /// shift the edges onto them, retire what the plan removes, and
    /// compile the patch. Returns the chain's routes and added edges after
    /// the update.
    fn switch_over(
        &mut self,
        spec: &ChainSpec,
        state: &ChainState,
        plan: Plan,
        added: Vec<InstalledRoute>,
        op: &mut Op,
    ) -> Result<(Vec<InstalledRoute>, BTreeMap<SiteId, RouteId>)> {
        // (4) Make: install the added routes' rules beside the old routes'
        // rows, which stay for pinned flows; nothing is serving the added
        // routes yet. The modified routes' (content-identical) rows are
        // re-tagged at the new epoch from the stage forwarders in the chain
        // record; each re-tagged row retires its old epoch.
        let (kept, removed, modified) = (plan.kept, plan.removed, plan.modified);
        let changed = || added.iter().chain(modified.iter().map(|(nu, _)| nu));
        let edges = &state.added_edges;
        let retired = self.install.install_route_rules(changed(), edges)?;
        self.tele.epochs_retired.add(retired as u64);
        self.spend(op, INSTALL_EPOCH, CONFIG_DELAY);

        // (5) Shift: repoint the ingress edge's weighted bindings. From
        // here, new flows select the target split and hash onto the new
        // epoch; pinned flows keep draining on the old one. An added edge
        // site whose route is being retired moves to the new route nearest
        // to it, by `add_edge_site`'s own rule.
        self.install.bind_ingress(changed())?;
        let mut routes = kept;
        routes.extend(added);
        routes.extend(modified.iter().map(|(nu, _)| nu.clone()));
        routes.sort_by_key(|r| r.ann.route);
        let mut added_edges = state.added_edges.clone();
        for (&site, bound) in &state.added_edges {
            if removed.iter().any(|r| r.ann.route == *bound) {
                let nearest = self.solve.nearest_route(&routes, site);
                let nearest = nearest.expect("an update leaves the chain a route");
                added_edges.insert(site, nearest.ann.route);
                self.install.bind_added_edge(site, nearest, &added_edges)?;
            }
        }
        self.spend(op, SHIFT, CONFIG_DELAY);

        // (6) Break: retire removed routes and release the shrunk
        // fractions' capacity.
        let still_routed = |site| routes.iter().any(|r| r.ann.sites.contains(&site));
        self.retire_routes(spec, &removed, state, still_routed);
        for (nu, old) in &modified {
            let shrink = old - nu.ann.fraction;
            if shrink > 1e-12 {
                let loads = self.solve.stage_load(spec, &nu.ann, shrink);
                self.reserve.release(loads);
            }
        }
        self.spend(op, RETIRE_EPOCH, CONFIG_DELAY);

        // Delta install → patch artifacts at the sites of every added,
        // modified or removed route. Composing one onto the site's
        // previous artifact reproduces the post-update state.
        let epoch = state.epoch + 1;
        self.install.compile_artifacts(epoch, ArtifactKind::Patch);
        Ok((routes, added_edges))
    }

    /// Retires a set of routes of the chain `state` records: unbinds them
    /// at its ingress and added edges, strips their forwarder rules,
    /// releases the reserved VNF capacity and forgets the reservation
    /// keys, drops their topics (the chain's route-delta topic only at
    /// sites `still_routed` says no surviving route crosses), and unwinds
    /// their load from the live tracker.
    fn retire_routes(
        &mut self,
        spec: &ChainSpec,
        routes: &[InstalledRoute],
        state: &ChainState,
        still_routed: impl Fn(SiteId) -> bool,
    ) {
        let edges = || std::iter::once(&state.ingress_site).chain(state.added_edges.keys());
        for InstalledRoute { ann, .. } in routes {
            self.install.retire(ann, edges());
            let loads = self.solve.stage_load(spec, ann, ann.fraction);
            self.reserve.retire(ann, loads);
            self.announce.retire(ann, &still_routed);
            self.solve.account(spec, &ann.sites, -ann.fraction);
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
        let state = self.chains.remove(&chain);
        let state = state.ok_or_else(|| Error::unknown("chain", chain))?;
        self.tele.removes.inc();
        let tracer = &self.tele.hub.tracer;
        let span = tracer.begin("cp.remove", None, self.now.as_nanos());
        tracer.attr(span, "chain", &chain.to_string());
        let report = DeploymentReport::default();
        let op = &mut Op { report, span };
        let spec = self.chain_spec(&state);

        // Removal delta to the affected sites only: every site a retiring
        // route crosses.
        let t = self.now;
        let routes = state.routes.iter();
        let mut affected: Vec<SiteId> = routes.flat_map(|r| r.ann.sites.iter().copied()).collect();
        affected.sort();
        affected.dedup();
        let (what, report) = ("route removal delta", &mut op.report);
        let done = self
            .announce
            .route_deltas(chain, &affected, what, t, report);
        self.wait(op, PROPAGATE_DELTA, (t, done));

        self.retire_routes(&spec, &state.routes, &state, |_| false);
        for &site in state.added_edges.keys() {
            self.announce.remove_edge_topic(chain, site);
        }
        // The patch lists the chain's label pairs as removals.
        let epoch = state.epoch;
        self.install.compile_artifacts(epoch, ArtifactKind::Patch);
        self.spend(op, RETIRE_CHAIN, CONFIG_DELAY);
        self.tele.hub.tracer.end(span, self.now.as_nanos());
        Ok(std::mem::take(&mut op.report))
    }
}

/// An update's installed routes split by the delta's verdicts, and the
/// paths it adds.
struct Plan {
    kept: Vec<InstalledRoute>,
    removed: Vec<InstalledRoute>,
    /// Routes that keep their identity and shift fraction, re-tagged at
    /// the new epoch, each with its old fraction.
    modified: Vec<(InstalledRoute, f64)>,
    added: Vec<RoutePath>,
}

impl Plan {
    /// Partitions `routes` by `delta`'s verdicts for the update to
    /// `epoch`. Several installed routes can share one site sequence
    /// (forced deploys); the diff is keyed by the merged sequence, so such
    /// a modified group is replaced wholesale (remove + add) while a lone
    /// modified route keeps its identity and shifts fraction.
    fn new(routes: &[InstalledRoute], delta: &RouteDelta, epoch: u64) -> Self {
        let mut plan = Self {
            kept: Vec::new(),
            removed: Vec::new(),
            modified: Vec::new(),
            added: delta.added.clone(),
        };
        for route in routes {
            let sites = &route.ann.sites;
            let modified = delta.modified.iter().find(|m| m.sites == *sites);
            let group = routes.iter().filter(|r| r.ann.sites == *sites).count();
            if delta.removed.iter().any(|p| p.sites == *sites) {
                plan.removed.push(route.clone());
            } else if let Some(m) = modified.filter(|_| group > 1) {
                plan.removed.push(route.clone());
                if !plan.added.iter().any(|p| p.sites == m.sites) {
                    let (sites, fraction) = (m.sites.clone(), m.new_fraction);
                    plan.added.push(RoutePath { sites, fraction });
                }
            } else if let Some(m) = modified {
                let mut nu = route.clone();
                let ann = Arc::make_mut(&mut nu.ann);
                (ann.fraction, ann.epoch) = (m.new_fraction, epoch);
                plan.modified.push((nu, route.ann.fraction));
            } else {
                plan.kept.push(route.clone());
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalSwitchboard;
    use crate::messages::InstanceRecord;
    use sb_te::dp::{self, LoadTracker};
    use sb_topology::TopologyBuilder;
    use sb_types::{ForwarderId, VnfId};
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
    fn handles_share_the_routes_the_chain_record_holds() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let handle = cp.deploy_chain(request(1)).unwrap();
        let shared = |a: &[Arc<RouteAnnouncement>], b: &[Arc<RouteAnnouncement>]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
        };
        assert!(shared(&handle.routes, &cp.routes_of(ChainId::new(1))));
        let other = if handle.routes[0].sites[0] == SiteId::new(1) {
            SiteId::new(2)
        } else {
            SiteId::new(1)
        };
        let (added, _) = cp.add_route_via(ChainId::new(1), vec![other]).unwrap();
        let routes = cp.routes_of(ChainId::new(1));
        assert_eq!(routes.iter().filter(|r| Arc::ptr_eq(r, &added)).count(), 1);
        let back = vec![(handle.routes[0].sites.clone(), 1.0)];
        let updated = cp.update_chain(ChainId::new(1), back).unwrap();
        assert!(shared(&updated.routes, &cp.routes_of(ChainId::new(1))));
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
                vec![(vec![SiteId::new(1)], 0.7), (vec![SiteId::new(2)], 0.3)],
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
        for step in [
            "cp.resolve",
            "cp.route_compute",
            "cp.2pc",
            "cp.install_rules",
        ] {
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
    fn update_chain_shifts_fractions_with_delta_scoped_2pc() {
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let deploy = cp
            .deploy_chain_via(
                request(1),
                vec![(vec![SiteId::new(1)], 0.7), (vec![SiteId::new(2)], 0.3)],
            )
            .unwrap();
        let h = cp
            .update_chain(
                ChainId::new(1),
                vec![(vec![SiteId::new(1)], 0.5), (vec![SiteId::new(2)], 0.5)],
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
        let bits = |routes: &[Arc<RouteAnnouncement>]| -> Vec<(RouteId, u64)> {
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
        cp.reserve
            .controller_mut(vnf)
            .commit(chain, old, s1)
            .unwrap();

        // The update retires the site-1 route and releases its reservation;
        // acknowledging a commit for it now would vouch for capacity the
        // participant no longer holds.
        let h = cp.update_chain(chain, vec![(vec![s2], 1.0)]).unwrap();
        let err = cp
            .reserve
            .controller_mut(vnf)
            .commit(chain, old, s1)
            .unwrap_err();
        assert!(matches!(err, Error::UnknownEntity { .. }), "{err}");
        assert!((cp.vnf_controller(vnf).unwrap().available_at(s1) - 100.0).abs() < 1e-9);

        // Teardown forgets the live route's key too, and the same chain id
        // deploys — and commits — again.
        let live = h.routes[0].route;
        cp.remove_chain(chain).unwrap();
        assert!(cp
            .reserve
            .controller_mut(vnf)
            .commit(chain, live, s2)
            .is_err());
        let again = cp
            .deploy_chain_via(request(1), vec![(vec![s1], 1.0)])
            .unwrap();
        assert_eq!(again.report.participants_2pc, 1);
        assert!((cp.vnf_controller(vnf).unwrap().available_at(s1) - 76.0).abs() < 1e-9);
        assert_eq!(
            cp.telemetry().registry.snapshot().counter("cp.2pc.commits"),
            3
        );
    }

    #[test]
    fn retired_routes_take_their_topics() {
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let at_rest = cp.announce.bus().topic_count();
        assert_eq!(at_rest, 1, "every site listens on the GSB route topic");

        let chains = [ChainId::new(1), ChainId::new(2)];
        for &chain in &chains {
            cp.deploy_chain_via(request(chain.value()), vec![(vec![s1], 1.0)])
                .unwrap();
        }
        // Per chain: the route's instance and forwarder topics.
        assert_eq!(cp.announce.bus().topic_count(), at_rest + 4);

        for &chain in &chains {
            cp.update_chain(chain, vec![(vec![s1], 0.5), (vec![s2], 0.5)])
                .unwrap();
        }
        // Per chain: two routes' topic pairs and a delta topic at each site.
        assert_eq!(cp.announce.bus().topic_count(), at_rest + 12);

        // A flap retires one label pair per update and takes its topics
        // along: the topic count is that of the installed state, however
        // many updates went by.
        for round in 0..6 {
            let to = if round % 2 == 0 { s2 } else { s1 };
            for &chain in &chains {
                cp.update_chain(chain, vec![(vec![to], 1.0)]).unwrap();
            }
            // Per chain: one route's topic pair, one delta topic at its site.
            assert_eq!(
                cp.announce.bus().topic_count(),
                at_rest + 6,
                "round {round}"
            );
        }

        cp.add_edge_site(chains[0], "roamer", SiteId::new(2))
            .unwrap();
        cp.add_route_via(chains[1], vec![s2]).unwrap();
        for &chain in &chains {
            cp.reroute_chain(chain).unwrap();
        }
        for &chain in &chains {
            cp.remove_chain(chain).unwrap();
        }
        assert_eq!(
            cp.announce.bus().topic_count(),
            at_rest,
            "no chain, no chain topics"
        );
        let stats = cp.announce.bus().stats();
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
                cp.solve.tracker().site_load.clone(),
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
            let mut tracker = LoadTracker::new(cp.model());
            for st in cp.chains.values() {
                let spec = cp.chain_spec(st);
                for InstalledRoute { ann, .. } in &st.routes {
                    let coefs = dp::path_coefficients(cp.model(), &spec, &ann.sites);
                    tracker.apply(&coefs, ann.fraction);
                }
            }
            tracker
        }
        fn assert_close(cp: &ControlPlane, want: &LoadTracker, verb: &str) {
            let live = cp.solve.tracker();
            let pairs = live
                .link_load
                .iter()
                .zip(&want.link_load)
                .chain(live.site_load.iter().zip(&want.site_load));
            for (a, b) in pairs {
                assert!((a - b).abs() < 1e-9, "after {verb}: {a} vs {b}");
            }
            for vnf in cp.model().vnfs() {
                for site in cp.model().sites() {
                    let (a, b) = (
                        live.vnf_site_load(vnf.id, site),
                        want.vnf_site_load(vnf.id, site),
                    );
                    assert!((a - b).abs() < 1e-9, "after {verb}: {vnf:?}@{site} {a} vs {b}");
                }
            }
        }
        let (one, two) = (ChainId::new(1), ChainId::new(2));
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));

        let home = cp.deploy_chain(request(1)).unwrap().routes[0].sites.clone();
        assert_close(&cp, &rebuilt(&cp), "deploy");
        cp.deploy_chain_via(request(2), vec![(vec![s1], 1.0)])
            .unwrap();
        assert_close(&cp, &rebuilt(&cp), "deploy via");
        let away = if home == vec![s1] { s2 } else { s1 };
        cp.update_chain(one, vec![(vec![away], 1.0)]).unwrap();
        assert_close(&cp, &rebuilt(&cp), "update");
        cp.update_chain(one, vec![(home, 1.0)]).unwrap();
        assert_close(&cp, &rebuilt(&cp), "update back");
        cp.add_route_via(two, vec![s2]).unwrap();
        assert_close(&cp, &rebuilt(&cp), "add-route");
        cp.reroute_chain(one).unwrap();
        assert_close(&cp, &rebuilt(&cp), "reroute");
        cp.remove_chain(one).unwrap();
        assert_close(&cp, &rebuilt(&cp), "remove");
        cp.remove_chain(two).unwrap();
        assert_close(&cp, &LoadTracker::new(cp.model()), "last remove");
    }

    #[test]
    fn rates_that_size_no_reservation_are_refused_before_any_state_changes() {
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let state = |cp: &ControlPlane| {
            let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
            let site_load = cp.solve.tracker().site_load.clone();
            (ctl.available_at(s1), ctl.available_at(s2), site_load)
        };
        let pristine = state(&cp);
        let bad = [
            (-10.0, 2.0),
            (f64::NAN, 2.0),
            (10.0, -0.5),
            (10.0, f64::INFINITY),
        ];
        for (forward, reverse) in bad {
            let req = ChainRequest {
                forward,
                reverse,
                ..request(1)
            };
            let via = cp.deploy_chain_via(req.clone(), vec![(vec![s1], 1.0)]);
            for res in [cp.deploy_chain(req), via] {
                let err = res.unwrap_err();
                assert!(matches!(err, Error::InvalidArgument { .. }), "{err}");
                assert_eq!(state(&cp), pristine, "{forward} {reverse}");
            }
        }
        assert!(cp.routes_of(ChainId::new(1)).is_empty());
        cp.deploy_chain(request(1)).unwrap();
    }

    #[test]
    fn instance_weights_that_load_balance_nothing_are_refused() {
        let (vnf, s1, s2) = (VnfId::new(0), SiteId::new(1), SiteId::new(2));
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let state = |cp: &ControlPlane| {
            let ctl = cp.vnf_controller(vnf).unwrap();
            let load = cp.solve.tracker().vnf_site_load(vnf, s1);
            (ctl.available_at(s1), ctl.instances_at(s1), load)
        };
        let pristine = state(&cp);
        let instance = cp.allocate_instance_id();
        for weight in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let record = InstanceRecord {
                instance,
                weight,
                supports_labels: true,
            };
            let err = cp.set_instances(vnf, s1, vec![record]).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument { .. }), "{err}");
            assert_eq!(state(&cp), pristine, "weight {weight}");
        }
        // An empty set still drains a site; the one left serves the chain,
        // and its removal returns every unit it reserved.
        cp.set_instances(vnf, s2, Vec::new()).unwrap();
        cp.deploy_chain_via(request(1), vec![(vec![s1], 1.0)])
            .unwrap();
        assert!(cp.vnf_controller(vnf).unwrap().available_at(s1) < 100.0);
        cp.remove_chain(ChainId::new(1)).unwrap();
        let (available, instances, load) = state(&cp);
        assert_eq!((available, instances), (pristine.0, pristine.1));
        assert!(load.abs() < 1e-9, "{load:?}");
    }

    #[test]
    fn a_vnf_outside_the_catalog_is_refused_before_any_state_changes() {
        let s1 = SiteId::new(1);
        let mut cp = control_plane();
        cp.register_attachment("customer-in", SiteId::new(0));
        cp.register_attachment("customer-out", SiteId::new(3));
        let unknown = ChainRequest {
            vnfs: vec![VnfId::new(0), VnfId::new(7)],
            ..request(1)
        };
        let via = cp.deploy_chain_via(unknown.clone(), vec![(vec![s1, s1], 1.0)]);
        for res in [cp.deploy_chain(unknown), via] {
            let err = res.unwrap_err();
            assert!(matches!(err, Error::UnknownEntity { .. }), "{err}");
        }
        let ctl = cp.vnf_controller(VnfId::new(0)).unwrap();
        assert!((ctl.available_at(s1) - 100.0).abs() < 1e-9);
        assert!(cp.solve.tracker().site_load.iter().all(|&l| l == 0.0));
        cp.deploy_chain(request(1)).unwrap();
    }
}
