//! Reserve stage (Figure 4, arrow 3): the VNF controllers, and the
//! two-phase commit of a route set's [`PrepareItem`]s with them. A round
//! hands back what it cost; retiring or shrinking a route releases its
//! capacity here too.

use crate::chain::DeploymentReport;
use crate::global::{ControlPlane, GSB_SITE};
use crate::messages::{InstanceRecord, RouteAnnouncement};
use crate::solve::Solve;
use crate::vnfctl::VnfController;
use sb_faults::{RpcPhase, SharedFaultPlan};
use sb_msgbus::DelayModel;
use sb_netsim::SimTime;
use sb_te::{ChainSpec, NetworkModel};
use sb_telemetry::{Counter, SpanId, Telemetry, TraceRecorder};
use sb_types::{ChainId, Error, InstanceId, Millis, Result, RouteId, SiteId, VnfId};
use std::collections::HashMap;

/// Control-plane RPC retries (beyond the first attempt) before a peer is
/// declared failed. Only exercised under a fault plan.
pub(crate) const MAX_RPC_RETRIES: usize = 2;
/// Virtual time charged per timed-out control-plane RPC attempt.
pub(crate) const RPC_TIMEOUT: Millis = Millis::new(200.0);
/// Base of the exponential backoff between RPC retries (doubles with
/// each attempt).
const RETRY_BACKOFF_BASE: Millis = Millis::new(25.0);

/// One (VNF, site) reservation of a two-phase commit round. Deploy
/// prepares every stage of every route; a delta-scoped update prepares
/// only the load *increases* (added routes in full, grown fractions by
/// their increment under the existing reservation key). Decreases and
/// removals are handled by `release` at retire time and need no vote.
pub(crate) struct PrepareItem {
    vnf: VnfId,
    site: SiteId,
    chain: ChainId,
    route: RouteId,
    load: f64,
}

/// Expands `(route, fraction)` pairs into one [`PrepareItem`] per stage,
/// each reserving the stage's load at that fraction under the route's key.
pub(crate) fn prepare_items<'a>(
    solve: &Solve,
    spec: &ChainSpec,
    routes: impl IntoIterator<Item = (&'a RouteAnnouncement, f64)>,
) -> Vec<PrepareItem> {
    let mut items = Vec::new();
    for (ann, fraction) in routes {
        for (vnf, site, load) in solve.stage_load(spec, ann, fraction) {
            let (chain, route) = (ann.chain, ann.route);
            items.push(PrepareItem {
                vnf,
                site,
                chain,
                route,
                load,
            });
        }
    }
    items
}

/// The VNF controllers and the 2PC coordinator's view of the WAN.
pub(crate) struct Reserve {
    vnf_ctls: HashMap<VnfId, VnfController>,
    delays: DelayModel,
    tracer: TraceRecorder,
    commits: Counter,
    aborts: Counter,
}

/// A two-phase commit round in progress.
struct Round<'a> {
    faults: Option<&'a SharedFaultPlan>,
    at: SimTime,
    span: SpanId,
    max_rtt: Millis,
    penalty: Millis,
    prepared: Vec<(VnfId, ChainId, RouteId, SiteId)>,
}

impl Reserve {
    /// One VNF controller per catalog VNF, with `instances_per_site`
    /// instances at each deployment site, numbered from `next_instance`
    /// (Section 3, phase 1: services exist before chains are specified).
    pub(crate) fn new(
        model: &NetworkModel,
        delays: &DelayModel,
        instances_per_site: usize,
        next_instance: &mut u64,
        hub: &Telemetry,
    ) -> Self {
        let mut vnf_ctls = HashMap::new();
        for vnf in model.vnfs() {
            let vnf_sites = vnf.sites();
            let home = vnf_sites.first().copied().unwrap_or(GSB_SITE);
            let mut ctl = VnfController::new(vnf.id, home);
            for s in vnf_sites {
                let instances: Vec<InstanceRecord> = (0..instances_per_site)
                    .map(|_| {
                        let id = InstanceId::new(*next_instance);
                        *next_instance += 1;
                        InstanceRecord {
                            instance: id,
                            weight: 1.0,
                            supports_labels: true,
                        }
                    })
                    .collect();
                ctl.deploy_at(s, vnf.site_capacity[&s], instances);
            }
            vnf_ctls.insert(vnf.id, ctl);
        }
        Self {
            vnf_ctls,
            delays: delays.clone(),
            tracer: hub.tracer.clone(),
            commits: hub.registry.counter("cp.2pc.commits"),
            aborts: hub.registry.counter("cp.2pc.aborts"),
        }
    }

    /// Records 2PC spans and counters into `hub`.
    pub(crate) fn attach_telemetry(&mut self, hub: &Telemetry) {
        self.tracer = hub.tracer.clone();
        self.commits = hub.registry.counter("cp.2pc.commits");
        self.aborts = hub.registry.counter("cp.2pc.aborts");
    }

    /// The WAN delay model.
    pub(crate) fn delays(&self) -> &DelayModel {
        &self.delays
    }

    /// The controller of `vnf`.
    pub(crate) fn controller(&self, vnf: VnfId) -> Option<&VnfController> {
        self.vnf_ctls.get(&vnf)
    }

    /// Phase-1/phase-2 exchange with every VNF controller on the routes,
    /// starting at `at`. Returns what the round cost in virtual time: two
    /// round trips to the farthest participant (prepares run in parallel,
    /// then commits; one on an abort), plus any timeout and backoff
    /// penalties under `faults`.
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
    /// - A reservation at a site whose crash window covers `at` is vetoed
    ///   outright by the controller's failure detector; every other
    ///   prepare is aborted and the coordinator recomputes around the
    ///   dead site.
    ///
    /// One round serves deploy (full scope: every stage of every route)
    /// and update (delta scope): only the given reservations vote.
    pub(crate) fn two_phase_commit(
        &mut self,
        items: &[PrepareItem],
        faults: Option<&SharedFaultPlan>,
        at: SimTime,
        report: &mut DeploymentReport,
        parent: SpanId,
    ) -> (Millis, Result<()>) {
        let mut round = Round {
            faults,
            at,
            span: self.tracer.begin("cp.2pc", Some(parent), at.as_nanos()),
            max_rtt: Millis::ZERO,
            penalty: Millis::ZERO,
            prepared: Vec::new(),
        };
        let phase1 = self.prepare_round(&mut round, items, report);
        // A chain may use the same VNF at the same site more than once (two
        // stages of the same function): its reservations accumulate under
        // one (chain, route) key at the controller, so abort/commit exactly
        // once per distinct participant key.
        let prepared = &mut round.prepared;
        prepared.sort_unstable_by_key(|&(v, c, r, s)| (v.value(), c.value(), r.value(), s.value()));
        prepared.dedup();
        let (dt, outcome, res) = match phase1 {
            Err(e) => {
                for &(vnf, chain, route, site) in &round.prepared {
                    let ctl = self
                        .vnf_ctls
                        .get_mut(&vnf)
                        .expect("prepared controller exists");
                    ctl.abort(chain, route, site);
                }
                self.aborts.inc();
                (round.max_rtt + round.penalty, "aborted", Err(e))
            }
            Ok(()) => {
                self.commit_round(&mut round, report);
                self.commits.inc();
                report.participants_2pc += round.prepared.len();
                // Prepare RTT + commit RTT.
                (round.max_rtt * 2.0 + round.penalty, "committed", Ok(()))
            }
        };
        self.tracer.end(round.span, (at + dt).as_nanos());
        self.tracer.attr(round.span, "outcome", outcome);
        (dt, res)
    }

    /// Phase 1: prepares `items` in order until one fails, noting in
    /// `report` the participant it failed at.
    fn prepare_round(
        &mut self,
        round: &mut Round<'_>,
        items: &[PrepareItem],
        report: &mut DeploymentReport,
    ) -> Result<()> {
        for it in items {
            let (vnf, site) = (it.vnf, it.site);
            let Some(ctl) = self.vnf_ctls.get_mut(&vnf) else {
                return Err(Error::unknown("vnf", vnf));
            };
            let rtt = self.delays.between(GSB_SITE, ctl.home_site()) * 2.0;
            if rtt > round.max_rtt {
                round.max_rtt = rtt;
            }
            let (tracer, at, span) = (&self.tracer, round.at, round.span);
            let prep_span = |end: Millis, outcome: &str, notes: Option<&mut Vec<String>>| {
                let (window, vote) = ((at, at + end), (vnf, site, outcome));
                phase_span(tracer, span, RpcPhase::Prepare, window, vote, notes);
            };
            let mut failed = |end, outcome, e| {
                prep_span(end, outcome, Some(&mut report.partial_failures));
                Err(e)
            };
            let rejected = |reason: String| Error::CommitRejected { vnf, site, reason };
            // A reservation at a crashed site can never be honoured —
            // the instances there are gone. The controller's failure
            // detector vetoes it outright (no timeout burned), and the
            // coordinator recomputes around the site.
            let down = round.faults.is_some_and(|f| {
                f.lock()
                    .expect("fault plan lock poisoned")
                    .site_is_down(at, site)
            });
            if down {
                let reason = format!("{site} is down; reservation refused");
                return failed(Millis::ZERO, "site-down", rejected(reason));
            }
            if let Err(e) = ctl.prepare(it.chain, it.route, site, it.load) {
                return failed(rtt, "vetoed", e);
            }
            // The reservation now exists at the participant. A lost reply
            // leaves the coordinator unsure of the vote: it must either
            // reach the participant on retry or abort everything,
            // including this reservation.
            round.prepared.push((vnf, it.chain, it.route, site));
            match retry_rpc(round.faults, RpcPhase::Prepare, site) {
                Ok(extra) => {
                    prep_span(rtt + extra, "ok", None);
                    round.penalty += extra;
                }
                Err(full) => {
                    round.penalty += full;
                    let reason = format!("prepare timed out after {MAX_RPC_RETRIES} retries");
                    return failed(rtt + full, "timeout", rejected(reason));
                }
            }
        }
        Ok(())
    }

    /// Phase 2: commits every prepared reservation. Commit is idempotent
    /// at the participant, so a commit whose acknowledgment is lost is
    /// re-sent; an exhausted budget is a report note, not an abort.
    fn commit_round(&mut self, round: &mut Round<'_>, report: &mut DeploymentReport) {
        // The commit round starts once the slowest prepare ack is in (the
        // phase's virtual-time cost is one RTT per round).
        let t_commit = round.at + round.max_rtt;
        let tracer = &self.tracer;
        for &(vnf, chain, route, site) in &round.prepared {
            let ctl = self
                .vnf_ctls
                .get_mut(&vnf)
                .expect("prepared controller exists");
            ctl.commit(chain, route, site)
                .expect("a reservation prepared in this round commits");
            let (extra, acked) = match retry_rpc(round.faults, RpcPhase::Commit, site) {
                Ok(extra) => (extra, true),
                Err(full) => (full, false),
            };
            round.penalty += extra;
            let window = (t_commit, t_commit + round.max_rtt);
            let vote = (vnf, site, if acked { "acked" } else { "ack-lost" });
            let notes = (!acked).then_some(&mut report.partial_failures);
            phase_span(tracer, round.span, RpcPhase::Commit, window, vote, notes);
            if !acked {
                report.note(format!(
                    "commit ack from {vnf}@{site} lost after {MAX_RPC_RETRIES} retries; \
                     the reservation is durable at the participant"
                ));
            }
        }
    }

    /// Releases the capacity a route that stays gave up: `loads` as
    /// [`Solve::stage_load`] yields them.
    pub(crate) fn release(&mut self, loads: impl Iterator<Item = (VnfId, SiteId, f64)>) {
        for (vnf, site, load) in loads {
            if let Some(ctl) = self.vnf_ctls.get_mut(&vnf) {
                ctl.release(site, load);
            }
        }
    }

    /// Retires `route`'s reservations: releases their remaining `loads`
    /// and forgets the route's key at every participant.
    pub(crate) fn retire(
        &mut self,
        route: &RouteAnnouncement,
        loads: impl Iterator<Item = (VnfId, SiteId, f64)>,
    ) {
        for (vnf, site, load) in loads {
            if let Some(ctl) = self.vnf_ctls.get_mut(&vnf) {
                ctl.retire(route.chain, route.route, site, load);
            }
        }
    }
}

/// The reserve stage's state as the public API reads and replaces it.
impl ControlPlane {
    /// The VNF controller of `vnf`.
    #[must_use]
    pub fn vnf_controller(&self, vnf: VnfId) -> Option<&VnfController> {
        self.reserve.vnf_ctls.get(&vnf)
    }

    /// Replaces the auto-created instances of `vnf` at `site` (e.g. to
    /// register label-unaware instances or custom weights). An empty list
    /// leaves the site without instances, so its VNF controller vetoes
    /// every reservation there.
    ///
    /// # Errors
    ///
    /// - [`Error::InvalidArgument`], before any state changes, when an
    ///   instance's weight is not finite and positive: load balancing
    ///   could not pick among the instances.
    /// - [`Error::UnknownEntity`] when the VNF or site is unknown.
    pub fn set_instances(
        &mut self,
        vnf: VnfId,
        site: SiteId,
        instances: Vec<InstanceRecord>,
    ) -> Result<()> {
        if let Some(bad) = instances
            .iter()
            .find(|i| !(i.weight.is_finite() && i.weight > 0.0))
        {
            return Err(Error::invalid_argument(format!(
                "{} weight {} is not finite and positive",
                bad.instance, bad.weight
            )));
        }
        let at = self.model().vnfs().get(vnf.index());
        let cap = at.and_then(|v| v.site_capacity.get(&site).copied());
        let ctl = self.reserve.vnf_ctls.get_mut(&vnf);
        let ctl = ctl.ok_or_else(|| Error::unknown("vnf", vnf))?;
        let cap = cap.ok_or_else(|| Error::unknown("vnf deployment site", site))?;
        ctl.deploy_at(site, cap, instances);
        Ok(())
    }
}

/// Drives one logical RPC's reply under the fault plan: draws per-attempt
/// timeouts, charging [`RPC_TIMEOUT`] plus exponential backoff for each
/// failed attempt. `Ok` holds the extra virtual time when some attempt got
/// through, `Err` the cost of the exhausted retry budget.
pub(crate) fn retry_rpc(
    faults: Option<&SharedFaultPlan>,
    phase: RpcPhase,
    site: SiteId,
) -> std::result::Result<Millis, Millis> {
    let mut extra = Millis::ZERO;
    for attempt in 0..=MAX_RPC_RETRIES {
        let timed_out = faults.is_some_and(|f| {
            f.lock()
                .expect("fault plan lock poisoned")
                .rpc_times_out(phase, site)
        });
        if !timed_out {
            return Ok(extra);
        }
        extra += RPC_TIMEOUT + backoff(attempt);
    }
    Err(extra)
}

/// Exponential backoff before retry `attempt` (0-based).
pub(crate) fn backoff(attempt: usize) -> Millis {
    let mut b = RETRY_BACKOFF_BASE;
    for _ in 0..attempt.min(16) {
        b = b * 2.0;
    }
    b
}

/// Records participant `vnf`@`site`'s span of 2PC `phase`, a child of
/// `parent` over `window`, with `outcome`. A failed phase also pushes to
/// `failures` the note naming it, formatted from the same values: a note in
/// [`DeploymentReport::partial_failures`] cannot contradict the span data.
fn phase_span(
    tracer: &TraceRecorder,
    parent: SpanId,
    phase: RpcPhase,
    (from, to): (SimTime, SimTime),
    (vnf, site, outcome): (VnfId, SiteId, &str),
    failures: Option<&mut Vec<String>>,
) {
    let name = match phase {
        RpcPhase::Prepare => "2pc.prepare",
        RpcPhase::Commit => "2pc.commit",
    };
    let (vnf_s, site_s) = (vnf.to_string(), site.to_string());
    let attrs = [("vnf", &*vnf_s), ("site", &*site_s), ("outcome", outcome)];
    tracer.span(name, Some(parent), from.as_nanos(), to.as_nanos(), &attrs);
    if let Some(notes) = failures {
        notes.push(format!("2pc {phase} phase failed at {vnf}@{site}: {outcome}"));
    }
}

#[cfg(test)]
impl Reserve {
    /// Mutable controller of `vnf`.
    pub(crate) fn controller_mut(&mut self, vnf: VnfId) -> &mut VnfController {
        self.vnf_ctls.get_mut(&vnf).expect("catalog VNF")
    }
}
