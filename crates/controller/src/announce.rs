//! Announce stage (Figure 4, arrows 3–4): the global message bus and each
//! site's endpoint on it.
//!
//! [`Announce`] owns the [`ProxyBus`] and the one subscriber per site (its
//! Local Switchboard). It publishes route announcements and deltas, the
//! VNF controllers' instance records and the Local Switchboards'
//! forwarder records, republishing what the fault plan drops, and hands
//! the verbs the time the last copy arrived. A publish names only its
//! topic: the controller keeps the value published, and the receivers run
//! inline, so the bus stores nothing and the verbs read no payload back.
//! Retiring a route drops the topics named after it.

use crate::chain::{DeploymentReport, InstalledRoute};
use crate::global::GSB_SITE;
use crate::install::Install;
use crate::messages::RouteAnnouncement;
use crate::reserve::{backoff, Reserve, MAX_RPC_RETRIES, RPC_TIMEOUT};
use sb_faults::SharedFaultPlan;
use sb_msgbus::{BusTopology, DelayModel, ProxyBus, SubscriberId, Topic};
use sb_netsim::SimTime;
use sb_telemetry::{Counter, Telemetry, TraceRecorder};
use sb_types::{ChainId, Error, Millis, Result, SiteId};
use std::collections::HashMap;
use std::sync::Arc;

/// The bus and every site's endpoint on it.
pub(crate) struct Announce {
    bus: ProxyBus,
    /// One bus endpoint per site (its Local Switchboard).
    site_subs: HashMap<SiteId, SubscriberId>,
    /// The Global Switchboard's route topic every site listens on.
    route_topic: Topic,
    tracer: TraceRecorder,
    publish_retries: Counter,
}

impl Announce {
    /// A bus over `sites` with `delays`, where every site listens on the
    /// GSB's route topic from the start (routes are replicated at every
    /// site, Section 6).
    pub(crate) fn new(sites: &[SiteId], delays: DelayModel, hub: &Telemetry) -> Self {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites.to_vec(), delays));
        bus.attach_telemetry(hub);
        let route_topic =
            Topic::with_owner(format!("/routes/site_{}_gsb", GSB_SITE.value()), GSB_SITE);
        let mut site_subs = HashMap::new();
        for &s in sites {
            let sub = bus.register_subscriber(s);
            bus.subscribe(sub, route_topic.clone());
            site_subs.insert(s, sub);
        }
        Self {
            bus,
            site_subs,
            route_topic,
            tracer: hub.tracer.clone(),
            publish_retries: hub.registry.counter("cp.publish.retries"),
        }
    }

    /// Records bus and republish metrics into `hub`.
    pub(crate) fn attach_telemetry(&mut self, hub: &Telemetry) {
        self.bus.attach_telemetry(hub);
        self.tracer = hub.tracer.clone();
        self.publish_retries = hub.registry.counter("cp.publish.retries");
    }

    /// Subjects every publish to `plan`.
    pub(crate) fn set_fault_plan(&mut self, plan: SharedFaultPlan) {
        self.bus.set_fault_plan(plan);
    }

    /// Publishes on `topic` from `from` at `at`, re-sending with
    /// exponential backoff while copies are lost under the fault plan.
    /// Republishing re-sends to every subscriber (at-least-once delivery);
    /// state messages are idempotent, so duplicates are harmless. Adds the
    /// WAN copies to `report` and notes a republish or exhausted retries
    /// there. Returns when the last copy arrived (`at` if none did).
    ///
    /// The receivers run inline: the code after each publish attaches the
    /// instances and installs the rules whatever the publish's outcome, so
    /// a site's in-process state is installed even when every copy meant
    /// for it was lost past its retries. Such a loss costs only virtual
    /// time, WAN copies and a report note; acting on the bus's deliveries
    /// alone is the receive half of ROADMAP item 3.
    fn publish_with_retry(
        &mut self,
        at: SimTime,
        from: SiteId,
        topic: &Topic,
        what: &str,
        report: &mut DeploymentReport,
    ) -> SimTime {
        let first = self.bus.publish(at, from, topic);
        let (mut wan, mut last) = (first.wan_copies, first.last_delivery);
        if first.dropped > 0 || first.delivered == 0 {
            let mut extra = Millis::ZERO;
            let mut clean_after = None;
            for attempt in 0..MAX_RPC_RETRIES {
                extra += RPC_TIMEOUT + backoff(attempt);
                self.publish_retries.inc();
                self.tracer.event(
                    "cp.publish.retry",
                    None,
                    (at + extra).as_nanos(),
                    &[("what", what), ("attempt", &(attempt + 1).to_string())],
                );
                let retry = self.bus.publish(at + extra, from, topic);
                wan += retry.wan_copies;
                last = last.max(retry.last_delivery);
                if retry.dropped == 0 && retry.delivered > 0 {
                    clean_after = Some(attempt + 1);
                    break;
                }
            }
            report.note(match clean_after {
                Some(n) => format!("{what}: republished after message loss ({n} attempt(s))"),
                None => {
                    format!(
                        "{what}: delivery incomplete after {MAX_RPC_RETRIES} republish attempts"
                    )
                }
            });
        }
        report.wan_messages += wan;
        last.unwrap_or(at)
    }

    /// Arrow 3 of Figure 4: one publish per route on the GSB's route
    /// topic, which every Local Switchboard subscribes to. Returns when
    /// the last copy arrived.
    pub(crate) fn routes(
        &mut self,
        announcements: &[Arc<RouteAnnouncement>],
        at: SimTime,
        report: &mut DeploymentReport,
    ) -> SimTime {
        let (topic, what) = (self.route_topic.clone(), "route announcement");
        let mut done = at;
        for _ in announcements {
            done = done.max(self.publish_with_retry(at, GSB_SITE, &topic, what, report));
        }
        done
    }

    /// Publishes epoch-tagged announcement deltas to the affected sites
    /// only: one message per affected site on its own
    /// [`Topic::route_delta`] topic. The topic is owned by the affected
    /// site itself, so each publish costs at most one WAN copy — unlike
    /// the chain-wide `/routes/site_<gsb>_gsb` replication topic every
    /// site subscribes to. Returns when the last copy arrived.
    pub(crate) fn route_deltas(
        &mut self,
        chain: ChainId,
        affected: &[SiteId],
        what: &str,
        at: SimTime,
        report: &mut DeploymentReport,
    ) -> SimTime {
        let mut done = at;
        for &site in affected {
            let Some(&sub) = self.site_subs.get(&site) else {
                continue;
            };
            let topic = Topic::route_delta(chain.value() as u32, site);
            self.bus.subscribe(sub, topic.clone());
            done = done.max(self.publish_with_retry(at, GSB_SITE, &topic, what, report));
        }
        done
    }

    /// Arrow 4 of Figure 4: for each stage of each route, the VNF
    /// controller publishes its instances at the site (from its home site,
    /// on the site-owned topic), the Local Switchboard attaches them to
    /// forwarders and publishes forwarder records. Publishes are
    /// concurrent from `at`; returns each route with the forwarder records
    /// of its stages, and when the slowest publish arrived.
    pub(crate) fn allocate_and_publish(
        &mut self,
        reserve: &Reserve,
        install: &mut Install,
        announcements: &[Arc<RouteAnnouncement>],
        at: SimTime,
        report: &mut DeploymentReport,
    ) -> Result<(Vec<InstalledRoute>, SimTime)> {
        let mut done = at;
        let mut routes = Vec::with_capacity(announcements.len());
        for ann in announcements {
            let (label, egress) = (ann.labels.chain().value(), ann.labels.egress().value());
            let mut stages = Vec::with_capacity(ann.sites.len());
            for (z, (&vnf, &site)) in ann.vnfs.iter().zip(&ann.sites).enumerate() {
                let ctl = reserve
                    .controller(vnf)
                    .ok_or_else(|| Error::unknown("vnf", vnf))?;
                let records = ctl.instances_at(site);
                let inst_topic = Topic::vnf_instances(label, egress, vnf.value(), site);
                self.bus
                    .subscribe(self.site_subs[&site], inst_topic.clone());
                let (home, what) = (ctl.home_site(), "instance records");
                done = done.max(self.publish_with_retry(at, home, &inst_topic, what, report));

                let fwd_records = Arc::new(install.attach_instances(site, vnf, &records));
                // Publish forwarder records on the Figure 6 topic; the
                // adjacent stages' sites subscribe.
                let fwd_topic = Topic::vnf_forwarders(label, egress, vnf.value(), site);
                let neighbors = [
                    z.checked_sub(1).map(|pz| ann.sites[pz]),
                    ann.sites.get(z + 1).copied(),
                    Some(ann.ingress_site),
                    Some(ann.egress_site),
                ];
                for n in neighbors.into_iter().flatten() {
                    self.bus.subscribe(self.site_subs[&n], fwd_topic.clone());
                }
                let what = "forwarder records";
                done = done.max(self.publish_with_retry(at, site, &fwd_topic, what, report));
                stages.push(fwd_records);
            }
            routes.push(InstalledRoute {
                ann: Arc::clone(ann),
                stages,
            });
        }
        Ok((routes, done))
    }

    /// Edge-site addition, step 2: the edge at `site` receives `route`'s
    /// stage-0 forwarder records, the ones it published at install, in a
    /// one-way publish from the first VNF's site. Returns when they
    /// arrived.
    pub(crate) fn first_stage_info(
        &mut self,
        site: SiteId,
        route: &InstalledRoute,
        at: SimTime,
        report: &mut DeploymentReport,
    ) -> SimTime {
        let ann = &route.ann;
        let topic = Topic::vnf_forwarders(
            ann.labels.chain().value(),
            ann.labels.egress().value(),
            ann.vnfs[0].value(),
            ann.sites[0],
        );
        self.bus.subscribe(self.site_subs[&site], topic.clone());
        let what = "first VNF forwarder info";
        self.publish_with_retry(at, ann.sites[0], &topic, what, report)
    }

    /// Edge-site addition, step 4: the first VNF's site `first_site`
    /// receives the edge instance added to `chain` at `site`, in a one-way
    /// publish from `site`. Returns when it arrived.
    pub(crate) fn edge_info(
        &mut self,
        (chain, site): (ChainId, SiteId),
        first_site: SiteId,
        at: SimTime,
        report: &mut DeploymentReport,
    ) -> SimTime {
        let topic = edge_topic(chain, site);
        self.bus
            .subscribe(self.site_subs[&first_site], topic.clone());
        self.publish_with_retry(at, site, &topic, "edge forwarder info", report)
    }

    /// Drops a retired route's bus state: the `vnf_instances` /
    /// `vnf_forwarders` topics of its label pair, and the chain's route
    /// delta topic at each of its sites unless `still_routed` says a
    /// surviving route of the chain crosses it.
    pub(crate) fn retire(
        &mut self,
        ann: &RouteAnnouncement,
        still_routed: impl Fn(SiteId) -> bool,
    ) {
        let (label, egress) = (ann.labels.chain().value(), ann.labels.egress().value());
        for (&vnf, &site) in ann.vnfs.iter().zip(&ann.sites) {
            self.bus
                .remove_topic(&Topic::vnf_instances(label, egress, vnf.value(), site));
            self.bus
                .remove_topic(&Topic::vnf_forwarders(label, egress, vnf.value(), site));
        }
        for &site in &ann.sites {
            if !still_routed(site) {
                self.bus
                    .remove_topic(&Topic::route_delta(ann.chain.value() as u32, site));
            }
        }
    }

    /// Drops the topic the edge `chain` gained at `site` publishes on.
    pub(crate) fn remove_edge_topic(&mut self, chain: ChainId, site: SiteId) {
        self.bus.remove_topic(&edge_topic(chain, site));
    }
}

/// The topic an edge site added to `chain` publishes its forwarder info
/// on; the chain's first VNF sites subscribe.
fn edge_topic(chain: ChainId, site: SiteId) -> Topic {
    Topic::with_owner(
        format!("/c{}/edge/site_{}_forwarders", chain.value(), site.value()),
        site,
    )
}

#[cfg(test)]
impl Announce {
    /// The bus.
    pub(crate) fn bus(&self) -> &ProxyBus {
        &self.bus
    }
}
