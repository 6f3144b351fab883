//! The [`Switchboard`] facade: control plane + data plane + VNF behaviors
//! assembled into one runnable system.
//!
//! The control-plane API — deploying, updating and removing chains, the
//! routes, the model, the telemetry hub, the compiled artifacts — is
//! [`ControlPlane`]'s, reached through `Deref`: `sb.deploy_chain(…)` is
//! [`ControlPlane::deploy_chain`]. The facade adds what needs the data
//! plane and the VNF behaviors: sending packets through the deployment.

use crate::runner::{Passthrough, Transit};
use sb_controller::{ControlPlane, ControlPlaneConfig};
use sb_dataplane::{Addr, Packet};
use sb_faults::{FaultPlan, FaultSpec};
use sb_msgbus::DelayModel;
use sb_te::NetworkModel;
use sb_types::{ChainId, Error, InstanceId, Millis, Result, SiteId};
use sb_vnfs::VnfBehavior;
use std::collections::{HashMap, HashSet};

/// Safety bound on data-plane hops per packet (loops indicate broken
/// rules and are reported as forwarding errors).
const MAX_HOPS: usize = 64;

/// Configuration of a [`Switchboard`] deployment.
#[derive(Debug, Clone, Default)]
pub struct SwitchboardConfig {
    /// Control-plane configuration (routing heuristic, timing model…).
    pub control: ControlPlaneConfig,
    /// Seeded fault injection for the control plane and message bus;
    /// `None` (the default) runs fault-free.
    pub faults: Option<FaultSpec>,
}

/// The assembled Switchboard middleware. See the [crate docs](crate) for a
/// worked example; every [`ControlPlane`] method is callable on it.
pub struct Switchboard {
    cp: ControlPlane,
    behaviors: HashMap<InstanceId, Box<dyn VnfBehavior>>,
    passthrough_default: bool,
    /// Instances killed by the fault plan's scheduled VNF crashes. Packets
    /// already routed toward one of these when the crash fired (or pinned
    /// to a sole-instance rule) are dropped at the dead instance.
    crashed_vnfs: HashSet<InstanceId>,
}

impl std::fmt::Debug for Switchboard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switchboard")
            .field("behaviors", &self.behaviors.len())
            .field("control_plane", &self.cp)
            .finish()
    }
}

impl std::ops::Deref for Switchboard {
    type Target = ControlPlane;

    fn deref(&self) -> &ControlPlane {
        &self.cp
    }
}

impl std::ops::DerefMut for Switchboard {
    fn deref_mut(&mut self) -> &mut ControlPlane {
        &mut self.cp
    }
}

impl Switchboard {
    /// Builds a Switchboard over a network model (topology, sites, VNF
    /// catalog) and a control-plane WAN delay model.
    #[must_use]
    pub fn new(model: NetworkModel, delays: DelayModel, config: SwitchboardConfig) -> Self {
        let mut cp = ControlPlane::new(model, delays, config.control);
        if let Some(spec) = config.faults {
            cp.set_fault_plan(sb_faults::shared(FaultPlan::new(spec)));
        }
        Self {
            cp,
            behaviors: HashMap::new(),
            passthrough_default: false,
            crashed_vnfs: HashSet::new(),
        }
    }

    /// The underlying control plane.
    #[must_use]
    pub fn control_plane(&self) -> &ControlPlane {
        &self.cp
    }

    /// Mutable access to the control plane (advanced wiring).
    pub fn control_plane_mut(&mut self) -> &mut ControlPlane {
        &mut self.cp
    }

    /// Binds a concrete behavior (firewall, NAT, cache…) to its VNF
    /// instance. Packets reaching an unbound instance are an error unless
    /// [`use_passthrough_behaviors`](Self::use_passthrough_behaviors) is
    /// set.
    pub fn register_behavior(&mut self, behavior: Box<dyn VnfBehavior>) {
        self.behaviors.insert(behavior.instance(), behavior);
    }

    /// Treats unbound VNF instances as no-op passthroughs (convenient for
    /// routing-only experiments).
    pub fn use_passthrough_behaviors(&mut self) {
        self.passthrough_default = true;
    }

    /// The behavior bound to `instance`, for reading stats after a run.
    #[must_use]
    pub fn behavior(&self, instance: InstanceId) -> Option<&dyn VnfBehavior> {
        self.behaviors.get(&instance).map(AsRef::as_ref)
    }

    /// Applies the faults the plan has scheduled up to the control plane's
    /// current virtual time.
    ///
    /// - A forwarder restart: every forwarder at the restarting site loses
    ///   its volatile flow-table pins
    ///   ([`sb_dataplane::Forwarder::clear_flow_state`]) while its installed
    ///   rules — re-pushed from the controller's persistent store — survive.
    ///   Surviving flows then re-pin deterministically on their next packet.
    /// - A VNF instance crash: every forwarder drops the dead instance from
    ///   its load-balancing rules and evicts the flow-table entries pinned
    ///   to it ([`sb_dataplane::Forwarder::fail_vnf_instance`]): affected
    ///   flows fail over to the surviving instances on their next packet,
    ///   while flows pinned elsewhere keep their affinity (DESIGN.md §8).
    fn apply_due_faults(&mut self) {
        let Some(plan) = self.cp.fault_plan() else {
            return;
        };
        let now = self.cp.now();
        let mut plan = plan.lock().expect("fault plan lock");
        let (restarts, crashes) = (plan.take_due_restarts(now), plan.take_due_vnf_crashes(now));
        drop(plan);
        for site in restarts {
            if let Some(local) = self.cp.local_mut(site) {
                for fid in local.forwarder_ids() {
                    if let Some(fw) = local.forwarder_mut(fid) {
                        fw.clear_flow_state();
                    }
                }
            }
        }
        let sites = self.cp.sites();
        for instance in crashes {
            self.crashed_vnfs.insert(instance);
            for &site in &sites {
                if let Some(local) = self.cp.local_mut(site) {
                    if let Some(fid) = local.forwarder_of_instance(instance) {
                        if let Some(fw) = local.forwarder_mut(fid) {
                            fw.fail_vnf_instance(instance);
                        }
                    }
                }
            }
        }
    }

    /// Instances the fault plan has crashed so far.
    #[must_use]
    pub fn crashed_vnfs(&self) -> &HashSet<InstanceId> {
        &self.crashed_vnfs
    }

    /// Propagation latency between two sites' nodes.
    fn prop(&self, a: SiteId, b: SiteId) -> Result<Millis> {
        let model = self.cp.model();
        let d = model.latency(model.site_node(a), model.site_node(b));
        if d.value().is_finite() {
            Ok(d)
        } else {
            Err(Error::forwarding(format!("no path between {a} and {b}")))
        }
    }

    /// Injects a packet into `chain` at the edge instance of
    /// `ingress_site` and walks it through the data plane until it leaves
    /// at an egress edge, a VNF drops it, or the hop bound trips.
    ///
    /// Reverse-direction packets are injected the same way at the original
    /// egress site; the edge's learned pins and the forwarders' reverse
    /// flow-table entries retrace the forward path backwards.
    ///
    /// Implemented as a one-packet [`send_batch`](Self::send_batch).
    ///
    /// # Errors
    ///
    /// - [`Error::Forwarding`] on missing rules, unbound instances (without
    ///   passthrough default), unknown forwarders, or loops.
    pub fn send(&mut self, chain: ChainId, ingress_site: SiteId, packet: Packet) -> Result<Transit> {
        self.send_batch(chain, ingress_site, &[packet])
            .pop()
            .expect("one result per packet")
    }

    /// Injects a burst of packets into `chain` at `ingress_site` and walks
    /// them through the data plane together, returning one [`Transit`] (or
    /// error) per packet, in order.
    ///
    /// The packets advance through the topology in lockstep rounds; within
    /// each round, all packets standing at the same forwarder with the same
    /// previous hop are handed over in one
    /// [`sb_dataplane::Forwarder::process_batch`] call, which amortizes
    /// per-packet dispatch (see the dataplane crate docs). VNF behaviors and
    /// edge instances remain per-packet — they are stateful middleboxes, not
    /// batchable header processing.
    pub fn send_batch(
        &mut self,
        chain: ChainId,
        ingress_site: SiteId,
        packets: &[Packet],
    ) -> Vec<Result<Transit>> {
        self.apply_due_faults();
        let mut results: Vec<Option<Result<Transit>>> = packets.iter().map(|_| None).collect();
        let mut live: Vec<InFlight> = Vec::with_capacity(packets.len());
        {
            let Some(edge) = self.cp.edge_mut().instance_at_mut(ingress_site) else {
                return packets
                    .iter()
                    .map(|_| Err(Error::unknown("edge instance at site", ingress_site)))
                    .collect();
            };
            let edge_addr = edge.addr();
            for (idx, &packet) in packets.iter().enumerate() {
                match edge.ingress(chain, packet) {
                    Ok((pkt, hop)) => live.push(InFlight {
                        idx,
                        pkt,
                        from: edge_addr,
                        hop,
                        hops: vec![edge_addr],
                        latency: Millis::ZERO,
                        site: ingress_site,
                    }),
                    Err(e) => results[idx] = Some(Err(e)),
                }
            }
        }

        for _ in 0..MAX_HOPS {
            if live.is_empty() {
                break;
            }
            live = self.step_round(live, &mut results);
        }
        for flight in live {
            results[flight.idx] = Some(Err(Error::forwarding(format!(
                "hop bound ({MAX_HOPS}) exceeded — forwarding loop?"
            ))));
        }
        results
            .into_iter()
            .map(|r| r.expect("every packet resolved"))
            .collect()
    }

    /// Advances every in-flight packet by one data-plane element. Packets
    /// standing at the same forwarder with the same previous hop are
    /// processed as one batch; completed or failed packets land in
    /// `results`, the rest are returned for the next round.
    fn step_round(
        &mut self,
        live: Vec<InFlight>,
        results: &mut [Option<Result<Transit>>],
    ) -> Vec<InFlight> {
        // Group forwarder-bound packets by (forwarder, previous hop),
        // preserving first-arrival order for determinism.
        let mut groups: Vec<((sb_types::ForwarderId, Addr), Vec<InFlight>)> = Vec::new();
        let mut singles: Vec<InFlight> = Vec::new();
        for flight in live {
            match flight.hop {
                Addr::Forwarder(fid) => {
                    let key = (fid, flight.from);
                    match groups.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, g)) => g.push(flight),
                        None => groups.push((key, vec![flight])),
                    }
                }
                Addr::Vnf(_) | Addr::Edge(_) => singles.push(flight),
            }
        }

        let mut next_live = Vec::new();
        for ((fid, from), group) in groups {
            self.step_forwarder_group(fid, from, group, results, &mut next_live);
        }
        for flight in singles {
            match flight.hop {
                Addr::Vnf(_) => self.step_vnf(flight, results, &mut next_live),
                Addr::Edge(_) => self.step_edge(flight, results),
                Addr::Forwarder(_) => unreachable!("grouped above"),
            }
        }
        next_live
    }

    /// One round's worth of packets arriving at forwarder `fid` from `from`:
    /// charge propagation, then process the whole group in one batch call.
    fn step_forwarder_group(
        &mut self,
        fid: sb_types::ForwarderId,
        from: Addr,
        group: Vec<InFlight>,
        results: &mut [Option<Result<Transit>>],
        next_live: &mut Vec<InFlight>,
    ) {
        let Some(site) = self.cp.forwarder_site(fid) else {
            for g in group {
                results[g.idx] = Some(Err(Error::unknown("forwarder", fid)));
            }
            return;
        };
        // Charge wide-area propagation per packet (sites may differ when
        // reverse traffic converges from several origins). Wide-area hops
        // are where the fault plan's per-packet loss applies: a lost packet
        // vanishes in transit and is reported as an undelivered transit,
        // not a forwarding error.
        let plan = self.cp.fault_plan().cloned();
        let mut arrived = Vec::with_capacity(group.len());
        for mut g in group {
            if site != g.site {
                if let Some(p) = &plan {
                    if p.lock().expect("fault plan lock").packet_is_lost() {
                        g.lose(results);
                        continue;
                    }
                }
                match self.prop(g.site, site) {
                    Ok(d) => {
                        g.latency += d;
                        g.site = site;
                    }
                    Err(e) => {
                        results[g.idx] = Some(Err(e));
                        continue;
                    }
                }
            }
            arrived.push(g);
        }
        if arrived.is_empty() {
            return;
        }
        let Some(fw) = self.cp.local_mut(site).and_then(|l| l.forwarder_mut(fid)) else {
            for g in arrived {
                results[g.idx] = Some(Err(Error::unknown("forwarder", fid)));
            }
            return;
        };
        let mut pkts: Vec<Packet> = arrived.iter().map(|g| g.pkt).collect();
        let outs = fw.process_batch(&mut pkts, from);
        for ((mut g, pkt), res) in arrived.into_iter().zip(pkts).zip(outs) {
            g.hops.push(Addr::Forwarder(fid));
            match res {
                Ok(next) => {
                    g.pkt = pkt;
                    g.from = Addr::Forwarder(fid);
                    g.hop = next;
                    next_live.push(g);
                }
                Err(e) => results[g.idx] = Some(Err(e)),
            }
        }
    }

    /// One packet through its VNF behavior (behaviors are stateful and
    /// per-packet by nature).
    fn step_vnf(
        &mut self,
        mut flight: InFlight,
        results: &mut [Option<Result<Transit>>],
        next_live: &mut Vec<InFlight>,
    ) {
        let Addr::Vnf(instance) = flight.hop else {
            unreachable!("caller dispatches on hop kind");
        };
        flight.hops.push(Addr::Vnf(instance));
        if self.crashed_vnfs.contains(&instance) {
            // The instance died while this packet was in flight (or it is
            // the sole instance of its rule, left as a documented
            // blackhole): the packet is lost at the dead box.
            flight.lose(results);
            return;
        }
        let passthrough_default = self.passthrough_default;
        let behavior = match self.behaviors.entry(instance) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                if passthrough_default {
                    v.insert(Box::new(Passthrough::new(instance)))
                } else {
                    results[flight.idx] = Some(Err(Error::forwarding(format!(
                        "no behavior bound to {instance}"
                    ))));
                    return;
                }
            }
        };
        flight.latency += behavior.processing_delay();
        let Some(out) = behavior.process(flight.pkt) else {
            // Dropped by the VNF (firewall deny, NAT miss).
            flight.lose(results);
            return;
        };
        flight.pkt = out;
        // Back to the forwarder serving this instance.
        let Some(fid) = self
            .cp
            .local(flight.site)
            .and_then(|l| l.forwarder_of_instance(instance))
        else {
            results[flight.idx] = Some(Err(Error::unknown("forwarder of instance", instance)));
            return;
        };
        flight.from = Addr::Vnf(instance);
        flight.hop = Addr::Forwarder(fid);
        next_live.push(flight);
    }

    /// One packet leaving at its egress edge instance.
    fn step_edge(&mut self, mut flight: InFlight, results: &mut [Option<Result<Transit>>]) {
        let Addr::Edge(e) = flight.hop else {
            unreachable!("caller dispatches on hop kind");
        };
        let Some(edge_site) = self.cp.edge_mut().instance_mut(e).map(|i| i.site()) else {
            results[flight.idx] = Some(Err(Error::unknown("edge instance", e)));
            return;
        };
        if edge_site != flight.site {
            // The hop to a remote egress edge is still label-switched, so
            // it is subject to the same per-packet wide-area loss.
            if let Some(p) = self.cp.fault_plan() {
                if p.lock().expect("fault plan lock").packet_is_lost() {
                    flight.lose(results);
                    return;
                }
            }
            match self.prop(flight.site, edge_site) {
                Ok(d) => flight.latency += d,
                Err(err) => {
                    results[flight.idx] = Some(Err(err));
                    return;
                }
            }
        }
        let Some(edge) = self.cp.edge_mut().instance_mut(e) else {
            results[flight.idx] = Some(Err(Error::unknown("edge instance", e)));
            return;
        };
        let out = edge.egress(flight.pkt, flight.from);
        flight.hops.push(Addr::Edge(e));
        results[flight.idx] = Some(Ok(Transit {
            hops: flight.hops,
            latency: flight.latency,
            delivered: true,
            output: Some(out),
        }));
    }
}

/// One packet mid-walk through the data plane (see
/// [`Switchboard::send_batch`]).
struct InFlight {
    /// Index into the caller's packet slice / result vector.
    idx: usize,
    pkt: Packet,
    /// The element the packet last left.
    from: Addr,
    /// The element the packet is about to enter.
    hop: Addr,
    hops: Vec<Addr>,
    latency: Millis,
    /// The site the packet is currently at (for propagation charging).
    site: SiteId,
}

impl InFlight {
    /// Records the packet as lost where it stands: an undelivered transit.
    fn lose(self, results: &mut [Option<Result<Transit>>]) {
        results[self.idx] = Some(Ok(Transit {
            hops: self.hops,
            latency: self.latency,
            delivered: false,
            output: None,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use sb_controller::ChainRequest;
    use sb_types::{FlowKey, VnfId};

    fn two_vnf_chain() -> (Switchboard, ChainId, SiteId, SiteId) {
        let (model, sites) = scenarios::line_testbed();
        let mut sb = Switchboard::new(
            model,
            DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
            SwitchboardConfig::default(),
        );
        sb.use_passthrough_behaviors();
        sb.register_attachment("in", sites[0]);
        sb.register_attachment("out", sites[3]);
        let chain = ChainId::new(1);
        sb.deploy_chain(ChainRequest {
            id: chain,
            ingress_attachment: "in".into(),
            egress_attachment: "out".into(),
            vnfs: vec![VnfId::new(0), VnfId::new(1)],
            forward: 5.0,
            reverse: 1.0,
        })
        .unwrap();
        (sb, chain, sites[0], sites[3])
    }

    #[test]
    fn packet_traverses_both_vnfs_in_order() {
        let (mut sb, chain, ingress, _) = two_vnf_chain();
        let key = FlowKey::tcp([10, 0, 0, 1], 5000, [10, 9, 9, 9], 80);
        let t = sb.send(chain, ingress, Packet::unlabeled(key, 500)).unwrap();
        assert!(t.delivered);
        assert_eq!(t.vnf_instances().len(), 2, "{:?}", t.hops);
        // Output is unlabeled (egress stripped).
        assert!(t.output.unwrap().labels.is_none());
        assert!(t.latency.value() > 0.0);
    }

    #[test]
    fn flow_affinity_across_packets() {
        let (mut sb, chain, ingress, _) = two_vnf_chain();
        let key = FlowKey::tcp([10, 0, 0, 1], 5000, [10, 9, 9, 9], 80);
        let first = sb
            .send(chain, ingress, Packet::unlabeled(key, 500))
            .unwrap();
        for _ in 0..5 {
            let again = sb
                .send(chain, ingress, Packet::unlabeled(key, 500))
                .unwrap();
            assert_eq!(again.vnf_instances(), first.vnf_instances());
            assert_eq!(again.forwarders(), first.forwarders());
        }
    }

    #[test]
    fn symmetric_return_retraces_instances() {
        let (mut sb, chain, ingress, egress) = two_vnf_chain();
        let key = FlowKey::tcp([10, 0, 0, 1], 5000, [10, 9, 9, 9], 80);
        let fwd = sb
            .send(chain, ingress, Packet::unlabeled(key, 500))
            .unwrap();
        let rev = sb
            .send(chain, egress, Packet::unlabeled(key.reversed(), 500))
            .unwrap();
        assert!(rev.delivered);
        let mut expect = fwd.vnf_instances();
        expect.reverse();
        assert_eq!(rev.vnf_instances(), expect, "reverse must retrace");
    }

    #[test]
    fn unbound_instance_without_passthrough_errors() {
        let (model, sites) = scenarios::line_testbed();
        let mut sb = Switchboard::new(
            model,
            DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
            SwitchboardConfig::default(),
        );
        sb.register_attachment("in", sites[0]);
        sb.register_attachment("out", sites[3]);
        let chain = ChainId::new(1);
        sb.deploy_chain(ChainRequest {
            id: chain,
            ingress_attachment: "in".into(),
            egress_attachment: "out".into(),
            vnfs: vec![VnfId::new(0)],
            forward: 1.0,
            reverse: 0.0,
        })
        .unwrap();
        let key = FlowKey::tcp([1, 1, 1, 1], 1, [2, 2, 2, 2], 2);
        assert!(sb.send(chain, sites[0], Packet::unlabeled(key, 64)).is_err());
    }

    #[test]
    fn vnf_drop_is_reported_not_error() {
        let (model, sites) = scenarios::line_testbed();
        let mut sb = Switchboard::new(
            model,
            DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
            SwitchboardConfig::default(),
        );
        sb.register_attachment("in", sites[0]);
        sb.register_attachment("out", sites[3]);
        let chain = ChainId::new(1);
        let handle = sb
            .deploy_chain(ChainRequest {
                id: chain,
                ingress_attachment: "in".into(),
                egress_attachment: "out".into(),
                vnfs: vec![VnfId::new(0)],
                forward: 1.0,
                reverse: 0.0,
            })
            .unwrap();
        // Bind deny-all firewalls to every instance of the first VNF at the
        // chosen site.
        let site = handle.routes[0].sites[0];
        let ctl = sb.control_plane().vnf_controller(VnfId::new(0)).unwrap();
        let instances = ctl.instances_at(site);
        for rec in instances {
            sb.register_behavior(Box::new(sb_vnfs::Firewall::new(
                rec.instance,
                vec![sb_vnfs::FirewallRule::deny_all()],
            )));
        }
        let key = FlowKey::tcp([1, 1, 1, 1], 1, [2, 2, 2, 2], 2);
        let t = sb
            .send(chain, sites[0], Packet::unlabeled(key, 64))
            .unwrap();
        assert!(!t.delivered);
        assert!(t.output.is_none());
    }

    #[test]
    fn send_batch_matches_sequential_sends() {
        // The same burst through two identical deployments: per-packet
        // `send` on one, a single `send_batch` on the other. Every packet
        // must take the same path with the same outcome.
        let (mut seq_sb, chain, ingress, _) = two_vnf_chain();
        let (mut batch_sb, _, _, _) = two_vnf_chain();
        let packets: Vec<Packet> = (0..20u16)
            .map(|p| {
                let key = FlowKey::tcp([10, 0, 0, 1], 5000 + p % 6, [10, 9, 9, 9], 80);
                Packet::unlabeled(key, 500)
            })
            .collect();

        let seq: Vec<Transit> = packets
            .iter()
            .map(|&p| seq_sb.send(chain, ingress, p).unwrap())
            .collect();
        let batch = batch_sb.send_batch(chain, ingress, &packets);

        assert_eq!(seq.len(), batch.len());
        for (i, (s, b)) in seq.iter().zip(&batch).enumerate() {
            let b = b.as_ref().unwrap_or_else(|e| panic!("packet {i}: {e}"));
            assert!(b.delivered, "packet {i}");
            assert_eq!(s.hops, b.hops, "packet {i}: path");
            assert_eq!(s.output, b.output, "packet {i}: output");
        }
    }

    #[test]
    fn send_batch_reports_per_packet_outcomes() {
        let (mut sb, chain, ingress, _) = two_vnf_chain();
        let key = FlowKey::tcp([10, 0, 0, 1], 5000, [10, 9, 9, 9], 80);
        let burst = vec![Packet::unlabeled(key, 500); 8];
        let results = sb.send_batch(chain, ingress, &burst);
        assert_eq!(results.len(), 8);
        let first = results[0].as_ref().unwrap();
        for r in &results {
            let t = r.as_ref().unwrap();
            assert!(t.delivered);
            // Flow affinity holds within the burst: one flow, one path.
            assert_eq!(t.vnf_instances(), first.vnf_instances());
        }
    }
}
