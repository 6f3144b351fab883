//! Integration: label-unaware VNFs (Section 5.3's conformity mechanism).
//!
//! "Some VNFs may not support these labels ... Forwarders strip the labels
//! before sending the packet to such VNFs" and re-affix them afterwards,
//! using the instance ↔ label association. This test registers instances
//! declared label-unaware with the VNF controller, binds behaviors that
//! *record* whether labels reached them, and verifies that the data plane
//! strips on the way in, re-affixes on the way out, and still delivers
//! end-to-end in both directions.

use sb_controller::InstanceRecord;
use std::cell::Cell;
use std::rc::Rc;
use switchboard::prelude::*;
use switchboard::scenarios;

/// A probe VNF that records whether any packet arrived carrying labels.
struct LabelProbe {
    instance: InstanceId,
    saw_labels: Rc<Cell<bool>>,
    processed: Rc<Cell<u32>>,
}

impl VnfBehavior for LabelProbe {
    fn instance(&self) -> InstanceId {
        self.instance
    }
    fn kind(&self) -> &'static str {
        "label-probe"
    }
    fn supports_labels(&self) -> bool {
        false
    }
    fn process(&mut self, packet: Packet) -> Option<Packet> {
        if packet.labels.is_some() {
            self.saw_labels.set(true);
        }
        self.processed.set(self.processed.get() + 1);
        Some(packet)
    }
}

#[test]
fn label_unaware_instances_get_stripped_and_reaffixed_end_to_end() {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);

    // Replace VNF 0's auto-created instances at both sites with
    // label-unaware ones BEFORE any chain is deployed, so the rule
    // installation registers the strip/re-affix association.
    let saw_labels = Rc::new(Cell::new(false));
    let processed = Rc::new(Cell::new(0));
    let mut probe_ids = Vec::new();
    for &site in &[sites[1], sites[2]] {
        let id = sb.control_plane_mut().allocate_instance_id();
        sb.control_plane_mut()
            .set_instances(
                VnfId::new(0),
                site,
                vec![InstanceRecord {
                    instance: id,
                    weight: 1.0,
                    supports_labels: false,
                }],
            )
            .unwrap();
        probe_ids.push(id);
    }
    for &id in &probe_ids {
        sb.register_behavior(Box::new(LabelProbe {
            instance: id,
            saw_labels: Rc::clone(&saw_labels),
            processed: Rc::clone(&processed),
        }));
    }

    let chain = ChainId::new(1);
    sb.deploy_chain(ChainRequest {
        id: chain,
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![VnfId::new(0)],
        forward: 5.0,
        reverse: 1.0,
    })
    .unwrap();

    // Forward and reverse traffic across several connections.
    for p in 0..20 {
        let key = FlowKey::tcp([10, 0, 0, 1], 1000 + p, [10, 9, 9, 9], 80);
        let fwd = sb
            .send(chain, sites[0], Packet::unlabeled(key, 500))
            .unwrap();
        assert!(fwd.delivered);
        assert_eq!(fwd.vnf_instances().len(), 1);
        // The instance traversed must be one of our probes.
        assert!(probe_ids.contains(&fwd.vnf_instances()[0]));

        let rev = sb
            .send(chain, sites[3], Packet::unlabeled(key.reversed(), 500))
            .unwrap();
        assert!(rev.delivered, "reverse must survive re-affixed labels");
    }

    assert!(processed.get() >= 40, "probes saw the traffic");
    assert!(
        !saw_labels.get(),
        "label-unaware instances must never receive labeled packets"
    );
}

/// A forwarder re-affixes one label pair per label-unaware instance, so
/// the instance can serve one route: a second route through it would get
/// the first one's labels back, or the first the second's. The VNF
/// controller vetoes the second reservation instead — a forced deploy
/// fails before anything is installed, SB-DP routes around the site, and
/// retiring the route frees the instance.
#[test]
fn a_label_unaware_instance_serves_one_route() {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    sb.register_attachment("in", sites[0]);
    let out = sb.register_attachment("out", sites[3]);
    let out2 = sb.register_attachment("out2", sites[1]);
    let id = sb.control_plane_mut().allocate_instance_id();
    sb.control_plane_mut()
        .set_instances(
            VnfId::new(0),
            sites[1],
            vec![InstanceRecord {
                instance: id,
                weight: 1.0,
                supports_labels: false,
            }],
        )
        .unwrap();
    sb.register_behavior(Box::new(LabelProbe {
        instance: id,
        saw_labels: Rc::new(Cell::new(false)),
        processed: Rc::new(Cell::new(0)),
    }));
    let request = |chain: u64, egress: &str| ChainRequest {
        id: ChainId::new(chain),
        ingress_attachment: "in".into(),
        egress_attachment: egress.into(),
        vnfs: vec![VnfId::new(0)],
        forward: 5.0,
        reverse: 1.0,
    };
    let via_unaware = || vec![(vec![sites[1]], 1.0)];
    // The instance a chain's packet crossed, and where it left the chain.
    let exits_at = |sb: &mut Switchboard, chain: u64, port: u16| {
        let key = FlowKey::tcp([10, 0, 0, 1], port, [10, 9, 9, 9], 80);
        let t = sb
            .send(ChainId::new(chain), sites[0], Packet::unlabeled(key, 500))
            .unwrap();
        assert!(t.delivered, "chain {chain} packet {port} dropped");
        (
            t.vnf_instances()[0],
            *t.hops.last().expect("delivered packets have hops"),
        )
    };

    sb.deploy_chain_via(request(1, "out"), via_unaware())
        .unwrap();
    let second = sb.deploy_chain_via(request(2, "out2"), via_unaware());
    for port in 0..20 {
        let (_, exit) = exits_at(&mut sb, 1, 1000 + port);
        assert_eq!(
            exit,
            Addr::Edge(out),
            "chain 1 packet {port} delivered at {exit}"
        );
    }
    assert!(
        matches!(
            second,
            Err(switchboard::types::Error::CommitRejected { .. })
        ),
        "{second:?}"
    );

    // SB-DP takes the veto and routes the second chain around the site.
    let retries = |sb: &Switchboard| sb.telemetry().registry.snapshot().counter("cp.2pc.retries");
    let before = retries(&sb);
    let routed = sb.deploy_chain(request(2, "out2")).unwrap();
    assert_eq!(
        retries(&sb),
        before + 1,
        "SB-DP proposed the site and was vetoed once"
    );
    assert!(routed.routes.iter().all(|r| r.sites != vec![sites[1]]));
    let (instance, exit) = exits_at(&mut sb, 2, 2000);
    assert_ne!(instance, id);
    assert_eq!(exit, Addr::Edge(out2));
    assert_eq!(exits_at(&mut sb, 1, 1000), (id, Addr::Edge(out)));

    // Adding a route through the site fails before anything is installed:
    // the chain keeps serving on its old epoch.
    let err = sb
        .add_route_via(ChainId::new(2), vec![sites[1]])
        .unwrap_err();
    assert!(
        matches!(err, switchboard::types::Error::CommitRejected { .. }),
        "{err}"
    );
    assert_eq!(sb.routes_of(ChainId::new(2)), routed.routes);
    assert_eq!(exits_at(&mut sb, 2, 2001), (instance, Addr::Edge(out2)));

    // Removing the first chain frees the instance for another route.
    sb.remove_chain(ChainId::new(1)).unwrap();
    sb.deploy_chain_via(request(3, "out2"), via_unaware())
        .unwrap();
    assert_eq!(exits_at(&mut sb, 3, 3000), (id, Addr::Edge(out2)));
}

/// A VNF site left with no instances has capacity but nothing to serve it
/// with, so its controller vetoes the reservation: a forced deploy through
/// it fails before anything is reserved, and SB-DP routes around it.
#[test]
fn a_vnf_site_without_instances_vetoes_its_reservation() {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    sb.control_plane_mut()
        .set_instances(VnfId::new(0), sites[1], vec![])
        .unwrap();
    let available = |sb: &Switchboard| {
        sb.control_plane()
            .vnf_controller(VnfId::new(0))
            .unwrap()
            .available_at(sites[1])
    };
    let request = ChainRequest {
        id: ChainId::new(1),
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![VnfId::new(0), VnfId::new(1)],
        forward: 5.0,
        reverse: 1.0,
    };

    let err = sb
        .deploy_chain_via(request.clone(), vec![(vec![sites[1], sites[1]], 1.0)])
        .unwrap_err();
    assert!(
        matches!(err, switchboard::types::Error::CommitRejected { .. }),
        "{err}"
    );
    assert!(sb.routes_of(ChainId::new(1)).is_empty());
    assert!(
        (available(&sb) - 200.0).abs() < 1e-9,
        "{} reserved",
        200.0 - available(&sb)
    );

    let routed = sb.deploy_chain(request).unwrap();
    assert!(routed.routes.iter().all(|r| r.sites[0] != sites[1]));
    let key = FlowKey::tcp([10, 0, 0, 1], 1000, [10, 9, 9, 9], 80);
    let t = sb
        .send(ChainId::new(1), sites[0], Packet::unlabeled(key, 500))
        .unwrap();
    assert!(t.delivered);
    assert!((available(&sb) - 200.0).abs() < 1e-9);
}

/// The recompute after a 2PC veto is admission-controlled like the first
/// solve: when the surviving capacity places only part of the chain's
/// demand, the deploy fails `Infeasible` and reserves nothing, instead of
/// installing a chain whose ingress sends all its traffic down a route
/// sized for half of it.
#[test]
fn a_vetoed_deploy_that_cannot_place_its_demand_is_refused() {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    let id = sb.control_plane_mut().allocate_instance_id();
    sb.control_plane_mut()
        .set_instances(
            VnfId::new(0),
            sites[1],
            vec![InstanceRecord {
                instance: id,
                weight: 1.0,
                supports_labels: false,
            }],
        )
        .unwrap();
    let request = |chain: u64, rate: f64| ChainRequest {
        id: ChainId::new(chain),
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![VnfId::new(0)],
        forward: rate,
        reverse: rate,
    };
    let available = |sb: &Switchboard, site: SiteId| {
        sb.control_plane()
            .vnf_controller(VnfId::new(0))
            .unwrap()
            .available_at(site)
    };
    // Chain 1 takes the label-unaware instance at sites[1]; chain 3
    // leaves 40 of the 200 units at sites[2].
    sb.deploy_chain_via(request(1, 5.0), vec![(vec![sites[1]], 1.0)])
        .unwrap();
    sb.deploy_chain_via(request(3, 40.0), vec![(vec![sites[2]], 1.0)])
        .unwrap();
    assert!((available(&sb, sites[2]) - 40.0).abs() < 1e-9);

    // Chain 2 needs 80 units. SB-DP proposes the nearer sites[1], is
    // vetoed there, and the recompute fits only half of it at sites[2].
    let retries = |sb: &Switchboard| sb.telemetry().registry.snapshot().counter("cp.2pc.retries");
    let before = retries(&sb);
    let res = sb.deploy_chain(request(2, 20.0));
    assert_eq!(retries(&sb), before + 1, "SB-DP was vetoed once");
    assert!(
        matches!(res, Err(switchboard::types::Error::Infeasible { .. })),
        "{res:?}"
    );
    assert!(sb.routes_of(ChainId::new(2)).is_empty());
    assert!((available(&sb, sites[2]) - 40.0).abs() < 1e-9);
}
