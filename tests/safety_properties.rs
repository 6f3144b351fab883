//! Integration: the three Section 5.3 safety properties, end-to-end
//! through deployed chains with *stateful* VNFs whose correctness depends
//! on them.

use std::collections::HashMap;
use switchboard::prelude::*;

/// Two-site deployment with a firewall VNF and a NAT VNF, both at the
/// middle site, several instances each.
fn stateful_testbed() -> (Switchboard, ChainId, SiteId, SiteId) {
    let mut tb = TopologyBuilder::new();
    let a = tb.add_node("a", (0.0, 0.0), 1.0);
    let m = tb.add_node("m", (0.0, 1.0), 1.0);
    let z = tb.add_node("z", (0.0, 2.0), 1.0);
    tb.add_duplex_link(a, m, 1000.0, Millis::new(5.0));
    tb.add_duplex_link(m, z, 1000.0, Millis::new(5.0));
    let mut b = NetworkModel::builder(tb.build());
    let sa = b.add_site(a, 1e6);
    let sm = b.add_site(m, 1e6);
    let sz = b.add_site(z, 1e6);
    let fw = b.add_vnf(HashMap::from([(sm, 1e6)]), 1.0);
    let nat = b.add_vnf(HashMap::from([(sm, 1e6)]), 1.0);
    let model = b.build().unwrap();

    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(5.0)),
        SwitchboardConfig {
            control: ControlPlaneConfig {
                instances_per_site: 3, // several instances: affinity matters
                ..ControlPlaneConfig::default()
            },
            ..SwitchboardConfig::default()
        },
    );
    sb.register_attachment("client-side", sa);
    sb.register_attachment("server-side", sz);
    let chain = ChainId::new(1);
    sb.deploy_chain(ChainRequest {
        id: chain,
        ingress_attachment: "client-side".into(),
        egress_attachment: "server-side".into(),
        vnfs: vec![fw, nat],
        forward: 10.0,
        reverse: 2.0,
    })
    .unwrap();

    // Bind stateful behaviors: a firewall allowing outbound TCP :443 and
    // a NAT with a unique public /32 per instance.
    for (i, rec) in sb
        .control_plane()
        .vnf_controller(fw)
        .unwrap()
        .instances_at(sm)
        .into_iter()
        .enumerate()
    {
        let _ = i;
        sb.register_behavior(Box::new(Firewall::new(
            rec.instance,
            vec![FirewallRule {
                protocol: Some(switchboard::types::IpProtocol::Tcp),
                dst_port: Some(443),
                src_prefix: None,
                action: FirewallAction::Allow,
            }],
        )));
    }
    for (i, rec) in sb
        .control_plane()
        .vnf_controller(nat)
        .unwrap()
        .instances_at(sm)
        .into_iter()
        .enumerate()
    {
        sb.register_behavior(Box::new(Nat::new(
            rec.instance,
            [203, 0, 113, 10 + i as u8],
            40_000..50_000,
        )));
    }
    (sb, chain, sa, sz)
}

fn key(port: u16) -> FlowKey {
    FlowKey::tcp([10, 0, 0, 1], port, [93, 184, 216, 34], 443)
}

#[test]
fn conformity_every_flow_crosses_firewall_then_nat() {
    let (mut sb, chain, sa, _) = stateful_testbed();
    for p in 0..100 {
        let t = sb
            .send(chain, sa, Packet::unlabeled(key(1000 + p), 700))
            .unwrap();
        assert!(t.delivered, "flow {p} dropped");
        let vnfs = t.vnf_instances();
        assert_eq!(vnfs.len(), 2, "flow {p}: wrong VNF count: {vnfs:?}");
        // Conformity includes ordering: the NAT's rewrite is visible only
        // if it ran after the firewall admitted the packet.
        let out = t.output.unwrap();
        assert_eq!(out.key.src_ip().octets()[0], 203, "NAT must be last");
    }
}

#[test]
fn full_round_trip_with_stateful_vnfs() {
    let (mut sb, chain, sa, sz) = stateful_testbed();
    for p in 0..50 {
        let k = key(5000 + p);
        let fwd = sb.send(chain, sa, Packet::unlabeled(k, 700)).unwrap();
        assert!(fwd.delivered);
        let out = fwd.output.unwrap();

        // The server replies to the NAT's public endpoint. This reply can
        // only survive if (a) it reaches the same NAT instance (which holds
        // the binding) and (b) it reaches the same firewall instance (which
        // holds the connection state) — i.e. iff symmetric return holds.
        let reply = Packet::unlabeled(out.key.reversed(), 700);
        let rev = sb.send(chain, sz, reply).unwrap();
        assert!(rev.delivered, "reply {p} dropped: symmetric return broken");
        let back = rev.output.unwrap();
        assert_eq!(back.key.dst_ip(), k.src_ip());
        assert_eq!(back.key.dst_port(), k.src_port());

        // And the reverse instances are the forward ones, reversed.
        let mut expect = fwd.vnf_instances();
        expect.reverse();
        assert_eq!(rev.vnf_instances(), expect);
    }
}

#[test]
fn unsolicited_inbound_traffic_is_blocked() {
    let (mut sb, chain, _sa, sz) = stateful_testbed();
    // A packet from the internet to a host behind the chain, with no
    // forward-direction state anywhere: the firewall must drop it.
    let stray = FlowKey::tcp([93, 184, 216, 34], 443, [203, 0, 113, 10], 40_000);
    let t = sb.send(chain, sz, Packet::unlabeled(stray, 700));
    // Either outcome blocks the traffic: a drop inside the chain, or no
    // route/pin from that side at all.
    if let Ok(t) = t {
        assert!(!t.delivered, "unsolicited traffic must not pass");
    }
}

#[test]
fn load_spreads_across_instances_with_affinity_per_flow() {
    let (mut sb, chain, sa, _) = stateful_testbed();
    let mut first_seen: HashMap<FlowKey, Vec<InstanceId>> = HashMap::new();
    let mut per_instance: HashMap<InstanceId, u32> = HashMap::new();
    for p in 0..300 {
        let k = key(20_000 + p);
        let t = sb.send(chain, sa, Packet::unlabeled(k, 700)).unwrap();
        let insts = t.vnf_instances();
        per_instance
            .entry(insts[0])
            .and_modify(|c| *c += 1)
            .or_insert(1);
        first_seen.insert(k, insts);
    }
    // Affinity: replaying every flow hits the identical instances.
    for (k, insts) in &first_seen {
        let t = sb.send(chain, sa, Packet::unlabeled(*k, 700)).unwrap();
        assert_eq!(&t.vnf_instances(), insts);
    }
    // Spread: with 3 equal-weight firewall instances, each should see a
    // substantial share of the 300 flows.
    assert!(per_instance.len() >= 2, "{per_instance:?}");
    for (&inst, &count) in &per_instance {
        assert!(
            count > 30,
            "instance {inst} starved: {count}/300 ({per_instance:?})"
        );
    }
}
