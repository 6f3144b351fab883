//! End-to-end properties of the epoch-versioned incremental update
//! pipeline (DESIGN.md §10):
//!
//! - make-before-break: across an `update_chain` no packet is black-holed
//!   or misrouted — established flows drain on the old epoch's rules via
//!   their flow-table pins, new flows land on the new routes;
//! - teardown symmetry: `remove_chain` releases capacity AND strips every
//!   layer of data-plane state, so the chain's label space is fully
//!   reusable;
//! - forwarder restarts (fault-plan driven) wipe only volatile flow state:
//!   surviving flows re-pin deterministically from the installed rules.

use switchboard::faults::FaultSpec;
use switchboard::netsim::SimTime;
use switchboard::prelude::*;
use switchboard::scenarios;

fn testbed(spec: Option<FaultSpec>) -> (Switchboard, Vec<SiteId>) {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig {
            faults: spec,
            ..SwitchboardConfig::default()
        },
    );
    sb.use_passthrough_behaviors();
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    (sb, sites)
}

fn request(id: u64) -> ChainRequest {
    ChainRequest {
        id: ChainId::new(id),
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![VnfId::new(0)],
        forward: 10.0,
        reverse: 2.0,
    }
}

fn flow(i: u16) -> FlowKey {
    FlowKey::tcp([10, 0, (i >> 8) as u8, i as u8], 1000 + i, [10, 9, 9, 9], 80)
}

/// The site hosting `instance`, resolved through the local switchboards.
fn site_of_instance(sb: &Switchboard, instance: InstanceId, sites: &[SiteId]) -> SiteId {
    for &s in sites {
        if let Some(local) = sb.control_plane().local(s) {
            if local.forwarder_of_instance(instance).is_some() {
                return s;
            }
        }
    }
    panic!("instance {instance} not attached at any site");
}

#[test]
fn no_packet_is_dropped_or_misrouted_across_updates() {
    let (mut sb, sites) = testbed(None);
    let chain = ChainId::new(1);
    sb.deploy_chain_via(request(1), vec![(vec![sites[1]], 1.0)])
        .unwrap();

    // Establish flows: all pin at site 1.
    let established: Vec<FlowKey> = (0..8).map(flow).collect();
    let mut pinned_path = Vec::new();
    for key in &established {
        let t = sb.send(chain, sites[0], Packet::unlabeled(*key, 500)).unwrap();
        assert!(t.delivered);
        let inst = t.vnf_instances();
        assert_eq!(inst.len(), 1, "conformity");
        assert_eq!(site_of_instance(&sb, inst[0], &sites), sites[1]);
        pinned_path.push(inst);
    }

    // Move the chain entirely to site 2 — make-before-break.
    sb.update_chain(chain, vec![(vec![sites[2]], 1.0)]).unwrap();

    // Established flows keep draining on their old pins: delivered, same
    // instance path as before the update, zero drops.
    for (key, before) in established.iter().zip(&pinned_path) {
        let t = sb.send(chain, sites[0], Packet::unlabeled(*key, 500)).unwrap();
        assert!(t.delivered, "established flow black-holed by update");
        assert_eq!(&t.vnf_instances(), before, "established flow misrouted");
    }

    // New flows land on the new route only.
    for i in 100..108 {
        let t = sb
            .send(chain, sites[0], Packet::unlabeled(flow(i), 500))
            .unwrap();
        assert!(t.delivered, "new flow dropped after update");
        let inst = t.vnf_instances();
        assert_eq!(inst.len(), 1);
        assert_eq!(
            site_of_instance(&sb, inst[0], &sites),
            sites[2],
            "new flow must use the new epoch's route"
        );
    }

    // Flip back and forth with traffic between every step: the pipeline
    // must never leave a window where packets are lost.
    for (round, target) in [(0u16, sites[1]), (1, sites[2]), (2, sites[1])] {
        sb.update_chain(chain, vec![(vec![target], 1.0)]).unwrap();
        for i in 0..8 {
            let key = flow(1000 + round * 16 + i);
            let t = sb.send(chain, sites[0], Packet::unlabeled(key, 500)).unwrap();
            assert!(t.delivered, "round {round}: drop during churn");
            let inst = t.vnf_instances();
            assert_eq!(site_of_instance(&sb, inst[0], &sites), target);
            // Reverse direction also survives the churn.
            let rev = sb
                .send(chain, sites[3], Packet::unlabeled(key.reversed(), 500))
                .unwrap();
            assert!(rev.delivered, "round {round}: reverse drop during churn");
        }
    }
}

#[test]
fn split_shift_update_serves_both_routes_without_drops() {
    let (mut sb, sites) = testbed(None);
    let chain = ChainId::new(1);
    sb.deploy_chain_via(
        request(1),
        vec![(vec![sites[1]], 0.7), (vec![sites[2]], 0.3)],
    )
    .unwrap();
    // Shift the split; both site sequences survive, fractions change, so
    // the update is pure modify — no routes added or removed.
    let h = sb
        .update_chain(
            chain,
            vec![(vec![sites[1]], 0.4), (vec![sites[2]], 0.6)],
        )
        .unwrap();
    assert_eq!(h.routes.len(), 2);
    let mut site1 = 0u32;
    let mut site2 = 0u32;
    for i in 0..64 {
        let t = sb
            .send(chain, sites[0], Packet::unlabeled(flow(i), 500))
            .unwrap();
        assert!(t.delivered, "drop after split shift");
        let inst = t.vnf_instances();
        assert_eq!(inst.len(), 1);
        match site_of_instance(&sb, inst[0], &sites) {
            s if s == sites[1] => site1 += 1,
            s if s == sites[2] => site2 += 1,
            s => panic!("flow routed through non-chain site {s}"),
        }
    }
    // Both routes carry traffic under the new weights.
    assert!(site1 > 0, "site 1 starved after shift");
    assert!(site2 > 0, "site 2 starved after shift");
    assert!(
        site2 > site1,
        "majority weight must attract the majority of flows ({site1} vs {site2})"
    );
}

#[test]
fn remove_chain_is_symmetric_through_every_layer() {
    let (mut sb, sites) = testbed(None);
    let chain = ChainId::new(1);
    let h = sb
        .deploy_chain_via(request(1), vec![(vec![sites[1]], 1.0)])
        .unwrap();
    let labels = h.routes[0].labels;
    let t = sb
        .send(chain, sites[0], Packet::unlabeled(flow(1), 500))
        .unwrap();
    assert!(t.delivered);

    let report = sb.remove_chain(chain).unwrap();
    // Teardown shrinks only — no 2PC participants — but does pay WAN
    // propagation of the removal delta.
    assert_eq!(report.participants_2pc, 0);
    assert!(report.wan_messages >= 1);

    // Capacity fully released.
    let ctl = sb.control_plane().vnf_controller(VnfId::new(0)).unwrap();
    assert!((ctl.available_at(sites[1]) - 200.0).abs() < 1e-9);
    // The chain's routes are gone, and so are the rules at the hosting site.
    assert!(sb.routes_of(chain).is_empty());
    let local = sb.control_plane().local(sites[1]).unwrap();
    for fid in local.forwarder_ids() {
        let fwd = local.forwarder(fid).unwrap();
        assert!(
            fwd.active_epoch(labels).is_none(),
            "forwarder rules must be removed on teardown"
        );
    }
    // New flows for the removed chain are refused at the edge.
    assert!(sb
        .send(chain, sites[0], Packet::unlabeled(flow(2), 500))
        .is_err());
}

#[test]
fn forwarder_restart_wipes_pins_and_flows_repin_deterministically() {
    let run = || {
        let spec = FaultSpec::new(77)
            .with_forwarder_restart(SiteId::new(1), SimTime::from_millis(1.0));
        let (mut sb, sites) = testbed(Some(spec));
        let chain = ChainId::new(1);
        sb.deploy_chain_via(request(1), vec![(vec![sites[1]], 1.0)])
            .unwrap();
        // Pin a handful of flows before the restart fires (the control
        // plane's virtual clock is already past 1 ms after deployment, so
        // the next send batch applies the restart first).
        let keys: Vec<FlowKey> = (0..6).map(flow).collect();
        let mut paths = Vec::new();
        for key in &keys {
            let t = sb.send(chain, sites[0], Packet::unlabeled(*key, 500)).unwrap();
            assert!(t.delivered);
            paths.push(t.vnf_instances());
        }
        // All surviving flows must still deliver after the restart —
        // rules come back from the controller's persistent store; only
        // the volatile pins were lost, and each flow re-pins on its next
        // packet, then stays pinned.
        let mut repinned = Vec::new();
        for key in &keys {
            let t = sb.send(chain, sites[0], Packet::unlabeled(*key, 500)).unwrap();
            assert!(t.delivered, "flow lost across forwarder restart");
            let path = t.vnf_instances();
            let again = sb.send(chain, sites[0], Packet::unlabeled(*key, 500)).unwrap();
            assert_eq!(again.vnf_instances(), path, "re-pin must stick");
            repinned.push(path);
        }
        let stats = *sb
            .control_plane()
            .fault_plan()
            .expect("plan configured")
            .lock()
            .unwrap()
            .stats();
        assert_eq!(stats.forwarder_restarts, 1, "restart must fire exactly once");
        (paths, repinned)
    };
    // Determinism: two identical runs pin and re-pin identically.
    let (a_before, a_after) = run();
    let (b_before, b_after) = run();
    assert_eq!(a_before, b_before);
    assert_eq!(a_after, b_after);
}
