//! Integration: the full chain lifecycle across control plane, message
//! bus, traffic engineering and data plane.

use std::collections::{BTreeSet, HashMap};
use switchboard::controller::InstanceRecord;
use switchboard::dataplane::artifact::{decode, encode};
use switchboard::dataplane::{ArtifactKind, Forwarder, ForwarderArtifact};
use switchboard::prelude::*;
use switchboard::scenarios;

/// The line testbed with both attachments registered and nothing deployed.
fn testbed() -> (Switchboard, Vec<SiteId>) {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(20.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    (sb, sites)
}

fn request(chain: ChainId) -> ChainRequest {
    ChainRequest {
        id: chain,
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![VnfId::new(0), VnfId::new(1)],
        forward: 5.0,
        reverse: 1.0,
    }
}

fn deploy() -> (Switchboard, ChainId, Vec<SiteId>) {
    let (mut sb, sites) = testbed();
    let chain = ChainId::new(1);
    sb.deploy_chain(request(chain)).expect("deploys");
    (sb, chain, sites)
}

fn key(port: u16) -> FlowKey {
    FlowKey::tcp([10, 0, 0, 1], port, [10, 9, 9, 9], 443)
}

#[test]
fn traffic_flows_immediately_after_deployment() {
    let (mut sb, chain, sites) = deploy();
    for p in 0..50 {
        let t = sb
            .send(chain, sites[0], Packet::unlabeled(key(1000 + p), 700))
            .expect("forwarded");
        assert!(t.delivered);
        assert_eq!(t.vnf_instances().len(), 2, "both VNFs traversed");
    }
}

#[test]
fn route_addition_preserves_established_flows() {
    let (mut sb, chain, sites) = deploy();

    // Establish 30 connections on the single-route chain.
    let mut pinned = Vec::new();
    for p in 0..30 {
        let t = sb
            .send(chain, sites[0], Packet::unlabeled(key(2000 + p), 700))
            .unwrap();
        pinned.push((key(2000 + p), t.vnf_instances(), t.forwarders()));
    }

    // Add a second route via whichever middle site the first route did
    // not use.
    let first_site = sb.routes_of(chain)[0].sites[0];
    let other = if first_site == sites[1] { sites[2] } else { sites[1] };
    let (_, report) = sb
        .add_route_via(chain, vec![other, other])
        .expect("route added");
    assert!(report.total().value() > 0.0);
    assert_eq!(sb.routes_of(chain).len(), 2);

    // Every established connection keeps its exact instance path.
    for (k, insts, fwds) in &pinned {
        let t = sb.send(chain, sites[0], Packet::unlabeled(*k, 700)).unwrap();
        assert_eq!(&t.vnf_instances(), insts, "affinity broken by route add");
        assert_eq!(&t.forwarders(), fwds);
    }

    // New connections split across both routes (fractions 0.5/0.5).
    let mut old_route = 0u32;
    let mut new_route = 0u32;
    for p in 0..600 {
        let t = sb
            .send(chain, sites[0], Packet::unlabeled(key(10_000 + p), 700))
            .unwrap();
        // Identify the route by which middle site's forwarder it used.
        let via_other = t
            .forwarders()
            .iter()
            .any(|f| sb.control_plane().forwarder_site(*f) == Some(other));
        if via_other {
            new_route += 1;
        } else {
            old_route += 1;
        }
    }
    let frac = f64::from(new_route) / f64::from(old_route + new_route);
    assert!(
        (frac - 0.5).abs() < 0.1,
        "new connections should split evenly, got {frac}"
    );
}

#[test]
fn removal_releases_vnf_capacity() {
    let (mut sb, chain, _) = deploy();
    let routes = sb.routes_of(chain);
    let site = routes[0].sites[0];
    let before = sb
        .control_plane()
        .vnf_controller(VnfId::new(0))
        .unwrap()
        .available_at(site);
    sb.control_plane_mut().remove_chain(chain).unwrap();
    let after = sb
        .control_plane()
        .vnf_controller(VnfId::new(0))
        .unwrap()
        .available_at(site);
    assert!(after > before, "capacity must come back: {before} -> {after}");
}

/// Every unit a chain ever reserved comes back when it is removed, however
/// its routes were changed in between: after deploy → `add_route_via` →
/// `remove_chain` each VNF pool reads as on a control plane that never saw
/// the chain, and the same request is routed the same way again.
#[test]
fn removal_after_route_addition_leaks_no_capacity() {
    let (mut sb, chain, sites) = deploy();
    let first_site = sb.routes_of(chain)[0].sites[0];
    let other = if first_site == sites[1] { sites[2] } else { sites[1] };
    sb.add_route_via(chain, vec![other, other]).expect("route added");
    sb.remove_chain(chain).expect("removed");

    let (mut fresh, _) = testbed();
    for vnf in [VnfId::new(0), VnfId::new(1)] {
        for &site in &sites[1..3] {
            let available =
                |sb: &Switchboard| sb.control_plane().vnf_controller(vnf).unwrap().available_at(site);
            assert!(
                (available(&sb) - available(&fresh)).abs() < 1e-9,
                "{vnf}@{site}: {} available after removal, {} on a new control plane",
                available(&sb),
                available(&fresh)
            );
        }
    }
    let paths = |h: switchboard::controller::ChainHandle| -> Vec<(Vec<SiteId>, f64)> {
        h.routes.iter().map(|r| (r.sites.clone(), r.fraction)).collect()
    };
    assert_eq!(
        paths(sb.deploy_chain(request(chain)).expect("deploys again")),
        paths(fresh.deploy_chain(request(chain)).expect("deploys")),
        "a phantom load changed the route choice"
    );
}

/// The standalone forwarders of one site: fed nothing but the artifacts
/// the control plane stored for it, in order.
#[derive(Default)]
struct Replica {
    fed: Vec<u8>,
    forwarders: Vec<Forwarder>,
}

/// The install invariant: at every site with a stored artifact, standalone
/// forwarders that applied the stored artifacts in order hold the same
/// rows, epochs and label-unaware set as the in-process forwarders.
fn assert_replicas_match(sb: &Switchboard, replicas: &mut HashMap<SiteId, Replica>, verb: &str) {
    // The FIB generation counts rebuilds, which differ by construction.
    let logical = |f: &Forwarder| ForwarderArtifact {
        generation: 0,
        ..f.export_artifact()
    };
    for site in sb.artifact_sites() {
        let bytes = sb.site_artifact_bytes(site).expect("listed site");
        let replica = replicas.entry(site).or_default();
        if replica.fed != bytes {
            let art = decode(bytes).expect("stored bytes decode");
            for fa in &art.forwarders {
                match replica.forwarders.iter_mut().find(|f| f.id() == fa.forwarder) {
                    Some(f) => f.apply_artifact(fa, art.kind),
                    None => replica.forwarders.push(Forwarder::from_artifact(site, fa)),
                }
            }
            replica.fed = bytes.to_vec();
        }
        let local = sb.control_plane().local(site).expect("artifact site");
        let in_process: Vec<ForwarderArtifact> = local
            .forwarder_ids()
            .into_iter()
            .map(|id| logical(local.forwarder(id).expect("listed forwarder")))
            .collect();
        let mut standalone: Vec<ForwarderArtifact> = replica.forwarders.iter().map(logical).collect();
        standalone.sort_by_key(|fa| fa.forwarder);
        assert_eq!(in_process, standalone, "after {verb}: {site} runs what no artifact says");
    }
}

/// A row has one epoch, that of the route that installed it: at every
/// stage site of every installed route of `chains`, the forwarders holding
/// the route's label pair (at least one) hold it at the route's epoch.
fn assert_rows_carry_their_route_epoch(sb: &Switchboard, chains: &[ChainId], verb: &str) {
    for &chain in chains {
        for route in sb.routes_of(chain) {
            for &site in &route.sites {
                let local = sb.control_plane().local(site).expect("route site");
                let epochs: Vec<u64> = local
                    .forwarder_ids()
                    .into_iter()
                    .filter_map(|id| {
                        local
                            .forwarder(id)
                            .expect("listed")
                            .active_epoch(route.labels)
                    })
                    .collect();
                assert!(
                    !epochs.is_empty(),
                    "after {verb}: {} has no row at {site}",
                    route.labels
                );
                assert!(
                    epochs.iter().all(|&e| e == route.epoch),
                    "after {verb}: {} at {site} carries {epochs:?}, its route is at epoch {}",
                    route.labels,
                    route.epoch
                );
            }
        }
    }
}

#[test]
fn stored_artifacts_replay_to_the_running_state_after_every_verb() {
    let (mut sb, one, sites) = deploy();
    let two = ChainId::new(2);
    let (a, b) = (sites[1], sites[2]);
    let mut replicas = HashMap::new();
    let mut check = |sb: &Switchboard, verb: &str| {
        assert_replicas_match(sb, &mut replicas, verb);
        assert_rows_carry_their_route_epoch(sb, &[one, two], verb);
    };
    check(&sb, "deploy_chain");

    sb.deploy_chain_via(request(two), vec![(vec![a, b], 1.0)]).unwrap();
    check(&sb, "deploy_chain_via");

    let first_site = sb.routes_of(one)[0].sites[0];
    let other = if first_site == a { b } else { a };
    sb.add_route_via(one, vec![other, other]).unwrap();
    check(&sb, "add_route_via");

    sb.add_edge_site(one, "mobile", sites[3]).unwrap();
    check(&sb, "add_edge_site");

    sb.update_chain(two, vec![(vec![a, b], 0.25), (vec![b, a], 0.75)]).unwrap();
    check(&sb, "update_chain");

    sb.reroute_chain(two).unwrap();
    check(&sb, "reroute_chain");

    sb.remove_chain(one).unwrap();
    check(&sb, "remove_chain");
    sb.remove_chain(two).unwrap();
    check(&sb, "remove_chain (last)");
    for (site, replica) in &replicas {
        for f in &replica.forwarders {
            assert!(f.export_artifact().rows.is_empty(), "{site}: rules outlived their chains");
        }
    }
}

/// A verb stores its compiled artifact and the bytes are encoded on first
/// read: three verbs through one site with no read in between must leave
/// bytes that encode the last of them, and a second read returns the same
/// slice.
#[test]
fn stored_bytes_encode_the_latest_compile_after_unread_verbs() {
    let (mut sb, sites) = testbed();
    let (one, two) = (ChainId::new(1), ChainId::new(2));
    let (a, b) = (sites[1], sites[2]);
    sb.deploy_chain_via(request(two), vec![(vec![a, b], 1.0)]).unwrap();
    sb.deploy_chain_via(request(one), vec![(vec![a, b], 1.0)]).unwrap();
    sb.update_chain(two, vec![(vec![a, b], 0.25), (vec![b, a], 0.75)])
        .unwrap();

    let artifact = sb.site_artifact(a).expect("stage site");
    let bytes = sb.site_artifact_bytes(a).expect("stage site");
    assert_eq!(bytes, encode(artifact).as_slice(), "stale bytes at {a}");
    let decoded = decode(bytes).expect("stored bytes decode");
    let epoch = sb.routes_of(two)[0].epoch;
    assert!(epoch > 1, "the update moved chain {two} past its deploy epoch");
    assert_eq!((decoded.epoch, decoded.kind), (epoch, ArtifactKind::Patch));
    let again = sb.site_artifact_bytes(a).expect("stage site");
    assert!(std::ptr::eq(bytes, again), "a second read encoded again");
}

/// An artifact's epoch is its chain's, not its site's: a deploy compiles
/// at epoch 1 wherever it lands, so a site that served another chain's
/// update then receives an older epoch than the one it runs. A receiver
/// cannot judge staleness by comparing epochs.
#[test]
fn a_sites_artifact_epochs_follow_their_chains_not_the_site() {
    let (mut sb, sites) = testbed();
    let (one, two) = (ChainId::new(1), ChainId::new(2));
    let (a, b) = (sites[1], sites[2]);
    sb.deploy_chain_via(request(one), vec![(vec![a, b], 1.0)]).unwrap();
    sb.update_chain(one, vec![(vec![a, b], 0.25), (vec![b, a], 0.75)])
        .unwrap();
    let updated = sb.site_artifact(a).expect("stage site").clone();
    assert_eq!(updated.kind, ArtifactKind::Patch);
    assert!(updated.epoch > 1, "the update moved chain {one} past epoch 1");

    sb.deploy_chain_via(request(two), vec![(vec![a, b], 1.0)]).unwrap();
    let deployed = sb.site_artifact(a).expect("stage site");
    assert_eq!((deployed.kind, deployed.epoch), (ArtifactKind::Full, 1));
    assert!(
        deployed.epoch < updated.epoch,
        "{a}'s newer artifact carries the older epoch"
    );
}

/// Two routes whose first VNF shares a site are equally near every new
/// edge: the choice must be a function of the chain, not of a map's
/// per-instance hash keys. Identical control planes built in one process
/// store the same artifact and bind the same route (the lowest route id).
#[test]
fn add_edge_site_breaks_a_latency_tie_the_same_way_in_every_instance() {
    let outcome = || {
        let (mut sb, sites) = testbed();
        let chain = ChainId::new(1);
        let (a, b) = (sites[1], sites[2]);
        let h = sb
            .deploy_chain_via(request(chain), vec![(vec![a, b], 0.5), (vec![a, a], 0.5)])
            .unwrap();
        sb.add_edge_site(chain, "mobile", b).unwrap();
        let bytes = sb
            .site_artifact_bytes(a)
            .expect("stage-0 site artifact")
            .to_vec();
        let t = sb.send(chain, b, Packet::unlabeled(key(7), 700)).unwrap();
        let cp = sb.control_plane();
        // The sites the packet's forwarders sit at, one entry per site
        // visited in a row, and the same for the lowest route id.
        let mut path: Vec<SiteId> = t
            .forwarders()
            .iter()
            .filter_map(|&f| cp.forwarder_site(f))
            .collect();
        let mut lowest = h.routes[0].sites.clone();
        path.dedup();
        lowest.dedup();
        (bytes, path, lowest)
    };
    let (bytes, path, lowest) = outcome();
    assert_eq!(path, lowest, "the new edge binds the lowest route id");
    for i in 1..32 {
        let (b, p, _) = outcome();
        assert!(b == bytes, "instance {i} stored another artifact");
        assert_eq!(p, path, "instance {i} bound another route");
    }
}

/// `add_edge_site` names the attachment it creates. A name registered at
/// another site is refused before anything changes, so the attachment is
/// not re-pointed and the next deploy from it still starts at its own site.
#[test]
fn add_edge_site_refuses_an_attachment_registered_at_another_site() {
    let (mut sb, chain, sites) = deploy();
    let stored = |sb: &Switchboard| -> Vec<Vec<u8>> {
        sb.artifact_sites()
            .into_iter()
            .map(|s| sb.site_artifact_bytes(s).unwrap().to_vec())
            .collect()
    };
    let before = stored(&sb);
    let err = sb.add_edge_site(chain, "in", sites[2]).unwrap_err();
    assert!(
        matches!(err, switchboard::types::Error::DuplicateEntity { .. }),
        "{err}"
    );
    assert!(
        stored(&sb) == before,
        "a refused edge site changed an artifact"
    );
    assert!(sb.control_plane().edge().instance_at(sites[2]).is_none());

    let two = sb.deploy_chain(request(ChainId::new(2))).unwrap();
    assert!(two.routes.iter().all(|r| r.ingress_site == sites[0]));
    // Re-adding an edge site under its own name stays allowed.
    sb.add_edge_site(chain, "mobile", sites[2]).unwrap();
    sb.add_edge_site(chain, "mobile", sites[2]).unwrap();
}

/// An edge site at the chain's own ingress would rebind the ingress edge's
/// binding of one route at fraction 1, and new flows would stop splitting
/// the way the reservations are sized. The call is refused before anything
/// changes: no attachment, no span, the same split and the same artifact.
#[test]
fn add_edge_site_refuses_the_chains_own_ingress_site() {
    let (mut sb, sites) = testbed();
    let chain = ChainId::new(1);
    let (s1, s2) = (sites[1], sites[2]);
    sb.deploy_chain_via(request(chain), vec![(vec![s1, s1], 0.5), (vec![s2, s2], 0.5)])
        .unwrap();
    // How many of 1 000 new flows from the ingress cross s1.
    let via_s1 = |sb: &mut Switchboard, first_port: u16| {
        (first_port..first_port + 1_000)
            .filter(|&port| {
                let t = sb
                    .send(chain, sites[0], Packet::unlabeled(key(port), 700))
                    .unwrap();
                assert!(t.delivered, "flow {port} dropped");
                t.forwarders()
                    .iter()
                    .any(|&f| sb.control_plane().forwarder_site(f) == Some(s1))
            })
            .count()
    };
    let before = via_s1(&mut sb, 10_000);
    let artifact = sb.site_artifact_bytes(s1).expect("stage site").to_vec();

    let err = sb.add_edge_site(chain, "mobile", sites[0]).unwrap_err();
    assert!(
        matches!(err, switchboard::types::Error::InvalidArgument { .. }),
        "{err}"
    );
    assert!(sb.control_plane().edge().resolve("mobile").is_err());
    assert!(
        sb.telemetry()
            .tracer
            .snapshot()
            .iter()
            .all(|r| r.name != "cp.add_edge_site"),
        "a refused call opened a span"
    );
    assert!(
        sb.site_artifact_bytes(s1) == Some(artifact.as_slice()),
        "a refused edge site changed s1's artifact"
    );
    let after = via_s1(&mut sb, 20_000);
    for (when, n) in [("before", before), ("after", after)] {
        assert!(
            (430..=570).contains(&n),
            "{when} the call {n} of 1 000 new flows went via s1"
        );
    }
}

/// Every edge bound to a route enters it through the forwarders its stage
/// 0 published at install. A later deploy that grows the first VNF's pool
/// at that site does not change them: new flows from an edge site added
/// after it and from the ingress take the same first hop.
#[test]
fn an_added_edge_and_the_ingress_enter_a_route_through_the_same_forwarders() {
    let (mut sb, sites) = testbed();
    let (one, s1) = (ChainId::new(1), sites[1]);
    let first_vnf_only = |id: u64| ChainRequest {
        vnfs: vec![VnfId::new(0)],
        ..request(ChainId::new(id))
    };
    sb.deploy_chain_via(first_vnf_only(1), vec![(vec![s1], 1.0)])
        .unwrap();
    let instance = sb.control_plane_mut().allocate_instance_id();
    sb.control_plane_mut()
        .set_instances(
            VnfId::new(0),
            s1,
            vec![InstanceRecord {
                instance,
                weight: 1.0,
                supports_labels: true,
            }],
        )
        .unwrap();
    sb.deploy_chain_via(first_vnf_only(2), vec![(vec![s1], 1.0)])
        .unwrap();
    let pool: Vec<u64> = sb
        .control_plane()
        .local(s1)
        .expect("stage site")
        .forwarder_records(VnfId::new(0))
        .iter()
        .map(|r| r.forwarder.value())
        .collect();
    assert_eq!(pool, [1_000_000, 1_000_001], "the second deploy grows the pool");

    sb.add_edge_site(one, "mobile", sites[2]).unwrap();
    for (from, first_port) in [(sites[2], 30_000), (sites[0], 40_000)] {
        let first_hops: BTreeSet<u64> = (first_port..first_port + 200)
            .map(|port| {
                let t = sb
                    .send(one, from, Packet::unlabeled(key(port), 700))
                    .unwrap();
                assert!(t.delivered, "flow {port} from {from} dropped");
                t.forwarders()[0].value()
            })
            .collect();
        assert_eq!(
            first_hops,
            BTreeSet::from([1_000_000]),
            "the forwarders new flows from {from} enter chain 1 through"
        );
    }
}

/// Stage 0's previous hops are derived from the chain record: the ingress
/// edge, then the added edges bound to the route, ascending by site,
/// whatever order the edges were added in, and again after an update
/// re-tags the route. `RuleSet::to_prev` is carried in rows and artifacts,
/// but no forwarding path reads it: reverse traffic follows the pins
/// `affinity_pin` sets, so this order is visible only in row and artifact
/// bytes.
#[test]
fn stage_zero_previous_hops_are_canonical_and_survive_a_retag() {
    let (mut sb, sites) = testbed();
    let (chain, s1) = (ChainId::new(1), sites[1]);
    let labels = sb
        .deploy_chain_via(request(chain), vec![(vec![s1, s1], 1.0)])
        .unwrap()
        .routes[0]
        .labels;
    sb.add_edge_site(chain, "far", sites[3]).unwrap();
    sb.add_edge_site(chain, "near", sites[2]).unwrap();
    let edge = |site: SiteId| {
        sb.control_plane()
            .edge()
            .instance_at(site)
            .expect("edge instance")
            .addr()
    };
    let want: Vec<Addr> = [sites[0], sites[2], sites[3]].into_iter().map(edge).collect();
    // The epoch and previous hops of the route's stage-0 row at each
    // forwarder of s1's first-VNF pool.
    let stage_zero = |sb: &Switchboard| -> Vec<(u64, Vec<Addr>)> {
        let local = sb.control_plane().local(s1).expect("stage site");
        local
            .forwarder_records(VnfId::new(0))
            .iter()
            .map(|r| {
                let rows = local
                    .forwarder(r.forwarder)
                    .expect("pool member")
                    .export_artifact()
                    .rows;
                let row = rows
                    .iter()
                    .find(|row| row.labels == labels)
                    .expect("stage-0 row");
                (row.epoch, row.rules.to_prev.targets())
            })
            .collect()
    };
    assert_eq!(stage_zero(&sb), [(1, want.clone())], "after both edge sites");
    sb.add_route_via(chain, vec![sites[2], sites[2]]).unwrap();
    assert_eq!(stage_zero(&sb), [(2, want)], "after the re-tag");
}

/// An edge site added after the deploy serves the chain for as long as
/// the chain does. An update that retires the route it is bound to moves
/// it to the nearest new route, so new flows from it are still delivered
/// and their replies still come back to it; once the chain is removed it
/// refuses new flows exactly as the chain's ingress does.
#[test]
fn an_added_edge_site_follows_its_chain_through_updates_and_removal() {
    let (mut sb, sites) = testbed();
    let chain = ChainId::new(1);
    let (s1, s2) = (sites[1], sites[2]);
    sb.deploy_chain_via(request(chain), vec![(vec![s1, s1], 1.0)])
        .unwrap();
    sb.add_edge_site(chain, "mobile", s2).unwrap();
    let mobile = sb
        .control_plane()
        .edge()
        .instance_at(s2)
        .expect("added edge instance")
        .addr();
    let out = sb
        .control_plane()
        .edge()
        .instance_at(sites[3])
        .unwrap()
        .addr();
    // A new flow from the added edge, and its reply from the egress: the
    // element each left the chain at.
    let round_trip = |sb: &mut Switchboard, port: u16| {
        let there = sb
            .send(chain, s2, Packet::unlabeled(key(port), 700))
            .unwrap_or_else(|e| panic!("flow {port} from the added edge: {e}"));
        let back = sb
            .send(
                chain,
                sites[3],
                Packet::unlabeled(key(port).reversed(), 700),
            )
            .unwrap_or_else(|e| panic!("reply to flow {port}: {e}"));
        assert!(there.delivered && back.delivered, "flow {port} dropped");
        (*there.hops.last().unwrap(), *back.hops.last().unwrap())
    };
    assert_eq!(round_trip(&mut sb, 1), (out, mobile));

    for (to, port) in [(s2, 2), (s1, 3)] {
        sb.update_chain(chain, vec![(vec![to, to], 1.0)]).unwrap();
        assert_eq!(
            round_trip(&mut sb, port),
            (out, mobile),
            "after moving to {to}"
        );
    }

    sb.remove_chain(chain).unwrap();
    let refused = |sb: &mut Switchboard, site: SiteId| {
        sb.send(chain, site, Packet::unlabeled(key(4), 700))
            .expect_err("a removed chain takes no new flows")
            .to_string()
    };
    assert_eq!(refused(&mut sb, s2), refused(&mut sb, sites[0]));
}

#[test]
fn deployment_report_names_figure4_phases() {
    let (sb, chain, _) = deploy();
    let _ = (sb, chain);
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(20.0)),
        SwitchboardConfig::default(),
    );
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    let handle = sb
        .deploy_chain(ChainRequest {
            id: ChainId::new(9),
            ingress_attachment: "in".into(),
            egress_attachment: "out".into(),
            vnfs: vec![VnfId::new(0)],
            forward: 1.0,
            reverse: 0.0,
        })
        .unwrap();
    let names: Vec<&str> = handle.report.steps.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.iter().any(|n| n.contains("resolve ingress/egress")));
    assert!(names.iter().any(|n| n.contains("compute wide-area routes")));
    assert!(names.iter().any(|n| n.contains("two-phase commit")));
    assert!(names.iter().any(|n| n.contains("propagate routes")));
    assert!(names.iter().any(|n| n.contains("install load-balancing rules")));
}

#[test]
fn infeasible_demand_is_rejected_up_front() {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(20.0)),
        SwitchboardConfig::default(),
    );
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    // VNF capacity is 200 per site (400 total); this chain needs
    // 2 * (1000 + 1000) = far beyond it.
    let err = sb
        .deploy_chain(ChainRequest {
            id: ChainId::new(1),
            ingress_attachment: "in".into(),
            egress_attachment: "out".into(),
            vnfs: vec![VnfId::new(0)],
            forward: 1000.0,
            reverse: 0.0,
        })
        .unwrap_err();
    assert!(matches!(
        err,
        switchboard::types::Error::Infeasible { .. }
    ));
}
