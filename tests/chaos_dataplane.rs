//! Chaos tests: the data plane driven under a seeded fault plan.
//!
//! Two fault classes from DESIGN.md §8 land here:
//!
//! - **Per-packet loss** on the label-switched wide-area path: lost
//!   packets vanish in transit and are reported as undelivered transits,
//!   never as forwarding errors, and the loss draws come from a dedicated
//!   RNG stream so they cannot perturb control-plane fates.
//! - **VNF instance crashes** mid-flow: forwarders drop the dead instance
//!   from their load-balancing rules and evict only the flow pins that
//!   pointed at it. Affected flows fail over once and stick; flows pinned
//!   to survivors never move (Section 5.3's affinity under churn).
//!
//! Every scenario replays byte-identically from its seed.

use switchboard::faults::{FaultPlan, FaultSpec};
use switchboard::prelude::*;
use switchboard::scenarios;

/// The seeds the deterministic-replay sweep covers; keep in sync with
/// `.github/workflows/ci.yml`.
const CHAOS_SEEDS: [u64; 3] = [7, 42, 1337];

/// CI's chaos matrix narrows a run to one seed via `CHAOS_SEED`; local
/// runs sweep all of [`CHAOS_SEEDS`].
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => CHAOS_SEEDS.to_vec(),
    }
}

fn chain_request(id: u64) -> ChainRequest {
    ChainRequest {
        id: ChainId::new(id),
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![VnfId::new(0)],
        forward: 10.0,
        reverse: 2.0,
    }
}

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

fn flow(i: u16) -> FlowKey {
    FlowKey::tcp([10, 0, (i / 256) as u8, (i % 256) as u8], 5000 + i, [10, 9, 9, 9], 80)
}

#[test]
fn packet_loss_is_reported_as_undelivered_not_error() {
    for seed in chaos_seeds() {
        let (mut sb, sites) = testbed(Some(FaultSpec::new(seed).with_packet_loss(0.35)));
        sb.deploy_chain(chain_request(1)).unwrap();
        let packets: Vec<Packet> =
            (0..200u16).map(|i| Packet::unlabeled(flow(i), 500)).collect();
        let results = sb.send_batch(ChainId::new(1), sites[0], &packets);

        let mut delivered = 0u64;
        let mut lost = 0u64;
        for r in &results {
            let t = r
                .as_ref()
                .unwrap_or_else(|e| panic!("seed {seed}: loss must not error: {e}"));
            if t.delivered {
                delivered += 1;
            } else {
                assert!(t.output.is_none(), "seed {seed}: lost packet produced output");
                lost += 1;
            }
        }
        assert!(delivered > 0, "seed {seed}: 35% loss killed everything");
        assert!(lost > 0, "seed {seed}: 35% loss lost nothing");
        // Exact accounting: with passthrough behaviors and no crashes, the
        // only undelivered packets are the fault plan's losses.
        let plan = sb.control_plane().fault_plan().unwrap();
        assert_eq!(plan.lock().unwrap().stats().packets_lost, lost, "seed {seed}");
        let snap = sb.telemetry().registry.snapshot();
        assert_eq!(snap.counter("faults.packets_lost"), lost, "seed {seed}");
    }
}

#[test]
fn loss_extremes_drop_everything_or_nothing() {
    let (mut lossy, lossy_sites) = testbed(Some(FaultSpec::new(3).with_packet_loss(1.0)));
    lossy.deploy_chain(chain_request(1)).unwrap();
    let (mut clean, clean_sites) = testbed(Some(FaultSpec::new(3).with_packet_loss(0.0)));
    clean.deploy_chain(chain_request(1)).unwrap();
    for i in 0..20u16 {
        let pkt = Packet::unlabeled(flow(i), 500);
        let t = lossy.send(ChainId::new(1), lossy_sites[0], pkt).unwrap();
        assert!(!t.delivered, "packet {i} survived total loss");
        let t = clean.send(ChainId::new(1), clean_sites[0], pkt).unwrap();
        assert!(t.delivered, "packet {i} lost at zero loss rate");
    }
}

#[test]
fn vnf_crash_fails_over_while_survivor_flows_never_move() {
    let (mut sb, sites) = testbed(None);
    let chain = ChainId::new(1);
    sb.deploy_chain(chain_request(1)).unwrap();

    // Pin a population of flows and record each one's instance.
    let n = 32u16;
    let mut pins = Vec::new();
    for i in 0..n {
        let t = sb.send(chain, sites[0], Packet::unlabeled(flow(i), 500)).unwrap();
        assert!(t.delivered);
        let inst = t.vnf_instances();
        assert_eq!(inst.len(), 1);
        pins.push(inst[0]);
    }
    // The affinity hash must have spread flows over both instances at the
    // serving site for the failover assertion to mean anything.
    let victim = pins[0];
    let survivor = *pins
        .iter()
        .find(|&&p| p != victim)
        .expect("flows must spread over at least two instances");

    // Kill the instance flow 0 is pinned to, effective immediately.
    let now = sb.control_plane().now();
    sb.control_plane_mut().set_fault_plan(switchboard::faults::shared(
        FaultPlan::new(FaultSpec::new(1).with_vnf_crash(victim, now)),
    ));

    for (i, &before) in pins.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        let pkt = Packet::unlabeled(flow(i as u16), 500);
        let t = sb.send(chain, sites[0], pkt).unwrap();
        assert!(t.delivered, "flow {i} lost in failover");
        let after = t.vnf_instances()[0];
        if before == victim {
            assert_eq!(after, survivor, "flow {i} did not fail over");
        } else {
            // Affinity honored: surviving flows are untouched.
            assert_eq!(after, before, "surviving flow {i} was moved");
        }
        // And the new pin is stable.
        let again = sb.send(chain, sites[0], pkt).unwrap();
        assert_eq!(again.vnf_instances()[0], after, "flow {i} re-pinned twice");
    }
    assert!(sb.crashed_vnfs().contains(&victim));
    let snap = sb.telemetry().registry.snapshot();
    assert_eq!(snap.counter("faults.vnf_crashes"), 1);
}

#[test]
fn crashing_every_instance_blackholes_instead_of_misrouting() {
    let (mut sb, sites) = testbed(None);
    let chain = ChainId::new(1);
    sb.deploy_chain(chain_request(1)).unwrap();
    let t = sb.send(chain, sites[0], Packet::unlabeled(flow(0), 500)).unwrap();
    let site = sb
        .control_plane()
        .forwarder_site(t.forwarders()[0])
        .unwrap();
    let ctl = sb.control_plane().vnf_controller(VnfId::new(0)).unwrap();
    let now = sb.control_plane().now();
    let mut spec = FaultSpec::new(1);
    for rec in ctl.instances_at(site) {
        spec = spec.with_vnf_crash(rec.instance, now);
    }
    sb.control_plane_mut()
        .set_fault_plan(switchboard::faults::shared(FaultPlan::new(spec)));
    // With no instance left, packets die at the dead box — an undelivered
    // transit, never a wrong-instance delivery or a forwarding error.
    for i in 0..8u16 {
        let t = sb.send(chain, sites[0], Packet::unlabeled(flow(i), 500)).unwrap();
        assert!(!t.delivered, "flow {i} delivered through a dead pool");
        assert!(t.output.is_none());
    }
}

/// The full data-plane chaos scenario — per-packet loss plus a mid-run
/// VNF crash — replays byte-identically from its seed: same per-packet
/// delivery outcomes, same paths, same pins, on every rerun.
#[test]
fn dataplane_chaos_replays_identically_per_seed() {
    let signature = |seed: u64| -> Vec<(bool, String)> {
        let (mut sb, sites) = testbed(Some(FaultSpec::new(seed).with_packet_loss(0.25)));
        let chain = ChainId::new(1);
        sb.deploy_chain(chain_request(1)).unwrap();
        let packets: Vec<Packet> =
            (0..30u16).map(|i| Packet::unlabeled(flow(i), 500)).collect();
        let mut sig = Vec::new();
        let mut record = |results: Vec<switchboard::types::Result<Transit>>| {
            for r in results {
                let t = r.expect("chaos must not surface errors");
                sig.push((t.delivered, format!("{:?}", t.hops)));
            }
        };
        record(sb.send_batch(chain, sites[0], &packets));

        // Mid-run, one instance dies; the same seed keeps driving loss.
        let victim = sb
            .control_plane()
            .vnf_controller(VnfId::new(0))
            .unwrap()
            .instances_at(sites[1])
            .first()
            .map(|r| r.instance)
            .expect("site 1 hosts instances");
        let now = sb.control_plane().now();
        sb.control_plane_mut().set_fault_plan(switchboard::faults::shared(
            FaultPlan::new(
                FaultSpec::new(seed)
                    .with_packet_loss(0.25)
                    .with_vnf_crash(victim, now),
            ),
        ));
        record(sb.send_batch(chain, sites[0], &packets));
        record(sb.send_batch(chain, sites[0], &packets));
        sig
    };

    let mut per_seed = Vec::new();
    for seed in chaos_seeds() {
        let first = signature(seed);
        assert_eq!(first, signature(seed), "seed {seed} did not replay");
        per_seed.push(first);
    }
    // Different seeds draw different loss patterns (only checkable when
    // the sweep actually covers several seeds).
    if per_seed.len() > 1 {
        assert!(
            per_seed.windows(2).any(|w| w[0] != w[1]),
            "every seed produced the same trace — loss stream ignores the seed?"
        );
    }
}
