//! Fault-plan transparency and subscription-filtering tests.
//!
//! A zero-fault plan must be invisible: both bus topologies make the same
//! deliveries at the same times with or without it, and the two
//! topologies deliver every publish to the same subscribers.
//! Subscription filters at the publisher's proxy must track subscriber
//! churn exactly.

use sb_faults::{FaultPlan, FaultSpec};
use sb_msgbus::{BusTopology, DelayModel, FullMeshBus, ProxyBus, SubscriberId, Topic};
use sb_netsim::SimTime;
use sb_types::{Millis, SiteId};

fn sites3() -> (SiteId, SiteId, SiteId) {
    (SiteId::new(0), SiteId::new(1), SiteId::new(2))
}

fn topology() -> BusTopology {
    let (a, b, c) = sites3();
    BusTopology::unbounded(
        vec![a, b, c],
        DelayModel::uniform(Millis::new(0.1), Millis::new(40.0)),
    )
}

/// A publish's deliveries as the subscribers reached, in order.
fn reached(deliveries: &[(SubscriberId, SimTime)]) -> Vec<SubscriberId> {
    deliveries.iter().map(|&(s, _)| s).collect()
}

fn zero_fault_plan(seed: u64) -> sb_msgbus::SharedFaultPlan {
    sb_faults::shared(FaultPlan::new(FaultSpec::new(seed)))
}

/// Drives an identical publish schedule on two buses and asserts
/// identical deliveries (subscribers AND times) after every publish, plus
/// equal stats.
macro_rules! assert_transparent {
    ($bus_ty:ty) => {
        let (a, b, c) = sites3();
        let mut plain = <$bus_ty>::new(topology());
        let mut faulted = <$bus_ty>::new(topology());
        faulted.set_fault_plan(zero_fault_plan(1234));

        let topic = Topic::with_owner("/c1/routes".to_string(), a);
        let mut subs = Vec::new();
        for bus in [&mut plain, &mut faulted] {
            let s_b = bus.register_subscriber(b);
            let s_c = bus.register_subscriber(c);
            bus.subscribe(s_b, topic.clone());
            bus.subscribe(s_c, topic.clone());
            subs.push((s_b, s_c));
        }

        assert_eq!(subs[0], subs[1], "same registration, same ids");
        for i in 0..20u32 {
            let at = SimTime::from_millis(f64::from(i) * 3.0);
            let out_plain = plain.publish(at, a, &topic);
            let out_faulted = faulted.publish(at, a, &topic);
            assert_eq!(out_plain, out_faulted, "publish outcome {i}");
            assert_eq!(plain.deliveries(), faulted.deliveries(), "publish {i}");
            assert_eq!(plain.deliveries().len(), 2, "publish {i}");
        }
        assert_eq!(plain.stats(), faulted.stats());
        // The plan injected nothing.
        let plan = faulted.fault_plan().unwrap();
        assert_eq!(plan.lock().unwrap().stats().total(), 0);
    };
}

#[test]
fn zero_fault_plan_is_transparent_on_proxy_bus() {
    assert_transparent!(ProxyBus);
}

#[test]
fn zero_fault_plan_is_transparent_on_full_mesh_bus() {
    assert_transparent!(FullMeshBus);
}

/// Proxy and full-mesh topologies must deliver every publish to the same
/// subscribers under a zero-fault plan — they differ in wide-area copies
/// and timing, never in who is reached.
#[test]
fn proxy_and_full_mesh_deliver_equivalent_message_sets() {
    let (a, b, c) = sites3();
    let mut proxy = ProxyBus::new(topology());
    let mut mesh = FullMeshBus::new(topology());
    proxy.set_fault_plan(zero_fault_plan(9));
    mesh.set_fault_plan(zero_fault_plan(9));

    let topic = Topic::with_owner("/c7/fwdrs".to_string(), a);
    let p_subs = [
        proxy.register_subscriber(a),
        proxy.register_subscriber(b),
        proxy.register_subscriber(c),
    ];
    let m_subs = [
        mesh.register_subscriber(a),
        mesh.register_subscriber(b),
        mesh.register_subscriber(c),
    ];
    for &s in &p_subs {
        proxy.subscribe(s, topic.clone());
    }
    for &s in &m_subs {
        mesh.subscribe(s, topic.clone());
    }

    assert_eq!(p_subs, m_subs, "same registration, same ids");
    for i in 0..10u32 {
        let at = SimTime::from_millis(f64::from(i) * 5.0);
        let po = proxy.publish(at, a, &topic);
        let mo = mesh.publish(at, a, &topic);
        assert_eq!(po.delivered, mo.delivered, "message {i}");
        // Proxy: one WAN copy per remote site; mesh: one per remote
        // subscriber. With one subscriber per site they coincide.
        assert_eq!(po.wan_copies, mo.wan_copies, "message {i}");
        // One subscriber per site, registered in site order: ascending
        // site is ascending subscriber.
        let (pv, mv) = (reached(proxy.deliveries()), reached(mesh.deliveries()));
        assert_eq!(pv, mv, "message {i}: same subscribers in the same order");
        assert_eq!(pv, p_subs);
    }
}

/// Figure 9's mechanism: the subscription filter at the publisher's proxy
/// sends a remote site exactly one copy iff it currently has at least one
/// subscriber — under churn, filters must follow joins and leaves.
#[test]
fn publisher_site_filtering_tracks_subscriber_churn() {
    let (a, b, c) = sites3();
    let mut bus = ProxyBus::new(topology());
    bus.set_fault_plan(zero_fault_plan(5));
    let topic = Topic::with_owner("/c2/state".to_string(), a);

    // No subscribers anywhere: nothing crosses the WAN.
    let out = bus.publish(SimTime::ZERO, a, &topic);
    assert_eq!((out.delivered, out.wan_copies), (0, 0));

    // One remote site with two subscribers: ONE wan copy, two deliveries.
    let b1 = bus.register_subscriber(b);
    let b2 = bus.register_subscriber(b);
    bus.subscribe(b1, topic.clone());
    bus.subscribe(b2, topic.clone());
    let out = bus.publish(SimTime::from_millis(1.0), a, &topic);
    assert_eq!((out.delivered, out.wan_copies), (2, 1));
    assert_eq!(reached(bus.deliveries()), [b1, b2]);

    // A second remote site joins late: it gets later messages only.
    let c1 = bus.register_subscriber(c);
    bus.subscribe(c1, topic.clone());
    let out = bus.publish(SimTime::from_millis(2.0), a, &topic);
    assert_eq!((out.delivered, out.wan_copies), (3, 2));
    assert_eq!(reached(bus.deliveries()), [b1, b2, c1]);

    // Site b leaves entirely: its filter is removed at the proxy.
    bus.unsubscribe(b1, &topic);
    bus.unsubscribe(b2, &topic);
    let out = bus.publish(SimTime::from_millis(3.0), a, &topic);
    assert_eq!((out.delivered, out.wan_copies), (1, 1));
    assert_eq!(reached(bus.deliveries()), [c1], "site b is filtered out");

    // The zero-fault plan never fired.
    assert_eq!(bus.fault_plan().unwrap().lock().unwrap().stats().total(), 0);
}
