//! Property tests comparing the proxy bus against full-mesh broadcast.
//!
//! The Section 6 claim, in invariant form: for any subscriber placement and
//! any publish sequence, the proxy topology never sends more wide-area
//! copies than full mesh, and under a bounded publisher uplink its worst
//! delivery latency is never worse.

use proptest::prelude::*;
use sb_msgbus::{BusTopology, DelayModel, FullMeshBus, Message, ProxyBus, Topic};
use sb_netsim::SimTime;
use sb_types::{Millis, SiteId};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Placement {
    num_sites: u32,
    subscriber_sites: Vec<u32>,
    publishes: usize,
}

fn arb_placement() -> impl Strategy<Value = Placement> {
    (2u32..8)
        .prop_flat_map(|num_sites| {
            (
                Just(num_sites),
                prop::collection::vec(0..num_sites, 1..25),
                1usize..12,
            )
        })
        .prop_map(|(num_sites, subscriber_sites, publishes)| Placement {
            num_sites,
            subscriber_sites,
            publishes,
        })
}

fn build_proxy(p: &Placement, topo: BusTopology) -> ProxyBus {
    let mut bus = ProxyBus::new(topo);
    let topic = Topic::with_owner("/t", SiteId::new(0));
    for &site in &p.subscriber_sites {
        let s = bus.register_subscriber(SiteId::new(site));
        bus.subscribe(s, topic.clone());
    }
    bus
}

fn build_mesh(p: &Placement, topo: BusTopology) -> FullMeshBus {
    let mut bus = FullMeshBus::new(topo);
    let topic = Topic::with_owner("/t", SiteId::new(0));
    for &site in &p.subscriber_sites {
        let s = bus.register_subscriber(SiteId::new(site));
        bus.subscribe(s, topic.clone());
    }
    bus
}

fn sites(n: u32) -> Vec<SiteId> {
    (0..n).map(SiteId::new).collect()
}

fn msg() -> Message {
    Message::new(Topic::with_owner("/t", SiteId::new(0)), Arc::new(0u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Proxy never sends more WAN copies than full mesh (it aggregates
    /// per-site; full mesh is per-subscriber).
    #[test]
    fn proxy_wan_copies_never_exceed_full_mesh(p in arb_placement()) {
        let delays = DelayModel::uniform(Millis::new(0.1), Millis::new(30.0));
        let topo = BusTopology::unbounded(sites(p.num_sites), delays);
        let mut proxy = build_proxy(&p, topo.clone());
        let mut mesh = build_mesh(&p, topo);

        for i in 0..p.publishes {
            let at = SimTime::from_millis(i as f64);
            proxy.publish(at, SiteId::new(0), msg());
            mesh.publish(at, SiteId::new(0), msg());
        }
        prop_assert!(proxy.stats().wan_messages <= mesh.stats().wan_messages);
        // Without uplink limits both deliver everything.
        prop_assert_eq!(proxy.stats().delivered, mesh.stats().delivered);
        prop_assert_eq!(proxy.stats().dropped, 0);
        prop_assert_eq!(mesh.stats().dropped, 0);
    }

    /// Under a bounded uplink, proxy's worst delivery time is never later
    /// than full mesh's, and it never drops more. Subscribers are remote
    /// (the Figure 9 setup): for a same-site subscriber the proxy hop adds
    /// a local-delay penalty full mesh does not pay, so the dominance claim
    /// is specifically about wide-area dissemination.
    #[test]
    fn proxy_latency_and_drops_dominate_full_mesh(p0 in arb_placement()) {
        let mut p = p0;
        // Remap all subscribers off the publisher's site (site 0).
        p.subscriber_sites = p
            .subscriber_sites
            .iter()
            .map(|&s| if s == 0 { 1 } else { s })
            .collect();
        let delays = DelayModel::uniform(Millis::new(0.1), Millis::new(30.0));
        let topo = BusTopology::bounded(
            sites(p.num_sites),
            delays,
            Millis::new(5.0),
            8,
        );
        let mut proxy = build_proxy(&p, topo.clone());
        let mut mesh = build_mesh(&p, topo);

        let mut proxy_worst = SimTime::ZERO;
        let mut mesh_worst = SimTime::ZERO;
        for i in 0..p.publishes {
            let at = SimTime::from_millis(i as f64 * 2.0);
            if let Some(t) = proxy.publish(at, SiteId::new(0), msg()).last_delivery {
                proxy_worst = proxy_worst.max(t);
            }
            if let Some(t) = mesh.publish(at, SiteId::new(0), msg()).last_delivery {
                mesh_worst = mesh_worst.max(t);
            }
        }
        prop_assert!(proxy.stats().dropped <= mesh.stats().dropped);
        if mesh.stats().dropped == 0 && proxy.stats().dropped == 0 {
            // The proxy path pays two intra-site hops (publisher->proxy and
            // proxy->subscriber) that direct full-mesh connections skip; its
            // wide-area behaviour must dominate modulo that constant.
            let slack = Millis::new(0.2);
            prop_assert!(
                proxy_worst <= mesh_worst + slack,
                "proxy {proxy_worst} vs mesh {mesh_worst}"
            );
        }
    }

    /// Messages delivered to a subscriber arrive no earlier than the
    /// physically possible minimum (one local hop), and at monotone
    /// non-decreasing times when publishes are ordered.
    #[test]
    fn delivery_times_are_physical(p in arb_placement()) {
        let delays = DelayModel::uniform(Millis::new(0.1), Millis::new(30.0));
        let topo = BusTopology::unbounded(sites(p.num_sites), delays);
        let mut proxy = ProxyBus::new(topo);
        let topic = Topic::with_owner("/t", SiteId::new(0));
        let subs: Vec<_> = p
            .subscriber_sites
            .iter()
            .map(|&site| {
                let s = proxy.register_subscriber(SiteId::new(site));
                proxy.subscribe(s, topic.clone());
                s
            })
            .collect();
        for i in 0..p.publishes {
            let at = SimTime::from_millis(i as f64 * 10.0);
            proxy.publish(at, SiteId::new(0), msg());
        }
        for (s, &site) in subs.iter().zip(&p.subscriber_sites) {
            let inbox = proxy.drain(*s);
            prop_assert_eq!(inbox.len(), p.publishes);
            for (i, (_, t)) in inbox.iter().enumerate() {
                let publish_at = SimTime::from_millis(i as f64 * 10.0);
                let min = if site == 0 {
                    publish_at + Millis::new(0.2)
                } else {
                    publish_at + Millis::new(30.2)
                };
                prop_assert!(*t >= min, "delivery {t} earlier than physical {min}");
            }
        }
    }
}
