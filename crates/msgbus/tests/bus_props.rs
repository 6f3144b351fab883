//! Property tests comparing the proxy bus against full-mesh broadcast.
//!
//! The Section 6 claim, in invariant form: for any subscriber placement and
//! any publish sequence, the proxy topology never sends more wide-area
//! copies than full mesh, and under a bounded publisher uplink its worst
//! delivery latency is never worse.
//!
//! A publish lists the copies it delivered. Under any mix of subscribes,
//! unsubscribes and publishes, with copies dropped and duplicated, the
//! list agrees with the publish's outcome and the bus counters, and names
//! only subscribers of the published topic.

use proptest::prelude::*;
use sb_faults::{FaultPlan, FaultSpec};
use sb_msgbus::{BusTopology, DelayModel, FullMeshBus, ProxyBus, SubscriberId, Topic};
use sb_netsim::SimTime;
use sb_types::{Millis, SiteId};
use std::collections::BTreeSet;

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

fn topic() -> Topic {
    Topic::with_owner("/t", SiteId::new(0))
}

/// One step of a bus's life, by subscriber, topic and site index.
#[derive(Debug, Clone)]
enum Op {
    Subscribe(usize, usize),
    Unsubscribe(usize, usize),
    Publish(usize, usize),
}

const OP_SITES: usize = 4;
const OP_TOPICS: usize = 3;
const OP_SUBSCRIBERS: usize = 6;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..OP_SUBSCRIBERS, 0..OP_TOPICS).prop_map(|(s, t)| Op::Subscribe(s, t)),
        (0..OP_SUBSCRIBERS, 0..OP_TOPICS).prop_map(|(s, t)| Op::Unsubscribe(s, t)),
        (0..OP_SITES, 0..OP_TOPICS).prop_map(|(site, t)| Op::Publish(site, t)),
    ]
}

/// Topic `t` of the op alphabet, owned by site `t % OP_SITES`.
fn op_topic(t: usize) -> Topic {
    let owner = SiteId::new(u32::try_from(t % OP_SITES).expect("few sites"));
    Topic::with_owner(format!("/op{t}"), owner)
}

/// Runs `ops` on a bus of `$ty` under a plan that drops and duplicates
/// copies with probability `$drop` and `$dup`, checking after every
/// publish that its deliveries are as many as its outcome counts, end at
/// its `last_delivery` and name only subscribers of its topic, and at the
/// end that they add up to the bus's `delivered` counter.
macro_rules! assert_deliveries_match_outcomes {
    ($ty:ty, $seed:expr, $drop:expr, $dup:expr, $ops:expr) => {{
        let delays = DelayModel::uniform(Millis::new(0.1), Millis::new(30.0));
        let topo = BusTopology::unbounded(sites(OP_SITES as u32), delays);
        let mut bus = <$ty>::new(topo);
        let spec = FaultSpec::new($seed)
            .with_drop_probability($drop)
            .with_duplicate_probability($dup);
        bus.set_fault_plan(sb_faults::shared(FaultPlan::new(spec)));
        let subs: Vec<SubscriberId> = (0..OP_SUBSCRIBERS)
            .map(|i| bus.register_subscriber(SiteId::new((i % OP_SITES) as u32)))
            .collect();
        // The `(subscriber, topic)` filters installed, and the copies
        // delivered so far.
        let mut filters = BTreeSet::new();
        let mut delivered = 0usize;
        for (i, op) in $ops.iter().enumerate() {
            match *op {
                Op::Subscribe(s, t) => {
                    bus.subscribe(subs[s], op_topic(t));
                    filters.insert((subs[s], t));
                }
                Op::Unsubscribe(s, t) => {
                    bus.unsubscribe(subs[s], &op_topic(t));
                    filters.remove(&(subs[s], t));
                }
                Op::Publish(site, t) => {
                    let at = SimTime::from_millis(i as f64);
                    let out = bus.publish(at, SiteId::new(site as u32), &op_topic(t));
                    let got = bus.deliveries();
                    prop_assert_eq!(got.len(), out.delivered);
                    prop_assert_eq!(got.iter().map(|&(_, t)| t).max(), out.last_delivery);
                    for &(sub, _) in got {
                        prop_assert!(filters.contains(&(sub, t)), "{} is not on /op{}", sub, t);
                    }
                    delivered += got.len();
                }
            }
        }
        prop_assert_eq!(bus.stats().delivered, delivered as u64);
    }};
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
            proxy.publish(at, SiteId::new(0), &topic());
            mesh.publish(at, SiteId::new(0), &topic());
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
            if let Some(t) = proxy.publish(at, SiteId::new(0), &topic()).last_delivery {
                proxy_worst = proxy_worst.max(t);
            }
            if let Some(t) = mesh.publish(at, SiteId::new(0), &topic()).last_delivery {
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

    /// Each publish's deliveries agree with its outcome and name only
    /// subscribers of its topic; together they are the bus's `delivered`
    /// counter, whatever was lost and doubled.
    #[test]
    fn deliveries_match_each_publishs_outcome(
        seed in any::<u64>(),
        drop in prop_oneof![Just(0.0), 0.0..0.6f64],
        dup in prop_oneof![Just(0.0), 0.0..0.6f64],
        ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        assert_deliveries_match_outcomes!(ProxyBus, seed, drop, dup, ops);
        assert_deliveries_match_outcomes!(FullMeshBus, seed, drop, dup, ops);
    }

    /// Messages delivered to a subscriber arrive no earlier than the
    /// physically possible minimum (one local hop), and every subscriber
    /// gets one copy of each publish.
    #[test]
    fn delivery_times_are_physical(p in arb_placement()) {
        let delays = DelayModel::uniform(Millis::new(0.1), Millis::new(30.0));
        let topo = BusTopology::unbounded(sites(p.num_sites), delays);
        let mut proxy = ProxyBus::new(topo);
        let mut site_of = std::collections::BTreeMap::new();
        for &site in &p.subscriber_sites {
            let s = proxy.register_subscriber(SiteId::new(site));
            proxy.subscribe(s, topic());
            site_of.insert(s, site);
        }
        for i in 0..p.publishes {
            let at = SimTime::from_millis(i as f64 * 10.0);
            proxy.publish(at, SiteId::new(0), &topic());
            let got = proxy.deliveries();
            let reached: BTreeSet<_> = got.iter().map(|&(s, _)| s).collect();
            prop_assert_eq!(got.len(), site_of.len());
            prop_assert_eq!(reached.len(), site_of.len());
            for &(s, t) in got {
                let min = if site_of[&s] == 0 {
                    at + Millis::new(0.2)
                } else {
                    at + Millis::new(30.2)
                };
                prop_assert!(t >= min, "delivery {t} earlier than physical {min}");
            }
        }
    }
}
