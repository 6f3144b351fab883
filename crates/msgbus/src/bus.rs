//! The proxy-topology bus and the full-mesh broadcast baseline.
//!
//! Both run on virtual time. Every site has an *uplink* into the wide area
//! with a per-message serialization time and a bounded queue; this is where
//! the two topologies diverge (Section 6, "Comparison to broadcast"):
//!
//! - [`ProxyBus`]: the publisher hands the message to its site proxy; the
//!   proxy forwards **one copy per remote site** that has at least one
//!   subscriber for the topic; the remote proxy fans out locally.
//! - [`FullMeshBus`]: the publisher sends **one copy per subscriber**
//!   through its own uplink, so high fan-out queues and eventually drops
//!   messages — the mechanism behind full-mesh's order-of-magnitude worse
//!   latency in Figure 9.
//!
//! # A publish keeps nothing
//!
//! The copies the two topologies differ in are *wire* copies, counted in
//! [`BusStats`]. What reaches the subscribers is the list of deliveries
//! the last publish made, [`deliveries`](ProxyBus::deliveries): one
//! `(subscriber, delivery time)` pair per delivered copy, a duplicated
//! copy twice. The bus stores no message: the publisher holds the value it
//! published, and the list says who got it and when. The list's buffer is
//! reused by the next publish, so steady-state delivery allocates nothing.
//!
//! Subscription filters live exactly as long as they have a subscriber: the
//! `unsubscribe` that empties a topic's set removes the topic, and
//! [`remove_topic`](ProxyBus::remove_topic) drops a topic whose publisher is
//! gone together with all its filters.

use crate::delay::DelayModel;
use crate::topic::Topic;
use sb_faults::{MessageFate, SharedFaultPlan};
use sb_netsim::SimTime;
use sb_telemetry::{Counter, Telemetry};
use sb_types::{Millis, SiteId};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A handle to a registered subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriberId(u64);

impl fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub-{}", self.0)
    }
}

/// Static configuration of the bus: participating sites, delays, uplink
/// behaviour.
#[derive(Debug, Clone)]
pub struct BusTopology {
    sites: Vec<SiteId>,
    delays: DelayModel,
    /// Serialization (transmission) time per message on a site uplink.
    serialization: Millis,
    /// Maximum messages that may be queued on one uplink.
    queue_capacity: usize,
}

impl BusTopology {
    /// A bus with instantaneous uplinks and unbounded queues: only
    /// propagation delays matter. This is the configuration used as the
    /// control-plane transport.
    #[must_use]
    pub fn unbounded(sites: Vec<SiteId>, delays: DelayModel) -> Self {
        Self {
            sites,
            delays,
            serialization: Millis::ZERO,
            queue_capacity: usize::MAX,
        }
    }

    /// A bus with finite uplink throughput (`serialization` per message) and
    /// bounded queues — the Figure 9 configuration.
    #[must_use]
    pub fn bounded(
        sites: Vec<SiteId>,
        delays: DelayModel,
        serialization: Millis,
        queue_capacity: usize,
    ) -> Self {
        Self {
            sites,
            delays,
            serialization,
            queue_capacity,
        }
    }

    /// The participating sites.
    #[must_use]
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }
}

/// Aggregate bus counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// `publish` calls.
    pub published: u64,
    /// Copies delivered to subscribers.
    pub delivered: u64,
    /// Copies dropped at a full uplink queue.
    pub dropped: u64,
    /// Copies that crossed the wide area.
    pub wan_messages: u64,
    /// Copies that stayed on their origin site (publisher/proxy/subscriber
    /// hops that never touched an uplink) — the local half of the Fig 9
    /// wide-area vs local split.
    pub local_messages: u64,
    /// Copies dropped by an injected fault (see [`sb_faults`]).
    pub fault_dropped: u64,
    /// Copies duplicated by an injected fault.
    pub fault_duplicated: u64,
    /// Copies given extra delay by an injected fault.
    pub fault_delayed: u64,
    /// Copies suppressed because an endpoint site was crashed.
    pub crash_suppressed: u64,
}

/// The outcome of a single publish.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishOutcome {
    /// Copies delivered to subscribers; a duplicated copy counts twice.
    pub delivered: usize,
    /// Copies dropped before reaching any subscriber.
    pub dropped: usize,
    /// Wide-area copies sent.
    pub wan_copies: usize,
    /// Delivery time at the last subscriber, when any were reached.
    pub last_delivery: Option<SimTime>,
}

/// The arrival times of one hop's surviving copies, held inline: none on
/// a drop, one normally, two on a duplication.
#[derive(Debug, Clone, Copy)]
struct Arrivals {
    at: [SimTime; 2],
    len: usize,
}

impl Arrivals {
    const NONE: Self = Self {
        at: [SimTime::ZERO; 2],
        len: 0,
    };

    fn one(t: SimTime) -> Self {
        Self {
            at: [t, SimTime::ZERO],
            len: 1,
        }
    }

    fn push(&mut self, t: SimTime) {
        self.at[self.len] = t;
        self.len += 1;
    }

    fn as_slice(&self) -> &[SimTime] {
        &self.at[..self.len]
    }
}

/// Registry counters mirroring [`BusStats`]. The plain struct stays the
/// hot-path accumulator; after each publish the absolute values are
/// re-published with single-writer stores (see `sb_telemetry::Counter::set`),
/// so the registry snapshot always matches `stats()` between publishes.
#[derive(Debug, Clone)]
struct BusTelemetry {
    published: Counter,
    delivered: Counter,
    dropped: Counter,
    wan_messages: Counter,
    local_messages: Counter,
    fault_dropped: Counter,
    fault_duplicated: Counter,
    fault_delayed: Counter,
    crash_suppressed: Counter,
}

impl BusTelemetry {
    fn new(hub: &Telemetry) -> Self {
        let reg = &hub.registry;
        Self {
            published: reg.counter("bus.published"),
            delivered: reg.counter("bus.delivered"),
            dropped: reg.counter("bus.dropped"),
            wan_messages: reg.counter("bus.wan_messages"),
            local_messages: reg.counter("bus.local_messages"),
            fault_dropped: reg.counter("bus.fault_dropped"),
            fault_duplicated: reg.counter("bus.fault_duplicated"),
            fault_delayed: reg.counter("bus.fault_delayed"),
            crash_suppressed: reg.counter("bus.crash_suppressed"),
        }
    }

    fn sync(&self, stats: &BusStats) {
        self.published.set(stats.published);
        self.delivered.set(stats.delivered);
        self.dropped.set(stats.dropped);
        self.wan_messages.set(stats.wan_messages);
        self.local_messages.set(stats.local_messages);
        self.fault_dropped.set(stats.fault_dropped);
        self.fault_duplicated.set(stats.fault_duplicated);
        self.fault_delayed.set(stats.fault_delayed);
        self.crash_suppressed.set(stats.crash_suppressed);
    }
}

/// Shared machinery of both bus topologies.
#[derive(Debug, Clone)]
struct BusCore {
    topo: BusTopology,
    sub_sites: Vec<SiteId>,
    subscriptions: HashMap<Topic, BTreeSet<SubscriberId>>,
    /// A publish's `(site, subscriber)` fan-out list, kept between
    /// publishes so its buffer is reused.
    fanout: Vec<(SiteId, SubscriberId)>,
    /// The copies the last publish delivered, in the order it made them,
    /// kept between publishes so its buffer is reused.
    deliveries: Vec<(SubscriberId, SimTime)>,
    /// Uplink busy-until per site.
    uplink_busy: HashMap<SiteId, SimTime>,
    stats: BusStats,
    /// Optional fault injection; `None` means the bus is ideal.
    faults: Option<SharedFaultPlan>,
    /// Optional registry mirror of `stats`.
    telemetry: Option<BusTelemetry>,
}

impl BusCore {
    fn new(topo: BusTopology) -> Self {
        Self {
            topo,
            sub_sites: Vec::new(),
            subscriptions: HashMap::new(),
            fanout: Vec::new(),
            deliveries: Vec::new(),
            uplink_busy: HashMap::new(),
            stats: BusStats::default(),
            faults: None,
            telemetry: None,
        }
    }

    fn sync_telemetry(&self) {
        if let Some(t) = &self.telemetry {
            t.sync(&self.stats);
        }
    }

    /// Whether `site` is crashed at `at` under the attached fault plan.
    fn site_down(&self, at: SimTime, site: SiteId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.lock().expect("fault plan lock poisoned").site_is_down(at, site))
    }

    /// Records `copies` message copies suppressed by a crash window, in both
    /// the bus counters and the plan's own stats.
    fn note_crash_suppressed(&mut self, copies: u64) {
        self.stats.crash_suppressed += copies;
        if let Some(f) = &self.faults {
            let mut plan = f.lock().expect("fault plan lock poisoned");
            for _ in 0..copies {
                plan.note_crash_suppression();
            }
        }
    }

    /// One wide-area hop from `from` to `to` starting at `t`: consults the
    /// fault plan for the copy's fate, then pushes each surviving copy
    /// through `from`'s uplink. Returns the arrival times at `to` (none on
    /// a drop, two on a duplication) and the number of copies lost to
    /// faults or full queues.
    fn wan_hop(&mut self, t: SimTime, from: SiteId, to: SiteId) -> (Arrivals, usize) {
        let fate = match &self.faults {
            Some(f) => f
                .lock()
                .expect("fault plan lock poisoned")
                .message_fate(t, from, to),
            None => MessageFate::Deliver,
        };
        let (copies, extra) = match fate {
            MessageFate::Drop => {
                self.stats.fault_dropped += 1;
                return (Arrivals::NONE, 1);
            }
            MessageFate::Deliver => (1, Millis::ZERO),
            MessageFate::Duplicate => {
                self.stats.fault_duplicated += 1;
                (2, Millis::ZERO)
            }
            MessageFate::Delay(d) => {
                self.stats.fault_delayed += 1;
                (1, d)
            }
        };
        let mut arrivals = Arrivals::NONE;
        let mut lost = 0;
        for _ in 0..copies {
            match self.uplink_send(from, t) {
                Some(dep) => {
                    self.stats.wan_messages += 1;
                    arrivals.push(dep + self.topo.delays.between(from, to) + extra);
                }
                None => {
                    self.stats.dropped += 1;
                    lost += 1;
                }
            }
        }
        (arrivals, lost)
    }

    fn register_subscriber(&mut self, site: SiteId) -> SubscriberId {
        let id = SubscriberId(self.sub_sites.len() as u64);
        self.sub_sites.push(site);
        id
    }

    fn subscribe(&mut self, sub: SubscriberId, topic: Topic) {
        self.subscriptions.entry(topic).or_default().insert(sub);
    }

    fn unsubscribe(&mut self, sub: SubscriberId, topic: &Topic) {
        if let Some(set) = self.subscriptions.get_mut(topic) {
            set.remove(&sub);
            if set.is_empty() {
                self.subscriptions.remove(topic);
            }
        }
    }

    /// Fills `self.fanout` with `topic`'s subscribers and their sites, in
    /// ascending subscriber order.
    fn fill_fanout(&mut self, topic: &Topic) {
        self.fanout.clear();
        if let Some(subs) = self.subscriptions.get(topic) {
            let sub_sites = &self.sub_sites;
            self.fanout
                .extend(subs.iter().map(|&s| (sub_sites[s.0 as usize], s)));
        }
    }

    /// Attempts to transmit one copy through `site`'s uplink at time `t`.
    /// Returns the departure time, or `None` when the queue is full.
    fn uplink_send(&mut self, site: SiteId, t: SimTime) -> Option<SimTime> {
        let ser = self.topo.serialization;
        if ser == Millis::ZERO {
            return Some(t);
        }
        let busy = self.uplink_busy.entry(site).or_insert(SimTime::ZERO);
        let backlog_ns = busy.as_nanos().saturating_sub(t.as_nanos());
        let queued = backlog_ns.div_ceil(ser.as_nanos().max(1));
        if queued as usize >= self.topo.queue_capacity {
            return None;
        }
        let start = (*busy).max(t);
        let departure = start + ser;
        *busy = departure;
        Some(departure)
    }

    /// Starts a publish at `at` from `from_site`: counts it and clears the
    /// last publish's deliveries. Returns `false`, counting the suppressed
    /// copy, when `from_site` is crashed: such a publish goes nowhere.
    fn begin(&mut self, at: SimTime, from_site: SiteId) -> bool {
        self.stats.published += 1;
        self.deliveries.clear();
        if self.site_down(at, from_site) {
            self.note_crash_suppressed(1);
            return false;
        }
        true
    }

    /// Ends a publish: its outcome, with the deliveries it made.
    fn finish(&mut self, dropped: usize, wan_copies: usize) -> PublishOutcome {
        self.stats.delivered += self.deliveries.len() as u64;
        self.sync_telemetry();
        PublishOutcome {
            delivered: self.deliveries.len(),
            dropped,
            wan_copies,
            last_delivery: self.deliveries.iter().map(|&(_, t)| t).max(),
        }
    }
}

macro_rules! shared_bus_api {
    () => {
        /// Registers a subscriber endpoint at `site`.
        pub fn register_subscriber(&mut self, site: SiteId) -> SubscriberId {
            self.core.register_subscriber(site)
        }

        /// Installs a subscription filter for `sub` on `topic`.
        pub fn subscribe(&mut self, sub: SubscriberId, topic: Topic) {
            self.core.subscribe(sub, topic);
        }

        /// Removes a subscription filter; the topic goes with its last
        /// subscriber.
        pub fn unsubscribe(&mut self, sub: SubscriberId, topic: &Topic) {
            self.core.unsubscribe(sub, topic);
        }

        /// Drops `topic` and every subscription filter on it — for a topic
        /// whose publisher has retired. Returns whether it existed.
        pub fn remove_topic(&mut self, topic: &Topic) -> bool {
            self.core.subscriptions.remove(topic).is_some()
        }

        /// Number of topics with at least one subscriber.
        #[must_use]
        pub fn topic_count(&self) -> usize {
            self.core.subscriptions.len()
        }

        /// The copies the last publish delivered, as `(subscriber,
        /// delivery time)` in the order the bus made them (see `publish`);
        /// a duplicated copy appears twice. Empty after a publish from a
        /// crashed site.
        #[must_use]
        pub fn deliveries(&self) -> &[(SubscriberId, SimTime)] {
            &self.core.deliveries
        }

        /// Aggregate counters.
        #[must_use]
        pub fn stats(&self) -> BusStats {
            self.core.stats
        }

        /// Attaches a shared fault plan; every subsequent publish consults
        /// it. Without one the bus is ideal (the seed behaviour).
        pub fn set_fault_plan(&mut self, plan: SharedFaultPlan) {
            self.core.faults = Some(plan);
        }

        /// The attached fault plan, if any.
        #[must_use]
        pub fn fault_plan(&self) -> Option<&SharedFaultPlan> {
            self.core.faults.as_ref()
        }

        /// Attaches a telemetry hub: after every publish the `bus.*`
        /// registry counters mirror [`BusStats`], making the wide-area vs
        /// local message split (Fig 9) a first-class metric.
        pub fn attach_telemetry(&mut self, hub: &Telemetry) {
            let t = BusTelemetry::new(hub);
            t.sync(&self.core.stats);
            self.core.telemetry = Some(t);
        }
    };
}

/// The Switchboard bus: per-site proxies, publisher-site filters, one WAN
/// copy per subscribed site. See the crate docs for the topology.
#[derive(Debug, Clone)]
pub struct ProxyBus {
    core: BusCore,
}

impl ProxyBus {
    /// Creates a proxy bus over `topology`.
    #[must_use]
    pub fn new(topology: BusTopology) -> Self {
        Self {
            core: BusCore::new(topology),
        }
    }

    shared_bus_api!();

    /// Publishes on `topic` from `from_site` at virtual time `at`.
    ///
    /// The subscribers are grouped by site in a list the bus keeps between
    /// publishes, sorted by site and, within a site, by subscriber; each
    /// hop's arrivals are held inline, so a publish allocates nothing per
    /// site. Sites are visited in ascending order, which fixes the order of
    /// [`deliveries`](Self::deliveries) — ascending site, then ascending
    /// subscriber, once per relay copy that reached the topic's owner — and
    /// of fault-plan draws.
    pub fn publish(&mut self, at: SimTime, from_site: SiteId, topic: &Topic) -> PublishOutcome {
        if !self.core.begin(at, from_site) {
            return self.core.finish(0, 0);
        }
        let (mut dropped, mut wan_copies) = (0, 0);
        let local = self.core.topo.delays.local();
        let owner = topic.owner();
        self.core.fill_fanout(topic);

        // Publisher -> its own proxy.
        let t0 = at + local;
        // Publisher proxy -> owner proxy (only when publishing remotely).
        // Under a fault plan the relay copy may be lost, doubled, or late;
        // each surviving relay arrival fans out independently below.
        let relay_arrivals = if from_site == owner {
            self.core.stats.local_messages += 1;
            Arrivals::one(t0)
        } else {
            let (arrivals, lost) = self.core.wan_hop(t0, from_site, owner);
            wan_copies += arrivals.len;
            dropped += lost;
            arrivals
        };

        // Group subscribers by site: one WAN copy per remote site. The
        // list is filled in subscriber order, so a stable sort by site
        // keeps each site's subscribers ascending.
        let mut fanout = std::mem::take(&mut self.core.fanout);
        fanout.sort_by_key(|&(site, _)| site);

        for &t in relay_arrivals.as_slice() {
            // The owner proxy cannot relay while its site is down.
            if from_site != owner && self.core.site_down(t, owner) {
                self.core.note_crash_suppressed(1);
                continue;
            }
            for group in fanout.chunk_by(|a, b| a.0 == b.0) {
                let site = group[0].0;
                let arrivals = if site == owner {
                    self.core.stats.local_messages += 1;
                    Arrivals::one(t)
                } else {
                    let (arrivals, lost) = self.core.wan_hop(t, owner, site);
                    wan_copies += arrivals.len;
                    dropped += lost * group.len();
                    arrivals
                };
                for &arrival in arrivals.as_slice() {
                    // A crashed destination site receives nothing.
                    if self.core.site_down(arrival, site) {
                        self.core.note_crash_suppressed(1);
                        continue;
                    }
                    let deliver_at = arrival + local;
                    let reached = group.iter().map(|&(_, sub)| (sub, deliver_at));
                    self.core.deliveries.extend(reached);
                }
            }
        }
        self.core.fanout = fanout;
        self.core.finish(dropped, wan_copies)
    }
}

/// The full-mesh broadcast baseline: one copy per subscriber through the
/// publisher's uplink.
#[derive(Debug, Clone)]
pub struct FullMeshBus {
    core: BusCore,
}

impl FullMeshBus {
    /// Creates a full-mesh bus over `topology`.
    #[must_use]
    pub fn new(topology: BusTopology) -> Self {
        Self {
            core: BusCore::new(topology),
        }
    }

    shared_bus_api!();

    /// Publishes on `topic` from `from_site` at virtual time `at`: one
    /// copy per subscriber, all through `from_site`'s uplink, in ascending
    /// subscriber order — the order of [`deliveries`](Self::deliveries) and
    /// of fault-plan draws.
    pub fn publish(&mut self, at: SimTime, from_site: SiteId, topic: &Topic) -> PublishOutcome {
        if !self.core.begin(at, from_site) {
            return self.core.finish(0, 0);
        }
        let (mut dropped, mut wan_copies) = (0, 0);
        let t = at + self.core.topo.delays.local();
        self.core.fill_fanout(topic);
        let fanout = std::mem::take(&mut self.core.fanout);
        for &(site, sub) in &fanout {
            let arrivals = if site == from_site {
                self.core.stats.local_messages += 1;
                Arrivals::one(t)
            } else {
                let (arrivals, lost) = self.core.wan_hop(t, from_site, site);
                wan_copies += arrivals.len;
                dropped += lost;
                arrivals
            };
            for &arrival in arrivals.as_slice() {
                // A crashed destination site receives nothing.
                if self.core.site_down(arrival, site) {
                    self.core.note_crash_suppressed(1);
                    continue;
                }
                self.core.deliveries.push((sub, arrival));
            }
        }
        self.core.fanout = fanout;
        self.core.finish(dropped, wan_copies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(n: u32) -> Vec<SiteId> {
        (0..n).map(SiteId::new).collect()
    }

    fn delays() -> DelayModel {
        DelayModel::uniform(Millis::new(0.1), Millis::new(40.0))
    }

    /// `/t`, owned by site `owner`.
    fn topic(owner: u32) -> Topic {
        Topic::with_owner("/t", SiteId::new(owner))
    }

    /// When the last publish delivered to `sub`, once per copy.
    fn times_of(deliveries: &[(SubscriberId, SimTime)], sub: SubscriberId) -> Vec<SimTime> {
        deliveries
            .iter()
            .filter(|&&(s, _)| s == sub)
            .map(|&(_, t)| t)
            .collect()
    }

    #[test]
    fn proxy_delivers_single_wan_copy_per_site() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        // Three subscribers at site 1, two at site 2, one local at site 0.
        let mut subs = Vec::new();
        for site in [1u32, 1, 1, 2, 2, 0] {
            let s = bus.register_subscriber(SiteId::new(site));
            bus.subscribe(s, topic(0));
            subs.push(s);
        }
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        assert_eq!(out.delivered, 6);
        assert_eq!(out.wan_copies, 2, "one copy per remote site");
        assert_eq!(out.dropped, 0);
        // Remote delivery: local + wan + local = 40.2ms; local-only: 0.2ms.
        let got = bus.deliveries();
        assert_eq!(times_of(got, subs[0]), [SimTime::from_millis(40.2)]);
        assert_eq!(times_of(got, subs[5]), [SimTime::from_millis(0.2)]);
        // Ascending site, then ascending subscriber.
        let order: Vec<SubscriberId> = got.iter().map(|&(s, _)| s).collect();
        let expected = [5, 0, 1, 2, 3, 4].map(|i| subs[i]);
        assert_eq!(order, expected);
    }

    #[test]
    fn site_without_subscribers_receives_nothing() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let s = bus.register_subscriber(SiteId::new(1));
        bus.subscribe(s, topic(0));
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        // Only one WAN copy although three sites exist.
        assert_eq!(out.wan_copies, 1);
        assert_eq!(bus.stats().wan_messages, 1);
    }

    #[test]
    fn full_mesh_sends_one_copy_per_subscriber() {
        let mut bus = FullMeshBus::new(BusTopology::unbounded(sites(2), delays()));
        for _ in 0..5 {
            let s = bus.register_subscriber(SiteId::new(1));
            bus.subscribe(s, topic(0));
        }
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        assert_eq!(out.delivered, 5);
        assert_eq!(out.wan_copies, 5);
    }

    #[test]
    fn bounded_uplink_queues_and_drops() {
        // Serialization 10ms, queue cap 3.
        let topo = BusTopology::bounded(sites(2), delays(), Millis::new(10.0), 3);
        let mut bus = FullMeshBus::new(topo);
        for _ in 0..6 {
            let s = bus.register_subscriber(SiteId::new(1));
            bus.subscribe(s, topic(0));
        }
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        // First copy transmits immediately, then the queue holds 3; the
        // remaining copies drop.
        assert!(out.dropped >= 2, "expected drops, got {out:?}");
        assert!(out.delivered <= 4);
        // Delivered copies show increasing queueing delay.
        let times: Vec<_> = bus.deliveries().iter().map(|&(_, t)| t).collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]), "{times:?}");
        assert_eq!(times.last().copied(), out.last_delivery);
    }

    #[test]
    fn proxy_remote_publisher_relays_via_owner() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let s = bus.register_subscriber(SiteId::new(2));
        bus.subscribe(s, topic(0));
        // Publisher at site 1, owner site 0, subscriber site 2: two WAN hops.
        let out = bus.publish(SimTime::ZERO, SiteId::new(1), &topic(0));
        assert_eq!(out.wan_copies, 2);
        // local + wan + wan + local = 80.2 ms.
        assert_eq!(bus.deliveries(), [(s, SimTime::from_millis(80.2))]);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(2), delays()));
        let s = bus.register_subscriber(SiteId::new(1));
        bus.subscribe(s, topic(0));
        bus.unsubscribe(s, &topic(0));
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        assert_eq!(out.delivered, 0);
        assert!(bus.deliveries().is_empty());
    }

    #[test]
    fn unsubscribing_the_last_subscriber_removes_the_topic() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(2), delays()));
        let a = bus.register_subscriber(SiteId::new(0));
        let b = bus.register_subscriber(SiteId::new(1));
        let topic = topic(0);
        bus.subscribe(a, topic.clone());
        bus.subscribe(b, topic.clone());
        assert_eq!(bus.topic_count(), 1);
        bus.unsubscribe(a, &topic);
        assert_eq!(bus.topic_count(), 1, "b still listens");
        bus.unsubscribe(a, &topic);
        assert_eq!(bus.topic_count(), 1, "a repeated unsubscribe is a no-op");
        bus.unsubscribe(b, &topic);
        assert_eq!(bus.topic_count(), 0);
        // A retired topic goes with all its filters at once.
        bus.subscribe(a, topic.clone());
        bus.subscribe(b, topic.clone());
        assert!(bus.remove_topic(&topic));
        assert!(!bus.remove_topic(&topic));
        assert_eq!(bus.topic_count(), 0);
        assert_eq!(
            bus.publish(SimTime::ZERO, SiteId::new(0), &topic).delivered,
            0
        );
    }

    #[test]
    fn deliveries_list_the_last_publish_only_in_a_reused_buffer() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let on_t = bus.register_subscriber(SiteId::new(1));
        let on_u = bus.register_subscriber(SiteId::new(2));
        let u = Topic::with_owner("/u", SiteId::new(2));
        bus.subscribe(on_t, topic(0));
        bus.subscribe(on_u, u.clone());
        bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        assert_eq!(bus.deliveries(), [(on_t, SimTime::from_millis(40.2))]);
        let buffer = bus.core.deliveries.as_ptr();
        bus.publish(SimTime::ZERO, SiteId::new(2), &u);
        assert_eq!(bus.deliveries(), [(on_u, SimTime::from_millis(0.2))]);
        assert_eq!(bus.core.deliveries.as_ptr(), buffer, "the buffer is reused");
        bus.publish(
            SimTime::ZERO,
            SiteId::new(0),
            &Topic::with_owner("/v", SiteId::new(0)),
        );
        assert!(bus.deliveries().is_empty(), "nobody listens on /v");
        assert_eq!(bus.stats().delivered, 2);
    }

    #[test]
    fn every_subscriber_gets_each_duplicated_copy() {
        // Every WAN copy is doubled: a remote subscriber gets two copies.
        let spec = sb_faults::FaultSpec::new(3).with_duplicate_probability(1.0);
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        bus.set_fault_plan(sb_faults::shared(sb_faults::FaultPlan::new(spec)));
        let subs: Vec<_> = [0, 1, 1, 2]
            .into_iter()
            .map(|s| bus.register_subscriber(SiteId::new(s)))
            .collect();
        for &s in &subs {
            bus.subscribe(s, topic(0));
        }
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        assert_eq!(
            out.delivered, 7,
            "one local copy and two per remote subscriber"
        );
        assert_eq!(bus.deliveries().len(), 7);
        let copies: Vec<usize> = subs
            .iter()
            .map(|&s| times_of(bus.deliveries(), s).len())
            .collect();
        assert_eq!(copies, [1, 2, 2, 2]);
        assert_eq!(
            bus.stats().fault_duplicated,
            2,
            "one doubled copy per remote site"
        );
    }

    #[test]
    fn a_lost_copy_delivers_nothing_and_a_duplicated_one_twice() {
        // Every WAN copy is doubled, except towards site 2, where every
        // copy is lost.
        let cut = sb_faults::PairFaults::blackhole(SiteId::new(0), SiteId::new(2));
        let spec = sb_faults::FaultSpec::new(7).with_duplicate_probability(1.0);
        let plan = sb_faults::FaultPlan::new(spec.with_pair(cut));
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        bus.set_fault_plan(sb_faults::shared(plan));
        let doubled = bus.register_subscriber(SiteId::new(1));
        let cut_off = bus.register_subscriber(SiteId::new(2));
        bus.subscribe(doubled, topic(0));
        bus.subscribe(cut_off, topic(0));

        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        assert_eq!((out.delivered, out.dropped), (2, 1));
        assert_eq!(times_of(bus.deliveries(), doubled).len(), 2);
        assert!(times_of(bus.deliveries(), cut_off).is_empty());
    }

    #[test]
    fn a_publish_from_a_crashed_site_delivers_nothing() {
        let crash = sb_faults::CrashWindow::permanent(SiteId::new(1), SimTime::from_millis(10.0));
        let plan = || {
            sb_faults::shared(sb_faults::FaultPlan::new(
                sb_faults::FaultSpec::new(7).with_crash(crash.clone()),
            ))
        };
        let mut proxy = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let mut mesh = FullMeshBus::new(BusTopology::unbounded(sites(3), delays()));
        proxy.set_fault_plan(plan());
        mesh.set_fault_plan(plan());
        let p = proxy.register_subscriber(SiteId::new(0));
        let m = mesh.register_subscriber(SiteId::new(0));
        proxy.subscribe(p, topic(0));
        mesh.subscribe(m, topic(0));
        // Delivered before the crash.
        proxy.publish(SimTime::ZERO, SiteId::new(1), &topic(0));
        mesh.publish(SimTime::ZERO, SiteId::new(1), &topic(0));
        assert_eq!((proxy.deliveries().len(), mesh.deliveries().len()), (1, 1));

        let late = SimTime::from_millis(20.0);
        assert_eq!(proxy.publish(late, SiteId::new(1), &topic(0)).delivered, 0);
        assert_eq!(mesh.publish(late, SiteId::new(1), &topic(0)).delivered, 0);
        assert!(proxy.deliveries().is_empty() && mesh.deliveries().is_empty());
        assert_eq!(proxy.stats().crash_suppressed, 1);
    }

    #[test]
    fn local_and_wan_split_partitions_traffic() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(2), delays()));
        let local = bus.register_subscriber(SiteId::new(0));
        let remote = bus.register_subscriber(SiteId::new(1));
        bus.subscribe(local, topic(0));
        bus.subscribe(remote, topic(0));
        bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        let stats = bus.stats();
        // Publisher->owner relay and owner-site fanout are local; the copy
        // to site 1 crosses the WAN.
        assert_eq!(stats.wan_messages, 1);
        assert_eq!(stats.local_messages, 2);
    }

    #[test]
    fn registry_counters_mirror_stats_after_each_publish() {
        let hub = sb_telemetry::Telemetry::new();
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        bus.attach_telemetry(&hub);
        for site in [0u32, 1, 2, 1] {
            let s = bus.register_subscriber(SiteId::new(site));
            bus.subscribe(s, topic(0));
        }
        for i in 0..4 {
            bus.publish(
                SimTime::from_millis(f64::from(i)),
                SiteId::new(i % 3),
                &topic(0),
            );
        }
        let stats = bus.stats();
        let snap = hub.registry.snapshot();
        assert_eq!(snap.counter("bus.published"), stats.published);
        assert_eq!(snap.counter("bus.delivered"), stats.delivered);
        assert_eq!(snap.counter("bus.wan_messages"), stats.wan_messages);
        assert_eq!(snap.counter("bus.local_messages"), stats.local_messages);
        assert!(stats.wan_messages > 0 && stats.local_messages > 0);
    }

    /// A proxy bus with 1 ms uplink serialization and `capacity` queue
    /// slots, one subscriber registered at each of `at` (in that order) on
    /// a topic owned by site 0.
    fn serialized_fanout(capacity: usize, at: &[u32]) -> (ProxyBus, Vec<SubscriberId>) {
        let topo = BusTopology::bounded(sites(4), delays(), Millis::new(1.0), capacity);
        let mut bus = ProxyBus::new(topo);
        let subs = at
            .iter()
            .map(|&site| {
                let s = bus.register_subscriber(SiteId::new(site));
                bus.subscribe(s, topic(0));
                s
            })
            .collect();
        (bus, subs)
    }

    #[test]
    fn fan_out_serializes_sites_in_ascending_order() {
        // Registration order 3, 1, 2, 2; the owner's uplink must still send
        // to site 1, then 2, then 3, one 1 ms slot each.
        let (mut bus, subs) = serialized_fanout(16, &[3, 1, 2, 2]);
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        assert_eq!((out.delivered, out.dropped, out.wan_copies), (4, 0, 3));
        assert_eq!(
            bus.stats(),
            BusStats {
                published: 1,
                delivered: 4,
                wan_messages: 3,
                local_messages: 1,
                ..BusStats::default()
            }
        );
        // local 0.1 + k ms in the uplink queue + 40 wan + local 0.1.
        let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000 + 200_000);
        assert_eq!(
            bus.deliveries(),
            [
                (subs[1], at(41)),
                (subs[2], at(42)),
                (subs[3], at(42)),
                (subs[0], at(43)),
            ],
            "site 1 first, one copy serves site 2, site 3 last"
        );
        assert_eq!(out.last_delivery, Some(at(43)));
    }

    #[test]
    fn a_full_uplink_drops_the_highest_site_for_all_its_subscribers() {
        // Two queue slots: sites 1 and 2 get theirs, site 3's copy finds
        // the queue full and is lost for both of its subscribers.
        let (mut bus, subs) = serialized_fanout(2, &[3, 1, 3, 2]);
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        assert_eq!((out.delivered, out.dropped, out.wan_copies), (2, 2, 2));
        assert_eq!(
            bus.stats(),
            BusStats {
                published: 1,
                delivered: 2,
                dropped: 1,
                wan_messages: 2,
                local_messages: 1,
                ..BusStats::default()
            }
        );
        let reached: Vec<SubscriberId> = bus.deliveries().iter().map(|&(s, _)| s).collect();
        assert_eq!(reached, [subs[1], subs[3]]);
    }

    #[test]
    fn publish_without_subscribers_is_cheap() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(4), delays()));
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), &topic(0));
        assert_eq!(out.delivered, 0);
        assert_eq!(out.wan_copies, 0);
        assert_eq!(bus.stats().wan_messages, 0);
        assert!(bus.deliveries().is_empty());
    }
}
