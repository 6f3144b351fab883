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
//! # A message is stored once
//!
//! The copies the two topologies differ in are *wire* copies, counted in
//! [`BusStats`]. In memory each publish moves its [`Message`] into one
//! bus-owned *slot*, which also counts the mailbox entries naming it. A
//! mailbox entry is a `(slot, delivery time)` pair, so delivering a copy
//! and consuming one are a plain count, not a clone and a drop of the
//! message's shared topic and payload. A slot nothing names is freed for
//! the next publish. [`drain`](ProxyBus::drain) hands a subscriber its
//! messages in delivery-time order, moving each out of its slot with the
//! slot's last entry and cloning it for any other;
//! [`discard_delivered`](ProxyBus::discard_delivered) consumes in place,
//! keeping their buffers, exactly the mailboxes the last publish delivered
//! to — for subscribers that act on each delivery as it happens and have
//! nothing left to read, so the other mailboxes are not visited. A mailbox
//! nobody consumes grows with every message ever sent, and so does the
//! slot table ([`stored_messages`](ProxyBus::stored_messages)).
//!
//! Subscription filters live exactly as long as they have a subscriber: the
//! `unsubscribe` that empties a topic's set removes the topic, and
//! [`remove_topic`](ProxyBus::remove_topic) drops a topic whose publisher is
//! gone together with all its filters.

use crate::delay::DelayModel;
use crate::message::Message;
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
    /// Deliveries into subscriber mailboxes.
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
    /// Subscribers that received the message.
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

/// A bus-owned home of one published message: the message, while some
/// mailbox entry names it, and how many do.
#[derive(Debug, Clone)]
struct Slot {
    msg: Option<Message>,
    entries: usize,
}

/// Every published message some mailbox still holds, each once, indexed
/// by slot. Freed slots are reused before the table grows.
#[derive(Debug, Clone, Default)]
struct SlotTable {
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl SlotTable {
    /// Moves a publish's `msg` into a slot, named by no entry yet.
    fn store(&mut self, msg: Message) -> usize {
        let slot = Slot {
            msg: Some(msg),
            entries: 0,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    /// The message in `slot`.
    fn message(&self, slot: usize) -> &Message {
        self.slots[slot]
            .msg
            .as_ref()
            .expect("a named slot holds its message")
    }

    /// One more mailbox entry names `slot`.
    fn name(&mut self, slot: usize) {
        self.slots[slot].entries += 1;
    }

    /// Frees `slot` when no entry names it.
    fn settle(&mut self, slot: usize) {
        if self.slots[slot].entries == 0 {
            self.slots[slot].msg = None;
            self.free.push(slot);
        }
    }

    /// Removes one entry naming `slot` and returns its message when that
    /// was the last entry, freeing the slot; `None` while other entries
    /// still name it.
    fn release(&mut self, slot: usize) -> Option<Message> {
        let s = &mut self.slots[slot];
        s.entries -= 1;
        if s.entries > 0 {
            return None;
        }
        self.free.push(slot);
        s.msg.take()
    }

    /// [`release`](Self::release), handing out the message either way: moved
    /// out with the last entry, cloned for any other.
    fn take(&mut self, slot: usize) -> Message {
        match self.release(slot) {
            Some(last) => last,
            None => self.message(slot).clone(),
        }
    }

    /// Slots holding a message.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Shared machinery of both bus topologies.
#[derive(Debug, Clone)]
struct BusCore {
    topo: BusTopology,
    sub_sites: Vec<SiteId>,
    subscriptions: HashMap<Topic, BTreeSet<SubscriberId>>,
    slots: SlotTable,
    /// Per subscriber, in delivery order: the message's slot and its
    /// delivery time.
    mailboxes: Vec<Vec<(usize, SimTime)>>,
    /// A publish's `(site, subscriber)` fan-out list, kept between
    /// publishes so its buffer is reused. After a publish it lists exactly
    /// the subscribers that publish delivered to.
    fanout: Vec<(SiteId, SubscriberId)>,
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
            slots: SlotTable::default(),
            mailboxes: Vec::new(),
            fanout: Vec::new(),
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
        self.mailboxes.push(Vec::new());
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

    /// Narrows a publish's `fanout` to the subscribers the message in
    /// `slot` reached, when a copy was lost (`lossy`) — a mailbox it
    /// reached ends with its payload. Without a loss every subscriber was
    /// reached. A republish shares its payload with the first attempt, so
    /// this tells them apart only for a subscriber that consumed the
    /// earlier copy.
    fn keep_reached(&self, fanout: &mut Vec<(SiteId, SubscriberId)>, slot: usize, lossy: bool) {
        if lossy {
            let msg = self.slots.message(slot);
            fanout.retain(|&(_, sub)| {
                self.mailboxes[sub.0 as usize]
                    .last()
                    .is_some_and(|&(s, _)| self.slots.message(s).shares_payload(msg))
            });
        }
    }

    fn deliver(&mut self, sub: SubscriberId, slot: usize, at: SimTime) {
        self.mailboxes[sub.0 as usize].push((slot, at));
        self.slots.name(slot);
        self.stats.delivered += 1;
    }

    fn drain(&mut self, sub: SubscriberId) -> Vec<(Message, SimTime)> {
        let inbox = &mut self.mailboxes[sub.0 as usize];
        inbox.sort_by_key(|&(_, t)| t);
        let slots = &mut self.slots;
        inbox.drain(..).map(|(slot, t)| (slots.take(slot), t)).collect()
    }

    /// Consumes the mailboxes the last publish delivered to, unread,
    /// keeping their buffers.
    fn discard_delivered(&mut self) {
        for &(_, sub) in &self.fanout {
            for (slot, _) in self.mailboxes[sub.0 as usize].drain(..) {
                self.slots.release(slot);
            }
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

        /// Takes all messages delivered to `sub` so far, ordered by
        /// delivery time.
        #[must_use]
        pub fn drain(&mut self, sub: SubscriberId) -> Vec<(Message, SimTime)> {
            self.core.drain(sub)
        }

        /// Consumes every mailbox the last publish delivered to, and no
        /// other, without reading them and keeping their buffers for the
        /// next deliveries: for subscribers that act on each message as it
        /// is delivered.
        pub fn discard_delivered(&mut self) {
            self.core.discard_delivered();
        }

        /// Messages delivered to `sub` and not yet consumed.
        #[must_use]
        pub fn pending(&self, sub: SubscriberId) -> usize {
            self.core.mailboxes[sub.0 as usize].len()
        }

        /// Published messages some mailbox still holds, each counted once
        /// however many mailboxes hold it: zero once every mailbox is
        /// consumed.
        #[must_use]
        pub fn stored_messages(&self) -> usize {
            self.core.slots.len()
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

    /// Publishes `msg` from `from_site` at virtual time `at`.
    ///
    /// The subscribers are grouped by site in a list the bus keeps between
    /// publishes, sorted by site and, within a site, by subscriber; each
    /// hop's arrivals are held inline, so a publish allocates nothing per
    /// site. Sites are visited in ascending order, which fixes the order of
    /// deliveries and of fault-plan draws.
    pub fn publish(&mut self, at: SimTime, from_site: SiteId, msg: Message) -> PublishOutcome {
        self.core.stats.published += 1;
        let local = self.core.topo.delays.local();
        let owner = msg.topic().owner();

        let mut outcome = PublishOutcome {
            delivered: 0,
            dropped: 0,
            wan_copies: 0,
            last_delivery: None,
        };

        // A publish from a crashed site goes nowhere.
        if self.core.site_down(at, from_site) {
            self.core.note_crash_suppressed(1);
            self.core.fanout.clear();
            self.core.sync_telemetry();
            return outcome;
        }
        let suppressed = self.core.stats.crash_suppressed;
        self.core.fill_fanout(msg.topic());
        let slot = self.core.slots.store(msg);

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
            outcome.wan_copies += arrivals.len;
            outcome.dropped += lost;
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
                    outcome.wan_copies += arrivals.len;
                    outcome.dropped += lost * group.len();
                    arrivals
                };
                for &arrival in arrivals.as_slice() {
                    // A crashed destination site receives nothing.
                    if self.core.site_down(arrival, site) {
                        self.core.note_crash_suppressed(1);
                        continue;
                    }
                    for &(_, sub) in group {
                        let deliver_at = arrival + local;
                        self.core.deliver(sub, slot, deliver_at);
                        outcome.delivered += 1;
                        outcome.last_delivery = Some(
                            outcome
                                .last_delivery
                                .map_or(deliver_at, |t: SimTime| t.max(deliver_at)),
                        );
                    }
                }
            }
        }
        let lossy = outcome.dropped > 0 || self.core.stats.crash_suppressed != suppressed;
        self.core.keep_reached(&mut fanout, slot, lossy);
        self.core.slots.settle(slot);
        self.core.fanout = fanout;
        self.core.sync_telemetry();
        outcome
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

    /// Publishes `msg` from `from_site` at virtual time `at`: one copy per
    /// subscriber, all through `from_site`'s uplink.
    pub fn publish(&mut self, at: SimTime, from_site: SiteId, msg: Message) -> PublishOutcome {
        self.core.stats.published += 1;
        let local = self.core.topo.delays.local();

        let mut outcome = PublishOutcome {
            delivered: 0,
            dropped: 0,
            wan_copies: 0,
            last_delivery: None,
        };

        // A publish from a crashed site goes nowhere.
        if self.core.site_down(at, from_site) {
            self.core.note_crash_suppressed(1);
            self.core.fanout.clear();
            self.core.sync_telemetry();
            return outcome;
        }
        let suppressed = self.core.stats.crash_suppressed;

        self.core.fill_fanout(msg.topic());
        let slot = self.core.slots.store(msg);
        let mut fanout = std::mem::take(&mut self.core.fanout);
        for &(site, sub) in &fanout {
            let t = at + local;
            let arrivals = if site == from_site {
                self.core.stats.local_messages += 1;
                Arrivals::one(t)
            } else {
                let (arrivals, lost) = self.core.wan_hop(t, from_site, site);
                outcome.wan_copies += arrivals.len;
                outcome.dropped += lost;
                arrivals
            };
            for &arrival in arrivals.as_slice() {
                // A crashed destination site receives nothing.
                if self.core.site_down(arrival, site) {
                    self.core.note_crash_suppressed(1);
                    continue;
                }
                self.core.deliver(sub, slot, arrival);
                outcome.delivered += 1;
                outcome.last_delivery = Some(
                    outcome
                        .last_delivery
                        .map_or(arrival, |t: SimTime| t.max(arrival)),
                );
            }
        }
        let lossy = outcome.dropped > 0 || self.core.stats.crash_suppressed != suppressed;
        self.core.keep_reached(&mut fanout, slot, lossy);
        self.core.slots.settle(slot);
        self.core.fanout = fanout;
        self.core.sync_telemetry();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sites(n: u32) -> Vec<SiteId> {
        (0..n).map(SiteId::new).collect()
    }

    fn delays() -> DelayModel {
        DelayModel::uniform(Millis::new(0.1), Millis::new(40.0))
    }

    fn msg(owner: u32) -> Message {
        Message::new(Topic::with_owner("/t", SiteId::new(owner)), Arc::new(owner))
    }

    #[test]
    fn proxy_delivers_single_wan_copy_per_site() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        // Three subscribers at site 1, two at site 2, one local at site 0.
        let mut subs = Vec::new();
        for site in [1u32, 1, 1, 2, 2, 0] {
            let s = bus.register_subscriber(SiteId::new(site));
            bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
            subs.push(s);
        }
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        assert_eq!(out.delivered, 6);
        assert_eq!(out.wan_copies, 2, "one copy per remote site");
        assert_eq!(out.dropped, 0);
        // Remote delivery: local + wan + local = 40.2ms; local-only: 0.2ms.
        let inbox = bus.drain(subs[0]);
        assert_eq!(inbox[0].1, SimTime::from_millis(40.2));
        let local_inbox = bus.drain(subs[5]);
        assert_eq!(local_inbox[0].1, SimTime::from_millis(0.2));
    }

    #[test]
    fn site_without_subscribers_receives_nothing() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let s = bus.register_subscriber(SiteId::new(1));
        bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        // Only one WAN copy although three sites exist.
        assert_eq!(out.wan_copies, 1);
        assert_eq!(bus.stats().wan_messages, 1);
    }

    #[test]
    fn full_mesh_sends_one_copy_per_subscriber() {
        let mut bus = FullMeshBus::new(BusTopology::unbounded(sites(2), delays()));
        for _ in 0..5 {
            let s = bus.register_subscriber(SiteId::new(1));
            bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
        }
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        assert_eq!(out.delivered, 5);
        assert_eq!(out.wan_copies, 5);
    }

    #[test]
    fn bounded_uplink_queues_and_drops() {
        // Serialization 10ms, queue cap 3.
        let topo = BusTopology::bounded(sites(2), delays(), Millis::new(10.0), 3);
        let mut bus = FullMeshBus::new(topo);
        let mut subs = Vec::new();
        for _ in 0..6 {
            let s = bus.register_subscriber(SiteId::new(1));
            bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
            subs.push(s);
        }
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        // First copy transmits immediately, then the queue holds 3; the
        // remaining copies drop.
        assert!(out.dropped >= 2, "expected drops, got {out:?}");
        assert!(out.delivered <= 4);
        // Delivered copies show increasing queueing delay.
        let times: Vec<_> = subs
            .iter()
            .flat_map(|&s| bus.drain(s))
            .map(|(_, t)| t)
            .collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert!(sorted.windows(2).all(|w| w[1] > w[0]), "{sorted:?}");
    }

    #[test]
    fn proxy_remote_publisher_relays_via_owner() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let s = bus.register_subscriber(SiteId::new(2));
        bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
        // Publisher at site 1, owner site 0, subscriber site 2: two WAN hops.
        let out = bus.publish(SimTime::ZERO, SiteId::new(1), msg(0));
        assert_eq!(out.wan_copies, 2);
        let inbox = bus.drain(s);
        // local + wan + wan + local = 80.2 ms.
        assert_eq!(inbox[0].1, SimTime::from_millis(80.2));
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(2), delays()));
        let s = bus.register_subscriber(SiteId::new(1));
        let topic = Topic::with_owner("/t", SiteId::new(0));
        bus.subscribe(s, topic.clone());
        bus.unsubscribe(s, &topic);
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        assert_eq!(out.delivered, 0);
        assert!(bus.drain(s).is_empty());
    }

    #[test]
    fn unsubscribing_the_last_subscriber_removes_the_topic() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(2), delays()));
        let a = bus.register_subscriber(SiteId::new(0));
        let b = bus.register_subscriber(SiteId::new(1));
        let topic = Topic::with_owner("/t", SiteId::new(0));
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
            bus.publish(SimTime::ZERO, SiteId::new(0), msg(0)).delivered,
            0
        );
    }

    /// Six subscribers at three sites, as `proxy_delivers_single_wan_copy_per_site`.
    fn six_subscribers(mut register: impl FnMut(SiteId) -> SubscriberId) -> Vec<SubscriberId> {
        [1u32, 1, 1, 2, 2, 0]
            .into_iter()
            .map(|site| register(SiteId::new(site)))
            .collect()
    }

    /// Every mailbox holds one entry, and all of them name the one slot
    /// that holds the message.
    fn assert_stored_once(core: &BusCore, subs: &[SubscriberId]) {
        let first = core.mailboxes[subs[0].0 as usize][0].0;
        for s in subs {
            let inbox = &core.mailboxes[s.0 as usize];
            assert_eq!(inbox.len(), 1);
            assert_eq!(inbox[0].0, first, "{s} holds its own copy");
        }
        assert_eq!(core.slots.len(), 1);
        assert_eq!(core.slots.slots[first].entries, subs.len());
    }

    #[test]
    fn a_publish_is_stored_once_however_many_mailboxes_hold_it() {
        let topic = Topic::with_owner("/t", SiteId::new(0));
        let mut proxy = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let subs = six_subscribers(|site| proxy.register_subscriber(site));
        for &s in &subs {
            proxy.subscribe(s, topic.clone());
        }
        let out = proxy.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        assert_eq!((out.delivered, out.wan_copies), (6, 2));
        assert_stored_once(&proxy.core, &subs);

        let mut mesh = FullMeshBus::new(BusTopology::unbounded(sites(3), delays()));
        let subs = six_subscribers(|site| mesh.register_subscriber(site));
        for &s in &subs {
            mesh.subscribe(s, topic.clone());
        }
        let out = mesh.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        assert_eq!((out.delivered, out.wan_copies), (6, 5));
        assert_stored_once(&mesh.core, &subs);
        for s in subs {
            let _ = mesh.drain(s);
        }
        assert_eq!(mesh.stored_messages(), 0, "draining frees the slot");
    }

    #[test]
    fn sharing_changes_neither_what_drain_returns_nor_the_stats() {
        let topic = Topic::with_owner("/t", SiteId::new(0));
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let subs = six_subscribers(|site| bus.register_subscriber(site));
        for &s in &subs {
            bus.subscribe(s, topic.clone());
        }
        let late = Message::new(topic.clone(), Arc::new("late"));
        let early = Message::new(topic, Arc::new("early"));
        bus.publish(SimTime::from_millis(100.0), SiteId::new(0), late);
        bus.publish(SimTime::ZERO, SiteId::new(0), early);
        assert_eq!(
            bus.stats(),
            BusStats {
                published: 2,
                delivered: 12,
                wan_messages: 4,
                // Per publish: publisher -> own proxy, and the owner-site fan-out.
                local_messages: 4,
                ..BusStats::default()
            }
        );
        for &s in &subs {
            assert_eq!(bus.pending(s), 2);
            let inbox = bus.drain(s);
            let order: Vec<&str> = inbox.iter().map(|(m, _)| *m.payload().unwrap()).collect();
            assert_eq!(order, ["early", "late"], "{s}: ordered by delivery time");
            assert_eq!(bus.pending(s), 0);
        }
    }

    #[test]
    fn discard_consumes_in_place() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(2), delays()));
        let s = bus.register_subscriber(SiteId::new(1));
        bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
        for _ in 0..3 {
            bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        }
        let held = bus.core.mailboxes[s.0 as usize].capacity();
        assert_eq!(bus.pending(s), 3);
        bus.discard_delivered();
        assert_eq!(bus.pending(s), 0);
        assert_eq!(bus.core.mailboxes[s.0 as usize].capacity(), held);
        assert!(bus.drain(s).is_empty());
        assert_eq!(bus.stored_messages(), 0, "discarding frees every slot");
        assert_eq!(bus.stats().delivered, 3, "consuming is not un-delivering");
    }

    /// A message on `/u`, owned by and published at `site`: a local hop,
    /// never faulted.
    fn local_msg(site: u32) -> (Topic, Message) {
        let topic = Topic::with_owner("/u", SiteId::new(site));
        (topic.clone(), Message::new(topic, Arc::new(site)))
    }

    #[test]
    fn discard_delivered_consumes_exactly_the_last_publishs_mailboxes() {
        let (other, pending_msg) = local_msg(2);
        let mut proxy = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let mut mesh = FullMeshBus::new(BusTopology::unbounded(sites(3), delays()));
        let proxy_subs = six_subscribers(|site| proxy.register_subscriber(site));
        let mesh_subs = six_subscribers(|site| mesh.register_subscriber(site));
        // The last subscriber listens on `/u` only and holds one message.
        let topic = Topic::with_owner("/t", SiteId::new(0));
        for (&s, &m) in proxy_subs.iter().zip(&mesh_subs).take(5) {
            proxy.subscribe(s, topic.clone());
            mesh.subscribe(m, topic.clone());
        }
        let bystander = (proxy_subs[5], mesh_subs[5]);
        proxy.subscribe(bystander.0, other.clone());
        mesh.subscribe(bystander.1, other);
        proxy.publish(SimTime::ZERO, SiteId::new(2), pending_msg.clone());
        mesh.publish(SimTime::ZERO, SiteId::new(2), pending_msg);

        let (p_out, m_out) = (
            proxy.publish(SimTime::ZERO, SiteId::new(0), msg(0)),
            mesh.publish(SimTime::ZERO, SiteId::new(0), msg(0)),
        );
        assert_eq!((p_out.delivered, m_out.delivered), (5, 5));
        proxy.discard_delivered();
        mesh.discard_delivered();
        for (&s, &m) in proxy_subs.iter().zip(&mesh_subs).take(5) {
            assert_eq!((proxy.pending(s), mesh.pending(m)), (0, 0), "{s}");
        }
        let held = (proxy.pending(bystander.0), mesh.pending(bystander.1));
        assert_eq!(held, (1, 1));
        // Consuming again is a no-op.
        proxy.discard_delivered();
        assert_eq!(proxy.pending(bystander.0), 1);
    }

    #[test]
    fn discard_delivered_consumes_a_duplicated_delivery_and_skips_a_lost_one() {
        // Every WAN copy is doubled, except towards site 2, where every
        // copy is lost.
        let cut = sb_faults::PairFaults::blackhole(SiteId::new(0), SiteId::new(2));
        let spec = sb_faults::FaultSpec::new(7).with_duplicate_probability(1.0);
        let plan = sb_faults::FaultPlan::new(spec.with_pair(cut));
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        bus.set_fault_plan(sb_faults::shared(plan));
        let doubled = bus.register_subscriber(SiteId::new(1));
        let cut_off = bus.register_subscriber(SiteId::new(2));
        let topic = Topic::with_owner("/t", SiteId::new(0));
        bus.subscribe(doubled, topic.clone());
        bus.subscribe(cut_off, topic);
        // `cut_off` still holds a message from before.
        let (other, earlier) = local_msg(2);
        bus.subscribe(cut_off, other);
        bus.publish(SimTime::ZERO, SiteId::new(2), earlier);

        let out = bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        assert_eq!((out.delivered, out.dropped), (2, 1));
        assert_eq!((bus.pending(doubled), bus.pending(cut_off)), (2, 1));
        bus.discard_delivered();
        assert_eq!(bus.pending(doubled), 0, "both copies consumed");
        assert_eq!(bus.pending(cut_off), 1, "the lost copy consumed nothing");
    }

    #[test]
    fn discard_delivered_after_a_publish_from_a_crashed_site_consumes_nothing() {
        let crash = sb_faults::CrashWindow::permanent(SiteId::new(1), SimTime::from_millis(10.0));
        let plan = || {
            sb_faults::shared(sb_faults::FaultPlan::new(
                sb_faults::FaultSpec::new(7).with_crash(crash.clone()),
            ))
        };
        let topic = Topic::with_owner("/t", SiteId::new(0));
        let mut proxy = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let mut mesh = FullMeshBus::new(BusTopology::unbounded(sites(3), delays()));
        proxy.set_fault_plan(plan());
        mesh.set_fault_plan(plan());
        let (p, m) = (
            proxy.register_subscriber(SiteId::new(0)),
            mesh.register_subscriber(SiteId::new(0)),
        );
        proxy.subscribe(p, topic.clone());
        mesh.subscribe(m, topic);
        // Delivered before the crash and not consumed.
        proxy.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        mesh.publish(SimTime::ZERO, SiteId::new(0), msg(0));

        let late = SimTime::from_millis(20.0);
        assert_eq!(proxy.publish(late, SiteId::new(1), msg(0)).delivered, 0);
        assert_eq!(mesh.publish(late, SiteId::new(1), msg(0)).delivered, 0);
        proxy.discard_delivered();
        mesh.discard_delivered();
        assert_eq!((proxy.pending(p), mesh.pending(m)), (1, 1));
    }

    #[test]
    fn drain_orders_by_delivery_time() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(2), delays()));
        let s = bus.register_subscriber(SiteId::new(1));
        bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
        bus.publish(SimTime::from_millis(100.0), SiteId::new(0), msg(0));
        bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        let inbox = bus.drain(s);
        assert_eq!(inbox.len(), 2);
        assert!(inbox[0].1 < inbox[1].1);
    }

    #[test]
    fn local_and_wan_split_partitions_traffic() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(2), delays()));
        let local = bus.register_subscriber(SiteId::new(0));
        let remote = bus.register_subscriber(SiteId::new(1));
        let topic = Topic::with_owner("/t", SiteId::new(0));
        bus.subscribe(local, topic.clone());
        bus.subscribe(remote, topic);
        bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
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
            bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
        }
        for i in 0..4 {
            bus.publish(SimTime::from_millis(f64::from(i)), SiteId::new(i % 3), msg(0));
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
                bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
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
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
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
        let at = |sub: SubscriberId, bus: &mut ProxyBus| {
            let inbox = bus.drain(sub);
            assert_eq!(inbox.len(), 1, "{sub}");
            inbox[0].1
        };
        let expected = |ms: u64| SimTime::from_nanos(ms * 1_000_000 + 200_000);
        assert_eq!(at(subs[1], &mut bus), expected(41), "site 1 goes first");
        assert_eq!(at(subs[2], &mut bus), expected(42), "site 2 second");
        assert_eq!(at(subs[3], &mut bus), expected(42), "one copy serves site 2");
        assert_eq!(at(subs[0], &mut bus), expected(43), "site 3 last");
        assert_eq!(out.last_delivery, Some(expected(43)));
    }

    #[test]
    fn a_full_uplink_drops_the_highest_site_for_all_its_subscribers() {
        // Two queue slots: sites 1 and 2 get theirs, site 3's copy finds
        // the queue full and is lost for both of its subscribers.
        let (mut bus, subs) = serialized_fanout(2, &[3, 1, 3, 2]);
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
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
        let pending: Vec<usize> = subs.iter().map(|&s| bus.pending(s)).collect();
        assert_eq!(pending, [0, 1, 0, 1]);
    }

    #[test]
    fn publish_without_subscribers_is_cheap() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(4), delays()));
        let out = bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        assert_eq!(out.delivered, 0);
        assert_eq!(out.wan_copies, 0);
        assert_eq!(bus.stats().wan_messages, 0);
        assert_eq!(bus.stored_messages(), 0, "a message nobody holds is not kept");
    }

    #[test]
    fn a_slot_lives_until_its_last_copy_is_consumed() {
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites(3), delays()));
        let subs = six_subscribers(|site| bus.register_subscriber(site));
        for &s in &subs {
            bus.subscribe(s, Topic::with_owner("/t", SiteId::new(0)));
        }
        bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        assert_eq!(bus.stored_messages(), 2);
        for &s in &subs[..5] {
            assert_eq!(bus.drain(s).len(), 2);
            assert_eq!(bus.stored_messages(), 2, "{s} was not the last holder");
        }
        let last = bus.drain(subs[5]);
        assert_eq!(bus.stored_messages(), 0);
        assert!(!last[0].0.shares_payload(&last[1].0), "two publishes, two payloads");
        // Freed slots are reused before the table grows.
        bus.publish(SimTime::ZERO, SiteId::new(0), msg(0));
        assert_eq!((bus.stored_messages(), bus.core.slots.slots.len()), (1, 2));
    }
}
