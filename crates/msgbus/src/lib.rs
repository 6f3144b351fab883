//! The Switchboard global message bus.
//!
//! Section 6 of the paper: control-plane state is disseminated over a
//! publish-subscribe bus with a message-queuing *proxy at each site*.
//! Publishers publish to their own site's proxy; **subscription filters are
//! installed at the proxy of the publisher's site** (inferred from the
//! topic); a remote site receives *a single copy* of a message iff it has at
//! least one subscriber, over a shared inter-proxy connection. This
//! minimizes wide-area messages relative to the full-mesh broadcast
//! baseline, which sends one copy per subscriber from the publisher's
//! uplink and collapses under queueing (Figure 9).
//!
//! The bus is simulated deterministically on virtual time (`SimTime`):
//! each site has an uplink with a per-message serialization time and a
//! bounded queue; WAN propagation delays come from a [`DelayModel`], and
//! `SimTime` is `sb_netsim`'s virtual clock. With
//! zero serialization time and unbounded queues the same type doubles as
//! the control-plane transport used by `sb-controller`, where only the
//! propagation delays matter (Table 2, Figure 10a).
//!
//! A publish stores nothing: it returns its [`PublishOutcome`], and
//! [`ProxyBus::deliveries`] lists the copies it delivered, one
//! `(subscriber, delivery time)` pair each. The publisher keeps the value
//! it published; the deliveries say which subscribers got it, and when.
//!
//! # Examples
//!
//! ```
//! use sb_msgbus::{BusTopology, DelayModel, ProxyBus, Topic};
//! use sb_netsim::SimTime;
//! use sb_types::{Millis, SiteId};
//!
//! let (a, b) = (SiteId::new(0), SiteId::new(1));
//! let delays = DelayModel::uniform(Millis::new(0.1), Millis::new(40.0));
//! let mut bus = ProxyBus::new(BusTopology::unbounded(vec![a, b], delays));
//!
//! let sub = bus.register_subscriber(b);
//! let topic = Topic::parse("/c1/e3/vnf_G/site_0_instances").unwrap();
//! bus.subscribe(sub, topic.clone());
//!
//! let out = bus.publish(SimTime::ZERO, a, &topic);
//! assert_eq!(out.delivered, 1);
//! // One local proxy hop + one WAN hop + one local delivery hop.
//! assert_eq!(bus.deliveries(), [(sub, SimTime::from_millis(40.2))]);
//! assert_eq!(out.last_delivery, Some(SimTime::from_millis(40.2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod delay;
mod topic;

pub use bus::{BusStats, BusTopology, FullMeshBus, ProxyBus, PublishOutcome, SubscriberId};
pub use delay::DelayModel;
pub use sb_faults::SharedFaultPlan;
pub use topic::Topic;
