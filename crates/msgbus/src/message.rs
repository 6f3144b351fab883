//! Bus messages.
//!
//! A payload is a shared typed value. The prototype stored its data entries
//! as JSON objects in the ODL data store (Section 4.5); here the bus hands
//! subscribers the value the publisher holds, so a publish encodes nothing
//! and every delivered copy is a handle to the one payload allocation.

use crate::topic::Topic;
use std::any::Any;
use std::sync::Arc;

/// A message published on the bus: a topic plus a shared typed payload.
///
/// Cloning a message, as every delivery does, shares its topic path and its
/// payload.
#[derive(Debug, Clone)]
pub struct Message {
    topic: Topic,
    payload: Arc<dyn Any + Send + Sync>,
}

impl Message {
    /// Creates a message carrying `payload`. A publisher that keeps the
    /// value passes a clone of its `Arc`, so the message shares it.
    #[must_use]
    pub fn new<T: Any + Send + Sync>(topic: Topic, payload: Arc<T>) -> Self {
        Self { topic, payload }
    }

    /// The topic.
    #[must_use]
    pub fn topic(&self) -> &Topic {
        &self.topic
    }

    /// The payload as a `T`, or `None` when it was published as another
    /// type.
    #[must_use]
    pub fn payload<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref()
    }

    /// Whether `self` and `other` carry the same payload allocation.
    pub(crate) fn shares_payload(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.payload, &other.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusTopology, ProxyBus};
    use crate::delay::DelayModel;
    use sb_faults::{FaultPlan, FaultSpec};
    use sb_netsim::SimTime;
    use sb_types::{Millis, SiteId};

    /// A VNF instance as a publisher might describe it.
    struct InstanceInfo {
        addr: String,
        weight: f64,
    }

    fn topic() -> Topic {
        Topic::with_owner("/test", SiteId::new(0))
    }

    #[test]
    fn a_delivered_copy_downcasts_to_the_published_type_only() {
        let info = InstanceInfo {
            addr: "10.0.0.1".into(),
            weight: 2.5,
        };
        let mut bus = ProxyBus::new(BusTopology::unbounded(
            vec![SiteId::new(0), SiteId::new(1)],
            DelayModel::uniform(Millis::new(0.1), Millis::new(40.0)),
        ));
        let sub = bus.register_subscriber(SiteId::new(1));
        bus.subscribe(sub, topic());
        bus.publish(
            SimTime::ZERO,
            SiteId::new(0),
            Message::new(topic(), Arc::new(info)),
        );
        let inbox = bus.drain(sub);
        let (msg, _) = &inbox[0];
        let got = msg
            .payload::<InstanceInfo>()
            .expect("published as InstanceInfo");
        assert_eq!((got.addr.as_str(), got.weight), ("10.0.0.1", 2.5));
        assert!(msg.payload::<String>().is_none());
        assert!(
            msg.payload::<Arc<InstanceInfo>>().is_none(),
            "the Arc is not the payload"
        );
        assert!(msg.payload::<()>().is_none());
    }

    #[test]
    fn every_copy_shares_the_publishers_payload_even_a_duplicated_one() {
        // Every WAN copy is doubled: site 1 receives the message twice.
        let plan = FaultPlan::new(FaultSpec::new(3).with_duplicate_probability(1.0));
        let sites = vec![SiteId::new(0), SiteId::new(1), SiteId::new(2)];
        let delays = DelayModel::uniform(Millis::new(0.1), Millis::new(40.0));
        let mut bus = ProxyBus::new(BusTopology::unbounded(sites, delays));
        bus.set_fault_plan(sb_faults::shared(plan));
        let subs: Vec<_> = [0, 1, 1, 2]
            .into_iter()
            .map(|s| bus.register_subscriber(SiteId::new(s)))
            .collect();
        for &s in &subs {
            bus.subscribe(s, topic());
        }
        let value = Arc::new(vec![7u64, 8, 9]);
        let out = bus.publish(
            SimTime::ZERO,
            SiteId::new(0),
            Message::new(topic(), value.clone()),
        );
        assert_eq!(
            out.delivered, 7,
            "one local copy and two per remote subscriber"
        );
        let mut copies = 0;
        for s in subs {
            for (msg, _) in bus.drain(s) {
                let got = msg.payload::<Vec<u64>>().expect("a Vec<u64>");
                assert!(std::ptr::eq(got, &*value), "{s} holds its own copy");
                copies += 1;
            }
        }
        assert_eq!(copies, 7);
        assert_eq!(Arc::strong_count(&value), 1, "draining released every copy");
    }
}
