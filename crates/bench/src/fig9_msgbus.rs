//! Figure 9: message bus vs full-mesh broadcast.
//!
//! Paper result: "Full-mesh results in excessive queuing of messages at
//! the publisher's site, which results in an order of magnitude higher
//! latency than Switchboard. Switchboard also has 57% higher throughput
//! because full-mesh suffers from message drops due to buffer overflows."
//!
//! Both topologies run on identical virtual-time uplinks (finite
//! serialization rate, bounded queue) with subscribers fanned out across
//! remote sites; we publish a message burst and compare delivered
//! throughput, mean latency and drops.

use sb_msgbus::{BusTopology, DelayModel, FullMeshBus, ProxyBus, Topic};
use sb_netsim::SimTime;
use sb_types::{Millis, SiteId};

/// Results for one bus topology.
#[derive(Debug, Clone)]
pub struct BusResult {
    /// Scheme name.
    pub name: &'static str,
    /// Messages delivered to subscribers.
    pub delivered: u64,
    /// Copies dropped at full queues.
    pub dropped: u64,
    /// Mean delivery latency (ms) over delivered messages.
    pub mean_latency: f64,
    /// Delivered messages per virtual second.
    pub throughput: f64,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of sites (publisher at site 0).
    pub sites: u32,
    /// Subscribers per remote site.
    pub subscribers_per_site: u32,
    /// Messages published in the burst.
    pub messages: usize,
    /// Virtual gap between publishes (ms).
    pub publish_gap: Millis,
    /// Uplink serialization time per message (ms).
    pub serialization: Millis,
    /// Uplink queue capacity (messages).
    pub queue_capacity: usize,
    /// One-way WAN delay (ms).
    pub wan: Millis,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            sites: 6,
            subscribers_per_site: 20,
            messages: 200,
            publish_gap: Millis::new(3.0),
            serialization: Millis::new(0.5),
            queue_capacity: 2_000,
            wan: Millis::new(35.0),
        }
    }
}

fn site_ids(n: u32) -> Vec<SiteId> {
    (0..n).map(SiteId::new).collect()
}

/// Runs both topologies and returns `(proxy, full_mesh)`.
#[must_use]
pub fn run(config: &Config) -> (BusResult, BusResult) {
    let delays = DelayModel::uniform(Millis::new(0.1), config.wan);
    let topo = BusTopology::bounded(
        site_ids(config.sites),
        delays,
        config.serialization,
        config.queue_capacity,
    );
    let topic = Topic::with_owner("/control/state", SiteId::new(0));

    let publish_time = |i: usize| -> SimTime {
        #[allow(clippy::cast_precision_loss)]
        SimTime::from_millis(i as f64 * config.publish_gap.value())
    };

    // One burst on a bus of `$ty`: every delivery's latency is its time
    // since its own publish, read from the publish's deliveries, so it is
    // exact even when earlier copies were dropped.
    macro_rules! burst {
        ($ty:ty, $name:expr) => {{
            let mut bus = <$ty>::new(topo.clone());
            for site in 1..config.sites {
                for _ in 0..config.subscribers_per_site {
                    let s = bus.register_subscriber(SiteId::new(site));
                    bus.subscribe(s, topic.clone());
                }
            }
            let mut span = Millis::ZERO;
            let mut latencies = Vec::new();
            for i in 0..config.messages {
                let at = publish_time(i);
                bus.publish(at, SiteId::new(0), &topic);
                for &(_, t) in bus.deliveries() {
                    latencies.push(t.since(at).value());
                    span = Millis::new(span.value().max(t.as_millis().value()));
                }
            }
            summarize($name, &latencies, bus.stats().dropped, span)
        }};
    }
    (
        burst!(ProxyBus, "switchboard-bus"),
        burst!(FullMeshBus, "full-mesh"),
    )
}

fn summarize(name: &'static str, latencies: &[f64], dropped: u64, span: Millis) -> BusResult {
    #[allow(clippy::cast_precision_loss)]
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    #[allow(clippy::cast_precision_loss)]
    let throughput = if span.value() > 0.0 {
        latencies.len() as f64 / span.as_secs()
    } else {
        0.0
    };
    BusResult {
        name,
        delivered: latencies.len() as u64,
        dropped,
        mean_latency: mean,
        throughput,
    }
}

/// Formats both results as paper-style rows.
#[must_use]
pub fn render(proxy: &BusResult, mesh: &BusResult) -> String {
    let mut out = String::from(
        "fig9: message bus vs full-mesh broadcast (paper: +57% throughput, >10x lower latency)\n\
         scheme          | delivered | dropped | mean latency ms | delivered msg/s\n",
    );
    for r in [proxy, mesh] {
        out.push_str(&format!(
            "{:15} | {:9} | {:7} | {:15.1} | {:14.0}\n",
            r.name, r.delivered, r.dropped, r.mean_latency, r.throughput
        ));
    }
    out.push_str(&format!(
        "latency ratio (mesh/proxy): {:.1}x; throughput ratio (proxy/mesh): {:.2}x\n",
        mesh.mean_latency / proxy.mean_latency.max(1e-9),
        proxy.throughput / mesh.throughput.max(1e-9),
    ));
    out
}
