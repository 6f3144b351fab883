//! Multi-core forwarder scale-out measurement (the Figure 8 harness).
//!
//! Section 5.4's DPDK experiment pins each forwarder instance to one CPU
//! core with its own SR-IOV virtual interface, its own traffic generator
//! and its own VNF, then reports aggregate steady-state throughput as
//! instances and per-instance flow counts scale. This module reproduces
//! that setup in-process: each forwarder instance runs on a dedicated
//! thread in a tight generate→process loop, and the harness reports
//! aggregate millions of packets per second.
//!
//! Packets are driven through [`Forwarder::process_batch`] in batches of
//! [`ScaleoutConfig::batch_size`] (DPDK-style burst processing); a batch
//! size of 1 falls back to per-packet [`Forwarder::process`] so the bench
//! suite can sweep the amortization curve.
//!
//! Absolute numbers depend on the host CPU (the paper used an XL710 NIC and
//! a Xeon E5-2470); the reproduced *shape* is near-linear scaling across
//! instances and throughput decay as the per-instance flow table outgrows
//! the CPU caches.

use crate::forwarder::{Forwarder, ForwarderMode, RuleSet};
use crate::loadbalancer::WeightedChoice;
use crate::packet::{Addr, Packet};
use crate::pktgen::PacketGenerator;
use sb_telemetry::{Histogram, HistogramSnapshot, Telemetry};
use sb_types::{
    ChainLabel, EdgeInstanceId, EgressLabel, ForwarderId, InstanceId, LabelPair, Mpps, Result,
    SiteId,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one scale-out measurement.
#[derive(Debug, Clone)]
pub struct ScaleoutConfig {
    /// Number of forwarder instances (threads), 1-6 in Figure 8.
    pub instances: usize,
    /// Distinct flows per instance (2K-512K in Figure 8).
    pub flows_per_instance: usize,
    /// Packet size in bytes (64 in Figure 8).
    pub packet_size: u16,
    /// Forwarder mode (Figure 8 uses the full `Affinity` mode).
    pub mode: ForwarderMode,
    /// Measurement duration.
    pub duration: Duration,
    /// Warmup phase excluded from the measurement (lets the flow tables
    /// reach steady state, matching the paper's "steady-state throughput").
    pub warmup: Duration,
    /// Packets handed to the forwarder per [`Forwarder::process_batch`]
    /// call; `1` uses the per-packet [`Forwarder::process`] path instead.
    pub batch_size: usize,
    /// Telemetry sampling period: roughly one packet in `sample_every` is
    /// timed for the latency histograms (and, when a hub is attached,
    /// recorded as a trace event). `0` disables telemetry entirely —
    /// no forwarder instrumentation and no timing — which is the
    /// reference point for the CI overhead gate.
    pub sample_every: u64,
    /// Distinct service chains installed per forwarder instance. `1` is
    /// the classic single-chain Figure 8 setup; larger values split the
    /// flow population into Zipf-sized per-chain blocks
    /// ([`PacketGenerator::mixed`]) so every batch carries a realistic
    /// fleet mix of label pairs.
    pub chains: usize,
    /// Whether mixed-label traffic is bidirectional
    /// ([`PacketGenerator::mixed_bidirectional`]): every second flow of a
    /// chain's block carries the chain's reverse label pair, which is never
    /// installed and therefore resolves through the forwarder's chain
    /// fallback. Only meaningful with `chains > 1`.
    pub bidirectional: bool,
}

/// The default packet-sampling period (see DESIGN.md §9: the overhead
/// budget is <5% at this rate, enforced in CI).
pub const DEFAULT_SAMPLE_EVERY: u64 = sb_telemetry::trace::DEFAULT_SAMPLE_EVERY;

/// The steady-state packet floor of every warmup phase: a worker's measured
/// window may not open until it has driven at least `4 × flows` packets, so
/// (with the generator's uniform flow selection) essentially every flow has
/// been visited and the measured phase sees flow-table *hits*, not
/// first-packet inserts — the paper's "steady-state throughput".
///
/// This is the single criterion shared by [`measure_isolated`] and
/// [`measure_sharded`]; `flows` is the worker's expected flow population
/// (per instance for the isolated harness, per shard for the sharded one).
/// The wall-clock warmup duration gates the window as well — both
/// conditions must hold.
#[must_use]
pub const fn steady_state_floor(flows: usize) -> u64 {
    4 * flows as u64
}

impl Default for ScaleoutConfig {
    fn default() -> Self {
        Self {
            instances: 1,
            flows_per_instance: 2048,
            packet_size: 64,
            mode: ForwarderMode::Affinity,
            duration: Duration::from_millis(400),
            warmup: Duration::from_millis(100),
            batch_size: 256,
            sample_every: DEFAULT_SAMPLE_EVERY,
            chains: 1,
            bidirectional: false,
        }
    }
}

/// Per-packet processing-latency percentiles of a measurement, estimated
/// from log2-bucketed histograms of sampled `drive` calls (each timed call
/// contributes its elapsed time divided by the batch size). All zeros when
/// sampling was disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Timed samples contributing to the percentiles.
    pub samples: u64,
    /// Median per-packet latency in nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile per-packet latency in nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile per-packet latency in nanoseconds.
    pub p99_ns: u64,
    /// Worst sampled per-packet latency in nanoseconds.
    pub max_ns: u64,
    /// Mean per-packet latency in nanoseconds.
    pub mean_ns: f64,
}

impl From<&HistogramSnapshot> for LatencySummary {
    fn from(s: &HistogramSnapshot) -> Self {
        Self {
            samples: s.count,
            p50_ns: s.p50(),
            p90_ns: s.p90(),
            p99_ns: s.p99(),
            max_ns: s.max,
            mean_ns: s.mean(),
        }
    }
}

/// The outcome of a scale-out measurement.
#[derive(Debug, Clone, Copy)]
pub struct ScaleoutResult {
    /// Aggregate throughput across all instances.
    pub throughput: Mpps,
    /// Total packets processed during the measured phase.
    pub packets: u64,
    /// Total flow-table entries installed across instances at the end.
    pub flow_entries: usize,
    /// Sampled per-packet latency percentiles across all instances.
    pub latency: LatencySummary,
}

/// Builds the forwarder used by each measurement thread: one attached VNF
/// instance, one next-hop forwarder, mirroring the paper's "each forwarder
/// receives traffic from a traffic generator and sends it to a unique VNF
/// instance associated with the forwarder". With `cfg.chains > 1` the same
/// hop set is installed once per chain under distinct label pairs, so the
/// mixed-label pattern exercises FIB lookups without changing the per-hop
/// work.
fn build_forwarder(thread: usize, cfg: &ScaleoutConfig) -> (Forwarder, Vec<LabelPair>) {
    let chains = cfg.chains.max(1);
    let mut f = Forwarder::with_flow_capacity(
        ForwarderId::new(thread as u64),
        SiteId::new(0),
        cfg.mode,
        4 * cfg.flows_per_instance + 64,
    );
    let vnf = Addr::Vnf(InstanceId::new(thread as u64));
    let mut labels = Vec::with_capacity(chains);
    for c in 0..chains {
        #[allow(clippy::cast_possible_truncation)]
        let pair = LabelPair::new(
            ChainLabel::new((thread * chains + c) as u32 + 1),
            EgressLabel::new(1),
        );
        f.install_rules(
            pair,
            RuleSet {
                to_vnf: WeightedChoice::single(vnf),
                to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(1_000_000))),
                to_prev: WeightedChoice::single(Addr::Edge(EdgeInstanceId::new(0))),
            },
        );
        labels.push(pair);
    }
    f.set_bridge_next(vnf);
    (f, labels)
}

/// Builds the traffic generator matching [`build_forwarder`]'s label set:
/// uniform single-chain for one chain, Zipf mixed-label otherwise.
fn build_generator(labels: &[LabelPair], cfg: &ScaleoutConfig, seed: u64) -> PacketGenerator {
    if labels.len() == 1 {
        PacketGenerator::new(labels[0], cfg.flows_per_instance, cfg.packet_size, seed)
    } else if cfg.bidirectional {
        PacketGenerator::mixed_bidirectional(labels, cfg.flows_per_instance, cfg.packet_size, seed)
    } else {
        PacketGenerator::mixed(labels, cfg.flows_per_instance, cfg.packet_size, seed)
    }
}

/// One worker's traffic drive: refills the staging buffer from the
/// generator and pushes it through the forwarder. Returns the number of
/// packets driven.
#[inline]
fn drive(
    fwd: &mut Forwarder,
    gen: &mut PacketGenerator,
    edge: Addr,
    pkts: &mut [Packet],
    out: &mut Vec<Result<Addr>>,
) -> u64 {
    if pkts.len() == 1 {
        // Per-packet path (bench sweeps use batch_size = 1 as the
        // no-amortization reference point).
        let _ = fwd.process(gen.next_packet(), edge);
        return 1;
    }
    for p in pkts.iter_mut() {
        *p = gen.next_packet();
    }
    fwd.process_batch_into(pkts, edge, out);
    pkts.len() as u64
}

/// How many `drive` calls separate two timed ones: the per-packet sampling
/// period divided by the batch size, so roughly one packet in
/// `sample_every` is timed regardless of batch size (and the `Instant`
/// overhead on the batch=1 path stays far below the 5% budget). `0` means
/// timing is disabled.
fn lat_sample_every(sample_every: u64, batch: usize) -> u64 {
    if sample_every == 0 {
        0
    } else {
        (sample_every / batch as u64).max(1)
    }
}

/// Records one timed `drive` call: elapsed time split evenly over the
/// batch approximates per-packet processing latency.
#[inline]
fn record_drive_latency(latency: &Histogram, started: Instant, batch: usize) {
    #[allow(clippy::cast_possible_truncation)]
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    latency.record(elapsed_ns / batch as u64);
}

/// Summarizes the merged worker histogram and, when a hub is attached,
/// folds it into the registry's per-mode latency histogram.
fn finish_latency(
    config: &ScaleoutConfig,
    hub: Option<&Telemetry>,
    merged: &Histogram,
) -> LatencySummary {
    if let Some(h) = hub {
        h.registry
            .histogram(&format!("dataplane.latency.{}", config.mode.as_str()))
            .merge_from(merged);
    }
    LatencySummary::from(&merged.snapshot())
}

/// Runs each forwarder instance *in isolation* (one at a time, on whatever
/// core the scheduler provides) and sums their throughputs.
///
/// In the paper's testbed each forwarder is pinned to its own core and
/// shares nothing with its peers, so the aggregate of Figure 8 is by
/// construction the sum of per-core throughputs. On hosts with fewer cores
/// than instances a truly concurrent run would serialize on the scheduler
/// and misreport the scale-out shape; isolated measurement reproduces the
/// paper's per-core semantics on any host.
///
/// When a hub is given and `sample_every` is non-zero, every forwarder
/// instance is instrumented (sampled `pkt.hop` events plus `fwd-*`
/// counters) and the merged latency histogram is additionally published as
/// `dataplane.latency.<mode>` in the hub's registry.
///
/// # Panics
///
/// Panics if `config.instances` is zero.
#[must_use]
pub fn measure_isolated(config: &ScaleoutConfig, hub: Option<&Telemetry>) -> ScaleoutResult {
    assert!(config.instances > 0, "need at least one instance");
    let mut packets = 0u64;
    let mut flow_entries = 0usize;
    let mut pps = 0.0f64;
    let merged = Histogram::new();
    for t in 0..config.instances {
        let one = ScaleoutConfig {
            instances: 1,
            ..config.clone()
        };
        let r = run_worker(t, &one, hub);
        packets += r.0;
        flow_entries += r.2;
        pps += r.1;
        merged.merge_from(&r.3);
    }
    ScaleoutResult {
        throughput: Mpps::from_pps(pps),
        packets,
        flow_entries,
        latency: finish_latency(config, hub, &merged),
    }
}

/// One instance's generate→process loop for a fixed wall-clock window.
/// Returns `(packets, pps, flow_entries, latency)`.
fn run_worker(
    thread: usize,
    cfg: &ScaleoutConfig,
    hub: Option<&Telemetry>,
) -> (u64, f64, usize, Histogram) {
    let (mut fwd, labels) = build_forwarder(thread, cfg);
    if let (Some(h), true) = (hub, cfg.sample_every > 0) {
        fwd.attach_telemetry(h, cfg.sample_every);
    }
    let mut gen = build_generator(&labels, cfg, thread as u64 + 1);
    let edge = Addr::Edge(EdgeInstanceId::new(0));
    let batch = cfg.batch_size.max(1);
    let mut pkts = vec![gen.next_packet(); batch];
    let mut out = Vec::with_capacity(batch);
    let latency = Histogram::new();
    // Warmup until the flow table reaches steady state (shared criterion,
    // see `steady_state_floor`): at least the configured wall-clock warmup
    // AND the packet floor.
    let min_packets = steady_state_floor(cfg.flows_per_instance);
    let warm_end = Instant::now() + cfg.warmup;
    let mut warm_sent = 0u64;
    while Instant::now() < warm_end || warm_sent < min_packets {
        warm_sent += drive(&mut fwd, &mut gen, edge, &mut pkts, &mut out);
    }
    // Measured phase.
    let lat_every = lat_sample_every(cfg.sample_every, batch);
    let mut drives = 0u64;
    let mut next_timed = 0u64;
    let mut packets = 0u64;
    let t0 = Instant::now();
    let end = t0 + cfg.duration;
    while Instant::now() < end {
        if lat_every != 0 && drives == next_timed {
            next_timed += lat_every;
            let s = Instant::now();
            packets += drive(&mut fwd, &mut gen, edge, &mut pkts, &mut out);
            record_drive_latency(&latency, s, batch);
        } else {
            packets += drive(&mut fwd, &mut gen, edge, &mut pkts, &mut out);
        }
        drives += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let pps = packets as f64 / elapsed;
    (packets, pps, fwd.flow_entries(), latency)
}

// ---------------------------------------------------------------------------
// Sharded (contended) measurement: pktgen → N forwarder shards → sink,
// connected by SPSC rings (DESIGN.md §11).
// ---------------------------------------------------------------------------

/// Configuration of one sharded (contended) scale-out measurement.
///
/// Unlike [`ScaleoutConfig`], which gives every instance its own private
/// flow population, the sharded harness drives **one global population of
/// [`flows_total`](Self::flows_total) flows** through a single generator
/// stage and RSS-hashes it across [`shards`](Self::shards) forwarder
/// shards, so shards genuinely contend for cores, memory bandwidth, and the
/// rings between stages.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of forwarder shard threads (the harness additionally runs one
    /// generator thread and one sink thread).
    pub shards: usize,
    /// Total flows in the global population; each shard owns roughly
    /// `flows_total / shards` of them via the symmetric RSS hash.
    pub flows_total: usize,
    /// Packet size in bytes.
    pub packet_size: u16,
    /// Forwarder mode (the contended Figure 8 sweep uses `Affinity`).
    pub mode: ForwarderMode,
    /// Measurement duration (each shard times its own window).
    pub duration: Duration,
    /// Wall-clock warmup floor; the measured window does not open until
    /// this has elapsed *and* every shard has driven the
    /// [`steady_state_floor`] of its expected per-shard flow population,
    /// so oversubscribed hosts take longer to warm up rather than
    /// measuring cold flow tables.
    pub warmup: Duration,
    /// Ring pop / forwarder batch size.
    pub batch_size: usize,
    /// Capacity of each SPSC ring (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Telemetry sampling period, as in [`ScaleoutConfig::sample_every`].
    pub sample_every: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            flows_total: 4096,
            packet_size: 64,
            mode: ForwarderMode::Affinity,
            duration: Duration::from_millis(400),
            warmup: Duration::from_millis(100),
            batch_size: 64,
            ring_capacity: 1024,
            sample_every: DEFAULT_SAMPLE_EVERY,
        }
    }
}

/// Width of the shared load-balancer rule set the sharded harness installs:
/// every shard sees the same `to_vnf` choice over this many instances, so
/// pin selection is identical no matter which shard owns a flow.
pub const SHARDED_LB_WIDTH: usize = 4;

/// One shard's share of a sharded measurement.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Packets this shard processed during its measured window.
    pub packets: u64,
    /// This shard's steady-state throughput.
    pub throughput: Mpps,
    /// Flow-table entries in this shard at the end of the run.
    pub flow_entries: usize,
    /// Sampled per-packet forwarding latency within this shard.
    pub latency: LatencySummary,
}

/// The outcome of a sharded (contended) measurement.
#[derive(Debug, Clone)]
pub struct ShardedResult {
    /// Aggregate steady-state throughput (sum of per-shard rates).
    pub throughput: Mpps,
    /// Total packets processed across shards during the measured phase.
    pub packets: u64,
    /// Size of the global flow population that was driven.
    pub flows_total: usize,
    /// Aggregate flow-table entries across all shards at the end.
    pub flow_entries: usize,
    /// Merged per-packet latency percentiles across shards.
    pub latency: LatencySummary,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
}

/// Builds one forwarder shard. All shards get byte-identical rules — a
/// [`SHARDED_LB_WIDTH`]-wide uniform `to_vnf` choice under one label pair —
/// which is what makes shard placement invisible to pin selection (the
/// shard-equivalence property pinned by `tests/sharded_dataplane.rs`).
fn build_shard(shard: usize, cfg: &ShardedConfig) -> (Forwarder, LabelPair) {
    let labels = LabelPair::new(ChainLabel::new(1), EgressLabel::new(1));
    let expected = cfg.flows_total.div_ceil(cfg.shards);
    let mut f = Forwarder::with_flow_capacity(
        ForwarderId::new(shard as u64),
        SiteId::new(0),
        cfg.mode,
        // Up to 3 entries per forward-direction flow, plus slack for RSS
        // imbalance between shards.
        4 * expected + 1024,
    );
    let to_vnf = WeightedChoice::new(
        (0..SHARDED_LB_WIDTH)
            .map(|i| (Addr::Vnf(InstanceId::new(i as u64)), 1.0))
            .collect(),
    )
    .expect("static LB weights are valid");
    f.install_rules(
        labels,
        RuleSet {
            to_vnf,
            to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(1_000_000))),
            to_prev: WeightedChoice::single(Addr::Edge(EdgeInstanceId::new(0))),
        },
    );
    f.set_bridge_next(Addr::Vnf(InstanceId::new(0)));
    (f, labels)
}

/// Runs one contended sharded measurement: a generator thread RSS-scatters
/// one global flow population across `config.shards` forwarder-shard
/// threads over SPSC rings; each shard drains its ring in batches, runs the
/// forwarder fast path, and pushes the processed packets to a sink thread
/// over its own ring.
///
/// Per-shard warmup follows the shared [`steady_state_floor`] criterion on
/// the shard's *expected* flow share, and the coordinator holds the
/// measured window until the wall-clock warmup has elapsed *and* every
/// shard has crossed its floor — on a host with fewer cores than stage
/// threads, warmup stretches instead of the window opening on cold flow
/// tables. Each shard then times its own measured window, so backpressure
/// stalls (full sink ring, empty input ring) are charged to the shard they
/// stall — this is the honest contended counterpart of
/// [`measure_isolated`].
///
/// When a hub is given and `sample_every` is non-zero, each shard's latency
/// histogram is published under the per-shard label dimension
/// `dataplane.sharded.latency.<mode>{shard=N}` and the cross-shard merge
/// under the bare `dataplane.sharded.latency.<mode>` name (one histogram
/// family, see [`sb_telemetry::labeled`]).
///
/// # Panics
///
/// Panics if `config.shards` is zero, `config.flows_total < config.shards`,
/// or a stage thread panics.
#[must_use]
pub fn measure_sharded(config: &ShardedConfig, hub: Option<&Telemetry>) -> ShardedResult {
    assert!(config.shards > 0, "need at least one shard");
    assert!(
        config.flows_total >= config.shards,
        "need at least one flow per shard"
    );
    let stop = Arc::new(AtomicBool::new(false));
    let measuring = Arc::new(AtomicBool::new(false));
    // Count of shards that have crossed their steady-state floor; the
    // coordinator gates the measured window on all of them being warm.
    let warm = Arc::new(AtomicUsize::new(0));
    let batch = config.batch_size.max(1);

    // One input ring (gen → shard) and one output ring (shard → sink) per
    // shard; every ring has exactly one producer and one consumer thread.
    let mut in_tx = Vec::with_capacity(config.shards);
    let mut in_rx = Vec::with_capacity(config.shards);
    let mut out_tx = Vec::with_capacity(config.shards);
    let mut out_rx = Vec::with_capacity(config.shards);
    for _ in 0..config.shards {
        let (tx, rx) = crate::ring::spsc::<Packet>(config.ring_capacity);
        in_tx.push(tx);
        in_rx.push(rx);
        let (tx, rx) = crate::ring::spsc::<Packet>(config.ring_capacity);
        out_tx.push(tx);
        out_rx.push(rx);
    }

    // Generator stage: one thread, one global population, RSS-scattered.
    let gen_thread = {
        let stop = Arc::clone(&stop);
        let cfg = config.clone();
        std::thread::spawn(move || {
            let labels = LabelPair::new(ChainLabel::new(1), EgressLabel::new(1));
            let mut gen =
                PacketGenerator::new(labels, cfg.flows_total, cfg.packet_size, 1);
            // Shard each flow once up front; per packet the scatter is a
            // table lookup, not two FNV hashes.
            #[allow(clippy::cast_possible_truncation)]
            let shard_by_flow: Vec<u32> = gen
                .flows()
                .iter()
                .map(|k| crate::shard::shard_of_key(*k, cfg.shards) as u32)
                .collect();
            let mut staged: Vec<Vec<Packet>> =
                (0..cfg.shards).map(|_| Vec::with_capacity(batch)).collect();
            'produce: while !stop.load(Ordering::Relaxed) {
                for buf in &mut staged {
                    buf.clear();
                }
                for _ in 0..batch {
                    let (idx, pkt) = gen.next_packet_indexed();
                    staged[shard_by_flow[idx] as usize].push(pkt);
                }
                // Flush every staged buffer in order (front first), so a
                // flow's packets enter its ring in emission order.
                for (s, buf) in staged.iter().enumerate() {
                    let mut off = 0;
                    while off < buf.len() {
                        let pushed = in_tx[s].push_batch(&buf[off..]);
                        off += pushed;
                        if pushed == 0 {
                            if stop.load(Ordering::Relaxed) {
                                break 'produce;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            }
        })
    };

    // Forwarder shard stage: N threads, each owning one forwarder, one
    // input ring consumer, and one sink ring producer.
    let mut shard_threads = Vec::with_capacity(config.shards);
    for (s, (mut rx, mut tx)) in in_rx.drain(..).zip(out_tx.drain(..)).enumerate() {
        let stop = Arc::clone(&stop);
        let measuring = Arc::clone(&measuring);
        let warm = Arc::clone(&warm);
        let cfg = config.clone();
        let hub = hub.cloned();
        shard_threads.push(std::thread::spawn(move || {
            let (mut fwd, _labels) = build_shard(s, &cfg);
            if let (Some(h), true) = (&hub, cfg.sample_every > 0) {
                fwd.attach_telemetry(h, cfg.sample_every);
            }
            let mut pkts: Vec<Packet> = Vec::with_capacity(batch);
            let mut results = Vec::with_capacity(batch);
            let latency = Histogram::new();
            let expected = cfg.flows_total.div_ceil(cfg.shards);
            let min_packets = steady_state_floor(expected);
            let lat_every = lat_sample_every(cfg.sample_every, batch);

            // One drain→process→forward cycle; returns packets processed,
            // or `None` when the input ring is empty.
            let cycle = |fwd: &mut Forwarder,
                             pkts: &mut Vec<Packet>,
                             results: &mut Vec<Result<Addr>>,
                             rx: &mut crate::ring::Consumer<Packet>,
                             tx: &mut crate::ring::Producer<Packet>,
                             timed: bool,
                             latency: &Histogram|
             -> Option<u64> {
                pkts.clear();
                let n = rx.pop_batch(pkts, batch);
                if n == 0 {
                    return None;
                }
                if timed {
                    let t = Instant::now();
                    fwd.process_batch_into(pkts, Addr::Edge(EdgeInstanceId::new(0)), results);
                    record_drive_latency(latency, t, n);
                } else {
                    fwd.process_batch_into(pkts, Addr::Edge(EdgeInstanceId::new(0)), results);
                }
                // Sink stage handoff: the processed packets continue over
                // this shard's output ring.
                let mut off = 0;
                while off < pkts.len() {
                    let pushed = tx.push_batch(&pkts[off..]);
                    off += pushed;
                    if pushed == 0 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                Some(n as u64)
            };

            // Warmup: shared steady-state criterion on the shard's expected
            // flow share, plus the coordinator's wall-clock gate. Crossing
            // the floor is announced once so the coordinator can hold the
            // window until every shard is warm.
            let mut warm_sent = 0u64;
            let mut announced = false;
            while !(measuring.load(Ordering::Relaxed) && warm_sent >= min_packets) {
                if !announced && warm_sent >= min_packets {
                    warm.fetch_add(1, Ordering::SeqCst);
                    announced = true;
                }
                if stop.load(Ordering::Relaxed) {
                    // Window closed before steady state; report nothing
                    // rather than a partially-warm rate.
                    return (
                        ShardStats {
                            shard: s,
                            packets: 0,
                            throughput: Mpps::from_pps(0.0),
                            flow_entries: fwd.flow_entries(),
                            latency: LatencySummary::default(),
                        },
                        latency,
                    );
                }
                match cycle(
                    &mut fwd, &mut pkts, &mut results, &mut rx, &mut tx, false, &latency,
                ) {
                    Some(n) => warm_sent += n,
                    None => std::thread::yield_now(),
                }
            }

            if !announced {
                warm.fetch_add(1, Ordering::SeqCst);
            }

            // Measured window, timed per shard; ring stalls count.
            let mut drives = 0u64;
            let mut next_timed = 0u64;
            let mut measured = 0u64;
            let t0 = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let timed = lat_every != 0 && drives == next_timed;
                match cycle(
                    &mut fwd, &mut pkts, &mut results, &mut rx, &mut tx, timed, &latency,
                ) {
                    Some(n) => {
                        measured += n;
                        if timed {
                            next_timed += lat_every;
                        }
                        drives += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            let elapsed = t0.elapsed().as_secs_f64();
            #[allow(clippy::cast_precision_loss)]
            let pps = if elapsed > 0.0 {
                measured as f64 / elapsed
            } else {
                0.0
            };
            (
                ShardStats {
                    shard: s,
                    packets: measured,
                    throughput: Mpps::from_pps(pps),
                    flow_entries: fwd.flow_entries(),
                    latency: LatencySummary::from(&latency.snapshot()),
                },
                latency,
            )
        }));
    }

    // Sink stage: one thread draining every shard's output ring. It keeps
    // draining until the coordinator stops the run *and* the rings are dry,
    // so shards never block on a full output ring at shutdown.
    let sink_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scratch: Vec<Packet> = Vec::with_capacity(batch);
            let mut sunk = 0u64;
            loop {
                let mut drained = 0usize;
                for rx in &mut out_rx {
                    scratch.clear();
                    drained += rx.pop_batch(&mut scratch, batch);
                }
                sunk += drained as u64;
                if drained == 0 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            sunk
        })
    };

    std::thread::sleep(config.warmup);
    // Hold the window until every shard has crossed its steady-state
    // floor: on a host with fewer cores than stage threads the wall clock
    // alone can elapse long before the flow tables are warm, and a
    // partially-warm window must not be measured.
    while warm.load(Ordering::SeqCst) < config.shards {
        std::thread::sleep(Duration::from_millis(1));
    }
    measuring.store(true, Ordering::SeqCst);
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::SeqCst);

    gen_thread.join().expect("generator thread panicked");
    let family = format!("dataplane.sharded.latency.{}", config.mode.as_str());
    let merged = Histogram::new();
    let mut shards: Vec<ShardStats> = Vec::with_capacity(config.shards);
    for handle in shard_threads {
        let (st, lat) = handle.join().expect("shard thread panicked");
        if let (Some(h), true) = (hub, config.sample_every > 0) {
            // Per-shard label dimension: one histogram family, one labeled
            // series per shard plus the bare cross-shard merge below.
            h.registry
                .histogram(&sb_telemetry::labeled(
                    &family,
                    &[("shard", &st.shard.to_string())],
                ))
                .merge_from(&lat);
        }
        merged.merge_from(&lat);
        shards.push(st);
    }
    let sunk = sink_thread.join().expect("sink thread panicked");
    shards.sort_by_key(|st| st.shard);

    if let Some(h) = hub {
        h.registry.histogram(&family).merge_from(&merged);
        h.registry.counter("dataplane.sharded.sink_rx").add(sunk);
    }

    let packets: u64 = shards.iter().map(|st| st.packets).sum();
    let pps: f64 = shards.iter().map(|st| st.throughput.as_pps()).sum();
    let flow_entries: usize = shards.iter().map(|st| st.flow_entries).sum();
    ShardedResult {
        throughput: Mpps::from_pps(pps),
        packets,
        flows_total: config.flows_total,
        flow_entries,
        latency: LatencySummary::from(&merged.snapshot()),
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(instances: usize, flows: usize, mode: ForwarderMode) -> ScaleoutResult {
        measure_isolated(
            &ScaleoutConfig {
                instances,
                flows_per_instance: flows,
                mode,
                duration: Duration::from_millis(120),
                warmup: Duration::from_millis(30),
                ..ScaleoutConfig::default()
            },
            None,
        )
    }

    #[test]
    fn single_instance_forwards_packets() {
        let r = quick(1, 1024, ForwarderMode::Affinity);
        assert!(r.packets > 0);
        assert!(r.throughput.value() > 0.1, "{}", r.throughput);
    }

    #[test]
    fn flow_tables_reach_steady_state() {
        let r = quick(1, 512, ForwarderMode::Affinity);
        // A wire-side first packet pins 3 hops (forward, reverse, symmetric
        // return) in its connection's record; `flow_entries` counts hops.
        assert!(r.flow_entries >= 512, "{}", r.flow_entries);
        assert!(r.flow_entries <= 3 * 512 + 8, "{}", r.flow_entries);
    }

    #[test]
    fn isolated_instances_aggregate() {
        // What is deterministic about a two-instance run. The throughput
        // ratio is wall-clock and belongs to `bench-dataplane
        // --check-scaleout`, not to a unit test sharing two cores with the
        // rest of the sweep.
        let hub = Telemetry::new();
        let two = measure_isolated(
            &ScaleoutConfig {
                instances: 2,
                flows_per_instance: 1024,
                duration: Duration::from_millis(120),
                warmup: Duration::from_millis(30),
                ..ScaleoutConfig::default()
            },
            Some(&hub),
        );
        // Both instances forward, dropping nothing; the aggregate is their
        // sum (each forwarder's own `rx` also counts its warm-up).
        let snap = hub.registry.snapshot();
        let rx: Vec<u64> = (0..2)
            .map(|t| snap.counter(&format!("fwd-{t}.rx")))
            .collect();
        let floor = steady_state_floor(1024);
        assert!(rx.iter().all(|&n| n > floor), "{rx:?}");
        for (t, &n) in rx.iter().enumerate() {
            assert_eq!(snap.counter(&format!("fwd-{t}.tx")), n, "instance {t}");
        }
        assert!(two.packets > 0 && two.packets + 2 * floor <= rx[0] + rx[1]);
        // Both flow tables reach steady state: more hops than one
        // instance's 1024 connections × 3 can hold, at most twice that.
        assert!(two.flow_entries > 3 * 1024, "{}", two.flow_entries);
        assert!(two.flow_entries <= 2 * 3 * 1024, "{}", two.flow_entries);
    }

    #[test]
    fn bridge_mode_is_fastest() {
        let bridge = quick(1, 1024, ForwarderMode::Bridge);
        let affinity = quick(1, 1024, ForwarderMode::Affinity);
        assert!(
            bridge.throughput.value() > affinity.throughput.value(),
            "bridge {} vs affinity {}",
            bridge.throughput,
            affinity.throughput
        );
    }

    #[test]
    fn batch_size_one_still_measures() {
        let r = measure_isolated(
            &ScaleoutConfig {
                flows_per_instance: 512,
                duration: Duration::from_millis(60),
                warmup: Duration::from_millis(15),
                batch_size: 1,
                ..ScaleoutConfig::default()
            },
            None,
        );
        assert!(r.packets > 0);
        assert!(r.throughput.value() > 0.1, "{}", r.throughput);
    }

    #[test]
    fn latency_summary_is_populated_and_ordered() {
        let r = quick(1, 512, ForwarderMode::Affinity);
        assert!(r.latency.samples > 0, "no timed drives in {:?}", r.latency);
        assert!(r.latency.p50_ns >= 1);
        assert!(r.latency.p50_ns <= r.latency.p90_ns);
        assert!(r.latency.p90_ns <= r.latency.p99_ns);
        assert!(r.latency.p99_ns <= r.latency.max_ns);
        assert!(r.latency.mean_ns > 0.0);
    }

    #[test]
    fn sampling_disabled_yields_empty_latency_summary() {
        let r = measure_isolated(
            &ScaleoutConfig {
                flows_per_instance: 256,
                duration: Duration::from_millis(60),
                warmup: Duration::from_millis(15),
                sample_every: 0,
                ..ScaleoutConfig::default()
            },
            None,
        );
        assert!(r.packets > 0);
        assert_eq!(r.latency, LatencySummary::default());
    }

    #[test]
    fn mixed_chain_measurement_forwards() {
        let r = measure_isolated(
            &ScaleoutConfig {
                flows_per_instance: 512,
                chains: 8,
                duration: Duration::from_millis(80),
                warmup: Duration::from_millis(20),
                ..ScaleoutConfig::default()
            },
            None,
        );
        assert!(r.packets > 0);
        assert!(r.throughput.value() > 0.1, "{}", r.throughput);
        // All flows of all chains install entries (≤ 3 each).
        assert!(r.flow_entries >= 512, "{}", r.flow_entries);
    }

    #[test]
    fn warmup_floor_is_pinned() {
        // The shared steady-state criterion: 4 packets per expected flow.
        // Both harnesses (`measure_isolated`, `measure_sharded`) gate their
        // measured windows on this exact floor; changing it changes what
        // "steady state" means in every published benchmark, so the value
        // is pinned here.
        assert_eq!(steady_state_floor(0), 0);
        assert_eq!(steady_state_floor(1), 4);
        assert_eq!(steady_state_floor(512), 2048);
        assert_eq!(steady_state_floor(524_288), 2_097_152);
    }

    fn quick_sharded(shards: usize, flows_total: usize) -> ShardedResult {
        measure_sharded(
            &ShardedConfig {
                shards,
                flows_total,
                duration: Duration::from_millis(120),
                warmup: Duration::from_millis(30),
                batch_size: 32,
                ..ShardedConfig::default()
            },
            None,
        )
    }

    #[test]
    fn sharded_single_shard_forwards_packets() {
        let r = quick_sharded(1, 512);
        assert!(r.packets > 0);
        assert!(r.throughput.value() > 0.01, "{}", r.throughput);
        assert_eq!(r.shards.len(), 1);
        assert_eq!(r.flows_total, 512);
    }

    #[test]
    fn sharded_shards_all_reach_steady_state_and_report() {
        let r = quick_sharded(2, 1024);
        assert_eq!(r.shards.len(), 2);
        for st in &r.shards {
            assert!(st.packets > 0, "shard {} starved", st.shard);
            // RSS spreads ~512 flows onto each shard; after warmup each
            // shard's table holds up to 3 entries per owned flow.
            assert!(st.flow_entries > 100, "shard {}: {}", st.shard, st.flow_entries);
        }
        let sum: u64 = r.shards.iter().map(|s| s.packets).sum();
        assert_eq!(sum, r.packets);
        // Both directions of the population stay shardable: aggregate
        // entries never exceed 3 per flow plus slack.
        assert!(r.flow_entries <= 3 * 1024 + 64, "{}", r.flow_entries);
    }

    #[test]
    fn sharded_latency_summary_is_populated() {
        let r = quick_sharded(2, 512);
        assert!(r.latency.samples > 0);
        assert!(r.latency.p50_ns <= r.latency.p99_ns);
        assert_eq!(
            r.latency.samples,
            r.shards.iter().map(|s| s.latency.samples).sum::<u64>(),
            "merged histogram must cover every shard's samples"
        );
    }

    #[test]
    fn sharded_hub_gets_per_shard_histogram_family_and_sink_counter() {
        let hub = Telemetry::new();
        let r = measure_sharded(
            &ShardedConfig {
                shards: 2,
                flows_total: 512,
                duration: Duration::from_millis(100),
                warmup: Duration::from_millis(25),
                batch_size: 32,
                sample_every: 64,
                ..ShardedConfig::default()
            },
            Some(&hub),
        );
        let snap = hub.registry.snapshot();
        let fam = snap.histogram_family("dataplane.sharded.latency.affinity");
        // Bare merged series + one labeled series per shard.
        assert_eq!(fam.len(), 3, "{:?}", fam.iter().map(|(n, _)| n).collect::<Vec<_>>());
        let merged = snap
            .histogram("dataplane.sharded.latency.affinity")
            .expect("merged histogram");
        assert_eq!(merged.count, r.latency.samples);
        assert!(
            snap.histogram("dataplane.sharded.latency.affinity{shard=0}").is_some()
                && snap.histogram("dataplane.sharded.latency.affinity{shard=1}").is_some(),
            "per-shard label dimension missing"
        );
        // The sink drained what the shards forwarded (modulo packets still
        // in flight in the rings at the stop edge, drained afterwards).
        assert!(snap.counter("dataplane.sharded.sink_rx") > 0);
    }

    #[test]
    #[should_panic(expected = "at least one flow per shard")]
    fn sharded_rejects_fewer_flows_than_shards() {
        let _ = measure_sharded(
            &ShardedConfig {
                shards: 4,
                flows_total: 2,
                ..ShardedConfig::default()
            },
            None,
        );
    }

    #[test]
    fn hub_receives_per_mode_latency_histogram_and_forwarder_counters() {
        let hub = Telemetry::new();
        let r = measure_isolated(
            &ScaleoutConfig {
                flows_per_instance: 256,
                duration: Duration::from_millis(60),
                warmup: Duration::from_millis(15),
                sample_every: 64,
                ..ScaleoutConfig::default()
            },
            Some(&hub),
        );
        let snap = hub.registry.snapshot();
        let lat = snap
            .histogram("dataplane.latency.affinity")
            .expect("latency histogram registered");
        assert_eq!(lat.count, r.latency.samples);
        assert!(snap.counter("fwd-0.rx") > 0);
        // Sampled packet hops land in the hub's trace ring.
        assert!(hub
            .tracer
            .snapshot()
            .iter()
            .any(|rec| rec.name == "pkt.hop"));
    }
}
