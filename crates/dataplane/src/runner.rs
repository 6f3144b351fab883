//! Multi-core forwarder scale-out measurement (the Figure 8 harness).
//!
//! Section 5.4's DPDK experiment pins each forwarder instance to one CPU
//! core with its own SR-IOV virtual interface, its own traffic generator
//! and its own VNF, then reports aggregate steady-state throughput as
//! instances and per-instance flow counts scale. This module reproduces
//! that setup in-process with two harnesses that share one generate→process
//! worker loop and report aggregate millions of packets per second:
//!
//! - [`measure_isolated`] runs each instance alone, one after another, and
//!   sums their rates — the per-core ceiling, on any host;
//! - [`measure_sharded`] runs N shard threads at once, each generating and
//!   forwarding its own RSS share of one global flow population, as a
//!   NIC's per-core queues would feed them — the contended counterpart.
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
    /// flow population into Zipf-sized per-chain blocks of bidirectional
    /// traffic ([`PacketGenerator::mixed_bidirectional`]), so every batch
    /// carries a realistic fleet mix of label pairs, and every second flow
    /// of a block carries its chain's never-installed reverse pair and
    /// resolves through the forwarder's chain fallback.
    pub chains: usize,
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
/// [`measure_sharded`]; `flows` is the size of the worker's own flow
/// population (an instance's, or a shard's RSS share). The wall-clock
/// warmup duration gates the window as well — both conditions must hold.
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
/// uniform single-chain for one chain, bidirectional Zipf mixed-label
/// otherwise.
fn build_generator(labels: &[LabelPair], cfg: &ScaleoutConfig, seed: u64) -> PacketGenerator {
    if labels.len() == 1 {
        PacketGenerator::new(labels[0], cfg.flows_per_instance, cfg.packet_size, seed)
    } else {
        PacketGenerator::mixed_bidirectional(labels, cfg.flows_per_instance, cfg.packet_size, seed)
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
/// folds it into the registry's histogram `name`.
fn finish_latency(hub: Option<&Telemetry>, name: &str, merged: &Histogram) -> LatencySummary {
    if let Some(h) = hub {
        h.registry.histogram(name).merge_from(merged);
    }
    LatencySummary::from(&merged.snapshot())
}

/// One worker's generate→process loop, shared by both harnesses.
///
/// The worker drives traffic until `open(past_floor)` lets its measured
/// window open, where `past_floor` turns true once it has driven the
/// [`steady_state_floor`] of its own flow population. It then drives while
/// `running(t0)` holds, `t0` being the window's start, and times one
/// `drive` call in [`lat_sample_every`] into a latency histogram. Returns
/// the window's `(packets, pps, latency)`.
fn run_worker(
    fwd: &mut Forwarder,
    gen: &mut PacketGenerator,
    batch: usize,
    sample_every: u64,
    mut open: impl FnMut(bool) -> bool,
    mut running: impl FnMut(Instant) -> bool,
) -> (u64, f64, Histogram) {
    let edge = Addr::Edge(EdgeInstanceId::new(0));
    let mut pkts = vec![gen.next_packet(); batch];
    let mut out = Vec::with_capacity(batch);
    let latency = Histogram::new();
    let floor = steady_state_floor(gen.num_flows());
    let mut warm_sent = 0u64;
    while !open(warm_sent >= floor) {
        warm_sent += drive(fwd, gen, edge, &mut pkts, &mut out);
    }
    // Measured phase.
    let lat_every = lat_sample_every(sample_every, batch);
    let mut drives = 0u64;
    let mut next_timed = 0u64;
    let mut packets = 0u64;
    let t0 = Instant::now();
    while running(t0) {
        if lat_every != 0 && drives == next_timed {
            next_timed += lat_every;
            let s = Instant::now();
            packets += drive(fwd, gen, edge, &mut pkts, &mut out);
            record_drive_latency(&latency, s, batch);
        } else {
            packets += drive(fwd, gen, edge, &mut pkts, &mut out);
        }
        drives += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let pps = if elapsed > 0.0 {
        packets as f64 / elapsed
    } else {
        0.0
    };
    (packets, pps, latency)
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
/// Each instance's window opens once the wall-clock warmup has elapsed and
/// it has driven its [`steady_state_floor`].
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
        let (mut fwd, labels) = build_forwarder(t, config);
        if let (Some(h), true) = (hub, config.sample_every > 0) {
            fwd.attach_telemetry(h, config.sample_every);
        }
        let mut gen = build_generator(&labels, config, t as u64 + 1);
        let warm_end = Instant::now() + config.warmup;
        let (n, rate, latency) = run_worker(
            &mut fwd,
            &mut gen,
            config.batch_size.max(1),
            config.sample_every,
            |past_floor| past_floor && Instant::now() >= warm_end,
            |t0| t0.elapsed() < config.duration,
        );
        packets += n;
        pps += rate;
        flow_entries += fwd.flow_entries();
        merged.merge_from(&latency);
    }
    let name = format!("dataplane.latency.{}", config.mode.as_str());
    ScaleoutResult {
        throughput: Mpps::from_pps(pps),
        packets,
        flow_entries,
        latency: finish_latency(hub, &name, &merged),
    }
}

// ---------------------------------------------------------------------------
// Sharded (contended) measurement: N forwarder shards run at once, each
// driving its own RSS share of one flow population (DESIGN.md §11).
// ---------------------------------------------------------------------------

/// Configuration of one sharded (contended) scale-out measurement.
///
/// Unlike [`ScaleoutConfig`], which gives every instance its own private
/// flow population, the sharded harness builds **one global population of
/// [`flows_total`](Self::flows_total) flows** and splits it across
/// [`shards`](Self::shards) forwarder shards by the symmetric RSS hash, the
/// way a multi-queue NIC gives each core its own queue. The shards run at
/// the same time, so they genuinely contend for cores and memory bandwidth.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of forwarder shard threads; each generates its own traffic.
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
    /// [`steady_state_floor`] of its own flow share, so oversubscribed
    /// hosts take longer to warm up rather than measuring cold flow tables.
    pub warmup: Duration,
    /// Forwarder batch size.
    pub batch_size: usize,
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
            sample_every: DEFAULT_SAMPLE_EVERY,
        }
    }
}

/// Width of the shared load-balancer rule set the sharded harness installs:
/// every shard sees the same `to_vnf` choice over this many instances, so
/// pin selection is identical no matter which shard owns a flow.
pub const SHARDED_LB_WIDTH: usize = 4;

/// The one label pair every shard installs and all sharded traffic carries.
fn sharded_labels() -> LabelPair {
    LabelPair::new(ChainLabel::new(1), EgressLabel::new(1))
}

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
fn build_shard(shard: usize, cfg: &ShardedConfig) -> Forwarder {
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
        sharded_labels(),
        RuleSet {
            to_vnf,
            to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(1_000_000))),
            to_prev: WeightedChoice::single(Addr::Edge(EdgeInstanceId::new(0))),
        },
    );
    f.set_bridge_next(Addr::Vnf(InstanceId::new(0)));
    f
}

/// Splits the one global flow population (seed 1) across the shards by
/// [`shard_of_key`](crate::shard::shard_of_key), as symmetric RSS assigns
/// NIC queues, and builds each shard's generator over its own share.
///
/// # Panics
///
/// Panics if some shard's share is empty.
fn shard_generators(cfg: &ShardedConfig) -> Vec<PacketGenerator> {
    let labels = sharded_labels();
    let mut shares = vec![Vec::new(); cfg.shards];
    for &k in PacketGenerator::new(labels, cfg.flows_total, cfg.packet_size, 1).flows() {
        shares[crate::shard::shard_of_key(k, cfg.shards)].push(k);
    }
    assert!(
        shares.iter().all(|flows| !flows.is_empty()),
        "need at least one flow per shard"
    );
    shares
        .into_iter()
        .enumerate()
        .map(|(s, flows)| PacketGenerator::from_flows(labels, flows, cfg.packet_size, s as u64 + 1))
        .collect()
}

/// Runs one contended sharded measurement: `config.shards` forwarder-shard
/// threads run at once, each generating and forwarding its own RSS share
/// of one global flow population (see [`ShardedConfig`]).
///
/// Each shard runs the same worker loop as [`measure_isolated`]. The
/// coordinator holds every measured window until the wall-clock warmup has
/// elapsed *and* every shard has crossed the [`steady_state_floor`] of its
/// share — on a host with fewer cores than shards, warmup stretches instead
/// of the window opening on cold flow tables. Each shard then times its own
/// window until the coordinator stops the run.
///
/// When a hub is given and `sample_every` is non-zero, every shard is
/// instrumented like an isolated instance; the cross-shard merge of the
/// latency histograms is published as `dataplane.sharded.latency.<mode>`.
/// Per-shard figures are in [`ShardedResult::shards`].
///
/// # Panics
///
/// Panics if `config.shards` is zero, some shard owns no flow (always so
/// when `config.flows_total < config.shards`), or a shard thread panics.
#[must_use]
pub fn measure_sharded(config: &ShardedConfig, hub: Option<&Telemetry>) -> ShardedResult {
    assert!(config.shards > 0, "need at least one shard");
    let gens = shard_generators(config);
    // Count of shards past their steady-state floor; the window opens only
    // once all of them are.
    let warm = AtomicUsize::new(0);
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let merged = Histogram::new();
    let shards: Vec<ShardStats> = std::thread::scope(|scope| {
        let threads: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(s, mut gen)| {
                let (warm, measuring, stop, merged) = (&warm, &measuring, &stop, &merged);
                scope.spawn(move || {
                    let mut fwd = build_shard(s, config);
                    if let (Some(h), true) = (hub, config.sample_every > 0) {
                        fwd.attach_telemetry(h, config.sample_every);
                    }
                    let mut announced = false;
                    let (packets, pps, latency) = run_worker(
                        &mut fwd,
                        &mut gen,
                        config.batch_size.max(1),
                        config.sample_every,
                        |past_floor| {
                            if past_floor && !announced {
                                warm.fetch_add(1, Ordering::SeqCst);
                                announced = true;
                            }
                            past_floor && measuring.load(Ordering::Relaxed)
                        },
                        |_| !stop.load(Ordering::Relaxed),
                    );
                    merged.merge_from(&latency);
                    ShardStats {
                        shard: s,
                        packets,
                        throughput: Mpps::from_pps(pps),
                        flow_entries: fwd.flow_entries(),
                        latency: LatencySummary::from(&latency.snapshot()),
                    }
                })
            })
            .collect();
        std::thread::sleep(config.warmup);
        while warm.load(Ordering::SeqCst) < config.shards {
            std::thread::sleep(Duration::from_millis(1));
        }
        measuring.store(true, Ordering::SeqCst);
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::SeqCst);
        threads
            .into_iter()
            .map(|t| t.join().expect("shard thread panicked"))
            .collect()
    });

    let name = format!("dataplane.sharded.latency.{}", config.mode.as_str());
    ShardedResult {
        throughput: Mpps::from_pps(shards.iter().map(|st| st.throughput.as_pps()).sum()),
        packets: shards.iter().map(|st| st.packets).sum(),
        flows_total: config.flows_total,
        flow_entries: shards.iter().map(|st| st.flow_entries).sum(),
        latency: finish_latency(hub, &name, &merged),
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
    fn sharded_hub_gets_the_merged_latency_histogram() {
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
        let merged = snap
            .histogram("dataplane.sharded.latency.affinity")
            .expect("merged histogram");
        assert_eq!(merged.count, r.latency.samples);
    }

    #[test]
    fn each_shard_drives_exactly_its_rss_share_of_the_population() {
        for shards in [2usize, 4] {
            let cfg = ShardedConfig {
                shards,
                flows_total: 4096,
                ..ShardedConfig::default()
            };
            let population = PacketGenerator::new(sharded_labels(), 4096, 64, 1);
            let mut gens = shard_generators(&cfg);
            assert_eq!(gens.len(), shards);
            let mut owner = std::collections::HashMap::new();
            for (s, gen) in gens.iter_mut().enumerate() {
                for &k in gen.flows() {
                    assert_eq!(crate::shard::shard_of_key(k, shards), s, "{k:?}");
                    assert!(owner.insert(k, s).is_none(), "{k:?} in two shards");
                }
                // What the shard emits comes from its own share.
                for _ in 0..1000 {
                    let key = gen.next_packet().key;
                    assert_eq!(owner.get(&key), Some(&s), "{key:?}");
                }
            }
            assert_eq!(owner.len(), population.num_flows());
            assert!(population.flows().iter().all(|k| owner.contains_key(k)));
        }
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
