//! The data-plane measurement harness behind Figures 7 and 8.
//!
//! Section 5.4's DPDK experiment pins each forwarder instance to one CPU
//! core with its own SR-IOV virtual interface, its own traffic generator
//! and its own VNF, then reports aggregate steady-state throughput as
//! instances and flow counts scale. [`measure_sharded`] reproduces that
//! setup in-process: N shard threads run at once, each generating and
//! forwarding its own RSS share of one flow population, as a NIC's
//! per-core queues would feed them. At one shard it is the
//! single-forwarder cell of Figure 7 and of the mode, flow and batch
//! sweeps.
//!
//! Each worker fills a staging buffer from its generator *outside* the
//! timer, then times the forwarder over the whole buffer in batches of
//! [`ScaleoutConfig::batch_size`] (DPDK-style burst processing; a batch
//! size of 1 uses per-packet [`Forwarder::process`], so the bench suite
//! can sweep the amortization curve). A shard's rate is its packets over
//! its forwarder-busy time; the generator's cost per packet is reported
//! beside it. The generator still runs on the shard's core between
//! buffers and shares its caches, as a NIC would not.
//!
//! Absolute numbers depend on the host CPU (the paper used an XL710 NIC and
//! a Xeon E5-2470). The reproduced *shape* is throughput decay as the flow
//! table outgrows the CPU caches, and aggregate scaling with shards while
//! each shard has a core of its own; a run with more shards than cores
//! measures the cores, not scaling.

use crate::forwarder::{Forwarder, ForwarderMode, RuleSet};
use crate::loadbalancer::WeightedChoice;
use crate::packet::{Addr, Packet};
use crate::pktgen::PacketGenerator;
use sb_telemetry::{Histogram, HistogramSnapshot, Telemetry};
use sb_types::{
    ChainLabel, EdgeInstanceId, EgressLabel, ForwarderId, InstanceId, LabelPair, Mpps, SiteId,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration of one measurement.
#[derive(Debug, Clone)]
pub struct ScaleoutConfig {
    /// Forwarder shard threads running at once, each on its own RSS share
    /// of the population (1-6 instances in Figure 8).
    pub shards: usize,
    /// Flows in the whole population, split across the shards by
    /// [`shard_of_key`](crate::shard::shard_of_key) (2K-512K per instance
    /// in Figure 8).
    pub flows: usize,
    /// Packet size in bytes (64 in Figure 8).
    pub packet_size: u16,
    /// Forwarder mode (Figure 8 uses the full `Affinity` mode).
    pub mode: ForwarderMode,
    /// Measured window, from the moment every shard is warm.
    pub duration: Duration,
    /// Wall-clock warmup floor. The window opens once this has elapsed
    /// *and* every shard has driven the steady-state floor of its share
    /// (4 packets per flow), so the measured phase sees flow-table hits,
    /// not first-packet inserts, and an oversubscribed host stretches
    /// warmup instead of measuring cold tables.
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
    /// Service chains installed per forwarder. `1` is the classic
    /// single-chain Figure 8 setup; larger values split the population
    /// into Zipf-sized per-chain blocks of bidirectional traffic
    /// ([`PacketGenerator::mixed_bidirectional`]), so every batch carries
    /// a fleet mix of label pairs and every second flow of a block carries
    /// its chain's never-installed reverse pair.
    pub chains: usize,
}

impl Default for ScaleoutConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            flows: 2048,
            packet_size: 64,
            mode: ForwarderMode::Affinity,
            duration: Duration::from_millis(400),
            warmup: Duration::from_millis(100),
            batch_size: 256,
            sample_every: sb_telemetry::trace::DEFAULT_SAMPLE_EVERY,
            chains: 1,
        }
    }
}

/// The steady-state packet floor of a worker's warmup: after one packet of
/// every flow of its own share, its window may not open until it has driven
/// `4 × flows` uniform draws of that share — the paper's "steady-state
/// throughput". The draws alone would leave about e⁻⁴ ≈ 1.8 % of the flows
/// unvisited, so the first pass is what puts every flow in the table
/// before the window, however long the window then is.
const fn steady_state_floor(flows: usize) -> u64 {
    4 * flows as u64
}

/// Packets a worker generates per refill of its staging buffer. Large
/// enough that the three clock reads per refill cost nothing per packet;
/// an L1-sized 512-packet buffer read no faster at 2K flows.
const STAGE: usize = 4096;

/// Per-packet processing-latency percentiles of a measurement, estimated
/// from log2-bucketed histograms of sampled forwarder calls (each timed call
/// contributes its elapsed time divided by its batch size). All zeros when
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

/// One shard's share of a measurement.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Packets this shard forwarded in its measured window.
    pub packets: u64,
    /// Packets over the time the shard spent in the forwarder.
    pub throughput: Mpps,
    /// Nanoseconds per packet the shard spent generating its traffic,
    /// outside the forwarder's time (`1e3 / (1e3 / Mpps + this)` is the
    /// rate of the whole generate-and-forward loop).
    pub gen_ns_per_pkt: f64,
    /// Flow-table entries in this shard at the end of the run.
    pub flow_entries: usize,
    /// Sampled per-packet forwarding latency within this shard.
    pub latency: LatencySummary,
}

/// The outcome of a measurement: the aggregate over shards, and each
/// shard's own figures.
#[derive(Debug, Clone)]
pub struct ScaleoutResult {
    /// Sum of the shards' rates.
    pub throughput: Mpps,
    /// Packets forwarded across shards in the measured window.
    pub packets: u64,
    /// Generator nanoseconds per packet over all shards' packets.
    pub gen_ns_per_pkt: f64,
    /// Flow-table entries across shards at the end.
    pub flow_entries: usize,
    /// Latency percentiles of every shard's samples merged.
    pub latency: LatencySummary,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
}

/// Builds shard `shard`'s forwarder, as the paper sets Figures 7 and 8 up:
/// "each forwarder receives traffic from a traffic generator and sends it
/// to a unique VNF instance associated with the forwarder". Under each of
/// the `chains` pairs `(c + 1, 1)` the forwarder sends to its own VNF, so
/// several chains exercise FIB lookups without changing the per-hop work.
fn build_forwarder(shard: usize, flows: usize, cfg: &ScaleoutConfig) -> Forwarder {
    let mut f = Forwarder::with_flow_capacity(
        ForwarderId::new(shard as u64),
        SiteId::new(0),
        cfg.mode,
        4 * flows + 64,
    );
    let vnf = Addr::Vnf(InstanceId::new(shard as u64));
    for pair in chain_pairs(cfg.chains) {
        f.install_rules(
            pair,
            RuleSet {
                to_vnf: WeightedChoice::single(vnf),
                to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(1_000_000))),
                to_prev: WeightedChoice::single(Addr::Edge(EdgeInstanceId::new(0))),
            },
        );
    }
    f.set_bridge_next(vnf);
    f
}

/// The installed label pairs `(c + 1, 1)` of `chains` chains (at least one).
fn chain_pairs(chains: usize) -> Vec<LabelPair> {
    #[allow(clippy::cast_possible_truncation)]
    (0..chains.max(1))
        .map(|c| LabelPair::new(ChainLabel::new(c as u32 + 1), EgressLabel::new(1)))
        .collect()
}

/// Builds the one population (seed 1) — uniform single-chain for one
/// chain, bidirectional Zipf mixed-label otherwise — and splits it into
/// one generator per shard by RSS hash, each flow keeping its label pair.
///
/// # Panics
///
/// Panics if some shard's share is empty.
fn shard_generators(cfg: &ScaleoutConfig) -> Vec<PacketGenerator> {
    let pairs = chain_pairs(cfg.chains);
    let population = if pairs.len() == 1 {
        PacketGenerator::new(pairs[0], cfg.flows, cfg.packet_size, 1)
    } else {
        PacketGenerator::mixed_bidirectional(&pairs, cfg.flows, cfg.packet_size, 1)
    };
    population.split(cfg.shards)
}

/// Times one forwarder call per `every` packets (`0`: none) into `latency`.
#[derive(Default)]
struct Sampler {
    every: u64,
    /// The forwarder's rx ordinal of the next packet handed to it.
    at: u64,
    /// The ordinal from which the next call is timed.
    next: u64,
    latency: Histogram,
}

impl Sampler {
    /// Starts timing one call per `every` packets at rx ordinal `at`. The
    /// forwarder traces the packets whose rx ordinal is a multiple of
    /// `every` (`attach_telemetry` phases them so); a timed call starts
    /// half a period past one, so it does not also pay for recording a
    /// trace event whenever its batch is at most `every / 4`.
    fn open(&mut self, every: u64, at: u64) {
        self.every = every;
        self.at = at;
        if every > 0 {
            self.next = at.next_multiple_of(every) + every / 2;
        }
    }

    /// Whether the call that forwards the next `n` packets is timed.
    fn take(&mut self, n: u64) -> bool {
        let timed = self.every != 0 && self.at >= self.next;
        if timed {
            self.next = (self.next + self.every).max(self.at + n);
        }
        self.at += n;
        timed
    }
}

/// Pushes `stage` through the forwarder in `batch`-sized calls (batch 1:
/// per-packet `process`), timing the calls `sampler` picks.
fn forward(
    fwd: &mut Forwarder,
    stage: &mut [Packet],
    batch: usize,
    out: &mut Vec<sb_types::Result<Addr>>,
    sampler: &mut Sampler,
) {
    let edge = Addr::Edge(EdgeInstanceId::new(0));
    for chunk in stage.chunks_mut(batch) {
        let n = chunk.len() as u64;
        let started = sampler.take(n).then(Instant::now);
        if batch == 1 {
            let _ = fwd.process(chunk[0], edge);
        } else {
            fwd.process_batch_into(chunk, edge, out);
        }
        if let Some(s) = started {
            #[allow(clippy::cast_possible_truncation)]
            sampler.latency.record(s.elapsed().as_nanos() as u64 / n);
        }
    }
}

/// What one worker measured in its window.
struct Window {
    packets: u64,
    /// Time spent in the forwarder.
    busy: Duration,
    /// Time spent filling the staging buffer.
    generating: Duration,
    latency: Histogram,
}

/// One worker's loop.
///
/// The worker forwards one packet of each of its flows, in population
/// order, then refills its staging buffer and forwards it until
/// `open(past_floor)` lets its window open, where `past_floor` turns true
/// once it has driven the [`steady_state_floor`] of its own flows. It then
/// forwards one buffer after another until `running()` fails, timing the
/// generator and the forwarder separately, and times roughly one packet in
/// `sample_every` into a latency histogram.
fn run_worker(
    fwd: &mut Forwarder,
    gen: &mut PacketGenerator,
    batch: usize,
    sample_every: u64,
    mut open: impl FnMut(bool) -> bool,
    running: impl Fn() -> bool,
) -> Window {
    let mut stage = vec![gen.next_packet(); STAGE.next_multiple_of(batch)];
    let fill = |gen: &mut PacketGenerator, stage: &mut [Packet]| {
        for p in stage.iter_mut() {
            *p = gen.next_packet();
        }
    };
    let mut out = Vec::with_capacity(batch);
    let mut sampler = Sampler::default();
    let (flows, len) = (gen.num_flows(), stage.len());
    for first in (0..flows).step_by(len) {
        let part = &mut stage[..(flows - first).min(len)];
        for (i, p) in part.iter_mut().enumerate() {
            *p = gen.packet(first + i);
        }
        forward(fwd, part, batch, &mut out, &mut sampler);
    }
    let floor = steady_state_floor(flows);
    let mut warm_sent = 0u64;
    while !open(warm_sent >= floor) {
        fill(gen, &mut stage);
        forward(fwd, &mut stage, batch, &mut out, &mut sampler);
        warm_sent += stage.len() as u64;
    }
    sampler.open(sample_every, fwd.stats().rx);
    // The window holds at least one buffer, however short it is.
    let (mut packets, mut busy, mut generating) = (0, Duration::ZERO, Duration::ZERO);
    loop {
        let t0 = Instant::now();
        fill(gen, &mut stage);
        let t1 = Instant::now();
        forward(fwd, &mut stage, batch, &mut out, &mut sampler);
        let t2 = Instant::now();
        generating += t1 - t0;
        busy += t2 - t1;
        packets += stage.len() as u64;
        if !running() {
            break;
        }
    }
    Window {
        packets,
        busy,
        generating,
        latency: sampler.latency,
    }
}

/// Packets per second over `time`, or 0 for an empty window.
#[allow(clippy::cast_precision_loss)]
fn per_sec(packets: u64, time: Duration) -> f64 {
    let s = time.as_secs_f64();
    if s > 0.0 {
        packets as f64 / s
    } else {
        0.0
    }
}

/// Nanoseconds per packet spent in `time`, or 0 for no packets.
#[allow(clippy::cast_precision_loss)]
fn ns_per(time: Duration, packets: u64) -> f64 {
    if packets == 0 {
        0.0
    } else {
        time.as_nanos() as f64 / packets as f64
    }
}

/// Runs one measurement: `config.shards` forwarder threads at once, each
/// generating and forwarding its own RSS share of one flow population (see
/// [`ScaleoutConfig`]).
///
/// The calling thread holds every window shut until the wall-clock warmup
/// has elapsed *and* every shard has crossed the steady-state floor of its
/// share; it then lets the shards run for `config.duration` and stops
/// them. Each shard's rate is its packets over its forwarder-busy time,
/// and the aggregate is the sum of those rates. On a host with fewer cores
/// than shards the shards take turns on the cores, and the aggregate is
/// what those cores deliver, not a per-core sum.
///
/// When a hub is given and `sample_every` is non-zero, every forwarder is
/// instrumented (sampled `pkt.hop` events plus `fwd-<shard>` counters) and
/// the merged latency histogram is published as `dataplane.latency.<mode>`.
///
/// # Panics
///
/// Panics if `config.shards` is zero, some shard owns no flow (always so
/// when `config.flows < config.shards`), or a shard thread panics.
#[must_use]
pub fn measure_sharded(config: &ScaleoutConfig, hub: Option<&Telemetry>) -> ScaleoutResult {
    assert!(config.shards > 0, "need at least one shard");
    let gens = shard_generators(config);
    // Shards past their steady-state floor; the window opens when all are.
    let warm = AtomicUsize::new(0);
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let merged = Histogram::new();
    let batch = config.batch_size.max(1);
    let shards: Vec<ShardStats> = std::thread::scope(|scope| {
        let threads: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(s, mut gen)| {
                let (warm, measuring, stop, merged) = (&warm, &measuring, &stop, &merged);
                scope.spawn(move || {
                    let mut fwd = build_forwarder(s, gen.num_flows(), config);
                    if let (Some(h), true) = (hub, config.sample_every > 0) {
                        fwd.attach_telemetry(h, config.sample_every);
                    }
                    let mut announced = false;
                    let w = run_worker(
                        &mut fwd,
                        &mut gen,
                        batch,
                        config.sample_every,
                        |past_floor| {
                            if past_floor && !announced {
                                warm.fetch_add(1, Ordering::SeqCst);
                                announced = true;
                            }
                            past_floor && measuring.load(Ordering::Relaxed)
                        },
                        || !stop.load(Ordering::Relaxed),
                    );
                    merged.merge_from(&w.latency);
                    ShardStats {
                        shard: s,
                        packets: w.packets,
                        throughput: Mpps::from_pps(per_sec(w.packets, w.busy)),
                        gen_ns_per_pkt: ns_per(w.generating, w.packets),
                        flow_entries: fwd.flow_entries(),
                        latency: LatencySummary::from(&w.latency.snapshot()),
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

    if let Some(h) = hub {
        let name = format!("dataplane.latency.{}", config.mode.as_str());
        h.registry.histogram(&name).merge_from(&merged);
    }
    let packets: u64 = shards.iter().map(|st| st.packets).sum();
    #[allow(clippy::cast_precision_loss)]
    let generating: f64 = shards.iter().map(|st| st.gen_ns_per_pkt * st.packets as f64).sum();
    ScaleoutResult {
        throughput: shards.iter().map(|st| st.throughput).fold(Mpps::default(), |a, b| a + b),
        packets,
        #[allow(clippy::cast_precision_loss)]
        gen_ns_per_pkt: generating / packets.max(1) as f64,
        flow_entries: shards.iter().map(|st| st.flow_entries).sum(),
        latency: LatencySummary::from(&merged.snapshot()),
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(shards: usize, flows: usize, mode: ForwarderMode) -> ScaleoutResult {
        measure_sharded(
            &ScaleoutConfig {
                shards,
                flows,
                mode,
                duration: Duration::from_millis(120),
                warmup: Duration::from_millis(30),
                ..ScaleoutConfig::default()
            },
            None,
        )
    }

    #[test]
    fn single_shard_forwards_packets() {
        let r = quick(1, 1024, ForwarderMode::Affinity);
        assert!(r.packets > 0);
        assert!(r.throughput.value() > 0.1, "{}", r.throughput);
        assert!(r.gen_ns_per_pkt > 0.0, "{}", r.gen_ns_per_pkt);
        assert_eq!(r.shards.len(), 1);
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
    fn two_shards_aggregate() {
        // What is deterministic about a two-shard run. The throughput
        // ratio is wall-clock and belongs to `bench-dataplane
        // --check-scaleout`, not to a unit test sharing two cores with the
        // rest of the sweep.
        let hub = Telemetry::new();
        let cfg = ScaleoutConfig {
            shards: 2,
            flows: 2048,
            duration: Duration::from_millis(120),
            warmup: Duration::from_millis(30),
            ..ScaleoutConfig::default()
        };
        let two = measure_sharded(&cfg, Some(&hub));
        // Both shards forward, dropping nothing, and each is past its own
        // share's floor (each forwarder's own `rx` also counts its warm-up).
        let snap = hub.registry.snapshot();
        for (st, gen) in two.shards.iter().zip(shard_generators(&cfg)) {
            let s = st.shard;
            let rx = snap.counter(&format!("fwd-{s}.rx"));
            assert_eq!(snap.counter(&format!("fwd-{s}.tx")), rx, "shard {s}");
            let flows = gen.num_flows();
            let floor = steady_state_floor(flows);
            assert!(st.packets > 0 && rx >= floor + st.packets, "shard {s}: {rx}");
            // Its table reaches steady state over its own share: one to
            // three hops per flow.
            let entries = st.flow_entries;
            assert!(
                entries >= flows && entries <= 3 * flows,
                "shard {s}: {entries} entries for {flows} flows"
            );
        }
        let sum: u64 = two.shards.iter().map(|s| s.packets).sum();
        assert_eq!(sum, two.packets);
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
        let r = measure_sharded(
            &ScaleoutConfig {
                flows: 512,
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
        let r = quick(2, 512, ForwarderMode::Affinity);
        assert!(r.latency.samples > 0, "no timed calls in {:?}", r.latency);
        assert!(r.latency.p50_ns >= 1);
        assert!(r.latency.p50_ns <= r.latency.p90_ns);
        assert!(r.latency.p90_ns <= r.latency.p99_ns);
        assert!(r.latency.p99_ns <= r.latency.max_ns);
        assert!(r.latency.mean_ns > 0.0);
        assert_eq!(
            r.latency.samples,
            r.shards.iter().map(|s| s.latency.samples).sum::<u64>(),
            "merged histogram must cover every shard's samples"
        );
    }

    #[test]
    fn sampling_disabled_yields_empty_latency_summary() {
        let r = measure_sharded(
            &ScaleoutConfig {
                flows: 256,
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
        let r = measure_sharded(
            &ScaleoutConfig {
                flows: 512,
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
    fn every_flow_is_in_the_table_however_short_the_window() {
        // Uniform draws alone leave about e^-4 of the flows out of the
        // table at the floor, and how many of them a window reaches then
        // depends on its wall-clock length.
        let flows = 65_536;
        let r = measure_sharded(
            &ScaleoutConfig {
                flows,
                duration: Duration::from_millis(20),
                warmup: Duration::ZERO,
                ..ScaleoutConfig::default()
            },
            None,
        );
        assert_eq!(r.flow_entries, 3 * flows);
    }

    #[test]
    fn warmup_floor_is_pinned() {
        // The steady-state criterion: 4 packets per flow of the worker's
        // share. Every published data-plane row gates its window on this
        // floor; changing it changes what "steady state" means, so the
        // value is pinned here.
        assert_eq!(steady_state_floor(0), 0);
        assert_eq!(steady_state_floor(1), 4);
        assert_eq!(steady_state_floor(512), 2048);
        assert_eq!(steady_state_floor(524_288), 2_097_152);
    }

    #[test]
    fn timed_calls_fall_between_the_forwarders_trace_samples() {
        // The forwarder traces the packets whose rx ordinal is a multiple
        // of its period, from wherever it was attached.
        let hub = Telemetry::new();
        let mut fwd = build_forwarder(0, 64, &ScaleoutConfig::default());
        let mut gen = PacketGenerator::new(chain_pairs(1)[0], 64, 64, 1);
        let edge = Addr::Edge(EdgeInstanceId::new(0));
        for _ in 0..37 {
            let _ = fwd.process(gen.next_packet(), edge);
        }
        fwd.attach_telemetry(&hub, 64);
        for _ in 0..1000 {
            let _ = fwd.process(gen.next_packet(), edge);
        }
        let hops: Vec<u64> = hub
            .tracer
            .snapshot()
            .iter()
            .filter(|r| r.name == "pkt.hop")
            .map(|r| r.start_ns)
            .collect();
        assert_eq!(hops.len(), 16);
        assert!(hops.iter().all(|o| o % 64 == 0), "{hops:?}");
        // A timed call starts half a period past one of them and holds
        // none, for any batch up to a quarter period, aligned or not.
        for batch in [1u64, 7, 12, 16] {
            let mut sampler = Sampler::default();
            sampler.open(64, 37);
            let mut timed = 0;
            for c in 0..6400 / batch {
                let start = 37 + c * batch;
                if sampler.take(batch) {
                    timed += 1;
                    assert!(start % 64 >= 32 && (start + batch - 1) % 64 >= 32, "{batch}");
                }
            }
            assert!((98..=100).contains(&timed), "batch {batch}: {timed} timed calls");
        }
    }

    #[test]
    fn each_shard_drives_exactly_its_rss_share_of_the_population() {
        for (shards, chains) in [(2usize, 1usize), (4, 1), (3, 8)] {
            let cfg = ScaleoutConfig {
                shards,
                flows: 4096,
                chains,
                ..ScaleoutConfig::default()
            };
            // The unsplit population, as one forwarder of `chains` chains
            // would be driven.
            let pairs = chain_pairs(chains);
            let population = if chains == 1 {
                PacketGenerator::new(pairs[0], 4096, 64, 1)
            } else {
                PacketGenerator::mixed_bidirectional(&pairs, 4096, 64, 1)
            };
            // One shard replays its population and emission order.
            let mut whole = population.clone();
            let mut one = shard_generators(&ScaleoutConfig { shards: 1, ..cfg.clone() });
            assert_eq!(one[0].flows(), whole.flows());
            for _ in 0..1000 {
                assert_eq!(one[0].next_packet(), whole.next_packet());
            }
            let label_of: std::collections::HashMap<_, _> = population
                .flows()
                .iter()
                .zip(population.flow_labels())
                .collect();
            let mut gens = shard_generators(&cfg);
            assert_eq!(gens.len(), shards);
            let mut owner = std::collections::HashMap::new();
            for (s, gen) in gens.iter_mut().enumerate() {
                for &k in gen.flows() {
                    assert_eq!(crate::shard::shard_of_key(k, shards), s, "{k:?}");
                    assert!(owner.insert(k, s).is_none(), "{k:?} in two shards");
                }
                // A flow keeps the label pair it has in the whole population.
                assert_eq!(gen.flow_labels().len(), gen.flows().len() * usize::from(chains > 1));
                for (k, l) in gen.flows().iter().zip(gen.flow_labels()) {
                    assert_eq!(label_of.get(k), Some(&l), "{k:?}");
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
    fn rejects_fewer_flows_than_shards() {
        let _ = measure_sharded(
            &ScaleoutConfig {
                shards: 4,
                flows: 2,
                ..ScaleoutConfig::default()
            },
            None,
        );
    }

    #[test]
    fn hub_receives_per_mode_latency_histogram_and_forwarder_counters() {
        let hub = Telemetry::new();
        let r = measure_sharded(
            &ScaleoutConfig {
                shards: 2,
                flows: 512,
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
        assert!(snap.counter("fwd-0.rx") > 0 && snap.counter("fwd-1.rx") > 0);
        // Sampled packet hops land in the hub's trace ring.
        assert!(hub
            .tracer
            .snapshot()
            .iter()
            .any(|rec| rec.name == "pkt.hop"));
    }
}
