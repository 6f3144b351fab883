//! The machine-readable data-plane throughput baseline
//! (`BENCH_dataplane.json`).
//!
//! Unlike the figure modules (which print paper-style rows), this module
//! produces a stable JSON document that is checked in at the repo root and
//! serves as the reference point for future performance PRs: per-mode
//! single-instance Mpps across the Figure 8 flow counts, isolated scale-out
//! points, and a batch-size sweep showing the amortization curve of
//! [`sb_dataplane::Forwarder::process_batch`].
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p sb-bench --bin bench-dataplane -- --out BENCH_dataplane.json
//! ```
//!
//! CI runs the same binary with `--quick` as a smoke check that the
//! harness works and the JSON stays well-formed.

use sb_dataplane::runner::{measure_isolated, measure_sharded, ScaleoutConfig, ShardedConfig};
use sb_dataplane::ForwarderMode;
use sb_telemetry::{Telemetry, WindowConfig, WindowRoller};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One single-instance cell: a mode at a flow count.
#[derive(Debug, Clone, Serialize)]
pub struct SingleCell {
    /// Forwarder mode (`bridge` / `overlay` / `affinity`).
    pub mode: &'static str,
    /// Concurrent flows.
    pub flows: usize,
    /// Measured steady-state throughput.
    pub mpps: f64,
    /// Flow-table entries at the end of the run.
    pub flow_entries: usize,
    /// Median per-packet forwarding latency (sampled 1-in-N drives).
    pub latency_p50_ns: u64,
    /// 99th-percentile per-packet forwarding latency.
    pub latency_p99_ns: u64,
}

/// One isolated scale-out cell (Affinity mode).
#[derive(Debug, Clone, Serialize)]
pub struct ScaleCell {
    /// Forwarder instances (each measured in isolation, rates summed).
    pub instances: usize,
    /// Flows per instance.
    pub flows_per_instance: usize,
    /// Aggregate throughput.
    pub mpps: f64,
}

/// One contended scale-out cell: N shard threads running concurrently,
/// each driving its own RSS share of one flow population
/// (`measure_sharded`), as opposed to the isolated cells where each
/// instance is measured alone and the rates summed.
#[derive(Debug, Clone, Serialize)]
pub struct ContendedCell {
    /// Concurrent forwarder shard threads.
    pub shards: usize,
    /// Size of the global flow population split across the shards.
    pub flows_total: usize,
    /// Aggregate steady-state throughput across the contending shards.
    pub mpps: f64,
    /// Median per-packet forwarding latency, merged across shards.
    pub latency_p50_ns: u64,
    /// 99th-percentile per-packet forwarding latency, merged across shards.
    pub latency_p99_ns: u64,
    /// Aggregate flow-table entries across all shards at the end.
    pub flow_entries: usize,
}

/// One batch-size cell (Affinity mode, 2K flows).
#[derive(Debug, Clone, Serialize)]
pub struct BatchCell {
    /// Packets per `process_batch` call (1 = per-packet `process`).
    pub batch_size: usize,
    /// Measured steady-state throughput.
    pub mpps: f64,
    /// Median per-packet forwarding latency at this batch size.
    pub latency_p50_ns: u64,
}

/// One mixed-label cell: the fleet-traffic steering benchmark. The sweep's
/// base flow population is split into Zipf-sized blocks across
/// [`MIXED_CHAINS`] chains, traffic is bidirectional (every second flow of
/// a block carries the chain's reverse, never-installed label pair), and
/// the forwarder runs Overlay mode so *every* packet resolves its label
/// pair against the rule state — Affinity steady state pins flows and
/// bypasses steering by design, which would measure the flow table, not
/// the FIB. Forward pairs resolve to their exact row, reverse pairs to the
/// chain's smallest pair, both by searching the FIB's sorted rows.
#[derive(Debug, Clone, Serialize)]
pub struct MixedCell {
    /// Distinct chains whose label pairs appear in the traffic mix (each
    /// contributes forward and reverse pairs).
    pub chains: usize,
    /// Concurrent flows, split into Zipf-sized per-chain blocks.
    pub flows: usize,
    /// Measured steady-state throughput.
    pub mpps: f64,
    /// Median per-packet forwarding latency.
    pub latency_p50_ns: u64,
}

/// One artifact-lifecycle timing row: encode, decode, or hot-swap apply
/// of the demo deployment's compiled forwarding artifact (DESIGN.md §15).
#[derive(Debug, Clone, Serialize)]
pub struct ArtifactCell {
    /// Lifecycle stage (`encode` / `decode` / `apply_full`).
    pub op: &'static str,
    /// Encoded artifact size in bytes (identical across rows — the same
    /// artifact flows through all three stages).
    pub bytes: usize,
    /// Mean wall-clock nanoseconds per operation.
    pub ns_per_op: u64,
    /// Iterations averaged over.
    pub iters: u64,
}

/// The full baseline document.
#[derive(Debug, Clone, Serialize)]
pub struct Baseline {
    /// Document identifier.
    pub benchmark: &'static str,
    /// Packet size used throughout (bytes).
    pub packet_size: u16,
    /// How the numbers were measured.
    pub methodology: &'static str,
    /// Measurement duration per cell (ms).
    pub duration_ms: u64,
    /// Per-mode single-instance throughput across flow counts.
    pub single_instance: Vec<SingleCell>,
    /// Affinity-mode isolated scale-out points.
    pub scaleout: Vec<ScaleCell>,
    /// Affinity-mode contended scale-out: 1→N shard threads live at once.
    pub contended_scaleout: Vec<ContendedCell>,
    /// Throughput vs batch size (Affinity, smallest flow count).
    pub batch_sweep: Vec<BatchCell>,
    /// Bidirectional Zipf mixed-label traffic over [`MIXED_CHAINS`] chains
    /// at the smallest sweep flow count (Overlay mode, so steering is on
    /// the per-packet path).
    pub mixed_label: Vec<MixedCell>,
    /// Artifact lifecycle timings (encode / decode / full hot-swap apply)
    /// for the demo deployment's compiled forwarding state.
    pub artifact_cycle: Vec<ArtifactCell>,
    /// The `sb_telemetry::Telemetry::export_json` snapshot of the hub the
    /// whole run reported into: per-mode `dataplane.latency.*` histograms
    /// from the cells above, plus `cp.*` / `bus.*` counters and the 2PC
    /// phase spans of a small control-plane deployment exercised at the
    /// end of the run.
    pub telemetry: serde_json::Value,
}

/// Parameters of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Measurement duration per cell.
    pub duration: Duration,
    /// Warmup per cell (the runner additionally enforces a per-flow
    /// steady-state packet minimum).
    pub warmup: Duration,
    /// Flow counts for the single-instance matrix.
    pub flow_counts: Vec<usize>,
    /// Instance counts for the scale-out points.
    pub instance_counts: Vec<usize>,
    /// Batch sizes for the amortization sweep.
    pub batch_sizes: Vec<usize>,
    /// Shard counts for the contended scale-out sweep.
    pub shard_counts: Vec<usize>,
    /// Flows per shard in the contended sweep (`flows_total = shards *
    /// flows_per_shard`, so per-shard work stays constant as N grows).
    pub flows_per_shard: usize,
}

impl BaselineConfig {
    /// Fast parameters for CI smoke runs (seconds, not minutes).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            duration: Duration::from_millis(150),
            warmup: Duration::from_millis(40),
            flow_counts: vec![2_048, 65_536],
            instance_counts: vec![1, 2],
            batch_sizes: vec![1, 32],
            shard_counts: vec![1, 2],
            flows_per_shard: 4_096,
        }
    }

    /// The checked-in baseline parameters (2K/64K/512K flows).
    #[must_use]
    pub fn full() -> Self {
        Self {
            duration: Duration::from_millis(800),
            warmup: Duration::from_millis(200),
            flow_counts: vec![2_048, 65_536, 524_288],
            instance_counts: vec![1, 2, 4],
            batch_sizes: vec![1, 8, 32, 256],
            // The 4-shard row drives 4 x 512K = 2M+ concurrent flows.
            shard_counts: vec![1, 2, 4],
            flows_per_shard: 524_288,
        }
    }
}

/// Trace-ring capacity for baseline runs: enough for a full deployment
/// timeline plus a tail of sampled packet events, small enough that the
/// checked-in JSON stays diffable.
const BASELINE_TRACE_CAPACITY: usize = 256;

fn mode_name(mode: ForwarderMode) -> &'static str {
    match mode {
        ForwarderMode::Bridge => "bridge",
        ForwarderMode::Overlay => "overlay",
        ForwarderMode::Affinity => "affinity",
    }
}

fn scaleout_config(cfg: &BaselineConfig, mode: ForwarderMode, flows: usize) -> ScaleoutConfig {
    ScaleoutConfig {
        instances: 1,
        flows_per_instance: flows,
        packet_size: 64,
        mode,
        duration: cfg.duration,
        warmup: cfg.warmup,
        ..ScaleoutConfig::default()
    }
}

/// Runs the full baseline matrix.
///
/// Every cell reports into one shared [`Telemetry`] hub; after the
/// throughput cells a small control-plane deployment is exercised against
/// the same hub so the exported snapshot also carries 2PC phase spans and
/// message-bus counters (the control-plane spans are recorded last, so
/// the bounded trace ring cannot evict them in favor of packet spans).
#[must_use]
pub fn run(cfg: &BaselineConfig) -> Baseline {
    // A small ring keeps the checked-in document reviewable: the newest
    // records win, so the control-plane timeline (recorded last) always
    // survives alongside a tail of sampled packet events.
    let hub = Telemetry::with_trace_capacity(BASELINE_TRACE_CAPACITY);
    let mut single = Vec::new();
    for mode in [
        ForwarderMode::Bridge,
        ForwarderMode::Overlay,
        ForwarderMode::Affinity,
    ] {
        for &flows in &cfg.flow_counts {
            let r = measure_isolated(&scaleout_config(cfg, mode, flows), Some(&hub));
            single.push(SingleCell {
                mode: mode_name(mode),
                flows,
                mpps: r.throughput.value(),
                flow_entries: r.flow_entries,
                latency_p50_ns: r.latency.p50_ns,
                latency_p99_ns: r.latency.p99_ns,
            });
        }
    }

    let scale_flows = cfg.flow_counts.get(1).copied().unwrap_or(65_536);
    let mut scaleout = Vec::new();
    for &instances in &cfg.instance_counts {
        let r = measure_isolated(
            &ScaleoutConfig {
                instances,
                ..scaleout_config(cfg, ForwarderMode::Affinity, scale_flows)
            },
            Some(&hub),
        );
        scaleout.push(ScaleCell {
            instances,
            flows_per_instance: scale_flows,
            mpps: r.throughput.value(),
        });
    }

    let mut contended = Vec::new();
    for &shards in &cfg.shard_counts {
        let r = measure_sharded(&sharded_config(cfg, shards), Some(&hub));
        contended.push(ContendedCell {
            shards,
            flows_total: r.flows_total,
            mpps: r.throughput.value(),
            latency_p50_ns: r.latency.p50_ns,
            latency_p99_ns: r.latency.p99_ns,
            flow_entries: r.flow_entries,
        });
    }

    let sweep_flows = cfg.flow_counts.first().copied().unwrap_or(2_048);
    let mut batch_sweep = Vec::new();
    for &batch_size in &cfg.batch_sizes {
        let r = measure_isolated(
            &ScaleoutConfig {
                batch_size,
                ..scaleout_config(cfg, ForwarderMode::Affinity, sweep_flows)
            },
            Some(&hub),
        );
        batch_sweep.push(BatchCell {
            batch_size,
            mpps: r.throughput.value(),
            latency_p50_ns: r.latency.p50_ns,
        });
    }

    let r = measure_isolated(&mixed_config(cfg, sweep_flows), Some(&hub));
    let mixed_label = vec![MixedCell {
        chains: MIXED_CHAINS,
        flows: sweep_flows,
        mpps: r.throughput.value(),
        latency_p50_ns: r.latency.p50_ns,
    }];

    let sb = exercise_control_plane(&hub);
    let artifact_cycle = measure_artifact_cycle(&sb);
    let telemetry = serde_json::from_str_value(&hub.export_json())
        .expect("telemetry snapshot is well-formed JSON");

    #[allow(clippy::cast_possible_truncation)]
    let duration_ms = cfg.duration.as_millis() as u64;
    Baseline {
        benchmark: "dataplane",
        packet_size: 64,
        methodology: "single_instance/scaleout: isolated per-instance \
                      generate->process loops (sb_dataplane::runner::measure_isolated), \
                      aggregate = sum of per-instance steady-state rates; \
                      contended_scaleout: N shard threads live simultaneously, each \
                      generating and forwarding its own RSS share of one global flow \
                      population (sb_dataplane::runner::measure_sharded), so shards \
                      contend for cores — rows only show scaling when the host has a \
                      core per shard",
        duration_ms,
        single_instance: single,
        scaleout,
        contended_scaleout: contended,
        batch_sweep,
        mixed_label,
        artifact_cycle,
        telemetry,
    }
}

/// Iterations for the artifact-lifecycle rows: the cycle is microseconds
/// per op, so a few hundred reps cost nothing next to the throughput cells.
const ARTIFACT_ITERS: u64 = 256;

/// Times the artifact lifecycle over the deployment `exercise_control_plane`
/// left behind: encode the first participant site's [`SiteArtifact`], decode
/// the bytes back, and hot-swap a standalone forwarder with the decoded
/// state (`apply_artifact`, Full kind — the wholesale-replace path).
fn measure_artifact_cycle(sb: &switchboard::Switchboard) -> Vec<ArtifactCell> {
    use sb_dataplane::{artifact, ArtifactKind, Forwarder};
    use std::time::Instant;

    let Some(site) = sb.artifact_sites().first().copied() else {
        return Vec::new();
    };
    let art = sb.site_artifact(site).expect("listed site has an artifact");
    let bytes = artifact::encode(art);

    let t0 = Instant::now();
    for _ in 0..ARTIFACT_ITERS {
        std::hint::black_box(artifact::encode(std::hint::black_box(art)));
    }
    let encode_ns = ns_per_op(t0, ARTIFACT_ITERS);

    let t1 = Instant::now();
    for _ in 0..ARTIFACT_ITERS {
        std::hint::black_box(
            artifact::decode(std::hint::black_box(&bytes)).expect("fresh encoding decodes"),
        );
    }
    let decode_ns = ns_per_op(t1, ARTIFACT_ITERS);

    let fa = &art.forwarders[0];
    let mut fwd = Forwarder::from_artifact(site, fa);
    let t2 = Instant::now();
    for _ in 0..ARTIFACT_ITERS {
        fwd.apply_artifact(std::hint::black_box(fa), ArtifactKind::Full);
    }
    let apply_ns = ns_per_op(t2, ARTIFACT_ITERS);

    [
        ("encode", encode_ns),
        ("decode", decode_ns),
        ("apply_full", apply_ns),
    ]
    .into_iter()
    .map(|(op, ns_per_op)| ArtifactCell {
        op,
        bytes: bytes.len(),
        ns_per_op,
        iters: ARTIFACT_ITERS,
    })
    .collect()
}

#[allow(clippy::cast_possible_truncation)]
fn ns_per_op(since: std::time::Instant, iters: u64) -> u64 {
    (since.elapsed().as_nanos() / u128::from(iters)) as u64
}

/// Chains in the mixed-label cell: enough that consecutive packets of a
/// batch rarely share a label pair and every packet pays a full lookup,
/// which is what fleet traffic looks like (300+ chains, Zipf-mixed).
pub const MIXED_CHAINS: usize = 64;

/// The mixed-label measurement configuration: Overlay mode, so label
/// steering is on the path of *every* packet (Affinity steady state pins
/// flows into the flow table and only steers on first-packet misses — it
/// would measure probe latency, not rule resolution). Several chains mean
/// bidirectional traffic, so half of each chain's flows carry the reverse,
/// never-installed label pair and exercise the chain-fallback lookup.
fn mixed_config(cfg: &BaselineConfig, flows: usize) -> ScaleoutConfig {
    ScaleoutConfig {
        chains: MIXED_CHAINS,
        ..scaleout_config(cfg, ForwarderMode::Overlay, flows)
    }
}

fn sharded_config(cfg: &BaselineConfig, shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        flows_total: shards * cfg.flows_per_shard,
        packet_size: 64,
        mode: ForwarderMode::Affinity,
        duration: cfg.duration,
        warmup: cfg.warmup,
        ..ShardedConfig::default()
    }
}

/// Deploys a two-VNF chain on the line testbed and pushes a few packets
/// through it, with all control-plane, bus, and forwarder instrumentation
/// (including the `artifact.*` compile metrics) reporting into `hub`.
/// Returns the deployment so the artifact-cycle cells can reuse it.
fn exercise_control_plane(hub: &Telemetry) -> switchboard::Switchboard {
    use sb_types::{ChainId, FlowKey, Millis, VnfId};
    use switchboard::prelude::*;
    use switchboard::scenarios;

    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.control_plane_mut().attach_telemetry(hub);
    sb.use_passthrough_behaviors();
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    let chain = ChainId::new(1);
    sb.deploy_chain(ChainRequest {
        id: chain,
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![VnfId::new(0), VnfId::new(1)],
        forward: 5.0,
        reverse: 1.0,
    })
    .expect("line testbed deployment succeeds");
    for port in 0..4 {
        let key = FlowKey::tcp([10, 0, 0, 1], 5000 + port, [10, 9, 9, 9], 80);
        sb.send(chain, sites[0], Packet::unlabeled(key, 500))
            .expect("packet traverses the chain");
    }
    sb
}

/// Result of the telemetry overhead gate (`bench-dataplane
/// --check-overhead`): Affinity-mode throughput with default 1-in-N packet
/// sampling enabled versus fully disabled instrumentation.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadReport {
    /// Mpps with `sample_every = 0` (telemetry off), best of three runs.
    pub disabled_mpps: f64,
    /// Mpps with the default `sample_every` (telemetry on), best of three.
    pub enabled_mpps: f64,
    /// `enabled / disabled`; below `1 - tolerance` fails the gate.
    pub ratio: f64,
}

/// Measures telemetry overhead on the Affinity@2K cell. Both
/// configurations take the best of three runs to damp scheduler noise.
///
/// The enabled leg carries the *full* observability stack the scenario
/// harness uses, not just the sampled counters: a scraper thread rolls
/// 1 ms windows over the shared registry
/// ([`WindowRoller`](sb_telemetry::timeseries::WindowRoller)) for the
/// whole measurement, so the <5% gate also prices the windowed
/// time-series layer's pull-based snapshot reads contending with the
/// forwarder's atomic writes.
#[must_use]
pub fn check_overhead(cfg: &BaselineConfig) -> OverheadReport {
    let flows = cfg.flow_counts.first().copied().unwrap_or(2_048);
    let base = scaleout_config(cfg, ForwarderMode::Affinity, flows);
    // With a spare core the scraper runs concurrently (real contention:
    // snapshot reads vs forwarder atomic writes); on a single core any
    // extra runnable thread steals timeslices from the measured loop and
    // the gate would price scheduler noise, not telemetry, so the roller
    // is ticked synchronously between runs instead.
    let spare_core = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) >= 2;
    let best = |sample_every: u64| -> f64 {
        let hub = Telemetry::new();
        let stop = Arc::new(AtomicBool::new(false));
        let mut sync_roller = None;
        let mut scraper = None;
        if sample_every != 0 {
            let roller = WindowRoller::new(
                &hub.registry,
                &hub.clock,
                WindowConfig {
                    width_ns: 1_000_000,
                    capacity: 256,
                },
            );
            if spare_core {
                let clock = hub.clock.clone();
                let stop = Arc::clone(&stop);
                let mut roller = roller;
                scraper = Some(std::thread::spawn(move || {
                    let mut closed = 0;
                    while !stop.load(Ordering::Relaxed) {
                        clock.advance_ns(1_000_000);
                        closed += roller.tick();
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    closed
                }));
            } else {
                sync_roller = Some(roller);
            }
        }
        let mut closed_sync = 0;
        let mpps = (0..3)
            .map(|_| {
                let c = ScaleoutConfig {
                    sample_every,
                    ..base.clone()
                };
                let r = measure_isolated(&c, (sample_every != 0).then_some(&hub));
                if let Some(roller) = sync_roller.as_mut() {
                    hub.clock.advance_ns(1_000_000);
                    closed_sync += roller.tick();
                }
                r.throughput.value()
            })
            .fold(0.0_f64, f64::max);
        stop.store(true, Ordering::Relaxed);
        if let Some(handle) = scraper {
            closed_sync += handle.join().expect("scraper thread never panics");
        }
        if sample_every != 0 {
            assert!(
                closed_sync > 0,
                "the window scraper must actually roll windows"
            );
        }
        mpps
    };
    let disabled_mpps = best(0);
    let enabled_mpps = best(base.sample_every);
    OverheadReport {
        disabled_mpps,
        enabled_mpps,
        ratio: enabled_mpps / disabled_mpps,
    }
}

/// The shard-thread layout needs this many cores before contended scaling
/// is physically possible: one per shard thread of the two-shard run.
pub const SCALEOUT_MIN_CORES: usize = 2;

/// Result of the contended scale-out gate (`bench-dataplane
/// --check-scaleout`): aggregate Mpps at 1 versus 2 contending shards.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleoutReport {
    /// Cores the host reports (`std::thread::available_parallelism`).
    pub available_cores: usize,
    /// `true` when the host has fewer than [`SCALEOUT_MIN_CORES`] cores and
    /// the measurement was skipped (the gate passes vacuously: a starved
    /// host cannot show scaling, only scheduler noise).
    pub skipped: bool,
    /// Aggregate Mpps at 1 shard, best of three runs.
    pub single_shard_mpps: f64,
    /// Aggregate Mpps at 2 contending shards, best of three runs.
    pub two_shard_mpps: f64,
    /// `two_shard / single_shard`; the gate fails below its threshold.
    pub ratio: f64,
}

/// Measures the 2-shard contended speedup over 1 shard (best of three runs
/// each to damp scheduler noise). When the host has fewer than
/// [`SCALEOUT_MIN_CORES`] cores the measurement is skipped — see
/// [`ScaleoutReport::skipped`].
#[must_use]
pub fn check_scaleout(cfg: &BaselineConfig) -> ScaleoutReport {
    let available_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if available_cores < SCALEOUT_MIN_CORES {
        return ScaleoutReport {
            available_cores,
            skipped: true,
            single_shard_mpps: 0.0,
            two_shard_mpps: 0.0,
            ratio: 0.0,
        };
    }
    let best = |shards: usize| -> f64 {
        (0..3)
            .map(|_| measure_sharded(&sharded_config(cfg, shards), None).throughput.value())
            .fold(0.0_f64, f64::max)
    };
    let single_shard_mpps = best(1);
    let two_shard_mpps = best(2);
    ScaleoutReport {
        available_cores,
        skipped: false,
        single_shard_mpps,
        two_shard_mpps,
        ratio: two_shard_mpps / single_shard_mpps,
    }
}

/// Serializes a baseline as indented JSON (the vendored `serde_json` has no
/// pretty printer, so we re-indent its compact output; string literals in
/// the document contain no braces or brackets, which keeps this safe).
///
/// # Panics
///
/// Panics if serialization fails (plain data, cannot happen).
#[must_use]
pub fn to_json(baseline: &Baseline) -> String {
    let compact = serde_json::to_string(baseline).expect("baseline serializes");
    indent_json(&compact)
}

pub(crate) fn indent_json(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth: usize = 0;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in compact.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => {
                out.push_str(": ");
            }
            _ => out.push(c),
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_well_formed_json() {
        let cfg = BaselineConfig {
            duration: Duration::from_millis(20),
            warmup: Duration::from_millis(5),
            flow_counts: vec![128],
            instance_counts: vec![1],
            batch_sizes: vec![1, 16],
            shard_counts: vec![1, 2],
            flows_per_shard: 256,
        };
        let b = run(&cfg);
        assert_eq!(b.single_instance.len(), 3);
        assert!(b.single_instance.iter().all(|c| c.mpps > 0.0));
        assert!(b.single_instance.iter().all(|c| c.latency_p50_ns > 0
            && c.latency_p99_ns >= c.latency_p50_ns));
        assert_eq!(b.contended_scaleout.len(), 2);
        for (cell, &shards) in b.contended_scaleout.iter().zip(&cfg.shard_counts) {
            assert_eq!(cell.shards, shards);
            assert_eq!(cell.flows_total, shards * cfg.flows_per_shard);
            assert!(cell.mpps > 0.0, "{shards} shards produced nothing");
            assert!(cell.flow_entries >= cell.flows_total);
            assert!(cell.latency_p99_ns >= cell.latency_p50_ns);
        }
        assert_eq!(b.mixed_label.len(), 1);
        let cell = &b.mixed_label[0];
        assert_eq!(cell.chains, MIXED_CHAINS);
        assert_eq!(cell.flows, 128, "the mixed row uses the sweep's base flows");
        assert!(cell.mpps > 0.0, "the mixed row produced nothing");
        let json = to_json(&b);
        let parsed = serde_json::from_str_value(&json).unwrap();
        assert!(parsed.get("single_instance").is_some());
        assert!(parsed.get("batch_sweep").is_some());
        assert!(parsed.get("contended_scaleout").is_some());
        assert!(parsed.get("mixed_label").is_some());
        let metrics = parsed
            .get("telemetry")
            .and_then(|t| t.get("metrics"))
            .expect("telemetry.metrics section");
        for mode in ["bridge", "overlay", "affinity"] {
            let h = metrics
                .get("histograms")
                .and_then(|h| h.get(&format!("dataplane.latency.{mode}")))
                .unwrap_or_else(|| panic!("latency histogram for {mode}"));
            assert!(h.get("count").is_some());
        }
        for counter in ["bus.wan_messages", "bus.local_messages", "cp.2pc.commits"] {
            assert!(
                metrics.get("counters").and_then(|c| c.get(counter)).is_some(),
                "missing counter {counter}"
            );
        }
        let trace = parsed
            .get("telemetry")
            .and_then(|t| t.get("trace"))
            .and_then(|t| t.get("records"))
            .expect("telemetry.trace.records");
        let serde::Value::Array(records) = trace else {
            panic!("trace records is an array")
        };
        assert!(
            records.iter().any(|r| matches!(
                r.get("name"),
                Some(serde::Value::Str(n)) if n.starts_with("2pc.")
            )),
            "snapshot carries 2PC phase spans"
        );
    }

    #[test]
    fn overhead_report_is_sane() {
        let cfg = BaselineConfig {
            duration: Duration::from_millis(10),
            warmup: Duration::from_millis(2),
            flow_counts: vec![128],
            instance_counts: vec![1],
            batch_sizes: vec![32],
            shard_counts: vec![1],
            flows_per_shard: 128,
        };
        let r = check_overhead(&cfg);
        assert!(r.disabled_mpps > 0.0);
        assert!(r.enabled_mpps > 0.0);
        assert!(r.ratio > 0.0);
    }

    #[test]
    fn scaleout_gate_skips_or_measures_by_core_count() {
        let cfg = BaselineConfig {
            duration: Duration::from_millis(15),
            warmup: Duration::from_millis(4),
            flow_counts: vec![128],
            instance_counts: vec![1],
            batch_sizes: vec![32],
            shard_counts: vec![1, 2],
            flows_per_shard: 256,
        };
        let r = check_scaleout(&cfg);
        if r.available_cores < SCALEOUT_MIN_CORES {
            assert!(r.skipped, "starved host must skip, not fail noisily");
        } else {
            assert!(!r.skipped);
            assert!(r.single_shard_mpps > 0.0);
            assert!(r.two_shard_mpps > 0.0);
            assert!(r.ratio > 0.0);
        }
    }

    #[test]
    fn indentation_preserves_content() {
        let compact = r#"{"a":[1,2],"b":"x{]y"}"#;
        let pretty = indent_json(compact);
        let a = serde_json::from_str_value(compact).unwrap();
        let b = serde_json::from_str_value(&pretty).unwrap();
        assert_eq!(a, b);
    }
}
