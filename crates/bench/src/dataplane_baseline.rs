//! The machine-readable data-plane throughput baseline
//! (`BENCH_dataplane.json`).
//!
//! Unlike the figure modules (which print paper-style rows), this module
//! produces a stable JSON document that is checked in at the repo root and
//! serves as the reference point for future performance PRs: per-mode
//! single-forwarder Mpps across the Figure 8 flow counts, scale-out over
//! concurrent shards, and a batch-size sweep showing the amortization curve
//! of [`sb_dataplane::Forwarder::process_batch`]. Every row is one call of
//! [`measure_sharded`], at one shard unless it says otherwise.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p sb-bench --bin bench-dataplane -- --out BENCH_dataplane.json
//! ```
//!
//! CI runs the same binary with `--quick` as a smoke check that the
//! harness works and the JSON stays well-formed.

use sb_dataplane::runner::{measure_sharded, ScaleoutConfig};
use sb_dataplane::ForwarderMode;
use sb_telemetry::{Telemetry, WindowConfig, WindowRoller};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Generator nanoseconds per packet, outside the forwarder's time.
    pub gen_ns_per_pkt: f64,
    /// Flow-table entries at the end of the run.
    pub flow_entries: usize,
    /// Median per-packet forwarding latency (sampled 1-in-N calls).
    pub latency_p50_ns: u64,
    /// 99th-percentile per-packet forwarding latency.
    pub latency_p99_ns: u64,
}

/// One scale-out cell (Affinity mode): N shard threads running at once,
/// each driving its own RSS share of one flow population.
#[derive(Debug, Clone, Serialize)]
pub struct ContendedCell {
    /// Concurrent forwarder shard threads.
    pub shards: usize,
    /// Size of the flow population split across the shards.
    pub flows: usize,
    /// More shards than the host has cores: the shards take turns on the
    /// cores, so the row shows what those cores deliver, not scaling.
    pub oversubscribed: bool,
    /// Aggregate steady-state throughput across the contending shards.
    pub mpps: f64,
    /// Generator nanoseconds per packet, outside the forwarders' time.
    pub gen_ns_per_pkt: f64,
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
    /// Per-mode single-forwarder throughput across flow counts.
    pub single_instance: Vec<SingleCell>,
    /// Affinity-mode scale-out (Figure 8): 1→N shard threads live at once.
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
    /// Batch sizes for the amortization sweep.
    pub batch_sizes: Vec<usize>,
    /// Shard counts for the contended scale-out sweep.
    pub shard_counts: Vec<usize>,
    /// Flows per shard in the contended sweep (`flows = shards *
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

/// One forwarder on `flows` flows in `mode`, over the run's windows.
fn cell_config(cfg: &BaselineConfig, mode: ForwarderMode, flows: usize) -> ScaleoutConfig {
    ScaleoutConfig {
        flows,
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
            let r = measure_sharded(&cell_config(cfg, mode, flows), Some(&hub));
            single.push(SingleCell {
                mode: mode_name(mode),
                flows,
                mpps: r.throughput.value(),
                gen_ns_per_pkt: r.gen_ns_per_pkt,
                flow_entries: r.flow_entries,
                latency_p50_ns: r.latency.p50_ns,
                latency_p99_ns: r.latency.p99_ns,
            });
        }
    }

    let cores = available_cores();
    let mut contended = Vec::new();
    for &shards in &cfg.shard_counts {
        let c = sharded_config(cfg, shards);
        let r = measure_sharded(&c, Some(&hub));
        contended.push(ContendedCell {
            shards,
            flows: c.flows,
            oversubscribed: shards > cores,
            mpps: r.throughput.value(),
            gen_ns_per_pkt: r.gen_ns_per_pkt,
            latency_p50_ns: r.latency.p50_ns,
            latency_p99_ns: r.latency.p99_ns,
            flow_entries: r.flow_entries,
        });
    }

    let sweep_flows = cfg.flow_counts.first().copied().unwrap_or(2_048);
    let mut batch_sweep = Vec::new();
    for &batch_size in &cfg.batch_sizes {
        let r = measure_sharded(
            &ScaleoutConfig {
                batch_size,
                ..cell_config(cfg, ForwarderMode::Affinity, sweep_flows)
            },
            Some(&hub),
        );
        batch_sweep.push(BatchCell {
            batch_size,
            mpps: r.throughput.value(),
            latency_p50_ns: r.latency.p50_ns,
        });
    }

    let r = measure_sharded(&mixed_config(cfg, sweep_flows), Some(&hub));
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
        methodology: "every row is sb_dataplane::runner::measure_sharded: N shard \
                      threads live at once (N = 1 outside contended_scaleout), each \
                      generating and forwarding its own RSS share of one flow \
                      population; a shard fills a 4096-packet buffer outside the \
                      timer and its rate is packets over forwarder-busy time \
                      (gen_ns_per_pkt is the generator's own cost; it still runs on \
                      the shard's core and shares its caches); mpps sums the shards' \
                      rates; an oversubscribed row has more shards than host cores \
                      and shows what those cores deliver, not scaling",
        duration_ms,
        single_instance: single,
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
        ..cell_config(cfg, ForwarderMode::Overlay, flows)
    }
}

/// The scale-out cell: `shards` Affinity shards on `flows_per_shard` flows each.
fn sharded_config(cfg: &BaselineConfig, shards: usize) -> ScaleoutConfig {
    ScaleoutConfig {
        shards,
        ..cell_config(cfg, ForwarderMode::Affinity, shards * cfg.flows_per_shard)
    }
}

/// Cores the host reports (`std::thread::available_parallelism`).
pub(crate) fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
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

/// Pairs of windows the scale-out gate runs.
pub const GATE_PAIRS: usize = 7;

/// Pairs of windows the overhead gate runs. Its 5 % bar sits a few
/// percent from both the true cost of sampling and a regression it must
/// catch, while one pair's ratio swings by ±30 % on a 2-vCPU host (each
/// window's shard thread lands on either core), so its median needs nine
/// times the scale-out gate's pairs: about 25 s with `--quick`.
pub const OVERHEAD_PAIRS: usize = 63;

/// A ratio gate's two arms, measured in alternating windows: host drift
/// lands on both arms of a pair, and the verdict is the median of the
/// per-pair ratios rather than a ratio of two blocks run one after the
/// other.
#[derive(Debug, Clone)]
pub struct PairedRuns {
    /// `(reference, candidate)` measurements of each pair, in the order
    /// run.
    pub pairs: Vec<(f64, f64)>,
    /// Median of the per-pair ratios `candidate / reference`.
    pub ratio: f64,
}

impl PairedRuns {
    /// Decides on `pairs`: the median of their `candidate / reference`
    /// ratios.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    #[must_use]
    pub fn new(pairs: Vec<(f64, f64)>) -> Self {
        let mut ratios: Vec<f64> = pairs.iter().map(|&(r, c)| c / r).collect();
        ratios.sort_by(f64::total_cmp);
        Self {
            ratio: ratios[ratios.len() / 2],
            pairs,
        }
    }
}

/// Runs `pairs` pairs, the reference arm first in each.
fn alternate(
    pairs: usize,
    mut reference: impl FnMut() -> f64,
    mut candidate: impl FnMut() -> f64,
) -> PairedRuns {
    PairedRuns::new((0..pairs).map(|_| (reference(), candidate())).collect())
}

/// Runs `measure` while `roller` rolls windows over `hub`'s registry, on a
/// scraper thread when `spare_core` is set, else once afterwards. Returns
/// the measured Mpps and the windows the roller closed.
fn scraped(
    spare_core: bool,
    hub: &Telemetry,
    roller: &mut WindowRoller,
    measure: impl FnOnce() -> f64,
) -> (f64, usize) {
    if !spare_core {
        let mpps = measure();
        hub.clock.advance_ns(1_000_000);
        return (mpps, roller.tick());
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut n = 0;
            while !stop.load(Ordering::Relaxed) {
                hub.clock.advance_ns(1_000_000);
                n += roller.tick();
                std::thread::sleep(Duration::from_millis(10));
            }
            n
        });
        let mpps = measure();
        stop.store(true, Ordering::Relaxed);
        (mpps, scraper.join().expect("scraper thread never panics"))
    })
}

/// The telemetry overhead gate (`bench-dataplane --check-overhead`) on the
/// Affinity@2K cell: telemetry off (`sample_every = 0`) is the reference
/// arm, default 1-in-N packet sampling the candidate.
///
/// The enabled arm carries the *full* observability stack the scenario
/// harness uses, not just the sampled counters: a scraper thread rolls
/// 1 ms windows over the shared registry
/// ([`WindowRoller`](sb_telemetry::timeseries::WindowRoller)) for the
/// whole window, so the <5% gate also prices the windowed time-series
/// layer's pull-based snapshot reads contending with the forwarder's
/// atomic writes. The disabled arm runs the same scraper over a registry
/// no forwarder writes, so the two arms keep the host equally busy and
/// differ by telemetry alone.
///
/// # Panics
///
/// Panics if the enabled arm's scraper rolled no window.
#[must_use]
pub fn check_overhead(cfg: &BaselineConfig) -> PairedRuns {
    let flows = cfg.flow_counts.first().copied().unwrap_or(2_048);
    let on = cell_config(cfg, ForwarderMode::Affinity, flows);
    let off = ScaleoutConfig {
        sample_every: 0,
        ..on.clone()
    };
    // With a spare core the scraper runs concurrently (real contention:
    // snapshot reads vs forwarder atomic writes); on a single core any
    // extra runnable thread steals timeslices from the measured loop and
    // the gate would price scheduler noise, not telemetry, so the roller
    // is ticked synchronously after each window instead.
    let spare_core = available_cores() >= 2;
    let (hub, idle) = (Telemetry::new(), Telemetry::new());
    let roller = |t: &Telemetry| {
        let windows = WindowConfig {
            width_ns: 1_000_000,
            capacity: 256,
        };
        WindowRoller::new(&t.registry, &t.clock, windows)
    };
    let (mut on_roller, mut off_roller) = (roller(&hub), roller(&idle));
    let mut closed = 0;
    let runs = alternate(
        OVERHEAD_PAIRS,
        || {
            let measure = || measure_sharded(&off, None).throughput.value();
            scraped(spare_core, &idle, &mut off_roller, measure).0
        },
        || {
            let measure = || measure_sharded(&on, Some(&hub)).throughput.value();
            let (mpps, n) = scraped(spare_core, &hub, &mut on_roller, measure);
            closed += n;
            mpps
        },
    );
    assert!(closed > 0, "the window scraper must actually roll windows");
    runs
}

/// The shard-thread layout needs this many cores before contended scaling
/// is physically possible: one per shard thread of the two-shard run.
pub const SCALEOUT_MIN_CORES: usize = 2;

/// The contended scale-out gate (`bench-dataplane --check-scaleout`):
/// 1 shard is the reference arm, 2 contending shards the candidate.
#[derive(Debug, Clone)]
pub struct ScaleoutReport {
    /// Cores the host reports (`std::thread::available_parallelism`).
    pub available_cores: usize,
    /// The paired windows; `None` when the host has fewer than
    /// [`SCALEOUT_MIN_CORES`] cores and the measurement was skipped (the
    /// gate passes vacuously: a starved host cannot show scaling, only
    /// scheduler noise).
    pub runs: Option<PairedRuns>,
}

/// Measures the 2-shard contended speedup over 1 shard in alternating
/// windows.
#[must_use]
pub fn check_scaleout(cfg: &BaselineConfig) -> ScaleoutReport {
    let available_cores = available_cores();
    let runs = (available_cores >= SCALEOUT_MIN_CORES).then(|| {
        let arm = |shards| move || measure_sharded(&sharded_config(cfg, shards), None).throughput.value();
        alternate(GATE_PAIRS, arm(1), arm(2))
    });
    ScaleoutReport {
        available_cores,
        runs,
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
            assert_eq!(cell.flows, shards * cfg.flows_per_shard);
            assert_eq!(cell.oversubscribed, shards > available_cores());
            assert!(cell.mpps > 0.0, "{shards} shards produced nothing");
            assert!(cell.flow_entries >= cell.flows);
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
        assert!(parsed.get("scaleout").is_none(), "no sequential-sum rows");
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
            batch_sizes: vec![32],
            shard_counts: vec![1],
            flows_per_shard: 128,
        };
        let r = check_overhead(&cfg);
        assert_eq!(r.pairs.len(), OVERHEAD_PAIRS);
        assert!(r.pairs.iter().all(|&(off, on)| off > 0.0 && on > 0.0));
        assert!(r.ratio > 0.0);
    }

    #[test]
    fn scaleout_gate_skips_or_measures_by_core_count() {
        let cfg = BaselineConfig {
            duration: Duration::from_millis(15),
            warmup: Duration::from_millis(4),
            flow_counts: vec![128],
            batch_sizes: vec![32],
            shard_counts: vec![1, 2],
            flows_per_shard: 256,
        };
        let r = check_scaleout(&cfg);
        match r.runs {
            None => assert!(
                r.available_cores < SCALEOUT_MIN_CORES,
                "a host with cores must measure"
            ),
            Some(runs) => {
                assert!(r.available_cores >= SCALEOUT_MIN_CORES, "starved host must skip");
                assert_eq!(runs.pairs.len(), GATE_PAIRS);
                assert!(runs.pairs.iter().all(|&(one, two)| one > 0.0 && two > 0.0));
                assert!(runs.ratio > 0.0);
            }
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
