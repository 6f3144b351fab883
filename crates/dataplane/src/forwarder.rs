//! The Switchboard forwarder proxy.
//!
//! A forwarder (Section 5) is deployed in a standalone VM at every site. It
//! receives packets either *from the wire* (an edge instance or a peer
//! forwarder, possibly tunneled across the wide area) or *from an attached
//! VNF instance* that finished processing. It then applies, per label pair,
//! the three hierarchical load-balancing rule sets of Section 5.2 —
//! adjacent VNF instances, forwarders of the next VNF, forwarders of the
//! previous VNF — pinning the choices per connection in the flow table.
//!
//! Three processing modes reproduce the Figure 7 overhead study:
//!
//! - [`ForwarderMode::Bridge`] — a plain learning-bridge stand-in: header
//!   parse and a static next hop; no labels, no state.
//! - [`ForwarderMode::Overlay`] — adds the label (MPLS-like) and tunnel
//!   (VXLAN-like) processing and per-packet weighted selection, but keeps
//!   no per-flow state.
//! - [`ForwarderMode::Affinity`] — the full Switchboard forwarder: overlay
//!   processing plus flow-table learn/lookup for flow affinity and
//!   symmetric return.
//!
//! # Fast path
//!
//! The hot path follows the software-dataplane playbook (VPP, DPDK l3fwd):
//!
//! - [`FlowKey::stable_hash`] is computed **once** per packet at parse time
//!   and threaded through synthetic header work and weighted selection
//!   ([`WeightedChoice::select`]); the packet's flow-table record is
//!   likewise located once (canonical orientation + record hash) and the
//!   located probe serves the prefetch, the lookup and, on a miss, the pin.
//! - Both paths resolve rules through [`CompiledFib::lookup_index`], in
//!   Affinity mode only on a flow-table miss: a hit never touches the FIB.
//! - [`Forwarder::process_batch`] amortizes mode dispatch and the FIB
//!   snapshot across a batch, prefetches each packet's flow-table record
//!   in Affinity mode and interleaves the per-packet header-work loops of
//!   up to [`IO_WORK_LANES`] packets, breaking the serial dependency chain
//!   that dominates single-packet processing. Batched processing is
//!   packet-for-packet equivalent to calling [`Forwarder::process`] in a
//!   loop — same next hops, same errors, same counters, same `work_sink`.

use crate::artifact::{ArtifactKind, ForwarderArtifact};
use crate::fib::{CompiledFib, FibReader, FibRow};
use crate::flow_table::{FlowContext, FlowProbe, FlowTable, FlowTableKey};
use crate::loadbalancer::WeightedChoice;
use crate::packet::{Addr, Packet, TunnelHeader};
use sb_telemetry::{Counter, Gauge, Histogram, Telemetry, TraceRecorder};
use sb_types::{Error, FlowKey, ForwarderId, InstanceId, LabelPair, Result, SiteId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The processing mode of a forwarder (Figure 7's three configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForwarderMode {
    /// Plain bridging: parse, then a static next hop.
    Bridge,
    /// Label + tunnel processing with stateless weighted selection.
    Overlay,
    /// Full Switchboard forwarding with flow affinity (the default).
    Affinity,
}

impl ForwarderMode {
    /// Stable lowercase name used in metric names and trace attributes.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ForwarderMode::Bridge => "bridge",
            ForwarderMode::Overlay => "overlay",
            ForwarderMode::Affinity => "affinity",
        }
    }
}

/// The three load-balancing rule sets installed per label pair
/// (Section 5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    /// Weighted choice among the VNF instances attached to this forwarder
    /// for this chain stage.
    pub to_vnf: WeightedChoice,
    /// Weighted choice among the forwarders adjoining the *next* VNF in the
    /// chain (or the egress edge instance at the last stage).
    pub to_next: WeightedChoice,
    /// Weighted choice among the forwarders adjoining the *previous* VNF
    /// (or the ingress edge instance at the first stage).
    pub to_prev: WeightedChoice,
}

/// Counters exposed by a forwarder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwarderStats {
    /// Packets received.
    pub rx: u64,
    /// Packets forwarded.
    pub tx: u64,
    /// Packets dropped (no rule, missing labels, table full).
    pub drops: u64,
    /// Flow-table hits.
    pub flow_hits: u64,
    /// Flow-table misses that ran weighted selection.
    pub flow_misses: u64,
}

/// Header-work loops interleaved per batch chunk (see
/// [`Forwarder::process_batch`]). Eight independent accumulators are enough
/// to saturate the multiply pipeline on current cores.
pub const IO_WORK_LANES: usize = 8;

/// Packets staged per internal batch chunk; bounds the stack scratch space.
const BATCH_CHUNK: usize = 32;

/// Telemetry handles held by an instrumented forwarder.
///
/// The fast path keeps its plain [`ForwarderStats`] accumulators; at the
/// end of every `process` / `process_batch_into` call the absolute values
/// are re-published into the registry with single-writer stores, and the
/// per-mode drop counter (shared across forwarders of the same mode)
/// receives the delta since the last sync. Packet spans are sampled by rx
/// ordinal (`ordinal % every == 0`), a pure function of stream position,
/// so batch and sequential processing sample — and record — identically.
#[derive(Debug, Clone)]
struct FwdTelemetry {
    tracer: TraceRecorder,
    /// Sampling period; never 0 (a zero rate means no telemetry at all).
    sample_every: u64,
    /// The rx ordinal of the next packet to record a hop event for.
    next_sample: u64,
    rx: Counter,
    tx: Counter,
    drops: Counter,
    flow_hits: Counter,
    flow_misses: Counter,
    /// `dataplane.drops.<mode>`, shared across same-mode forwarders.
    mode_drops: Counter,
    /// `<id>.flow_entries` occupancy gauge.
    occupancy: Gauge,
    /// `<id>.flow_buckets`: the flow table's record-array size, which
    /// doubles as the table grows.
    buckets: Gauge,
    /// `fib.generation`: the published compiled-FIB generation.
    fib_generation: Gauge,
    /// `fib.rebuilds`: full FIB recompilations (absolute, like `rx`).
    fib_rebuilds: Counter,
    /// `fib.patches`: single-row FIB patches (absolute).
    fib_patches: Counter,
    /// `fib.rebuild_ns`: wall-clock nanoseconds per rebuild/patch,
    /// recorded at publish time (off the packet path).
    fib_rebuild_ns: Histogram,
    /// `artifact.swaps`: artifact applies hot-swapped into this data
    /// plane (shared across forwarders, like `dataplane.drops.<mode>`).
    artifact_swaps: Counter,
    /// Drop count at the previous sync, for the shared-counter delta.
    synced_drops: u64,
}

/// The FIB counters a telemetry sync publishes (absolute values, taken
/// from the forwarder's [`FibState`]).
#[derive(Clone, Copy)]
struct FibSyncStats {
    generation: u64,
    rebuilds: u64,
    patches: u64,
}

impl FwdTelemetry {
    fn new(hub: &Telemetry, id: ForwarderId, mode: ForwarderMode, sample_every: u64) -> Self {
        let reg = &hub.registry;
        Self {
            tracer: hub.tracer.clone(),
            sample_every: sample_every.max(1),
            next_sample: 0,
            rx: reg.counter(&format!("{id}.rx")),
            tx: reg.counter(&format!("{id}.tx")),
            drops: reg.counter(&format!("{id}.drops")),
            flow_hits: reg.counter(&format!("{id}.flow_hits")),
            flow_misses: reg.counter(&format!("{id}.flow_misses")),
            mode_drops: reg.counter(&format!("dataplane.drops.{}", mode.as_str())),
            occupancy: reg.gauge(&format!("{id}.flow_entries")),
            buckets: reg.gauge(&format!("{id}.flow_buckets")),
            fib_generation: reg.gauge("fib.generation"),
            fib_rebuilds: reg.counter("fib.rebuilds"),
            fib_patches: reg.counter("fib.patches"),
            fib_rebuild_ns: reg.histogram("fib.rebuild_ns"),
            artifact_swaps: reg.counter("artifact.swaps"),
            synced_drops: 0,
        }
    }

    /// Records one sampled per-hop packet event; `ordinal` doubles as the
    /// virtual timestamp so hops order correctly without a wall clock.
    fn record_hop(
        &mut self,
        id: ForwarderId,
        mode: ForwarderMode,
        ordinal: u64,
        next: core::result::Result<Addr, &Error>,
    ) {
        self.next_sample = ordinal + self.sample_every;
        let id_s = id.to_string();
        match next {
            Ok(addr) => {
                let next_s = addr.to_string();
                self.tracer.event(
                    "pkt.hop",
                    None,
                    ordinal,
                    &[("fwd", &id_s), ("mode", mode.as_str()), ("next", &next_s)],
                );
            }
            Err(e) => {
                let err_s = e.to_string();
                self.tracer.event(
                    "pkt.drop",
                    None,
                    ordinal,
                    &[("fwd", &id_s), ("mode", mode.as_str()), ("error", &err_s)],
                );
            }
        }
    }

    /// Publishes the current stats into the registry.
    fn sync(&mut self, stats: &ForwarderStats, flows: &FlowTable, fib: FibSyncStats) {
        self.rx.set(stats.rx);
        self.tx.set(stats.tx);
        self.drops.set(stats.drops);
        self.flow_hits.set(stats.flow_hits);
        self.flow_misses.set(stats.flow_misses);
        self.mode_drops.add(stats.drops - self.synced_drops);
        self.synced_drops = stats.drops;
        self.occupancy.set(flows.len() as i64);
        self.buckets.set(flows.buckets() as i64);
        #[allow(clippy::cast_possible_wrap)]
        self.fib_generation.set(fib.generation as i64);
        self.fib_rebuilds.set(fib.rebuilds);
        self.fib_patches.set(fib.patches);
    }
}

/// The forwarder's rule state: the [`CompiledFib`] it last published —
/// whose rows are the only copy of the forwarder's rules — and
/// recompilation counters. Publishing replaces `current`, so a cloned
/// forwarder's publishes replace only its own `Arc`.
#[derive(Debug, Clone)]
struct FibState {
    /// The generation last published; mutators derive the next one from it.
    current: Arc<CompiledFib>,
    /// Full recompilations published so far.
    rebuilds: u64,
    /// Single-row patches published so far.
    patches: u64,
}

impl FibState {
    fn new() -> Self {
        Self {
            current: Arc::new(CompiledFib::empty()),
            rebuilds: 0,
            patches: 0,
        }
    }

    /// The generation number the next publish carries.
    fn next_generation(&self) -> u64 {
        self.current.generation() + 1
    }

    fn sync_stats(&self) -> FibSyncStats {
        FibSyncStats {
            generation: self.current.generation(),
            rebuilds: self.rebuilds,
            patches: self.patches,
        }
    }
}

/// A Switchboard forwarder.
///
/// See the [crate docs](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct Forwarder {
    id: ForwarderId,
    site: SiteId,
    mode: ForwarderMode,
    /// Static next hop used in [`ForwarderMode::Bridge`].
    bridge_next: Option<Addr>,
    /// VNF instances that do NOT support Switchboard labels: packets to
    /// them are stripped, and packets from them get these labels re-affixed
    /// (Section 5.3, Conformity: "forwarders must be able to uniquely
    /// associate the exit interface on the VNF with a set of labels").
    label_unaware: HashMap<InstanceId, LabelPair>,
    flow_table: FlowTable,
    /// The compiled FIB: its rows are the rules, one per label pair with
    /// its epoch, republished by every rule mutator (DESIGN.md §14).
    fib: FibState,
    stats: ForwarderStats,
    /// Sink for synthetic per-packet header work (see `io_work`), kept so
    /// the optimizer cannot elide the loop.
    work_sink: u64,
    /// Optional registry/trace wiring; `None` (the default) keeps the fast
    /// path identical to the uninstrumented build.
    telemetry: Option<FwdTelemetry>,
}

impl Forwarder {
    /// Creates a forwarder with the default flow-table capacity.
    #[must_use]
    pub fn new(id: ForwarderId, site: SiteId, mode: ForwarderMode) -> Self {
        Self::with_flow_capacity(id, site, mode, FlowTable::default().capacity())
    }

    /// Creates a forwarder with an explicit flow-table capacity.
    #[must_use]
    pub fn with_flow_capacity(
        id: ForwarderId,
        site: SiteId,
        mode: ForwarderMode,
        capacity: usize,
    ) -> Self {
        Self {
            id,
            site,
            mode,
            bridge_next: None,
            label_unaware: HashMap::new(),
            flow_table: FlowTable::with_capacity(capacity),
            fib: FibState::new(),
            stats: ForwarderStats::default(),
            work_sink: 0,
            telemetry: None,
        }
    }

    /// Attaches a telemetry hub: counters named `<id>.rx` / `.tx` /
    /// `.drops` / `.flow_hits` / `.flow_misses` mirror [`ForwarderStats`]
    /// after every call, a `<id>.flow_entries` gauge tracks flow-table
    /// occupancy and a `<id>.flow_buckets` gauge its record-array size (a
    /// step up is a table doubling), drops also feed the shared
    /// `dataplane.drops.<mode>` counter, and one packet in `sample_every`
    /// records a `pkt.hop` / `pkt.drop` trace event (its rx ordinal is the
    /// timestamp).
    /// `sample_every` is clamped to at least 1; to disable telemetry,
    /// simply never attach it.
    pub fn attach_telemetry(&mut self, hub: &Telemetry, sample_every: u64) {
        let mut t = FwdTelemetry::new(hub, self.id, self.mode, sample_every);
        // Resume sampling relative to packets already processed.
        t.next_sample = self.stats.rx.next_multiple_of(t.sample_every);
        t.synced_drops = self.stats.drops;
        t.sync(&self.stats, &self.flow_table, self.fib.sync_stats());
        self.telemetry = Some(t);
    }

    /// This forwarder's identifier.
    #[must_use]
    pub fn id(&self) -> ForwarderId {
        self.id
    }

    /// The site this forwarder runs at.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The processing mode.
    #[must_use]
    pub fn mode(&self) -> ForwarderMode {
        self.mode
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ForwarderStats {
        self.stats
    }

    /// Number of flow-table entries currently installed.
    #[must_use]
    pub fn flow_entries(&self) -> usize {
        self.flow_table.len()
    }

    /// Total synthetic per-packet header work accumulated (the `io_work`
    /// sink). Equivalence tests compare it across processing paths: equal
    /// sinks mean the paths did identical per-packet work in identical
    /// order.
    #[must_use]
    pub fn work_done(&self) -> u64 {
        self.work_sink
    }

    /// Installs (or replaces) the rule sets for a label pair, keeping the
    /// pair's epoch (0 for a new pair). Existing flow-table entries are
    /// untouched, so established connections keep their instances
    /// (Section 5.3: "existing entries ... remain until the completion of
    /// a flow and only new flows route on the new routes").
    pub fn install_rules(&mut self, labels: LabelPair, rules: RuleSet) {
        let epoch = self.active_epoch(labels).unwrap_or(0);
        self.install_rules_epoch(labels, rules, epoch);
    }

    /// Publishes the row `{labels, epoch, rules}`, replacing any row the
    /// pair has (DESIGN.md §10). New flows hash onto `rules`; flows pinned
    /// in the flow table keep draining on whatever rules installed their
    /// entry, which is all make-before-break needs.
    pub fn install_rules_epoch(&mut self, labels: LabelPair, rules: RuleSet, epoch: u64) {
        self.publish_row(FibRow {
            labels,
            epoch,
            rules,
        });
    }

    /// The epoch of a label pair's row, if the pair is installed.
    #[must_use]
    pub fn active_epoch(&self, labels: LabelPair) -> Option<u64> {
        let fib = &self.fib.current;
        let i = fib.position(labels).ok()?;
        Some(fib.rows()[i].epoch)
    }

    /// Removes a label pair, returning whether it was installed;
    /// established flows continue via their flow-table entries.
    pub fn remove_rules(&mut self, labels: LabelPair) -> bool {
        self.publish_rebuild(|fib, generation| fib.without_row(generation, labels))
    }

    /// Sets the static next hop used in [`ForwarderMode::Bridge`].
    pub fn set_bridge_next(&mut self, next: Addr) {
        self.bridge_next = Some(next);
    }

    /// Declares an attached VNF instance label-unaware: packets handed to it
    /// have labels stripped, and packets coming back are re-labeled with
    /// `labels`.
    pub fn register_label_unaware_vnf(&mut self, instance: InstanceId, labels: LabelPair) {
        self.label_unaware.insert(instance, labels);
    }

    /// Removes all flow-table state for a connection (flow completion).
    pub fn expire_connection(&mut self, labels: LabelPair, key: FlowKey) -> usize {
        self.flow_table.remove_connection(labels.chain(), key)
    }

    /// Drops every flow-table entry, modeling the flow-table loss of a
    /// forwarder process restart (DESIGN.md §8). Rules, label registrations,
    /// and counters survive — the control plane re-pushes configuration on
    /// reconnect far faster than flows drain. Established connections lose
    /// their pins and re-run weighted selection on their next packet;
    /// selection is deterministic in the flow hash, so under unchanged rules
    /// a restarted forwarder re-pins each flow to the same instance.
    pub fn clear_flow_state(&mut self) {
        self.flow_table.clear();
    }

    /// Handles the mid-flow crash of an attached VNF instance (DESIGN.md
    /// §8): load-balancer failover that honors the affinity of surviving
    /// flows. Two things happen, in order:
    ///
    /// 1. every installed rule set (all label pairs) drops the instance
    ///    from its `to_vnf` weighted choice, so no *new* pin can select it
    ///    — unless it is a rule set's only target, in which case that rule
    ///    set is left unchanged (its flows blackhole rather than silently
    ///    rerouting somewhere the chain never specified);
    /// 2. every flow-table entry pinned to the instance is evicted, so the
    ///    flows it was serving re-run weighted selection over the survivors
    ///    on their next packet and then stay pinned there.
    ///
    /// Entries pinned to *other* instances are untouched: surviving flows
    /// keep their affinity through the failover, which is what the chaos
    /// tests assert. Returns the number of flow-table entries evicted.
    pub fn fail_vnf_instance(&mut self, instance: InstanceId) -> usize {
        let dead = Addr::Vnf(instance);
        let pruned = |row: &FibRow| {
            let mut row = row.clone();
            if let Ok(to_vnf) = row.rules.to_vnf.without(dead) {
                row.rules.to_vnf = to_vnf;
            }
            row
        };
        // Every label pair may have changed: full recompilation.
        self.publish_rebuild(|fib, generation| {
            let rows = fib.rows().iter().map(pruned).collect();
            Some(CompiledFib::from_rows(generation, rows))
        });
        self.flow_table.remove_where(|_, next| next == dead)
    }

    /// The published compiled-FIB generation (bumped by every rule
    /// mutation).
    #[must_use]
    pub fn fib_generation(&self) -> u64 {
        self.fib.current.generation()
    }

    /// `(full rebuilds, single-row patches)` published so far.
    #[must_use]
    pub fn fib_recompilations(&self) -> (u64, u64) {
        (self.fib.rebuilds, self.fib.patches)
    }

    /// A snapshot handle on the published compiled FIB. It keeps the
    /// generation current now: later rule mutations publish a new `Arc`
    /// and leave the handle's rows as they were.
    #[must_use]
    pub fn fib_reader(&self) -> FibReader {
        FibReader {
            fib: Arc::clone(&self.fib.current),
        }
    }

    /// Exports this forwarder's compiled forwarding state as an artifact
    /// share: the published [`CompiledFib`]'s row array (already sorted
    /// by label pair, and shared, not copied), the label-unaware
    /// registrations, the mode, and the current generation. `removed` is
    /// empty — a single forwarder's export is a full snapshot; see
    /// [`export_artifact_in`](Self::export_artifact_in) for a patch.
    #[must_use]
    pub fn export_artifact(&self) -> ForwarderArtifact {
        self.export_artifact_in(None)
    }

    /// [`export_artifact`](Self::export_artifact), or with a `scope` of
    /// label pairs its patch share: the rows of the scope's pairs this
    /// forwarder holds, found by binary search, a removal entry for each
    /// scope pair it does not hold (in scope order), and the label-unaware
    /// registrations re-affixing a scope pair. No other row is read.
    #[must_use]
    pub fn export_artifact_in(&self, scope: Option<&[LabelPair]>) -> ForwarderArtifact {
        let in_scope = |l: &LabelPair| scope.is_none_or(|s| s.contains(l));
        let mut label_unaware: Vec<(InstanceId, LabelPair)> = self
            .label_unaware
            .iter()
            .filter(|(_, l)| in_scope(l))
            .map(|(&i, &l)| (i, l))
            .collect();
        label_unaware.sort_by_key(|&(i, _)| i);
        let fib = &self.fib.current;
        let (rows, removed) = match scope {
            None => (Arc::clone(fib.shared_rows()), Vec::new()),
            Some(scope) => {
                let mut rows: Vec<FibRow> = scope
                    .iter()
                    .filter_map(|&l| fib.position(l).ok().map(|i| fib.rows()[i].clone()))
                    .collect();
                rows.sort_by_key(|r| r.labels);
                rows.dedup_by_key(|r| r.labels);
                let removed = scope
                    .iter()
                    .copied()
                    .filter(|&l| fib.position(l).is_err())
                    .collect();
                (rows.into(), removed)
            }
        };
        ForwarderArtifact {
            forwarder: self.id,
            mode: self.mode,
            generation: fib.generation(),
            rows,
            label_unaware,
            removed,
        }
    }

    /// Boots a forwarder at `site` from a full artifact share: identifier
    /// and mode come from the artifact, then the state is applied as a
    /// [`ArtifactKind::Full`] swap. This is how the standalone `sb
    /// run-forwarder` process starts.
    #[must_use]
    pub fn from_artifact(site: SiteId, art: &ForwarderArtifact) -> Self {
        let mut f = Self::new(art.forwarder, site, art.mode);
        f.apply_artifact(art, ArtifactKind::Full);
        f
    }

    /// Hot-swaps artifact state into this forwarder.
    ///
    /// - [`ArtifactKind::Full`]: the rows and label-unaware registrations
    ///   are replaced wholesale and one full FIB rebuild is published; it
    ///   shares the artifact's row array when that is sorted.
    /// - [`ArtifactKind::Patch`]: removals drop their label pairs, each
    ///   carried row replaces its pair's row through the single-row
    ///   `patch_row` path, and registrations merge.
    ///
    /// Rows are installed as carried. Either way the swap is an ordinary
    /// generation publish: it takes `&mut self`, so no batch is in flight;
    /// the next batch sees the new generation, and the flow table is never
    /// touched — pinned flows drain across the swap with zero drops
    /// (make-before-break, DESIGN.md §15).
    pub fn apply_artifact(&mut self, art: &ForwarderArtifact, kind: ArtifactKind) {
        if kind == ArtifactKind::Full {
            self.label_unaware.clear();
            let rows = Arc::clone(&art.rows);
            self.publish_rebuild(|_, generation| Some(CompiledFib::from_rows(generation, rows)));
        } else {
            for &labels in &art.removed {
                self.remove_rules(labels);
            }
            for row in art.rows.iter() {
                self.publish_row(row.clone());
            }
        }
        self.label_unaware.extend(art.label_unaware.iter().copied());
        if let Some(t) = &mut self.telemetry {
            t.artifact_swaps.add(1);
        }
    }

    /// Publishes `row` as a single-row patch: it replaces its pair's row,
    /// or is inserted.
    fn publish_row(&mut self, row: FibRow) {
        let started = Instant::now();
        let next = self.fib.current.patch_row(self.fib.next_generation(), row);
        self.fib.current = Arc::new(next);
        self.fib.patches += 1;
        self.fib_note_published(started);
    }

    /// Publishes the full recompilation `compile` makes of the current
    /// FIB at the next generation; returns `false`, publishing nothing,
    /// when it makes none.
    fn publish_rebuild(
        &mut self,
        compile: impl FnOnce(&CompiledFib, u64) -> Option<CompiledFib>,
    ) -> bool {
        let started = Instant::now();
        let Some(next) = compile(&self.fib.current, self.fib.next_generation()) else {
            return false;
        };
        self.fib.current = Arc::new(next);
        self.fib.rebuilds += 1;
        self.fib_note_published(started);
        true
    }

    /// Publishes FIB telemetry after a rebuild/patch. The duration
    /// histogram records only while telemetry is attached (rule churn is a
    /// control-plane event, and wall-clock durations must never leak into
    /// paths that compare registry snapshots built before attachment).
    fn fib_note_published(&mut self, started: Instant) {
        if let Some(t) = &mut self.telemetry {
            #[allow(clippy::cast_possible_truncation)]
            t.fib_rebuild_ns
                .record(started.elapsed().as_nanos() as u64);
            let fib = self.fib.sync_stats();
            #[allow(clippy::cast_possible_wrap)]
            t.fib_generation.set(fib.generation as i64);
            t.fib_rebuilds.set(fib.rebuilds);
            t.fib_patches.set(fib.patches);
        }
    }

    /// Per-packet work rounds charged by every mode: parsing, copying and
    /// checksum work a real forwarder does regardless of features. The
    /// value is calibrated so the *relative* overheads of labels and
    /// affinity (Figure 7) are measured against a realistic base cost
    /// rather than against a no-op.
    pub const BASE_WORK_ROUNDS: u32 = 110;
    /// Additional rounds for MPLS label push/pop plus VXLAN encap/decap.
    pub const LABEL_WORK_ROUNDS: u32 = 26;
    /// Additional rounds for the learn/resubmit stage of the flow-affinity
    /// pipeline (on top of the actual flow-table operations).
    pub const AFFINITY_WORK_ROUNDS: u32 = 48;

    /// The header-work rounds charged per packet in `mode`.
    const fn work_rounds(mode: ForwarderMode) -> u32 {
        match mode {
            ForwarderMode::Bridge => Self::BASE_WORK_ROUNDS,
            ForwarderMode::Overlay => Self::BASE_WORK_ROUNDS + Self::LABEL_WORK_ROUNDS,
            ForwarderMode::Affinity => {
                Self::BASE_WORK_ROUNDS + Self::LABEL_WORK_ROUNDS + Self::AFFINITY_WORK_ROUNDS
            }
        }
    }

    /// One packet's synthetic header-work chain over its seed
    /// (`flow_hash ^ size`): a mixing loop standing in for the
    /// parse/copy/checksum cost of each processing layer. Each step depends
    /// on the previous one, which is exactly why batching pays — see
    /// [`Self::io_work_batch`].
    #[inline]
    fn mix_rounds(mut acc: u64, rounds: u32) -> u64 {
        for i in 0..rounds {
            acc = acc
                .rotate_left(13)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(u64::from(i));
        }
        acc
    }

    /// Synthetic per-packet header work for the single-packet path.
    #[inline]
    fn io_work(&mut self, seed: u64, rounds: u32) {
        self.work_sink ^= Self::mix_rounds(seed, rounds);
    }

    /// Batched synthetic header work: runs the same per-seed mixing chains
    /// as [`Self::io_work`], but interleaved [`IO_WORK_LANES`] packets at a
    /// time so the chains' serial dependencies overlap across lanes. The
    /// XOR-fold into `work_sink` is order-independent, so the result is
    /// bit-identical to per-packet processing.
    fn io_work_batch(&mut self, seeds: &[u64], rounds: u32) {
        let mut sink = 0u64;
        for chunk in seeds.chunks(IO_WORK_LANES) {
            let mut accs = [0u64; IO_WORK_LANES];
            accs[..chunk.len()].copy_from_slice(chunk);
            for i in 0..rounds {
                let add = u64::from(i);
                // Fixed trip count over all lanes (unused lanes mix a dummy
                // seed and are never folded in) keeps the loop unrollable.
                for acc in &mut accs {
                    *acc = acc
                        .rotate_left(13)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(add);
                }
            }
            for &acc in &accs[..chunk.len()] {
                sink ^= acc;
            }
        }
        self.work_sink ^= sink;
    }

    /// Processes one packet arriving from `from`, returning the (possibly
    /// re-labeled / re-tunneled) packet and the next-hop address.
    ///
    /// # Errors
    ///
    /// - [`Error::Forwarding`] when the packet has no labels (outside
    ///   `Bridge` mode and not attributable to a label-unaware VNF), no rule
    ///   matches, or `Bridge` mode has no next hop configured.
    /// - [`Error::ResourceExhausted`] when the flow table is full.
    pub fn process(&mut self, pkt: Packet, from: Addr) -> Result<(Packet, Addr)> {
        let ordinal = self.stats.rx;
        self.stats.rx += 1;
        let result = self.process_inner(pkt, from);
        match result {
            Ok(_) => self.stats.tx += 1,
            Err(_) => self.stats.drops += 1,
        }
        if let Some(t) = &mut self.telemetry {
            if ordinal == t.next_sample {
                let next = match &result {
                    Ok((_, addr)) => Ok(*addr),
                    Err(e) => Err(e),
                };
                t.record_hop(self.id, self.mode, ordinal, next);
            }
            t.sync(&self.stats, &self.flow_table, self.fib.sync_stats());
        }
        result
    }

    /// Processes a batch of packets that arrived together from `from`,
    /// rewriting each packet in place (decapsulation, label strip/re-affix,
    /// tunnel encapsulation) and returning one next-hop result per packet,
    /// in order.
    ///
    /// Equivalent to calling [`Self::process`] per packet — same next hops,
    /// errors, counters, flow-table state, and `work_sink` — but amortizes
    /// mode dispatch and the FIB snapshot across the batch and interleaves
    /// the per-packet header-work chains (see [`Self::io_work_batch`]). One
    /// difference: packets whose result is `Err` may still have been
    /// rewritten in place (they are drops either way).
    pub fn process_batch(&mut self, pkts: &mut [Packet], from: Addr) -> Vec<Result<Addr>> {
        let mut out = Vec::new();
        self.process_batch_into(pkts, from, &mut out);
        out
    }

    /// [`Self::process_batch`] writing results into a caller-provided buffer
    /// (cleared first), so steady-state callers reuse one allocation.
    pub fn process_batch_into(
        &mut self,
        pkts: &mut [Packet],
        from: Addr,
        out: &mut Vec<Result<Addr>>,
    ) {
        out.clear();
        out.reserve(pkts.len());
        if self.mode == ForwarderMode::Bridge {
            for chunk in pkts.chunks_mut(BATCH_CHUNK) {
                self.bridge_chunk(chunk, out);
            }
        } else {
            // One FIB snapshot per batch: nothing can publish while this
            // call holds `&mut self`, so every chunk sees one generation.
            let fib = Arc::clone(&self.fib.current);
            for chunk in pkts.chunks_mut(BATCH_CHUNK) {
                self.labeled_chunk(&fib, chunk, from, out);
            }
        }
        if let Some(t) = &mut self.telemetry {
            t.sync(&self.stats, &self.flow_table, self.fib.sync_stats());
        }
    }

    /// Batch fast path for [`ForwarderMode::Bridge`]: parse + header work,
    /// one shared next hop.
    fn bridge_chunk(&mut self, chunk: &mut [Packet], out: &mut Vec<Result<Addr>>) {
        let rx_before = self.stats.rx;
        self.stats.rx += chunk.len() as u64;
        let mut seeds = [0u64; BATCH_CHUNK];
        for (seed, pkt) in seeds.iter_mut().zip(chunk.iter_mut()) {
            if pkt.tunnel.is_some() {
                *pkt = pkt.decapsulated();
            }
            *seed = pkt.key.stable_hash() ^ u64::from(pkt.size);
        }
        self.io_work_batch(&seeds[..chunk.len()], Self::BASE_WORK_ROUNDS);
        match self.bridge_next {
            Some(next) => {
                self.stats.tx += chunk.len() as u64;
                out.extend(chunk.iter().map(|_| Ok(next)));
            }
            None => {
                self.stats.drops += chunk.len() as u64;
                out.extend(
                    chunk
                        .iter()
                        .map(|_| Err(Error::forwarding("bridge has no next hop configured"))),
                );
            }
        }
        // Every packet of the chunk shares one outcome; record each sampled
        // ordinal with it, matching the sequential path event-for-event.
        if let Some(mut t) = self.telemetry.take() {
            while t.next_sample < self.stats.rx {
                let ordinal = t.next_sample;
                let idx = out.len() - chunk.len() + (ordinal - rx_before) as usize;
                let next = match &out[idx] {
                    Ok(addr) => Ok(*addr),
                    Err(e) => Err(e),
                };
                t.record_hop(self.id, self.mode, ordinal, next);
            }
            self.telemetry = Some(t);
        }
    }

    /// Batch path for the label-switched modes, packet-for-packet equivalent
    /// to [`Self::process`]: a two-stage software pipeline over `fib`, the
    /// compiled-FIB snapshot the whole batch runs on.
    ///
    /// - **Stage 1** decapsulates, re-affixes labels and computes every
    ///   packet's flow hash. In Affinity mode it also locates the packet's
    ///   flow-table record once and prefetches its line; a hit never
    ///   touches the FIB. The batched header work runs between the stages,
    ///   giving the prefetches time to land.
    /// - **Stage 2** probes and forwards in arrival order (order matters:
    ///   the first packet of a connection pins the hops later packets of
    ///   the same batch hit — a stage-1 prefetch of a pre-pin or pre-growth
    ///   line is merely a stale hint). Overlay resolves every packet's row
    ///   here; Affinity resolves it only on a flow-table miss, as `process`
    ///   does: the first packet of a connection pays for rule resolution,
    ///   its record serves every later one (Section 5.3, Figure 6).
    fn labeled_chunk(
        &mut self,
        fib: &CompiledFib,
        chunk: &mut [Packet],
        from: Addr,
        out: &mut Vec<Result<Addr>>,
    ) {
        let rx_before = self.stats.rx;
        self.stats.rx += chunk.len() as u64;
        let context = match from {
            Addr::Vnf(_) => FlowContext::FromVnf,
            Addr::Forwarder(_) | Addr::Edge(_) => FlowContext::FromWire,
        };
        let affinity = self.mode == ForwarderMode::Affinity;

        // Stage 1.
        let mut hashes = [0u64; BATCH_CHUNK];
        let mut seeds = [0u64; BATCH_CHUNK];
        // Each labeled packet's located flow-table record (Affinity),
        // carried to stage 2.
        let mut probes = [None::<FlowProbe>; BATCH_CHUNK];
        let mut n_seeds = 0usize;
        for (i, pkt) in chunk.iter_mut().enumerate() {
            if pkt.tunnel.is_some() {
                *pkt = pkt.decapsulated();
            }
            if pkt.labels.is_none() {
                if let Addr::Vnf(inst) = from {
                    if let Some(&l) = self.label_unaware.get(&inst) {
                        *pkt = pkt.with_labels(l);
                    }
                }
            }
            let h = pkt.key.stable_hash();
            hashes[i] = h;
            // Label-less packets are dropped before header work (matching
            // `process`), so they contribute no seed.
            if let Some(labels) = pkt.labels {
                seeds[n_seeds] = h ^ u64::from(pkt.size);
                n_seeds += 1;
                if affinity {
                    let at = FlowTable::locate(&FlowTableKey {
                        chain: labels.chain(),
                        key: pkt.key,
                        context,
                    });
                    self.flow_table.prefetch(&at);
                    probes[i] = Some(at);
                }
            }
        }
        self.io_work_batch(&seeds[..n_seeds], Self::work_rounds(self.mode));

        // Stage 2.
        let id = self.id;
        let mode = self.mode;
        let Self {
            ref mut flow_table,
            ref mut stats,
            ref label_unaware,
            ref mut telemetry,
            site,
            ..
        } = *self;
        for (i, pkt) in chunk.iter_mut().enumerate() {
            let res: Result<Addr> = match pkt.labels {
                None => {
                    stats.drops += 1;
                    Err(Error::forwarding("packet has no labels"))
                }
                Some(labels) => {
                    let hash = hashes[i];
                    let res = match &probes[i] {
                        None => {
                            stats.flow_misses += 1;
                            overlay_next(fib, labels, context, hash)
                        }
                        Some(at) => {
                            affinity_next(flow_table, stats, fib, at, hash, labels, context, from)
                        }
                    };
                    match res {
                        Ok(next) => {
                            finish_output(label_unaware, site, pkt, labels, next);
                            stats.tx += 1;
                            Ok(next)
                        }
                        Err(e) => {
                            stats.drops += 1;
                            Err(e)
                        }
                    }
                }
            };
            if let Some(t) = telemetry.as_mut() {
                let ordinal = rx_before + i as u64;
                if ordinal == t.next_sample {
                    let next = match &res {
                        Ok(addr) => Ok(*addr),
                        Err(e) => Err(e),
                    };
                    t.record_hop(id, mode, ordinal, next);
                }
            }
            out.push(res);
        }
    }

    fn process_inner(&mut self, mut pkt: Packet, from: Addr) -> Result<(Packet, Addr)> {
        // Decapsulate wide-area tunnel, if any (all modes parse headers).
        if pkt.tunnel.is_some() {
            pkt = pkt.decapsulated();
        }

        if self.mode == ForwarderMode::Bridge {
            let hash = pkt.key.stable_hash();
            self.io_work(hash ^ u64::from(pkt.size), Self::BASE_WORK_ROUNDS);
            let next = self
                .bridge_next
                .ok_or_else(|| Error::forwarding("bridge has no next hop configured"))?;
            return Ok((pkt, next));
        }

        // Re-affix labels for packets returning from label-unaware VNFs.
        if pkt.labels.is_none() {
            if let Addr::Vnf(inst) = from {
                if let Some(&labels) = self.label_unaware.get(&inst) {
                    pkt = pkt.with_labels(labels);
                }
            }
        }
        let labels = pkt
            .labels
            .ok_or_else(|| Error::forwarding("packet has no labels"))?;

        // The flow hash is computed exactly once per packet and threaded
        // through header work, flow-table lookup, and weighted selection.
        let hash = pkt.key.stable_hash();

        // Base forwarding plus label + tunnel processing cost; the
        // affinity pipeline adds its learn/resubmit stage on top.
        self.io_work(hash ^ u64::from(pkt.size), Self::work_rounds(self.mode));

        let context = match from {
            Addr::Vnf(_) => FlowContext::FromVnf,
            Addr::Forwarder(_) | Addr::Edge(_) => FlowContext::FromWire,
        };

        let next = match self.mode {
            ForwarderMode::Bridge => unreachable!("handled above"),
            ForwarderMode::Overlay => {
                self.stats.flow_misses += 1;
                overlay_next(&self.fib.current, labels, context, hash)?
            }
            ForwarderMode::Affinity => {
                let at = FlowTable::locate(&FlowTableKey {
                    chain: labels.chain(),
                    key: pkt.key,
                    context,
                });
                affinity_next(
                    &mut self.flow_table,
                    &mut self.stats,
                    &self.fib.current,
                    &at,
                    hash,
                    labels,
                    context,
                    from,
                )?
            }
        };

        finish_output(&self.label_unaware, self.site, &mut pkt, labels, next);
        Ok((pkt, next))
    }
}

/// The drop-site error for an unmatched label pair. One constructor shared
/// by [`Forwarder::process`] and the batch path so the strings cannot
/// drift; the hot side passes `Option`s around and only formats here, on
/// the miss.
#[cold]
fn no_rule_error(labels: LabelPair) -> Error {
    Error::forwarding(format!("no rule for labels {labels}"))
}

/// The Overlay next hop, shared by [`Forwarder::process`] and the batch
/// path: stateless weighted selection over the rules
/// [`CompiledFib::lookup_index`] resolves for `labels`.
fn overlay_next(
    fib: &CompiledFib,
    labels: LabelPair,
    context: FlowContext,
    hash: u64,
) -> Result<Addr> {
    let idx = fib
        .lookup_index(labels)
        .ok_or_else(|| no_rule_error(labels))?;
    let rules = &fib.row(idx).rules;
    Ok(match context {
        FlowContext::FromWire => rules.to_vnf.select(hash),
        FlowContext::FromVnf => rules.to_next.select(hash),
    })
}

/// Output rewrite shared by the single-packet and batch paths: strip labels
/// when handing to a label-unaware VNF; encapsulate when crossing to another
/// forwarder.
#[inline]
fn finish_output(
    label_unaware: &HashMap<InstanceId, LabelPair>,
    site: SiteId,
    pkt: &mut Packet,
    labels: LabelPair,
    next: Addr,
) {
    match next {
        Addr::Vnf(inst) if label_unaware.contains_key(&inst) => {
            *pkt = pkt.without_labels();
        }
        Addr::Forwarder(_) => {
            *pkt = pkt.encapsulated(TunnelHeader {
                vni: labels.chain().value(),
                src_site: site,
                dst_site: site, // caller rewrites for remote peers
            });
        }
        _ => {}
    }
}

/// The affinity-mode next hop: flow-table hit, or weighted selection plus
/// pinning on the first packet (Figure 6). Takes the forwarder's fields
/// split apart so batch loops can keep disjoint borrows. `at` is the
/// packet's located flow-table record, `hash` its precomputed
/// [`FlowKey::stable_hash`]; only a miss resolves the label pair in `fib`.
/// Always inlined: out of line, a call per packet on the flow-table hit
/// path cost `fwd_hot` ~4 % of its packet rate (2-core x86-64, 15 s).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn affinity_next(
    flow_table: &mut FlowTable,
    stats: &mut ForwarderStats,
    fib: &CompiledFib,
    at: &FlowProbe,
    hash: u64,
    labels: LabelPair,
    context: FlowContext,
    from: Addr,
) -> Result<Addr> {
    if let Some(next) = flow_table.get_at(at) {
        stats.flow_hits += 1;
        return Ok(next);
    }
    stats.flow_misses += 1;
    let idx = fib
        .lookup_index(labels)
        .ok_or_else(|| no_rule_error(labels))?;
    affinity_pin(flow_table, &fib.row(idx).rules, at, hash, context, from)
}

/// The affinity miss path's selection + pinning: weighted selection on
/// the flow hash, then one pin of the connection's forward and reverse
/// hops — all of them or, when the table is full, none (the packet drops
/// and the next one retries).
fn affinity_pin(
    flow_table: &mut FlowTable,
    rules: &RuleSet,
    at: &FlowProbe,
    hash: u64,
    context: FlowContext,
    from: Addr,
) -> Result<Addr> {
    let (next, same, reversed) = match context {
        FlowContext::FromWire => {
            let next = rules.to_vnf.select(hash);
            // Reverse-direction packets must hit the same VNF instance
            // and, after it, return to the element this packet came from
            // (symmetric return).
            (next, [Some(next), None], [Some(next), Some(from)])
        }
        FlowContext::FromVnf => {
            let next = rules.to_next.select(hash);
            // A header-modifying VNF (e.g. a NAT) may emit a tuple the
            // wire side never saw. Reverse-direction packets carrying
            // the reversed *output* tuple must return to this exact
            // instance, so pin it now (Section 5.3: affinity must hold
            // "even if that VNF modifies packet headers").
            (next, [None, Some(next)], [Some(from), None])
        }
    };
    flow_table.pin_at(at, same, reversed)?;
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_types::{ChainLabel, EdgeInstanceId, EgressLabel, FlowKey};

    fn labels() -> LabelPair {
        LabelPair::new(ChainLabel::new(1), EgressLabel::new(2))
    }

    fn key(port: u16) -> FlowKey {
        FlowKey::tcp([10, 0, 0, 1], port, [10, 0, 0, 2], 80)
    }

    fn edge() -> Addr {
        Addr::Edge(EdgeInstanceId::new(0))
    }

    fn vnf(i: u64) -> Addr {
        Addr::Vnf(InstanceId::new(i))
    }

    fn fwd_addr(i: u64) -> Addr {
        Addr::Forwarder(ForwarderId::new(i))
    }

    fn affinity_forwarder() -> Forwarder {
        let mut f = Forwarder::new(ForwarderId::new(1), SiteId::new(0), ForwarderMode::Affinity);
        f.install_rules(
            labels(),
            RuleSet {
                to_vnf: WeightedChoice::new(vec![(vnf(1), 1.0), (vnf(2), 1.0)]).unwrap(),
                to_next: WeightedChoice::new(vec![(fwd_addr(8), 1.0), (fwd_addr(9), 1.0)])
                    .unwrap(),
                to_prev: WeightedChoice::single(edge()),
            },
        );
        f
    }

    #[test]
    fn fail_vnf_instance_fails_over_without_moving_survivors() {
        let mut f = affinity_forwarder();
        // Pin enough flows that both instances get some.
        let mut pinned: Vec<(u16, Addr)> = Vec::new();
        for port in 0..200u16 {
            let pkt = Packet::labeled(labels(), key(port), 64);
            let (_, inst) = f.process(pkt, edge()).unwrap();
            pinned.push((port, inst));
        }
        assert!(
            pinned.iter().any(|&(_, a)| a == vnf(1))
                && pinned.iter().any(|&(_, a)| a == vnf(2)),
            "test needs flows on both instances"
        );

        let evicted = f.fail_vnf_instance(InstanceId::new(1));
        let dead_flows = pinned.iter().filter(|&&(_, a)| a == vnf(1)).count();
        assert!(evicted >= dead_flows, "{evicted} < {dead_flows}");

        for &(port, before) in &pinned {
            let pkt = Packet::labeled(labels(), key(port), 64);
            let (_, now) = f.process(pkt, edge()).unwrap();
            if before == vnf(2) {
                // Surviving flows keep their pins: affinity honored.
                assert_eq!(now, vnf(2), "survivor flow {port} moved");
            } else {
                // Failed-over flows land on the survivor and stay there.
                assert_eq!(now, vnf(2), "flow {port} still on dead instance");
            }
            let (_, again) = f.process(pkt, edge()).unwrap();
            assert_eq!(again, now, "post-failover affinity broken for {port}");
        }

        // Failing the only remaining instance keeps the rule set (flows
        // blackhole rather than reroute off-chain), and evicts the pins.
        let evicted = f.fail_vnf_instance(InstanceId::new(2));
        assert!(evicted > 0);
        let pkt = Packet::labeled(labels(), key(0), 64);
        let (_, still) = f.process(pkt, edge()).unwrap();
        assert_eq!(still, vnf(2), "sole-target rule set must be kept");
    }

    #[test]
    fn fail_vnf_instance_prunes_the_row_and_keeps_its_epoch() {
        let mut f = affinity_forwarder();
        f.install_rules_epoch(
            labels(),
            RuleSet {
                to_vnf: WeightedChoice::new(vec![(vnf(1), 1.0), (vnf(3), 1.0)]).unwrap(),
                to_next: WeightedChoice::single(fwd_addr(8)),
                to_prev: WeightedChoice::single(edge()),
            },
            7,
        );
        f.fail_vnf_instance(InstanceId::new(1));
        assert_eq!(f.active_epoch(labels()), Some(7));
        for port in 0..50u16 {
            let pkt = Packet::labeled(labels(), key(port), 64);
            let (_, inst) = f.process(pkt, edge()).unwrap();
            assert_ne!(inst, vnf(1), "dead instance selected after failover");
        }
    }

    #[test]
    fn forward_direction_pins_instance_and_next_hop() {
        let mut f = affinity_forwarder();
        let pkt = Packet::labeled(labels(), key(1000), 500);

        let (_, first) = f.process(pkt, edge()).unwrap();
        // Repeated packets of the same flow always pick the same instance.
        for _ in 0..10 {
            let (_, again) = f.process(pkt, edge()).unwrap();
            assert_eq!(again, first);
        }
        let (_, next1) = f.process(pkt, first).unwrap();
        for _ in 0..10 {
            let (_, again) = f.process(pkt, first).unwrap();
            assert_eq!(again, next1);
        }
        let s = f.stats();
        assert_eq!(s.drops, 0);
        assert_eq!(s.flow_misses, 2); // one per context
        assert_eq!(s.flow_hits, 20);
    }

    #[test]
    fn symmetric_return_goes_back_through_same_instance() {
        let mut f = affinity_forwarder();
        let fwd_pkt = Packet::labeled(labels(), key(1000), 500);
        let (_, inst) = f.process(fwd_pkt, edge()).unwrap();

        // Reverse-direction packet (swapped 5-tuple, possibly different
        // egress label) arrives from the wire: must go to the same instance.
        let rev_labels = LabelPair::new(ChainLabel::new(1), EgressLabel::new(7));
        let rev_pkt = Packet::labeled(rev_labels, key(1000).reversed(), 500);
        let (_, rev_inst) = f.process(rev_pkt, fwd_addr(8)).unwrap();
        assert_eq!(rev_inst, inst);

        // After the VNF, the reverse packet returns to the forward packet's
        // origin (the edge), not to a load-balanced next hop.
        let (_, back) = f.process(rev_pkt, inst).unwrap();
        assert_eq!(back, edge());
    }

    #[test]
    fn rule_updates_do_not_move_established_flows() {
        let mut f = affinity_forwarder();
        let pkt = Packet::labeled(labels(), key(1000), 500);
        let (_, inst) = f.process(pkt, edge()).unwrap();

        // Shift all weight to a new instance; the pinned flow stays put.
        f.install_rules(
            labels(),
            RuleSet {
                to_vnf: WeightedChoice::single(vnf(99)),
                to_next: WeightedChoice::single(fwd_addr(9)),
                to_prev: WeightedChoice::single(edge()),
            },
        );
        let (_, still) = f.process(pkt, edge()).unwrap();
        assert_eq!(still, inst);

        // A brand-new flow follows the new rules.
        let pkt2 = Packet::labeled(labels(), key(2000), 500);
        let (_, fresh) = f.process(pkt2, edge()).unwrap();
        assert_eq!(fresh, vnf(99));
    }

    #[test]
    fn new_epoch_takes_over_new_flows_while_pins_drain() {
        let mut f = affinity_forwarder();
        assert_eq!(f.active_epoch(labels()), Some(0));
        let pkt = Packet::labeled(labels(), key(1000), 500);
        let (_, inst) = f.process(pkt, edge()).unwrap();

        // Install epoch 1 pointing everything at a new instance: the row
        // now carries epoch 1 and only its rules.
        f.install_rules_epoch(
            labels(),
            RuleSet {
                to_vnf: WeightedChoice::single(vnf(99)),
                to_next: WeightedChoice::single(fwd_addr(9)),
                to_prev: WeightedChoice::single(edge()),
            },
            1,
        );
        assert_eq!(f.active_epoch(labels()), Some(1));

        // Pinned flow keeps draining on its flow-table entry; a fresh flow
        // hashes onto the new epoch.
        let (_, still) = f.process(pkt, edge()).unwrap();
        assert_eq!(still, inst);
        let pkt2 = Packet::labeled(labels(), key(2000), 500);
        let (_, fresh) = f.process(pkt2, edge()).unwrap();
        assert_eq!(fresh, vnf(99));
    }

    #[test]
    fn expired_connection_is_rebalanced() {
        let mut f = affinity_forwarder();
        let pkt = Packet::labeled(labels(), key(1000), 500);
        let _ = f.process(pkt, edge()).unwrap();
        assert!(f.flow_entries() >= 2);
        let removed = f.expire_connection(labels(), key(1000));
        assert!(removed >= 2);
        assert_eq!(f.flow_entries(), 0);
    }

    #[test]
    fn unlabeled_packet_is_dropped_outside_bridge_mode() {
        let mut f = affinity_forwarder();
        let pkt = Packet::unlabeled(key(1), 64);
        assert!(f.process(pkt, edge()).is_err());
        assert_eq!(f.stats().drops, 1);
    }

    #[test]
    fn unknown_labels_are_dropped() {
        let mut f = affinity_forwarder();
        let other = LabelPair::new(ChainLabel::new(42), EgressLabel::new(2));
        let pkt = Packet::labeled(other, key(1), 64);
        let err = f.process(pkt, edge()).unwrap_err();
        assert!(matches!(err, Error::Forwarding { .. }));
    }

    #[test]
    fn bridge_mode_uses_static_next_hop() {
        let mut f = Forwarder::new(ForwarderId::new(1), SiteId::new(0), ForwarderMode::Bridge);
        assert!(f.process(Packet::unlabeled(key(1), 64), edge()).is_err());
        f.set_bridge_next(vnf(5));
        let (out, next) = f.process(Packet::unlabeled(key(1), 64), edge()).unwrap();
        assert_eq!(next, vnf(5));
        assert!(out.labels.is_none());
        assert_eq!(f.flow_entries(), 0);
    }

    #[test]
    fn overlay_mode_is_stateless_but_deterministic() {
        let mut f = Forwarder::new(ForwarderId::new(1), SiteId::new(0), ForwarderMode::Overlay);
        f.install_rules(
            labels(),
            RuleSet {
                to_vnf: WeightedChoice::new(vec![(vnf(1), 1.0), (vnf(2), 1.0)]).unwrap(),
                to_next: WeightedChoice::single(fwd_addr(9)),
                to_prev: WeightedChoice::single(edge()),
            },
        );
        let pkt = Packet::labeled(labels(), key(1000), 500);
        let (_, a) = f.process(pkt, edge()).unwrap();
        let (_, b) = f.process(pkt, edge()).unwrap();
        assert_eq!(a, b); // deterministic in the flow hash
        assert_eq!(f.flow_entries(), 0); // but no state
        assert_eq!(f.stats().flow_misses, 2);
    }

    #[test]
    fn label_unaware_vnf_gets_stripped_and_reaffixed() {
        let mut f = affinity_forwarder();
        f.register_label_unaware_vnf(InstanceId::new(1), labels());
        f.install_rules(
            labels(),
            RuleSet {
                to_vnf: WeightedChoice::single(vnf(1)),
                to_next: WeightedChoice::single(fwd_addr(9)),
                to_prev: WeightedChoice::single(edge()),
            },
        );
        let pkt = Packet::labeled(labels(), key(1000), 500);
        let (to_vnf_pkt, next) = f.process(pkt, edge()).unwrap();
        assert_eq!(next, vnf(1));
        assert!(to_vnf_pkt.labels.is_none(), "labels must be stripped");

        // The VNF returns the packet unlabeled; the forwarder re-affixes.
        let (from_vnf_pkt, next) = f.process(to_vnf_pkt, vnf(1)).unwrap();
        assert_eq!(next, fwd_addr(9));
        assert_eq!(from_vnf_pkt.labels, Some(labels()));
    }

    #[test]
    fn forwarder_hop_encapsulates_tunnel() {
        let mut f = affinity_forwarder();
        let pkt = Packet::labeled(labels(), key(1000), 500);
        let (_, inst) = f.process(pkt, edge()).unwrap();
        let (out, next) = f.process(pkt, inst).unwrap();
        assert!(matches!(next, Addr::Forwarder(_)));
        assert!(out.tunnel.is_some(), "inter-forwarder hop must be tunneled");

        // The receiving forwarder decapsulates.
        let mut f2 = affinity_forwarder();
        let (decapped, _) = f2.process(out, fwd_addr(1)).unwrap();
        assert!(decapped.tunnel.is_none());
    }

    #[test]
    fn flow_table_full_drops_new_flows_but_keeps_old() {
        let mut f = Forwarder::with_flow_capacity(
            ForwarderId::new(1),
            SiteId::new(0),
            ForwarderMode::Affinity,
            3, // room for one connection's wire-context entries
        );
        f.install_rules(
            labels(),
            RuleSet {
                to_vnf: WeightedChoice::single(vnf(1)),
                to_next: WeightedChoice::single(fwd_addr(9)),
                to_prev: WeightedChoice::single(edge()),
            },
        );
        let pkt1 = Packet::labeled(labels(), key(1), 64);
        let (_, first) = f.process(pkt1, edge()).unwrap();
        assert_eq!(first, vnf(1));
        // Second connection cannot install entries: dropped.
        let pkt2 = Packet::labeled(labels(), key(2), 64);
        assert!(f.process(pkt2, edge()).is_err());
        // Established flow still forwards.
        assert!(f.process(pkt1, edge()).is_ok());
    }

    #[test]
    fn dropped_first_packet_leaves_no_half_pinned_connection() {
        let make = || {
            let mut f = Forwarder::with_flow_capacity(
                ForwarderId::new(1),
                SiteId::new(0),
                ForwarderMode::Affinity,
                4, // one connection's three hops, and one hop to spare
            );
            f.install_rules(
                labels(),
                RuleSet {
                    to_vnf: WeightedChoice::single(vnf(1)),
                    to_next: WeightedChoice::single(fwd_addr(9)),
                    to_prev: WeightedChoice::single(edge()),
                },
            );
            f
        };
        let mut f = make();
        let pkt1 = Packet::labeled(labels(), key(1), 64);
        let pkt2 = Packet::labeled(labels(), key(2), 64);
        f.process(pkt1, edge()).unwrap();
        assert_eq!(f.flow_entries(), 3);
        // The second connection's forward hop would fit, its reverse hops
        // would not: none is pinned, so its next packet is dropped again
        // rather than forwarded with no symmetric return.
        assert!(f.process(pkt2, edge()).is_err());
        assert_eq!(f.flow_entries(), 3);
        assert!(f.process(pkt2, edge()).is_err());
        assert_eq!(f.stats().drops, 2);
        // It gets in, whole, once the first connection completes.
        assert_eq!(f.expire_connection(labels(), key(1)), 3);
        f.process(pkt2, edge()).unwrap();
        assert_eq!(f.flow_entries(), 3);
        // And the batch path drops and admits the same packets.
        assert_batch_equivalent(make, &[pkt1, pkt2, pkt2, pkt1], edge());
    }

    #[test]
    fn restarted_forwarder_repins_flows_deterministically() {
        let mut f = affinity_forwarder();
        let pkt = Packet::labeled(labels(), key(1000), 500);
        let (_, first) = f.process(pkt, edge()).unwrap();
        assert!(f.flow_entries() > 0);

        // The forwarder process restarts: flow-table state is gone
        // (DESIGN.md §8), rules survive via the control-plane re-push.
        f.clear_flow_state();
        assert_eq!(f.flow_entries(), 0);

        // The next packet re-runs selection; under unchanged rules it
        // re-pins to the same instance as before the restart...
        let (_, repinned) = f.process(pkt, edge()).unwrap();
        assert_eq!(repinned, first);
        // ...and the miss counter shows state really was lost.
        assert_eq!(f.stats().flow_misses, 2);

        // A brand-new forwarder with the same rules pins identically, so
        // the re-pin is deterministic, not a lucky cache leftover.
        let mut fresh = affinity_forwarder();
        let (_, fresh_pin) = fresh.process(pkt, edge()).unwrap();
        assert_eq!(fresh_pin, first);
    }

    /// Drives the same packet sequence through `process` one-by-one and
    /// through `process_batch`, asserting identical next hops, errors,
    /// counters, flow-table population, `work_sink`, and output packets.
    /// Both forwarders run with telemetry attached (aggressive 1-in-3
    /// sampling): registry snapshots and recorded trace events must also
    /// be identical, so instrumentation cannot diverge the paths.
    fn assert_batch_equivalent(
        make: impl Fn() -> Forwarder,
        pkts: &[Packet],
        from: Addr,
    ) {
        let seq_hub = sb_telemetry::Telemetry::new();
        let mut seq_fwd = make();
        seq_fwd.attach_telemetry(&seq_hub, 3);
        let seq: Vec<Result<(Packet, Addr)>> =
            pkts.iter().map(|&p| seq_fwd.process(p, from)).collect();

        let batch_hub = sb_telemetry::Telemetry::new();
        let mut batch_fwd = make();
        batch_fwd.attach_telemetry(&batch_hub, 3);
        let mut batch_pkts = pkts.to_vec();
        let batch = batch_fwd.process_batch(&mut batch_pkts, from);

        assert_eq!(seq.len(), batch.len());
        for (i, (s, b)) in seq.iter().zip(&batch).enumerate() {
            match (s, b) {
                (Ok((sp, sn)), Ok(bn)) => {
                    assert_eq!(sn, bn, "packet {i}: next hop");
                    assert_eq!(*sp, batch_pkts[i], "packet {i}: rewritten packet");
                }
                (Err(se), Err(be)) => {
                    assert_eq!(se.to_string(), be.to_string(), "packet {i}: error");
                }
                _ => panic!("packet {i}: {s:?} vs {b:?}"),
            }
        }
        assert_eq!(seq_fwd.stats(), batch_fwd.stats(), "stats");
        assert_eq!(
            seq_fwd.flow_entries(),
            batch_fwd.flow_entries(),
            "flow entries"
        );
        assert_eq!(seq_fwd.work_sink, batch_fwd.work_sink, "work sink");
        // Identical registry state (counters, mode drops, occupancy
        // gauge, FIB gauges) and an identical sampled event stream.
        assert_eq!(
            seq_hub.registry.snapshot(),
            batch_hub.registry.snapshot(),
            "registry snapshots diverge between sequential and batch"
        );
        assert_eq!(
            seq_hub.tracer.snapshot(),
            batch_hub.tracer.snapshot(),
            "sampled trace events diverge between sequential and batch"
        );
    }

    #[test]
    fn stats_accessors_match_registry_snapshot() {
        let hub = sb_telemetry::Telemetry::new();
        let mut f = affinity_forwarder();
        f.attach_telemetry(&hub, 1024);
        for port in 0..20u16 {
            let pkt = Packet::labeled(labels(), key(1000 + port % 4), 500);
            let _ = f.process(pkt, edge());
        }
        let _ = f.process(Packet::unlabeled(key(9), 64), edge());
        let s = f.stats();
        let snap = hub.registry.snapshot();
        let id = f.id();
        assert_eq!(snap.counter(&format!("{id}.rx")), s.rx);
        assert_eq!(snap.counter(&format!("{id}.tx")), s.tx);
        assert_eq!(snap.counter(&format!("{id}.drops")), s.drops);
        assert_eq!(snap.counter(&format!("{id}.flow_hits")), s.flow_hits);
        assert_eq!(snap.counter(&format!("{id}.flow_misses")), s.flow_misses);
        assert_eq!(
            snap.gauge(&format!("{id}.flow_entries")),
            f.flow_entries() as i64
        );
        assert_eq!(snap.gauge(&format!("{id}.flow_buckets")), 64);
        assert_eq!(snap.counter("dataplane.drops.affinity"), s.drops);
        // The 49th connection doubles the record array; the gauge follows.
        for port in 0..45u16 {
            let pkt = Packet::labeled(labels(), key(2000 + port), 500);
            let _ = f.process(pkt, edge());
        }
        let snap = hub.registry.snapshot();
        assert_eq!(
            snap.gauge(&format!("{id}.flow_entries")),
            f.flow_entries() as i64
        );
        assert_eq!(snap.gauge(&format!("{id}.flow_buckets")), 128);
    }

    #[test]
    fn sampled_packets_record_hop_events() {
        let hub = sb_telemetry::Telemetry::new();
        let mut f = affinity_forwarder();
        f.attach_telemetry(&hub, 4); // ordinals 0, 4, 8, ...
        for port in 0..10u16 {
            let pkt = Packet::labeled(labels(), key(1000 + port), 500);
            let _ = f.process(pkt, edge());
        }
        let recs = hub.tracer.snapshot();
        let hops: Vec<_> = recs.iter().filter(|r| r.name == "pkt.hop").collect();
        assert_eq!(hops.len(), 3);
        assert_eq!(
            hops.iter().map(|r| r.start_ns).collect::<Vec<_>>(),
            [0, 4, 8]
        );
        assert!(hops.iter().all(|r| r.attr("mode") == Some("affinity")));
        assert!(hops.iter().all(|r| r.attr("next").is_some()));
    }

    #[test]
    fn batch_matches_sequential_affinity() {
        // Mixed traffic: new flows, repeats (hits within the same batch),
        // an unlabeled drop, an unknown-label drop, and a tunneled packet;
        // sized to span multiple internal chunks.
        let mut pkts = Vec::new();
        for port in 0..40u16 {
            pkts.push(Packet::labeled(labels(), key(1000 + port % 7), 500));
        }
        pkts.push(Packet::unlabeled(key(9), 64));
        pkts.push(Packet::labeled(
            LabelPair::new(ChainLabel::new(42), EgressLabel::new(2)),
            key(1),
            64,
        ));
        pkts.push(
            Packet::labeled(labels(), key(77), 200).encapsulated(TunnelHeader {
                vni: 1,
                src_site: SiteId::new(5),
                dst_site: SiteId::new(0),
            }),
        );
        assert_batch_equivalent(affinity_forwarder, &pkts, edge());

        // From-VNF direction too (FromVnf context, label re-affix path).
        let from_vnf: Vec<Packet> = (0..10u16)
            .map(|p| Packet::unlabeled(key(2000 + p % 3), 300))
            .collect();
        let make = || {
            let mut f = affinity_forwarder();
            f.register_label_unaware_vnf(InstanceId::new(1), labels());
            f
        };
        assert_batch_equivalent(make, &from_vnf, vnf(1));
    }

    #[test]
    fn batch_matches_sequential_overlay_and_bridge() {
        let overlay = || {
            let mut f =
                Forwarder::new(ForwarderId::new(1), SiteId::new(0), ForwarderMode::Overlay);
            f.install_rules(
                labels(),
                RuleSet {
                    to_vnf: WeightedChoice::new(vec![(vnf(1), 1.0), (vnf(2), 3.0)]).unwrap(),
                    to_next: WeightedChoice::single(fwd_addr(9)),
                    to_prev: WeightedChoice::single(edge()),
                },
            );
            f
        };
        let pkts: Vec<Packet> = (0..50u16)
            .map(|p| Packet::labeled(labels(), key(3000 + p), 100))
            .collect();
        assert_batch_equivalent(overlay, &pkts, edge());

        let bridge = || {
            let mut f =
                Forwarder::new(ForwarderId::new(1), SiteId::new(0), ForwarderMode::Bridge);
            f.set_bridge_next(vnf(5));
            f
        };
        let unlabeled: Vec<Packet> = (0..33u16)
            .map(|p| Packet::unlabeled(key(p), 64))
            .collect();
        assert_batch_equivalent(bridge, &unlabeled, edge());

        // Bridge without a next hop drops whole batches.
        let dead_bridge =
            || Forwarder::new(ForwarderId::new(1), SiteId::new(0), ForwarderMode::Bridge);
        assert_batch_equivalent(dead_bridge, &unlabeled, edge());
    }

    #[test]
    fn batch_matches_sequential_when_flow_table_fills() {
        let make = || {
            let mut f = Forwarder::with_flow_capacity(
                ForwarderId::new(1),
                SiteId::new(0),
                ForwarderMode::Affinity,
                3,
            );
            f.install_rules(
                labels(),
                RuleSet {
                    to_vnf: WeightedChoice::single(vnf(1)),
                    to_next: WeightedChoice::single(fwd_addr(9)),
                    to_prev: WeightedChoice::single(edge()),
                },
            );
            f
        };
        // First connection installs entries; the rest exhaust the table and
        // must drop identically in both paths.
        let pkts: Vec<Packet> = (1..=6u16)
            .map(|p| Packet::labeled(labels(), key(p), 64))
            .collect();
        assert_batch_equivalent(make, &pkts, edge());
    }

    #[test]
    fn pinned_flow_outlives_its_rule_on_both_paths() {
        // A hit is served by the connection record alone, so a flow pinned
        // before its rule went away keeps forwarding; only a first packet
        // resolves rules, and finds none.
        let pinned = Packet::labeled(labels(), key(1000), 500);
        let fresh = Packet::labeled(labels(), key(2000), 500);
        let make = || {
            let mut f = affinity_forwarder();
            f.process(pinned, edge()).unwrap();
            assert!(f.remove_rules(labels()));
            f
        };
        let mut f = make();
        let (_, pin) = f.process(pinned, edge()).unwrap();
        assert!(pin == vnf(1) || pin == vnf(2), "{pin:?}");
        let err = f.process(fresh, edge()).unwrap_err();
        assert_eq!(err.to_string(), no_rule_error(labels()).to_string());

        let mut b = make();
        let out = b.process_batch(&mut [pinned, fresh], edge());
        assert_eq!(out[0].as_ref().unwrap(), &pin);
        assert_eq!(out[1].as_ref().unwrap_err().to_string(), err.to_string());
        assert_eq!(f.stats(), b.stats());
        assert_eq!(f.stats().flow_hits, 1);
        assert_eq!(f.stats().drops, 1);
        assert_batch_equivalent(make, &[pinned, fresh, pinned, fresh], edge());
    }

    #[test]
    fn a_full_export_shares_its_snapshot_and_keeps_it() {
        use crate::artifact::{decode, encode, SiteArtifact};
        let mut f = affinity_forwarder();
        let before = f.export_artifact();
        let published = f.fib_reader().snapshot().clone();
        assert!(Arc::ptr_eq(&before.rows, published.shared_rows()));
        let kept = before.rows.to_vec();

        let other = LabelPair::new(ChainLabel::new(1), EgressLabel::new(1));
        let rules = RuleSet {
            to_vnf: WeightedChoice::single(vnf(3)),
            to_next: WeightedChoice::single(fwd_addr(9)),
            to_prev: WeightedChoice::single(edge()),
        };
        f.install_rules_epoch(other, rules, 4);
        let after = f.export_artifact();
        assert_eq!(before.rows[..], kept[..], "a publish changed an export");
        assert_ne!(after.rows, before.rows);
        let republished = f.fib_reader().snapshot().clone();
        assert!(Arc::ptr_eq(&after.rows, republished.shared_rows()));

        for export in [before, after] {
            let art = SiteArtifact {
                site: SiteId::new(0),
                epoch: 4,
                kind: ArtifactKind::Full,
                forwarders: vec![export],
            };
            assert_eq!(decode(&encode(&art)).unwrap(), art);
        }
    }

    #[test]
    fn snapshots_and_clones_keep_their_generation_across_mutations() {
        let other = LabelPair::new(ChainLabel::new(1), EgressLabel::new(1));
        let rules = RuleSet {
            to_vnf: WeightedChoice::single(vnf(3)),
            to_next: WeightedChoice::single(fwd_addr(9)),
            to_prev: WeightedChoice::single(edge()),
        };

        // A snapshot taken before a mutation keeps its generation and rows.
        let mut f = affinity_forwarder();
        let mut reader = f.fib_reader();
        let generation = reader.snapshot().generation();
        let rows = reader.snapshot().rows().to_vec();
        f.install_rules_epoch(other, rules.clone(), 4);
        assert!(f.remove_rules(labels()));
        assert_eq!(f.fib_generation(), generation + 2);
        assert_eq!(reader.snapshot().generation(), generation);
        assert_eq!(reader.snapshot().rows(), &rows[..]);

        // Mutations on a clone leave the original as it was.
        let original = f.export_artifact();
        let mut clone = f.clone();
        clone.install_rules_epoch(labels(), rules, 5);
        assert!(clone.remove_rules(other));
        assert_eq!(clone.fib_generation(), generation + 4);
        assert_eq!(f.fib_generation(), generation + 2);
        assert_eq!(f.fib_reader().snapshot().rows(), &original.rows[..]);
        assert_eq!(f.export_artifact(), original);
        assert_ne!(clone.export_artifact().rows, original.rows);
    }

    #[test]
    fn process_batch_into_reuses_buffer() {
        let mut f = affinity_forwarder();
        let mut out = Vec::new();
        let mut pkts: Vec<Packet> = (0..4u16)
            .map(|p| Packet::labeled(labels(), key(100 + p), 64))
            .collect();
        f.process_batch_into(&mut pkts, edge(), &mut out);
        assert_eq!(out.len(), 4);
        // A second call clears previous results.
        let mut pkts2: Vec<Packet> = vec![Packet::labeled(labels(), key(500), 64)];
        f.process_batch_into(&mut pkts2, edge(), &mut out);
        assert_eq!(out.len(), 1);
    }
}
