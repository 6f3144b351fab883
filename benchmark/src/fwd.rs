//! The packet path: one `Affinity` forwarder driven from one thread through
//! `Forwarder::process_batch_into`, in-process memory only (no NIC, no
//! loopback). Three workloads share this code and differ in the property
//! the forwarder's cost depends on — flow-table working set and write
//! share:
//!
//! - `fwd_hot`   — 4 096 flows, all cache-resident: fixed per-packet work;
//! - `fwd_cold`  — 524 288 flows (1.57 M entries): flow-table cache misses;
//! - `fwd_churn` — 65 536 live flows, 32 of every 256 packets open a new
//!   flow and the 32 oldest are expired inside the timed call.

use crate::metrics::Outcome;
use crate::spans::{Tracer, ROOT};
use crate::{repeat_setup, stats, sys, Args};
use sb_dataplane::pktgen::PacketGenerator;
use sb_dataplane::{
    Addr, FlowContext, FlowTable, FlowTableKey, Forwarder, ForwarderMode, Packet, RuleSet,
    WeightedChoice,
};
use sb_types::{
    ChainLabel, EdgeInstanceId, EgressLabel, FlowKey, ForwarderId, InstanceId, LabelPair, Result,
    SiteId,
};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

pub struct FwdWorkload {
    /// Live flows.
    pub flows: usize,
    /// Brand-new flows per batch (and as many of the oldest expired).
    pub churn: usize,
}

const CHAINS: usize = 64;
const BATCH: usize = 256;
const PACKET_SIZE: u16 = 64;
/// Instance weights of every chain's `to_vnf` choice.
const VNF_WEIGHTS: [f64; 4] = [4.0, 3.0, 2.0, 1.0];
/// Flow-table entries one connection pins (forward, reverse, return).
const ENTRIES_PER_FLOW: usize = 3;
/// Batches per slice of the quiet-host estimate (15 to 40 ms).
const SLICE: usize = 512;
/// Probe-loop length of the traced run's sub-layer timings.
const PROBES: usize = 1 << 20;

fn edge() -> Addr {
    Addr::Edge(EdgeInstanceId::new(0))
}

fn chain_labels() -> Vec<LabelPair> {
    (0..CHAINS)
        .map(|c| LabelPair::new(ChainLabel::new(c as u32 + 1), EgressLabel::new(1)))
        .collect()
}

fn to_vnf() -> WeightedChoice {
    WeightedChoice::new(
        VNF_WEIGHTS
            .iter()
            .enumerate()
            .map(|(i, &w)| (Addr::Vnf(InstanceId::new(i as u64)), w))
            .collect(),
    )
    .expect("fixed positive weights")
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Uniform index below `n` (multiply-shift, as the repo's generator does).
fn pick(state: &mut u64, n: usize) -> usize {
    ((u128::from(xorshift(state)) * n as u128) >> 64) as usize
}

/// The forwarder under test plus the flow population driving it. Slots are
/// stable: under churn a new flow overwrites the oldest slot, whose old
/// occupant is then expired.
struct Bed {
    fwd: Forwarder,
    keys: Vec<FlowKey>,
    labels: Vec<LabelPair>,
    /// Next hop first seen per slot (`1 + instance`, 0 = not seen yet), to
    /// check that a flow keeps its instance for as long as it lives.
    pins: Vec<u8>,
    /// Label mix new flows draw from (the initial population's).
    template: Vec<LabelPair>,
    churn: usize,
    head: usize,
    fresh: u32,
    rng: u64,
    pkts: Vec<Packet>,
    slots: Vec<u32>,
    out: Vec<Result<Addr>>,
    expiring: Vec<(FlowKey, LabelPair)>,
    sent: u64,
    errors: u64,
    pin_breaks: u64,
    expired_entries: u64,
    expire_calls: u64,
    /// Resident bytes the table fill added, per flow.
    rss_bytes_per_flow: f64,
}

struct StepTimes {
    gen_start: Instant,
    fwd_start: Instant,
    fwd_end: Instant,
}

impl Bed {
    fn new(w: &FwdWorkload, seed: u64) -> Self {
        let rss_before = sys::vm_kib("VmRSS");
        let mut fwd = Forwarder::with_flow_capacity(
            ForwarderId::new(1),
            SiteId::new(0),
            ForwarderMode::Affinity,
            4 * w.flows + 64,
        );
        let chains = chain_labels();
        for &pair in &chains {
            fwd.install_rules(
                pair,
                RuleSet {
                    to_vnf: to_vnf(),
                    to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(1_000_000))),
                    to_prev: WeightedChoice::single(edge()),
                },
            );
        }
        let gen = PacketGenerator::mixed_bidirectional(&chains, w.flows, PACKET_SIZE, seed);
        let mut bed = Self {
            fwd,
            keys: gen.flows().to_vec(),
            labels: gen.flow_labels().to_vec(),
            pins: vec![0; w.flows],
            template: gen.flow_labels().to_vec(),
            churn: w.churn,
            head: 0,
            fresh: 0,
            rng: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            pkts: vec![Packet::labeled(chains[0], gen.flows()[0], PACKET_SIZE); BATCH],
            slots: vec![0; BATCH],
            out: Vec::with_capacity(BATCH),
            expiring: Vec::with_capacity(w.churn),
            sent: 0,
            errors: 0,
            pin_breaks: 0,
            expired_entries: 0,
            expire_calls: 0,
            rss_bytes_per_flow: 0.0,
        };
        // Warm-up: one sweep pins every flow (so the entry count is exact),
        // then 7x flows of the workload's own traffic reach steady state.
        let mut slot = 0;
        while slot < w.flows {
            let n = BATCH.min(w.flows - slot);
            for i in 0..n {
                bed.stage(i, slot + i);
            }
            bed.forward(n);
            slot += n;
        }
        for _ in 0..(7 * w.flows).div_ceil(BATCH) {
            bed.step();
        }
        bed.rss_bytes_per_flow =
            1024.0 * (sys::vm_kib("VmRSS") - rss_before).max(0.0) / w.flows as f64;
        bed
    }

    fn stage(&mut self, i: usize, slot: usize) {
        self.pkts[i] = Packet::labeled(self.labels[slot], self.keys[slot], PACKET_SIZE);
        self.slots[i] = slot as u32;
    }

    /// Pushes the first `n` staged packets through the forwarder and checks
    /// the results; returns the bounds of the forwarder call.
    fn forward(&mut self, n: usize) -> (Instant, Instant) {
        let start = Instant::now();
        self.fwd
            .process_batch_into(&mut self.pkts[..n], edge(), &mut self.out);
        for (key, labels) in self.expiring.drain(..) {
            self.expired_entries += self.fwd.expire_connection(labels, key) as u64;
            self.expire_calls += 1;
        }
        let end = Instant::now();
        self.sent += n as u64;
        self.errors += self.out.iter().filter(|r| r.is_err()).count() as u64;
        // One flow per batch is checked against the hop it was first given.
        if let Some(Ok(Addr::Vnf(inst))) = self.out.first() {
            let pin = &mut self.pins[self.slots[0] as usize];
            let hop = inst.value() as u8 + 1;
            if *pin == 0 {
                *pin = hop;
            } else if *pin != hop {
                self.pin_breaks += 1;
            }
        } else {
            self.pin_breaks += 1;
        }
        (start, end)
    }

    /// One batch of the workload's traffic.
    fn step(&mut self) -> StepTimes {
        let gen_start = Instant::now();
        let steady = BATCH - self.churn;
        for i in steady..BATCH {
            let slot = self.head;
            self.head = (self.head + 1) % self.keys.len();
            self.expiring.push((self.keys[slot], self.labels[slot]));
            let c = self.fresh;
            self.fresh = self.fresh.wrapping_add(1);
            self.keys[slot] = FlowKey::udp(
                Ipv4Addr::from(0x0b00_0000u32.wrapping_add(c)),
                1024 + (c % 60_000) as u16,
                [192, 168, 0, 1],
                9000,
            );
            self.labels[slot] = self.template[pick(&mut self.rng, self.template.len())];
            self.pins[slot] = 0;
            self.stage(i, slot);
        }
        for i in 0..steady {
            let slot = pick(&mut self.rng, self.keys.len());
            self.stage(i, slot);
        }
        let (fwd_start, fwd_end) = self.forward(BATCH);
        StepTimes {
            gen_start,
            fwd_start,
            fwd_end,
        }
    }
}

/// Drives the workload for `seconds`, appending one forwarder call time per
/// batch to `busy_ns`. Returns `(generator ns, wall ns)`.
fn drive(bed: &mut Bed, tracer: &mut Tracer, busy_ns: &mut Vec<u32>, seconds: f64) -> (u64, u64) {
    let limit = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut gen_ns = 0;
    loop {
        let t = bed.step();
        let batch = busy_ns.len() as u32;
        tracer.record("gen", ROOT, batch, t.gen_start, t.fwd_start);
        tracer.record("dataplane.forwarder", ROOT, batch, t.fwd_start, t.fwd_end);
        busy_ns.push(t.fwd_end.duration_since(t.fwd_start).as_nanos() as u32);
        gen_ns += t.fwd_start.duration_since(t.gen_start).as_nanos() as u64;
        if t.fwd_end.duration_since(t0) >= limit {
            return (gen_ns, t0.elapsed().as_nanos() as u64);
        }
    }
}

pub fn run(w: &FwdWorkload, args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    let (mut bed, setup_s) = repeat_setup(|| Bed::new(w, args.seed));
    let warm = bed.fwd.stats();
    let (rebuilds0, patches0) = bed.fwd.fib_recompilations();
    let generation0 = bed.fwd.fib_generation();

    // One call time per batch; touched up front so that `rss_mb` does not
    // grow with the number of batches the window happens to hold.
    let mut busy_ns = vec![1u32; (args.seconds * 50_000.0) as usize];
    busy_ns.clear();
    // A traced run spends the first half of the window untraced, so the
    // tracing overhead is measured in the same process on the same table.
    let mut plain_batches = 0;
    let (plain, traced) = if args.trace {
        let plain = drive(&mut bed, tracer, &mut busy_ns, args.seconds / 2.0);
        plain_batches = busy_ns.len();
        tracer.set_on(true);
        let traced = drive(&mut bed, tracer, &mut busy_ns, args.seconds / 2.0);
        tracer.set_on(false);
        (plain, Some(traced))
    } else {
        (drive(&mut bed, tracer, &mut busy_ns, args.seconds), None)
    };
    let rss_mb = sys::vm_kib("VmHWM") / 1024.0;
    // Per-packet latency of a batch: its call time over its 256 packets.
    let mut lat_ns: Vec<f64> = busy_ns
        .iter()
        .map(|&ns| f64::from(ns) / BATCH as f64)
        .collect();

    // Correctness.
    let s = bed.fwd.stats();
    out.attempted = s.rx - warm.rx;
    out.failed = bed.errors;
    out.check(s.rx == bed.sent, || {
        format!("rx {} != sent {}", s.rx, bed.sent)
    });
    out.check(s.rx == s.tx + s.drops, || {
        format!("rx {} != tx {} + drops {}", s.rx, s.tx, s.drops)
    });
    out.check(s.drops == bed.errors, || {
        format!("drops {} != Err results {}", s.drops, bed.errors)
    });
    out.check(bed.pin_breaks == 0, || {
        format!("{} sampled flows changed next hop", bed.pin_breaks)
    });
    let entries = bed.fwd.flow_entries();
    out.check(entries == ENTRIES_PER_FLOW * w.flows, || {
        format!(
            "{entries} flow entries, expected {}",
            ENTRIES_PER_FLOW * w.flows
        )
    });
    out.check(
        bed.expired_entries == ENTRIES_PER_FLOW as u64 * bed.expire_calls,
        || {
            format!(
                "{} expiries removed {} entries",
                bed.expire_calls, bed.expired_entries
            )
        },
    );

    out.set_quiet(&stats::quiet_slices(&lat_ns, SLICE));
    out.set("rss_mb", rss_mb);
    out.set("setup_s", setup_s);
    let Some(traced) = traced else {
        return out;
    };

    let (plain_lat, traced_lat) = lat_ns.split_at(plain_batches);
    let rate = |lat| stats::quiet_slices(lat, SLICE).ops_per_s;
    out.set(
        "trace.overhead_share",
        1.0 - rate(traced_lat) / rate(plain_lat),
    );
    stats::sort(&mut lat_ns);
    let busy = |ns: &[u32]| ns.iter().map(|&ns| u64::from(ns)).sum::<u64>();
    let total_busy = busy(&busy_ns);
    let total_pkts = (busy_ns.len() * BATCH) as u64;
    let gen_ns = plain.0 + traced.0;
    out.set("forwarder.calls", lat_ns.len() as f64);
    out.set("forwarder.busy_s", total_busy as f64 / 1e9);
    out.set(
        "forwarder.ns_per_pkt",
        total_busy as f64 / total_pkts as f64,
    );
    out.set("forwarder.pkt_ns_p50", stats::quantile(&lat_ns, 0.5));
    out.set("forwarder.pkt_ns_p99", stats::quantile(&lat_ns, 0.99));
    out.set("forwarder.rx", (s.rx - warm.rx) as f64);
    out.set("forwarder.tx", (s.tx - warm.tx) as f64);
    out.set("forwarder.drops", (s.drops - warm.drops) as f64);
    let hits = (s.flow_hits - warm.flow_hits) as f64;
    let misses = (s.flow_misses - warm.flow_misses) as f64;
    out.set("forwarder.flow_hit_ratio", hits / (hits + misses));
    out.set("gen.ns_per_pkt", gen_ns as f64 / total_pkts as f64);
    out.set("flow_table.expire_calls", bed.expire_calls as f64);
    out.set("flow_table.entries", entries as f64);
    out.set(
        "flow_table.entries_per_flow",
        entries as f64 / w.flows as f64,
    );
    out.set("flow_table.rss_bytes_per_flow", bed.rss_bytes_per_flow);
    let (rebuilds, patches) = bed.fwd.fib_recompilations();
    out.set("fib.rebuilds", (rebuilds - rebuilds0) as f64);
    out.set("fib.patches", (patches - patches0) as f64);
    out.set(
        "fib.generations",
        (bed.fwd.fib_generation() - generation0) as f64,
    );
    out.set("trace.spans", tracer.len() as f64);
    out.set(
        "trace.attributed_share",
        (busy(&busy_ns[plain_batches..]) + traced.0) as f64 / traced.1 as f64,
    );
    probe_sublayers(&mut bed, &mut out);
    eprint!("{}", tracer.table(traced.1));
    out
}

/// Sub-layers with no call boundary on the hot path, timed by direct loops
/// over the workload's own key and label population (traced run only).
fn probe_sublayers(bed: &mut Bed, out: &mut Outcome) {
    let flows = bed.keys.len();
    let per = |t: Instant, n: usize| t.elapsed().as_nanos() as f64 / n as f64;
    let ftk = |slot: usize, context| FlowTableKey {
        chain: bed.labels[slot].chain(),
        key: bed.keys[slot],
        context,
    };

    // flow_table: the entries `affinity_pin` installs for a wire-side flow.
    let mut table = FlowTable::with_capacity(4 * flows + 64);
    let vnf = Addr::Vnf(InstanceId::new(0));
    let t = Instant::now();
    for slot in 0..flows {
        let key = bed.keys[slot];
        let rev = key.reversed();
        let rev_hash = rev.stable_hash();
        let chain = bed.labels[slot].chain();
        let wire = FlowContext::FromWire;
        table
            .insert_hashed(ftk(slot, wire), key.stable_hash(), vnf)
            .expect("capacity covers the population");
        for context in [wire, FlowContext::FromVnf] {
            table
                .insert_hashed(
                    FlowTableKey {
                        chain,
                        key: rev,
                        context,
                    },
                    rev_hash,
                    vnf,
                )
                .expect("capacity covers the population");
        }
    }
    out.set("flow_table.insert_ns", per(t, ENTRIES_PER_FLOW * flows));

    let mut rng = bed.rng;
    let probes: Vec<(FlowTableKey, u64)> = (0..PROBES)
        .map(|_| {
            let k = ftk(pick(&mut rng, flows), FlowContext::FromWire);
            (k, k.key.stable_hash())
        })
        .collect();
    let t = Instant::now();
    let mut found = 0usize;
    for (k, h) in &probes {
        found += usize::from(black_box(table.get_hashed(k, *h)).is_some());
    }
    out.set("flow_table.get_hit_ns", per(t, PROBES));
    out.check(found == PROBES, || {
        format!("probe: {found} of {PROBES} hits")
    });
    let absent = ChainLabel::new(sb_types::MAX_LABEL);
    let t = Instant::now();
    let mut found = 0usize;
    for (k, h) in &probes {
        let k = FlowTableKey {
            chain: absent,
            ..*k
        };
        found += usize::from(black_box(table.get_hashed(&k, *h)).is_some());
    }
    out.set("flow_table.get_miss_ns", per(t, PROBES));
    out.check(found == 0, || format!("probe: {found} hits on absent keys"));
    let removals = flows.min(1 << 16);
    let t = Instant::now();
    let mut removed = 0usize;
    for slot in 0..removals {
        removed += usize::from(table.remove(&ftk(slot, FlowContext::FromWire)).is_some());
    }
    out.set("flow_table.remove_ns", per(t, removals));
    out.check(removed == removals, || {
        format!("probe: removed {removed} of {removals}")
    });
    drop(table);

    // fib: installed pairs and reverse pairs resolved through the fallback.
    let mut reader = bed.fwd.fib_reader();
    let fib = reader.snapshot();
    out.set("fib.rows", fib.len() as f64);
    let pairs: Vec<LabelPair> = (0..PROBES)
        .map(|_| bed.template[pick(&mut rng, bed.template.len())])
        .collect();
    let t = Instant::now();
    let mut found = 0usize;
    for &pair in &pairs {
        found += usize::from(black_box(fib.lookup_index(pair)).is_some());
    }
    out.set("fib.lookup_ns", per(t, PROBES));
    out.check(found == PROBES, || {
        format!("probe: {found} of {PROBES} FIB hits")
    });

    // loadbalancer: the first-packet weighted pick.
    let choice = to_vnf();
    let t = Instant::now();
    let mut sink = 0u64;
    for (_, h) in &probes {
        if let Addr::Vnf(i) = black_box(choice.select(*h)) {
            sink += i.value();
        }
    }
    out.set("lb.select_ns", per(t, PROBES));
    black_box(sink);
}
