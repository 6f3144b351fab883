//! Property tests for RSS sharding (DESIGN.md §11): splitting a forwarder
//! into N shared-nothing shards must be invisible to everything a flow can
//! observe. For arbitrary packet traces and arbitrary cross-shard
//! interleavings, N forwarders with identical rules, each packet routed to
//! the one [`shard_of_key`] names, must produce the same per-flow pin
//! assignments and the same per-flow packet ordering as a single
//! sequential forwarder processing the same trace.
//!
//! The interleaving model mirrors the threaded runner: packets are
//! partitioned across shards by the symmetric RSS hash (preserving arrival
//! order within each shard, as per-shard RSS queues do), and the proptest
//! then chooses which shard makes progress at every step. Per-flow order is
//! preserved because one flow maps to exactly one shard.

use proptest::prelude::*;
use sb_dataplane::shard::shard_of_key;
use sb_dataplane::{Addr, Forwarder, ForwarderMode, Packet, RuleSet, WeightedChoice};
use sb_types::{
    ChainLabel, EdgeInstanceId, EgressLabel, FlowKey, ForwarderId, InstanceId, LabelPair, Result,
    SiteId,
};
use std::collections::HashMap;

fn labels() -> LabelPair {
    LabelPair::new(ChainLabel::new(1), EgressLabel::new(2))
}

fn edge() -> Addr {
    Addr::Edge(EdgeInstanceId::new(0))
}

fn flow(i: u16) -> FlowKey {
    FlowKey::tcp([10, 0, (i >> 8) as u8, i as u8], 1000 + i, [10, 9, 9, 9], 80)
}

fn rules() -> RuleSet {
    RuleSet {
        to_vnf: WeightedChoice::new(
            (0..4)
                .map(|i| (Addr::Vnf(InstanceId::new(i)), f64::from(1 + i as u32)))
                .collect(),
        )
        .unwrap(),
        to_next: WeightedChoice::new(vec![
            (Addr::Forwarder(ForwarderId::new(100)), 1.0),
            (Addr::Forwarder(ForwarderId::new(101)), 2.0),
        ])
        .unwrap(),
        to_prev: WeightedChoice::single(edge()),
    }
}

/// `n` Affinity forwarder shards with identical rules, each with its own
/// flow table bounded at `flow_capacity` entries.
fn build_shards(n: usize, flow_capacity: usize) -> Vec<Forwarder> {
    (0..n as u64)
        .map(|i| {
            let mut f = Forwarder::with_flow_capacity(
                ForwarderId::new(i),
                SiteId::new(0),
                ForwarderMode::Affinity,
                flow_capacity,
            );
            f.install_rules(labels(), rules());
            f
        })
        .collect()
}

/// Processes `pkt` on the shard its key maps to, returning that shard's
/// index along with the forwarding outcome.
fn process(shards: &mut [Forwarder], pkt: Packet, from: Addr) -> (usize, Result<(Packet, Addr)>) {
    let s = shard_of_key(pkt.key, shards.len());
    (s, shards[s].process(pkt, from))
}

fn flow_entries(shards: &[Forwarder]) -> usize {
    shards.iter().map(Forwarder::flow_entries).sum()
}

/// One trace event: a forward or reverse transit of one flow.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Forward(u16),
    Reverse(u16),
}

impl Ev {
    fn flow(self) -> u16 {
        match self {
            Ev::Forward(i) | Ev::Reverse(i) => i,
        }
    }
}

fn arb_trace(flows: u16, len: usize) -> impl Strategy<Value = Vec<Ev>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..flows).prop_map(Ev::Forward),
            1 => (0..flows).prop_map(Ev::Reverse),
        ],
        1..len,
    )
    .prop_map(|raw| {
        // Reverse packets only exist once the forward direction installed
        // the state they route by; filter the trace once so the sharded run
        // and the sequential reference see identical inputs.
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .filter(|ev| match ev {
                Ev::Forward(i) => {
                    seen.insert(*i);
                    true
                }
                Ev::Reverse(i) => seen.contains(i),
            })
            .collect()
    })
}

/// What one flow observes over a run: for each of its transits, the pair of
/// hops the data plane chose. Equality of these logs is the whole property.
type FlowLog = HashMap<u16, Vec<(Addr, Addr)>>;

/// Runs `trace` through `shards`, processing events in the given order, and
/// returns the per-flow observation log. Panics (fails the test) on any
/// forwarding error: identical rules on ample tables must always forward.
fn run_trace(shards: &mut [Forwarder], trace: &[Ev]) -> FlowLog {
    let mut pinned_next: HashMap<u16, Addr> = HashMap::new();
    let mut log: FlowLog = HashMap::new();
    for &ev in trace {
        let i = ev.flow();
        match ev {
            Ev::Forward(_) => {
                let pkt = Packet::labeled(labels(), flow(i), 64);
                let (s1, r) = process(shards, pkt, edge());
                let (pkt, vnf) = r.expect("forward to VNF");
                let (s2, r) = process(shards, pkt, vnf);
                let (_, next) = r.expect("forward to next hop");
                assert_eq!(s1, s2, "flow {i} changed shard mid-transit");
                pinned_next.insert(i, next);
                log.entry(i).or_default().push((vnf, next));
            }
            Ev::Reverse(_) => {
                let from = pinned_next[&i];
                let pkt = Packet::labeled(labels(), flow(i).reversed(), 64);
                let (s1, r) = process(shards, pkt, from);
                let (pkt, vnf) = r.expect("reverse to VNF");
                let (s2, r) = process(shards, pkt, vnf);
                let (_, prev) = r.expect("reverse to previous hop");
                assert_eq!(s1, s2, "flow {i} changed shard mid-transit");
                log.entry(i).or_default().push((vnf, prev));
            }
        }
    }
    log
}

/// Reorders `trace` into an arbitrary cross-shard interleaving that the
/// threaded runner could produce: per-shard order is preserved (per-shard
/// RSS queues are FIFO), but shards progress in the schedule's order.
fn interleave(trace: &[Ev], shards: usize, schedule: &[usize]) -> Vec<Ev> {
    let mut queues: Vec<std::collections::VecDeque<Ev>> =
        vec![std::collections::VecDeque::new(); shards];
    for &ev in trace {
        queues[shard_of_key(flow(ev.flow()), shards)].push_back(ev);
    }
    let mut out = Vec::with_capacity(trace.len());
    for &pick in schedule {
        if let Some(ev) = queues[pick % shards].pop_front() {
            out.push(ev);
        }
    }
    // Drain whatever the schedule did not reach, shard by shard.
    for q in &mut queues {
        out.extend(q.drain(..));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tentpole equivalence: per-flow pins and per-flow packet ordering
    /// from N shards under an arbitrary cross-shard interleaving are
    /// identical to a single-shard sequential run of the same trace.
    #[test]
    fn sharded_run_is_observationally_sequential(
        shards in 2usize..=4,
        trace in arb_trace(48, 160),
        schedule in prop::collection::vec(0usize..4, 0..320),
    ) {
        let mut sharded = build_shards(shards, 1 << 12);
        let mut single = build_shards(1, 1 << 14);

        let interleaved = interleave(&trace, shards, &schedule);
        prop_assert_eq!(interleaved.len(), trace.len(), "interleaving lost events");

        let sharded_log = run_trace(&mut sharded, &interleaved);
        let single_log = run_trace(&mut single, &trace);
        prop_assert_eq!(sharded_log, single_log, "shard placement leaked into behavior");

        // Sharding only relocates flow-table entries; it never changes how
        // many exist.
        prop_assert_eq!(flow_entries(&sharded), flow_entries(&single));
    }

    /// Shard placement is stable and symmetric: every packet of a flow —
    /// either direction — is owned by one shard, and that shard is a pure
    /// function of the flow, not of the trace.
    #[test]
    fn shard_ownership_is_per_flow_and_direction_invariant(
        shards in 1usize..=8,
        flows in prop::collection::vec(0u16..2000, 1..64),
    ) {
        for i in flows {
            let s = shard_of_key(flow(i), shards);
            prop_assert!(s < shards);
            prop_assert_eq!(shard_of_key(flow(i).reversed(), shards), s, "directions split");
            prop_assert_eq!(shard_of_key(flow(i), shards), s, "ownership unstable");
        }
    }
}
