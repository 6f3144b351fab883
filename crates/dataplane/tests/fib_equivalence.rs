//! Batch pipeline ≡ per-packet `process` (DESIGN.md §14).
//!
//! The two-stage batch pipeline must be *bit-identical* to per-packet
//! `process`: same next hops, same rewritten packets, same error strings,
//! same per-flow pins, same LB choices, same drop/hit/miss counters, same
//! synthetic header work, and the same sampled telemetry — under
//! arbitrary interleavings of `install_rules_epoch` / `remove_rules` /
//! `fail_vnf_instance` and packet batches in both directions.
//!
//! Two forwarders replay the identical script: one through `process`, one
//! through the batch path. Both resolve rules through the same
//! `CompiledFib::lookup_index`, whose own oracle is a linear scan in
//! `fib.rs`'s unit tests; this replay pins the rest of the pipeline. Any
//! divergence is a bug in the patch/rebuild compiler, the generation
//! publish, or the two-stage pipeline. CI runs this as the named step
//! `cargo test --release -p sb-dataplane --test fib_equivalence`.

use proptest::prelude::*;
use sb_dataplane::{Addr, Forwarder, ForwarderMode, Packet, RuleSet, WeightedChoice};
use sb_telemetry::{MetricsSnapshot, Telemetry, WindowConfig, WindowRoller};
use sb_types::{
    ChainLabel, EdgeInstanceId, EgressLabel, FlowKey, ForwarderId, InstanceId, LabelPair, SiteId,
};

/// The label-pair domain: a handful of chains and egresses, so scripts
/// routinely hit both installed and unknown pairs.
fn pair(chain: u8, egress: u8) -> LabelPair {
    LabelPair::new(ChainLabel::new(u32::from(chain)), EgressLabel::new(u32::from(egress)))
}

fn flow(i: u8) -> FlowKey {
    FlowKey::tcp([10, 0, 0, 1], 1000 + u16::from(i), [10, 0, 0, 2], 80)
}

fn edge() -> Addr {
    Addr::Edge(EdgeInstanceId::new(0))
}

/// One scripted operation, applied identically to both forwarders.
#[derive(Debug, Clone)]
enum Op {
    /// `install_rules_epoch(pair, rules(weights), epoch)`.
    Install {
        chain: u8,
        egress: u8,
        epoch: u8,
        weights: Vec<u8>,
    },
    /// `remove_rules(pair)`.
    Remove { chain: u8, egress: u8 },
    /// `fail_vnf_instance(instance)`.
    Fail(u8),
    /// A batch of labeled packets from the wire (forward direction).
    WireBatch(Vec<(u8, u8, u8)>),
    /// A batch of labeled packets from a VNF instance (return leg).
    VnfBatch(u8, Vec<(u8, u8, u8)>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let pkt = (0u8..16, 1u8..4, 1u8..3);
    prop_oneof![
        3 => (1u8..4, 1u8..3, 0u8..4, prop::collection::vec(1u8..10, 1..4)).prop_map(
            |(chain, egress, epoch, weights)| Op::Install { chain, egress, epoch, weights },
        ),
        2 => (1u8..4, 1u8..3).prop_map(|(chain, egress)| Op::Remove { chain, egress }),
        1 => (0u8..6).prop_map(Op::Fail),
        5 => prop::collection::vec(pkt.clone(), 1..80).prop_map(Op::WireBatch),
        2 => (0u8..6, prop::collection::vec(pkt, 1..40))
            .prop_map(|(inst, pkts)| Op::VnfBatch(inst, pkts)),
    ]
}

fn rules_from_weights(weights: &[u8]) -> RuleSet {
    let vnfs: Vec<(Addr, f64)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (Addr::Vnf(InstanceId::new(i as u64)), f64::from(w)))
        .collect();
    let nexts: Vec<(Addr, f64)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (Addr::Forwarder(ForwarderId::new(100 + i as u64)), f64::from(w)))
        .collect();
    RuleSet {
        to_vnf: WeightedChoice::new(vnfs).unwrap(),
        to_next: WeightedChoice::new(nexts).unwrap(),
        to_prev: WeightedChoice::single(edge()),
    }
}

fn make_forwarder(mode: ForwarderMode) -> Forwarder {
    Forwarder::new(ForwarderId::new(1), SiteId::new(0), mode)
}

fn packets(script: &[(u8, u8, u8)]) -> Vec<Packet> {
    script
        .iter()
        .map(|&(f, c, e)| Packet::labeled(pair(c, e), flow(f), 500))
        .collect()
}

/// Strips the wall-clock `fib.rebuild_ns` histogram — the single metric
/// that legitimately differs between replays (compile time is not
/// deterministic); everything else must match exactly.
fn comparable(mut snap: MetricsSnapshot) -> MetricsSnapshot {
    snap.histograms.retain(|(name, _)| name != "fib.rebuild_ns");
    snap
}

/// Replays `ops` on one forwarder, through `process_batch` when `batch`
/// is set and through the per-packet `process` oracle otherwise. Returns
/// per-packet outcomes as `(hop-or-error, rewritten packet)` strings so
/// the two paths compare structurally.
fn replay(ops: &[Op], mode: ForwarderMode, batch: bool) -> (Forwarder, Telemetry, Vec<String>) {
    let hub = Telemetry::new();
    let mut fwd = make_forwarder(mode);
    fwd.attach_telemetry(&hub, 3);
    let mut outcomes = Vec::new();
    for op in ops {
        match op {
            Op::Install {
                chain,
                egress,
                epoch,
                weights,
            } => {
                fwd.install_rules_epoch(
                    pair(*chain, *egress),
                    rules_from_weights(weights),
                    u64::from(*epoch),
                );
            }
            Op::Remove { chain, egress } => {
                fwd.remove_rules(pair(*chain, *egress));
            }
            Op::Fail(inst) => {
                let _ = fwd.fail_vnf_instance(InstanceId::new(u64::from(*inst)));
            }
            Op::WireBatch(script) | Op::VnfBatch(_, script) => {
                let from = match op {
                    Op::VnfBatch(inst, _) => Addr::Vnf(InstanceId::new(u64::from(*inst))),
                    _ => edge(),
                };
                let mut pkts = packets(script);
                if batch {
                    let res = fwd.process_batch(&mut pkts, from);
                    for (r, pkt) in res.iter().zip(&pkts) {
                        match r {
                            Ok(hop) => outcomes.push(format!("{hop} {pkt:?}")),
                            Err(e) => outcomes.push(format!("err {e}")),
                        }
                    }
                } else {
                    for pkt in &mut pkts {
                        match fwd.process(*pkt, from) {
                            Ok((rewritten, hop)) => {
                                outcomes.push(format!("{hop} {rewritten:?}"));
                            }
                            Err(e) => outcomes.push(format!("err {e}")),
                        }
                    }
                }
            }
        }
    }
    (fwd, hub, outcomes)
}

fn assert_two_way(ops: &[Op], mode: ForwarderMode) {
    let (oracle_fwd, oracle_hub, oracle_out) = replay(ops, mode, false);
    let (fwd, hub, out) = replay(ops, mode, true);
    assert_eq!(oracle_out, out, "{mode:?}: per-packet outcomes");
    assert_eq!(oracle_fwd.stats(), fwd.stats(), "{mode:?}: stats");
    assert_eq!(
        oracle_fwd.flow_entries(),
        fwd.flow_entries(),
        "{mode:?}: flow entries"
    );
    assert_eq!(
        oracle_fwd.work_done(),
        fwd.work_done(),
        "{mode:?}: synthetic header work"
    );
    assert_eq!(
        comparable(oracle_hub.registry.snapshot()),
        comparable(hub.registry.snapshot()),
        "{mode:?}: registry snapshot"
    );
    assert_eq!(
        oracle_hub.tracer.snapshot(),
        hub.tracer.snapshot(),
        "{mode:?}: sampled trace events"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Affinity mode: pins, LB choices, drops, flow-table state, and
    /// telemetry are identical on both paths under arbitrary
    /// rule-churn/batch interleavings.
    #[test]
    fn compiled_path_is_bit_identical_in_affinity_mode(
        ops in prop::collection::vec(arb_op(), 1..24),
    ) {
        assert_two_way(&ops, ForwarderMode::Affinity);
    }

    /// Overlay mode (stateless selection, no flow table) must agree too.
    #[test]
    fn compiled_path_is_bit_identical_in_overlay_mode(
        ops in prop::collection::vec(arb_op(), 1..24),
    ) {
        assert_two_way(&ops, ForwarderMode::Overlay);
    }
}

/// The FIB generation counter and rebuild/patch split are deterministic
/// functions of the mutation script — identical across replays and
/// exported through the registry.
#[test]
fn fib_generation_is_deterministic_and_exported() {
    let ops = vec![
        Op::Install { chain: 1, egress: 1, epoch: 0, weights: vec![1, 2] },
        Op::Install { chain: 2, egress: 1, epoch: 0, weights: vec![3] },
        Op::Install { chain: 1, egress: 1, epoch: 1, weights: vec![2, 2] },
        Op::WireBatch(vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]),
        Op::Remove { chain: 2, egress: 1 },
        Op::Fail(0),
    ];
    let (a, hub, _) = replay(&ops, ForwarderMode::Affinity, true);
    let (b, _, _) = replay(&ops, ForwarderMode::Affinity, true);
    assert_eq!(a.fib_generation(), b.fib_generation());
    assert_eq!(a.fib_recompilations(), b.fib_recompilations());
    let snap = hub.registry.snapshot();
    #[allow(clippy::cast_possible_wrap)]
    let generation = a.fib_generation() as i64;
    assert_eq!(snap.gauge("fib.generation"), generation);
    let (rebuilds, patches) = a.fib_recompilations();
    assert_eq!(snap.counter("fib.rebuilds"), rebuilds);
    assert_eq!(snap.counter("fib.patches"), patches);
    assert!(
        snap.histograms.iter().any(|(n, h)| n == "fib.rebuild_ns" && h.count > 0),
        "rebuild latency histogram must be populated"
    );
}

/// The FIB metrics flow all the way out: `export_json` carries the gauge /
/// counters / histogram, and a [`WindowRoller`] attributes recompilations
/// to the window they happened in.
#[test]
fn fib_metrics_visible_in_export_json_and_window_series() {
    let hub = Telemetry::new();
    let mut fwd = make_forwarder(ForwarderMode::Affinity);
    fwd.attach_telemetry(&hub, 3);
    let mut roller = WindowRoller::new(
        &hub.registry,
        &hub.clock,
        WindowConfig {
            width_ns: 1_000_000,
            capacity: 8,
        },
    );

    fwd.install_rules_epoch(pair(1, 1), rules_from_weights(&[1, 2]), 0);
    fwd.install_rules_epoch(pair(1, 1), rules_from_weights(&[2, 2]), 1);
    let mut pkts = packets(&[(0, 1, 1), (1, 1, 1)]);
    let _ = fwd.process_batch(&mut pkts, edge());
    hub.clock.advance_ns(1_000_000);
    assert_eq!(roller.tick(), 1);

    let json = hub.export_json();
    for needle in ["fib.generation", "fib.rebuilds", "fib.patches", "fib.rebuild_ns"] {
        assert!(json.contains(needle), "{needle} missing from export_json");
    }
    let window = roller.windows().back().expect("one closed window");
    #[allow(clippy::cast_possible_wrap)]
    let generation = fwd.fib_generation() as i64;
    assert_eq!(window.gauge("fib.generation"), generation);
    let (rebuilds, patches) = fwd.fib_recompilations();
    assert_eq!(window.counter("fib.rebuilds").delta, rebuilds);
    assert_eq!(window.counter("fib.patches").delta, patches);
    assert!(
        window.histogram("fib.rebuild_ns").is_some(),
        "rebuild histogram missing from the window series"
    );
}
