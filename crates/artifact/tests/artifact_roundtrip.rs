//! Artifact round-trip and standalone-forwarder equivalence (DESIGN.md §15).
//!
//! Two properties gate the artifact boundary:
//!
//! 1. **Codec round-trip**: for any canonical artifact (one produced by
//!    [`Forwarder::export_artifact`]), `decode(encode(a)) ≡ a`, and the
//!    encoding is byte-deterministic — two encodes of the same logical
//!    state are identical byte strings.
//! 2. **Standalone ≡ in-process**: a forwarder booted from an encoded
//!    artifact ([`Forwarder::from_artifact`]) forwards identically to the
//!    in-process forwarder the controller mutated natively — same next
//!    hops, same error strings, same packet counters, same flow tables —
//!    under arbitrary packet interleavings, *including* a mid-traffic
//!    hot-swap ([`Forwarder::apply_artifact`], Full and Patch kinds) with
//!    the flow table carried across the swap (zero-drop make-before-break).
//!
//! Alongside them, corrupted bytes and hostile bodies that carry a valid
//! checksum must decode to an error, never to state a forwarder installs.
//!
//! CI runs this as the named step
//! `cargo test --release -p sb-artifact --test artifact_roundtrip`.

use proptest::prelude::*;
use sb_artifact::{decode, encode, ArtifactKind, ForwarderArtifact, SiteArtifact};
use sb_dataplane::artifact::encoded_len;
use sb_dataplane::{Addr, FibRow, Forwarder, ForwarderMode, Packet, RuleSet, WeightedChoice};
use sb_types::{
    ChainLabel, EdgeInstanceId, EgressLabel, FlowKey, ForwarderId, InstanceId, LabelPair, SiteId,
};

fn pair(chain: u8, egress: u8) -> LabelPair {
    LabelPair::new(ChainLabel::new(u32::from(chain)), EgressLabel::new(u32::from(egress)))
}

fn flow(i: u8) -> FlowKey {
    FlowKey::tcp([10, 0, 0, 1], 1000 + u16::from(i), [10, 0, 0, 2], 80)
}

fn edge() -> Addr {
    Addr::Edge(EdgeInstanceId::new(0))
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

/// A rule-state mutation, applied identically to the in-process forwarder
/// and to the scratch forwarder the controller exports artifacts from.
#[derive(Debug, Clone)]
enum RuleOp {
    Install { chain: u8, egress: u8, epoch: u8, weights: Vec<u8> },
    Remove { chain: u8, egress: u8 },
    Fail(u8),
}

fn arb_rule_op(with_fail: bool) -> impl Strategy<Value = RuleOp> {
    let install = (1u8..4, 1u8..3, 0u8..4, prop::collection::vec(1u8..10, 1..4))
        .prop_map(|(chain, egress, epoch, weights)| RuleOp::Install { chain, egress, epoch, weights });
    let remove = (1u8..4, 1u8..3).prop_map(|(chain, egress)| RuleOp::Remove { chain, egress });
    if with_fail {
        prop_oneof![3 => install, 2 => remove, 1 => (0u8..6).prop_map(RuleOp::Fail)].boxed()
    } else {
        prop_oneof![3 => install, 2 => remove].boxed()
    }
}

fn apply_rule_op(fwd: &mut Forwarder, op: &RuleOp) {
    match op {
        RuleOp::Install { chain, egress, epoch, weights } => {
            fwd.install_rules_epoch(pair(*chain, *egress), rules_from_weights(weights), u64::from(*epoch));
        }
        RuleOp::Remove { chain, egress } => {
            fwd.remove_rules(pair(*chain, *egress));
        }
        RuleOp::Fail(inst) => {
            let _ = fwd.fail_vnf_instance(InstanceId::new(u64::from(*inst)));
        }
    }
}

/// The labels a round of delta ops touches (for patch-artifact scoping).
fn touched_labels(ops: &[RuleOp]) -> Vec<LabelPair> {
    let mut labels: Vec<LabelPair> = ops
        .iter()
        .filter_map(|op| match op {
            RuleOp::Install { chain, egress, .. } | RuleOp::Remove { chain, egress } => {
                Some(pair(*chain, *egress))
            }
            RuleOp::Fail(_) => None,
        })
        .collect();
    labels.sort_unstable();
    labels.dedup();
    labels
}

/// A traffic batch: `from` is the edge (forward leg) or a VNF instance
/// (return leg); packets are `(flow, chain, egress)` triples.
type Batch = (Option<u8>, Vec<(u8, u8, u8)>);

fn arb_batch() -> impl Strategy<Value = Batch> {
    (
        prop::option::of(0u8..6),
        prop::collection::vec((0u8..16, 1u8..4, 1u8..3), 1..40),
    )
}

/// Drives one batch through a forwarder, returning per-packet outcomes as
/// `hop-or-error + rewritten packet` strings (structural comparison).
fn drive(fwd: &mut Forwarder, batch: &Batch) -> Vec<String> {
    let from = match batch.0 {
        Some(inst) => Addr::Vnf(InstanceId::new(u64::from(inst))),
        None => edge(),
    };
    let mut pkts: Vec<Packet> = batch
        .1
        .iter()
        .map(|&(f, c, e)| Packet::labeled(pair(c, e), flow(f), 500))
        .collect();
    fwd.process_batch(&mut pkts, from)
        .iter()
        .zip(&pkts)
        .map(|(r, pkt)| match r {
            Ok(hop) => format!("{hop} {pkt:?}"),
            Err(e) => format!("err {e}"),
        })
        .collect()
}

fn site_full(fa: ForwarderArtifact, epoch: u64) -> SiteArtifact {
    SiteArtifact {
        site: SiteId::new(7),
        epoch,
        kind: ArtifactKind::Full,
        forwarders: vec![fa],
    }
}

/// Scopes a full export down to a patch artifact over `touched` labels —
/// the same projection `LocalController::export_patch_artifact` applies.
fn patch_of(full: &ForwarderArtifact, touched: &[LabelPair]) -> ForwarderArtifact {
    let rows: Vec<FibRow> = full
        .rows
        .iter()
        .filter(|r| touched.contains(&r.labels))
        .cloned()
        .collect();
    let removed: Vec<LabelPair> = touched
        .iter()
        .copied()
        .filter(|l| !full.rows.iter().any(|r| r.labels == *l))
        .collect();
    ForwarderArtifact {
        rows: rows.into(),
        removed,
        label_unaware: full
            .label_unaware
            .iter()
            .filter(|(_, l)| touched.contains(l))
            .copied()
            .collect(),
        ..full.clone()
    }
}

fn fresh(mode: ForwarderMode) -> Forwarder {
    Forwarder::new(ForwarderId::new(1), SiteId::new(7), mode)
}

/// The core equivalence scenario. `fwd_a` is mutated natively (the
/// in-process forwarder); `scratch` replays the same mutations and is
/// what artifacts are exported from; `fwd_b` only ever sees encoded
/// artifacts. Both serve identical traffic before and after a
/// mid-traffic hot-swap.
fn assert_standalone_equivalence(
    mode: ForwarderMode,
    ops1: &[RuleOp],
    traffic1: &[Batch],
    ops2: &[RuleOp],
    traffic2: &[Batch],
    patch_swap: bool,
) {
    let mut fwd_a = fresh(mode);
    let mut scratch = fresh(mode);
    for op in ops1 {
        apply_rule_op(&mut fwd_a, op);
        apply_rule_op(&mut scratch, op);
    }

    // Boot the standalone forwarder from the encoded full artifact.
    let art1 = site_full(scratch.export_artifact(), 1);
    let decoded1 = decode(&encode(&art1)).expect("round-trip");
    assert_eq!(art1, decoded1, "full artifact round-trip");
    let mut fwd_b = Forwarder::from_artifact(decoded1.site, &decoded1.forwarders[0]);

    for batch in traffic1 {
        assert_eq!(drive(&mut fwd_a, batch), drive(&mut fwd_b, batch), "pre-swap outcomes");
    }

    // Delta round: mutate natively on both full-fidelity forwarders, then
    // hot-swap the standalone one from an encoded artifact mid-traffic.
    for op in ops2 {
        apply_rule_op(&mut fwd_a, op);
        apply_rule_op(&mut scratch, op);
    }
    let full2 = scratch.export_artifact();
    let (fa2, kind) = if patch_swap {
        (patch_of(&full2, &touched_labels(ops2)), ArtifactKind::Patch)
    } else {
        (full2, ArtifactKind::Full)
    };
    let art2 = SiteArtifact {
        site: SiteId::new(7),
        epoch: 2,
        kind,
        forwarders: vec![fa2],
    };
    let decoded2 = decode(&encode(&art2)).expect("round-trip");
    assert_eq!(art2, decoded2, "swap artifact round-trip");
    fwd_b.apply_artifact(&decoded2.forwarders[0], decoded2.kind);

    for batch in traffic2 {
        assert_eq!(drive(&mut fwd_a, batch), drive(&mut fwd_b, batch), "post-swap outcomes");
    }

    // Counters, flow tables, synthetic work, and the re-exported logical
    // state must all agree — the flow table survived the swap (zero-drop).
    assert_eq!(fwd_a.stats(), fwd_b.stats(), "packet counters");
    assert_eq!(fwd_a.flow_entries(), fwd_b.flow_entries(), "flow entries");
    assert_eq!(fwd_a.work_done(), fwd_b.work_done(), "synthetic header work");
    // The FIB generation counter tracks rebuild/patch *history*, which
    // legitimately differs between a natively-mutated forwarder and one
    // synced by artifact swaps; the logical forwarding state must match.
    let logical = |fwd: &Forwarder| {
        let mut fa = fwd.export_artifact();
        fa.generation = 0;
        fa
    };
    assert_eq!(logical(&fwd_a), logical(&fwd_b), "re-exported forwarding state");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(encode(a)) ≡ a` for canonical artifacts, and encoding is a
    /// pure function of the logical state (byte-deterministic).
    #[test]
    fn codec_round_trips_and_is_byte_deterministic(
        ops in prop::collection::vec(arb_rule_op(true), 1..16),
        epoch in 1u64..1000,
        patch_scope in prop::collection::vec((1u8..4, 1u8..3), 0..4),
    ) {
        let mut scratch = fresh(ForwarderMode::Affinity);
        for op in &ops {
            apply_rule_op(&mut scratch, op);
        }
        let full = site_full(scratch.export_artifact(), epoch);
        let bytes = encode(&full);
        prop_assert_eq!(&bytes, &encode(&full.clone()), "byte determinism (full)");
        let decoded = decode(&bytes).expect("decode full");
        prop_assert_eq!(&full, &decoded);
        prop_assert_eq!(&bytes, &encode(&decoded), "re-encode is identical");

        // Patch artifacts round-trip too (non-empty `removed` allowed).
        let mut touched: Vec<LabelPair> =
            patch_scope.iter().map(|&(c, e)| pair(c, e)).collect();
        touched.sort_unstable();
        touched.dedup();
        let patch = SiteArtifact {
            kind: ArtifactKind::Patch,
            forwarders: vec![patch_of(&full.forwarders[0], &touched)],
            ..full
        };
        let pbytes = encode(&patch);
        prop_assert_eq!(&pbytes, &encode(&patch.clone()), "byte determinism (patch)");
        prop_assert_eq!(&patch, &decode(&pbytes).expect("decode patch"));

        // `encoded_len` is exact, which the control plane's `artifact.bytes`
        // counter relies on without encoding.
        prop_assert_eq!(encoded_len(&full), bytes.len(), "encoded_len (full)");
        prop_assert_eq!(encoded_len(&patch), pbytes.len(), "encoded_len (patch)");

        // The same state held in reverse order, every list included,
        // encodes to the same bytes and `encoded_len` still agrees.
        let mut second = patch.forwarders[0].clone();
        second.forwarder = ForwarderId::new(2);
        second.rows = full.forwarders[0].rows.clone();
        second.label_unaware = vec![(InstanceId::new(3), pair(2, 1)), (InstanceId::new(9), pair(1, 1))];
        let canonical = SiteArtifact {
            forwarders: vec![patch.forwarders[0].clone(), second],
            ..patch.clone()
        };
        let mut unsorted = canonical.clone();
        unsorted.forwarders.reverse();
        for f in &mut unsorted.forwarders {
            let mut rows = f.rows.to_vec();
            rows.reverse();
            f.rows = rows.into();
            f.label_unaware.reverse();
            f.removed.reverse();
        }
        let cbytes = encode(&canonical);
        prop_assert_eq!(encoded_len(&unsorted), cbytes.len(), "encoded_len (unsorted)");
        prop_assert_eq!(&encode(&unsorted), &cbytes, "list order reached the bytes");
        prop_assert_eq!(&canonical, &decode(&cbytes).expect("decode two forwarders"));
    }

    /// Standalone forwarder booted from an artifact ≡ in-process forwarder,
    /// across a mid-traffic **Full** hot-swap (affinity mode: flow pins
    /// survive the swap).
    #[test]
    fn standalone_matches_in_process_across_full_swap(
        ops1 in prop::collection::vec(arb_rule_op(true), 1..12),
        traffic1 in prop::collection::vec(arb_batch(), 0..6),
        ops2 in prop::collection::vec(arb_rule_op(false), 0..8),
        traffic2 in prop::collection::vec(arb_batch(), 1..6),
    ) {
        assert_standalone_equivalence(
            ForwarderMode::Affinity, &ops1, &traffic1, &ops2, &traffic2, false,
        );
    }

    /// Same property with a **Patch** hot-swap scoped to the delta's
    /// touched labels — untouched rows and live flow pins are undisturbed.
    #[test]
    fn standalone_matches_in_process_across_patch_swap(
        ops1 in prop::collection::vec(arb_rule_op(true), 1..12),
        traffic1 in prop::collection::vec(arb_batch(), 0..6),
        ops2 in prop::collection::vec(arb_rule_op(false), 0..8),
        traffic2 in prop::collection::vec(arb_batch(), 1..6),
    ) {
        assert_standalone_equivalence(
            ForwarderMode::Affinity, &ops1, &traffic1, &ops2, &traffic2, true,
        );
    }

    /// Overlay mode (stateless selection, no flow table) agrees too.
    #[test]
    fn standalone_matches_in_process_overlay(
        ops1 in prop::collection::vec(arb_rule_op(true), 1..12),
        traffic1 in prop::collection::vec(arb_batch(), 0..6),
        ops2 in prop::collection::vec(arb_rule_op(false), 0..8),
        traffic2 in prop::collection::vec(arb_batch(), 1..6),
        patch in any::<bool>(),
    ) {
        assert_standalone_equivalence(
            ForwarderMode::Overlay, &ops1, &traffic1, &ops2, &traffic2, patch,
        );
    }
}

/// Corrupting any single byte of an encoded artifact is detected — either
/// the checksum or a structural validator rejects it; decode never panics
/// and never silently yields a different artifact.
#[test]
fn corruption_is_always_detected() {
    let mut scratch = fresh(ForwarderMode::Affinity);
    apply_rule_op(
        &mut scratch,
        &RuleOp::Install { chain: 1, egress: 1, epoch: 0, weights: vec![1, 2, 3] },
    );
    apply_rule_op(
        &mut scratch,
        &RuleOp::Install { chain: 2, egress: 2, epoch: 1, weights: vec![4] },
    );
    let art = site_full(scratch.export_artifact(), 3);
    let bytes = encode(&art);
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xff;
        assert!(
            decode(&bad).is_err(),
            "flipping byte {i} of {} went undetected",
            bytes.len()
        );
    }
}

/// `bytes` with the unique occurrence of `from` replaced by `to` and the
/// trailer re-computed: a hostile body that passes the checksum.
fn reseal_rewritten(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let at: Vec<usize> = (0..=bytes.len() - from.len())
        .filter(|&i| &bytes[i..i + from.len()] == from)
        .collect();
    assert_eq!(at.len(), 1, "the pattern to rewrite must occur once");
    let mut out = bytes.to_vec();
    out[at[0]..at[0] + to.len()].copy_from_slice(to);
    let body = out.len() - 8;
    let checksum = sb_artifact::fnv1a64(&out[..body]);
    out[body..].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// A receiver installs rows as carried, so the decoder — not the
/// checksum, which hostile bytes can carry — rejects bodies out of the
/// canonical order: a repeated row label pair, rows in descending order,
/// and a repeated forwarder id each decode to `Err`, while the honest
/// encoding still round-trips. A weighted choice claiming `u32::MAX`
/// targets decodes to `Err` too, without sizing a buffer for them.
#[test]
fn hostile_bodies_with_valid_checksums_are_rejected() {
    let row = |chain: u32, egress: u32| FibRow {
        labels: LabelPair::new(ChainLabel::new(chain), EgressLabel::new(egress)),
        epoch: 3,
        rules: rules_from_weights(&[1, 2]),
    };
    let share = |id: u64, rows: Vec<FibRow>| ForwarderArtifact {
        forwarder: ForwarderId::new(id),
        mode: ForwarderMode::Affinity,
        generation: 1,
        rows: rows.into(),
        label_unaware: Vec::new(),
        removed: Vec::new(),
    };
    let art = SiteArtifact {
        site: SiteId::new(7),
        epoch: 3,
        kind: ArtifactKind::Full,
        forwarders: vec![
            share(4_000_001, vec![row(1001, 66), row(1001, 77)]),
            share(4_000_002, vec![row(1002, 1)]),
        ],
    };
    let honest = encode(&art);
    assert_eq!(decode(&honest).expect("honest encoding"), art);

    let labels = |chain: u32, egress: u32| [chain.to_le_bytes(), egress.to_le_bytes()].concat();
    // The last row's label pair, epoch and `to_vnf` target count.
    let row_head = |count: u32| {
        [
            labels(1002, 1),
            3u64.to_le_bytes().to_vec(),
            count.to_le_bytes().to_vec(),
        ]
        .concat()
    };
    let ascending = "strictly ascending";
    let cases = [
        (
            "repeated row",
            reseal_rewritten(&honest, &labels(1001, 77), &labels(1001, 66)),
            ascending,
        ),
        (
            "descending rows",
            reseal_rewritten(&honest, &labels(1001, 77), &labels(1001, 55)),
            ascending,
        ),
        (
            "repeated forwarder",
            reseal_rewritten(
                &honest,
                &4_000_002u64.to_le_bytes(),
                &4_000_001u64.to_le_bytes(),
            ),
            ascending,
        ),
        (
            "huge target count",
            reseal_rewritten(&honest, &row_head(2), &row_head(u32::MAX)),
            // Rejected wherever the body stops parsing as targets.
            "artifact: ",
        ),
    ];
    for (what, bytes, expected) in cases {
        let err = decode(&bytes).expect_err(what);
        assert!(err.to_string().contains(expected), "{what}: {err}");
    }
}

/// The artifact telemetry surfaces everywhere the FIB metrics do:
/// `artifact.swaps` counts hot-swaps per forwarder and shows up in both
/// `export_json` and the windowed time-series, attributed to the window
/// the swap happened in; `artifact.bytes` / `artifact.compile_ns` land
/// in the control plane's hub at deploy time.
#[test]
fn artifact_metrics_flow_through_export_json_and_windows() {
    use switchboard::telemetry::{Telemetry, WindowConfig, WindowRoller};

    let hub = Telemetry::new();
    let mut fwd = fresh(ForwarderMode::Affinity);
    fwd.attach_telemetry(&hub, 3);
    let mut roller = WindowRoller::new(
        &hub.registry,
        &hub.clock,
        WindowConfig { width_ns: 1_000_000, capacity: 8 },
    );

    apply_rule_op(
        &mut fwd,
        &RuleOp::Install { chain: 1, egress: 1, epoch: 0, weights: vec![1, 2] },
    );
    let fa = fwd.export_artifact();
    fwd.apply_artifact(&fa, ArtifactKind::Full);
    fwd.apply_artifact(&fa, ArtifactKind::Patch);
    hub.clock.advance_ns(1_000_000);
    assert_eq!(roller.tick(), 1);

    assert!(hub.export_json().contains("artifact.swaps"));
    let window = roller.windows().back().expect("one closed window");
    assert_eq!(window.counter("artifact.swaps").delta, 2, "both swaps in the window");

    // Control-plane side: a facade deploy records compile size + latency.
    use switchboard::prelude::*;
    let (model, sites) = switchboard::scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(sb_types::Millis::new(0.1), sb_types::Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    sb.deploy_chain(ChainRequest {
        id: sb_types::ChainId::new(1),
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![sb_types::VnfId::new(0), sb_types::VnfId::new(1)],
        forward: 5.0,
        reverse: 1.0,
    })
    .unwrap();
    let snap = sb.telemetry().registry.snapshot();
    assert!(snap.counter("artifact.bytes") > 0, "compile size recorded");
    assert!(
        snap.histograms.iter().any(|(n, h)| n == "artifact.compile_ns" && h.count > 0),
        "compile latency histogram populated"
    );
}

/// The demo compile the `sb` CLI ships is deterministic end-to-end: two
/// full facade deployments yield byte-identical artifacts per site.
#[test]
fn facade_compile_is_byte_deterministic() {
    use switchboard::prelude::*;
    fn compile() -> Vec<(SiteId, Vec<u8>)> {
        let (model, sites) = switchboard::scenarios::line_testbed();
        let mut sb = Switchboard::new(
            model,
            DelayModel::uniform(sb_types::Millis::new(0.1), sb_types::Millis::new(10.0)),
            SwitchboardConfig::default(),
        );
        sb.use_passthrough_behaviors();
        sb.register_attachment("in", sites[0]);
        sb.register_attachment("out", sites[3]);
        sb.deploy_chain(ChainRequest {
            id: sb_types::ChainId::new(1),
            ingress_attachment: "in".into(),
            egress_attachment: "out".into(),
            vnfs: vec![sb_types::VnfId::new(0), sb_types::VnfId::new(1)],
            forward: 5.0,
            reverse: 1.0,
        })
        .unwrap();
        sb.artifact_sites()
            .into_iter()
            .map(|s| (s, sb.site_artifact_bytes(s).unwrap().to_vec()))
            .collect()
    }
    let a = compile();
    let b = compile();
    assert!(!a.is_empty(), "demo deploy must compile at least one site artifact");
    assert_eq!(a, b, "facade artifact bytes must be run-to-run identical");
}
