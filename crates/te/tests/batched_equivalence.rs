//! Property: the batched solver (shared scratch + cross-chain subproblem
//! cache) is *result-identical* to the sequential solver on random small
//! models — under an unbounded cache and under arbitrary eviction
//! schedules (tiny capacities force evictions at every schedule the
//! capacity admits), with and without the utilization terms.
//!
//! The cached path prices every source, while the uncached sequential
//! solver skips each source whose latency bound already loses. So the
//! batched solver is also the unpruned oracle for that skip.

use proptest::prelude::*;
use sb_te::dp::{route_chains, DpConfig};
use sb_te::{route_chains_batched, ChainSpec, NetworkModel, RoutingSolution, SubproblemCache};
use sb_topology::TopologyBuilder;
use sb_types::{ChainId, Millis, NodeId, SiteId, VnfId};
use std::collections::HashMap;

/// A random small model: 4-6 nodes in a ring with chords, sites at every
/// node, 3 VNFs with random coverage, 1-4 chains.
#[derive(Debug, Clone)]
struct RandomModel {
    nodes: usize,
    chords: Vec<(usize, usize)>,
    vnf_sites: Vec<Vec<usize>>,
    chains: Vec<(usize, usize, Vec<usize>, f64)>,
    capacity: f64,
}

fn arb_model() -> impl Strategy<Value = RandomModel> {
    (4usize..7)
        .prop_flat_map(|nodes| {
            let chord = (0..nodes, 0..nodes).prop_filter("distinct", |(a, b)| a != b);
            let vnf = prop::collection::btree_set(0..nodes, 1..=nodes.min(3))
                .prop_map(|s| s.into_iter().collect::<Vec<_>>());
            let chain = (
                0..nodes,
                0..nodes,
                prop::collection::btree_set(0usize..3, 1..=2),
                1.0..8.0f64,
            )
                .prop_map(|(i, e, vs, d)| (i, e, vs.into_iter().collect::<Vec<_>>(), d));
            (
                Just(nodes),
                prop::collection::vec(chord, 0..3),
                prop::collection::vec(vnf, 3),
                prop::collection::vec(chain, 1..4),
                50.0..200.0f64,
            )
        })
        .prop_map(|(nodes, chords, vnf_sites, chains, capacity)| RandomModel {
            nodes,
            chords,
            vnf_sites,
            chains,
            capacity,
        })
}

fn build(rm: &RandomModel) -> NetworkModel {
    let mut tb = TopologyBuilder::new();
    let nodes: Vec<NodeId> = (0..rm.nodes)
        .map(|i| tb.add_node(format!("n{i}"), (0.0, i as f64), 1.0))
        .collect();
    for i in 0..rm.nodes {
        tb.add_duplex_link(
            nodes[i],
            nodes[(i + 1) % rm.nodes],
            100.0,
            Millis::new(1.0 + i as f64),
        );
    }
    for &(a, b) in &rm.chords {
        tb.add_duplex_link(nodes[a], nodes[b], 100.0, Millis::new(2.5));
    }
    let mut b = NetworkModel::builder(tb.build());
    let sites: Vec<SiteId> = nodes.iter().map(|&n| b.add_site(n, rm.capacity)).collect();
    for placement in &rm.vnf_sites {
        let caps: HashMap<SiteId, f64> = placement
            .iter()
            .map(|&i| (sites[i], rm.capacity / 2.0))
            .collect();
        b.add_vnf(caps, 1.0);
    }
    for (ci, (ing, eg, vnfs, demand)) in rm.chains.iter().enumerate() {
        b.add_chain(ChainSpec::uniform(
            ChainId::new(ci as u64),
            nodes[*ing],
            nodes[*eg],
            vnfs.iter().map(|&v| VnfId::new(v as u32)).collect(),
            *demand,
            demand * 0.2,
        ));
    }
    b.build().expect("random model is structurally valid")
}

fn assert_solutions_equal(a: &RoutingSolution, b: &RoutingSolution) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.chains.len(), b.chains.len());
    for (x, y) in a.chains.iter().zip(&b.chains) {
        prop_assert!((x.routed - y.routed).abs() < 1e-12, "routed share diverged");
        prop_assert_eq!(x.stages.len(), y.stages.len());
        for (sa, sb) in x.stages.iter().zip(&y.stages) {
            prop_assert_eq!(sa.len(), sb.len());
            for (fa, fb) in sa.iter().zip(sb) {
                prop_assert_eq!(fa.from, fb.from);
                prop_assert_eq!(fa.to, fb.to);
                prop_assert!((fa.fraction - fb.fraction).abs() < 1e-12);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With an unbounded exact cache the batched solver returns the exact
    /// solution of the sequential solver.
    #[test]
    fn batched_equals_sequential(rm in arb_model()) {
        let model = build(&rm);
        let cfg = DpConfig::default();
        let seq = route_chains(&model, &cfg);
        let mut cache = SubproblemCache::new();
        let bat = route_chains_batched(&model, &cfg, &mut cache);
        assert_solutions_equal(&seq, &bat)?;
        let s = cache.stats();
        prop_assert!(s.hits + s.misses > 0, "cache never consulted");
    }

    /// Equality holds under ANY eviction schedule: a capacity bound makes
    /// the cache flush at arbitrary points of the solve (including
    /// capacity 0 — never caching at all), which may only cost misses.
    #[test]
    fn batched_equals_sequential_under_eviction(rm in arb_model(), cap in 0usize..48) {
        let model = build(&rm);
        let cfg = DpConfig::default();
        let seq = route_chains(&model, &cfg);
        let mut cache = SubproblemCache::with_capacity(cap);
        let bat = route_chains_batched(&model, &cfg, &mut cache);
        assert_solutions_equal(&seq, &bat)?;
    }

    /// Under DP-Latency (no utilization terms) the skip's latency bound is
    /// the exact cost, so every tie between sources goes through the skip:
    /// the pruned solver must still pick the lowest site id.
    #[test]
    fn batched_equals_sequential_latency_only(rm in arb_model()) {
        let model = build(&rm);
        let cfg = DpConfig { util_weight: 0.0 };
        let seq = route_chains(&model, &cfg);
        let mut cache = SubproblemCache::new();
        let bat = route_chains_batched(&model, &cfg, &mut cache);
        assert_solutions_equal(&seq, &bat)?;
    }
}
