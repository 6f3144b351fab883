//! Brute-force oracles for SB-DP and ONEHOP on random small models.
//!
//! SB-DP bounds each destination's sources by their latency and prices
//! only those the bound admits, each link on first read. The oracles
//! price every link up front through the public API and sum an edge in
//! the order `dp.rs` does: the latency, plus `w·Σ r·FT(u_link)`, plus
//! `w·FT(u_vnf)`.
//!
//! - The reference DP is Eq 8 as first written: every (source,
//!   destination) pair priced, sources in ascending site order, a strict
//!   `<` keeping the first of equals. Under both weightings SB-DP's
//!   paths and fractions must equal the headroom loop driven by it, bit
//!   for bit.
//! - The enumeration prices every site sequence stage by stage from the
//!   ingress. Under the utilization terms the first path SB-DP picks must
//!   cost, bit for bit, the minimum over every sequence. Path identity is
//!   not asserted: rounding can make two totals equal while one prefix is
//!   cheaper, and SB-DP keeps the cheaper prefix.
//! - Under DP-Latency every latency is a multiple of 0.5 ms, so sums are
//!   exact: the whole headroom loop, ties included, must equal the
//!   brute-force pick's.
//!
//! The batched solver (shared scratch + cross-chain transit memo) is also
//! held result-identical to the sequential one, and ONEHOP to its greedy
//! walk with every link priced up front.

use proptest::prelude::*;
use sb_netsim::queueing::fortz_thorup_cost;
use sb_te::baselines::one_hop;
use sb_te::dp::{path_coefficients, route_chain, route_chains, DpConfig, LoadTracker};
use sb_te::{
    route_chains_batched, ChainRoutes, ChainSpec, NetworkModel, RoutePath, RoutingSolution,
    SubproblemCache,
};
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

/// Every site sequence of `chain`: one deployment site of each VNF, in
/// stage order.
fn sequences(model: &NetworkModel, chain: &ChainSpec) -> Vec<Vec<SiteId>> {
    let mut out = vec![Vec::new()];
    for &vnf in &chain.vnfs {
        let sites = model.vnfs()[vnf.index()].sites();
        out = out
            .iter()
            .flat_map(|prefix| {
                sites.iter().map(move |&s| {
                    let mut seq = prefix.clone();
                    seq.push(s);
                    seq
                })
            })
            .collect();
    }
    out
}

/// Every link's Fortz-Thorup cost at its utilization on `tracker`, by
/// link id: the prices an oracle reads.
fn eager_prices(model: &NetworkModel, tracker: &LoadTracker) -> Vec<f64> {
    model
        .topology()
        .links()
        .iter()
        .map(|l| fortz_thorup_cost(tracker.link_utilization(model, l.id())))
        .collect()
}

/// SB-DP's edge cost `from → to` against `tracker` and its
/// [`eager_prices`], where `next` is the VNF placed at `to` (none at the
/// egress), summed in `dp.rs`'s order; infinite when `to` is unreachable
/// or the VNF has no capacity there.
fn hop_cost(
    model: &NetworkModel,
    tracker: &LoadTracker,
    prices: &[f64],
    w: f64,
    from: NodeId,
    to: NodeId,
    next: Option<(VnfId, SiteId)>,
) -> f64 {
    let latency = model.latency(from, to).value();
    if !latency.is_finite() {
        return f64::INFINITY;
    }
    let mut edge = latency;
    if w > 0.0 && from != to {
        let mut net = 0.0;
        for &(link, r) in model.routing().fractions_between(from, to) {
            net += r * prices[link.index()];
        }
        edge += w * net;
    }
    if let Some((vnf, site)) = next.filter(|_| w > 0.0) {
        let u = tracker.vnf_utilization(model, vnf, site);
        if u.is_infinite() {
            return f64::INFINITY;
        }
        edge += w * fortz_thorup_cost(u);
    }
    edge
}

/// SB-DP's total cost of routing `chain` along `sites` against `tracker`,
/// summed in `dp.rs`'s order; infinite when a hop is unreachable or a VNF
/// has no capacity.
fn sequence_cost(
    model: &NetworkModel,
    tracker: &LoadTracker,
    w: f64,
    chain: &ChainSpec,
    sites: &[SiteId],
) -> f64 {
    let prices = eager_prices(model, tracker);
    let mut total = 0.0;
    let mut from = chain.ingress;
    for z in 0..=sites.len() {
        let (to, next) = match sites.get(z) {
            Some(&s) => (model.site_node(s), Some((chain.vnfs[z], s))),
            None => (chain.egress, None),
        };
        let edge = hop_cost(model, tracker, &prices, w, from, to, next);
        if !edge.is_finite() {
            return f64::INFINITY;
        }
        total += edge;
        from = to;
    }
    total
}

/// Eq 8 as first written: each stage's table over every (source,
/// destination) pair, destinations and sources in ascending site order,
/// a source taking the cell only at a strictly lower finite cost. The
/// egress closes the same way; the parents give the sequence.
fn reference_pick(
    model: &NetworkModel,
    tracker: &LoadTracker,
    w: f64,
    chain: &ChainSpec,
) -> Option<Vec<SiteId>> {
    // (node, prefix cost, site, parent index in the previous frontier)
    type Cell = (NodeId, f64, Option<SiteId>, usize);
    let prices = eager_prices(model, tracker);
    let mut frontiers: Vec<Vec<Cell>> = vec![vec![(chain.ingress, 0.0, None, 0)]];
    let best = |prev: &[Cell], to: NodeId, next: Option<(VnfId, SiteId)>| {
        let mut best: Option<(f64, usize)> = None;
        for (i, &(from, base, _, _)) in prev.iter().enumerate() {
            let c = base + hop_cost(model, tracker, &prices, w, from, to, next);
            if c.is_finite() && best.is_none_or(|(b, _)| c < b) {
                best = Some((c, i));
            }
        }
        best
    };
    for &vnf in &chain.vnfs {
        let prev = frontiers.last().expect("the ingress frontier");
        let mut next = Vec::new();
        for site in model.vnfs()[vnf.index()].sites() {
            let to = model.site_node(site);
            if let Some((c, i)) = best(prev, to, Some((vnf, site))) {
                next.push((to, c, Some(site), i));
            }
        }
        if next.is_empty() {
            return None;
        }
        frontiers.push(next);
    }
    if chain.vnfs.is_empty() {
        return Some(Vec::new());
    }
    let last = frontiers.last().expect("a stage frontier");
    let (_, mut at) = best(last, chain.egress, None)?;
    let mut sites = Vec::new();
    for frontier in frontiers[1..].iter().rev() {
        let (_, _, site, parent) = frontier[at];
        sites.push(site.expect("a stage cell holds a site"));
        at = parent;
    }
    sites.reverse();
    Some(sites)
}

/// The least-cost finite sequence; ties go to the sequence that is
/// smallest comparing the last stage's site first, then the stage before.
fn brute_force_pick(
    model: &NetworkModel,
    tracker: &LoadTracker,
    w: f64,
    chain: &ChainSpec,
) -> Option<Vec<SiteId>> {
    sequences(model, chain)
        .into_iter()
        .map(|s| (sequence_cost(model, tracker, w, chain, &s), s))
        .filter(|(c, _)| c.is_finite())
        .min_by(|(ca, sa), (cb, sb)| {
            ca.total_cmp(cb)
                .then_with(|| sa.iter().rev().cmp(sb.iter().rev()))
        })
        .map(|(_, s)| s)
}

/// ONEHOP's walk with every link priced up front: from the ingress, each
/// VNF at the deployment site of least edge cost from the last stop, a
/// site taking the stage only at a strictly lower finite cost.
fn greedy_pick(
    model: &NetworkModel,
    tracker: &LoadTracker,
    w: f64,
    chain: &ChainSpec,
) -> Option<Vec<SiteId>> {
    let prices = eager_prices(model, tracker);
    let mut from = chain.ingress;
    let mut sites = Vec::new();
    for &vnf in &chain.vnfs {
        let mut best: Option<(f64, SiteId)> = None;
        for site in model.vnfs()[vnf.index()].sites() {
            let to = model.site_node(site);
            let c = hop_cost(model, tracker, &prices, w, from, to, Some((vnf, site)));
            if c.is_finite() && best.is_none_or(|(b, _)| c < b) {
                best = Some((c, site));
            }
        }
        let (_, site) = best?;
        sites.push(site);
        from = model.site_node(site);
    }
    Some(sites)
}

/// A pick of the site sequence to route next: [`brute_force_pick`],
/// [`reference_pick`] or [`greedy_pick`].
type Pick = fn(&NetworkModel, &LoadTracker, f64, &ChainSpec) -> Option<Vec<SiteId>>;

/// `route_chain`'s headroom loop with `pick` in place of the DP.
fn route_chain_by(
    pick: Pick,
    model: &NetworkModel,
    tracker: &mut LoadTracker,
    w: f64,
    chain: &ChainSpec,
) -> Vec<RoutePath> {
    const EPS: f64 = 1e-9;
    const MAX_PATHS_PER_CHAIN: usize = 64;
    let mut remaining = 1.0;
    let mut paths: Vec<RoutePath> = Vec::new();
    for _ in 0..MAX_PATHS_PER_CHAIN {
        if remaining <= EPS {
            break;
        }
        let Some(sites) = pick(model, tracker, w, chain) else {
            break;
        };
        let coefs = path_coefficients(model, chain, &sites);
        let fraction = tracker.headroom(model, &coefs).min(remaining);
        if fraction <= EPS {
            break;
        }
        tracker.apply(&coefs, fraction);
        remaining -= fraction;
        if let Some(p) = paths.iter_mut().find(|p| p.sites == sites) {
            p.fraction += fraction;
        } else {
            paths.push(RoutePath { sites, fraction });
        }
    }
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Under the utilization terms the first path SB-DP picks for each
    /// chain costs exactly the minimum over every site sequence, on the
    /// tracker the chain is solved against.
    #[test]
    fn first_pick_costs_the_enumerated_minimum(rm in arb_model()) {
        let model = build(&rm);
        let cfg = DpConfig { util_weight: 30.0 };
        let mut tracker = LoadTracker::new(&model);
        for chain in model.chains() {
            let before = tracker.clone();
            let paths = route_chain(&model, &mut tracker, &cfg, chain);
            let Some(first) = paths.first() else {
                continue;
            };
            let min = sequences(&model, chain)
                .iter()
                .map(|s| sequence_cost(&model, &before, cfg.util_weight, chain, s))
                .fold(f64::INFINITY, f64::min);
            let picked = sequence_cost(&model, &before, cfg.util_weight, chain, &first.sites);
            prop_assert_eq!(
                picked.to_bits(),
                min.to_bits(),
                "chain {:?} picked {:?} at {} but the minimum is {}",
                chain.id,
                first.sites,
                picked,
                min
            );
        }
    }

    /// Under DP-Latency SB-DP's paths and fractions are bit-identical to
    /// the headroom loop driven by the brute-force pick.
    #[test]
    fn latency_only_routes_equal_enumeration(rm in arb_model()) {
        let model = build(&rm);
        let cfg = DpConfig { util_weight: 0.0 };
        let mut dp_tracker = LoadTracker::new(&model);
        let mut bf_tracker = LoadTracker::new(&model);
        for chain in model.chains() {
            let dp = route_chain(&model, &mut dp_tracker, &cfg, chain);
            let bf = route_chain_by(
                brute_force_pick,
                &model,
                &mut bf_tracker,
                cfg.util_weight,
                chain,
            );
            assert_paths_equal(&dp, &bf)?;
        }
    }

    /// Under both weightings SB-DP's paths and fractions are bit-identical
    /// to the headroom loop driven by the unpruned reference DP, so the
    /// cost-ordered walk, its stop and its skip change no choice.
    #[test]
    fn routes_equal_the_unpruned_reference_dp(rm in arb_model()) {
        let model = build(&rm);
        for cfg in [DpConfig::default(), DpConfig { util_weight: 0.0 }] {
            let mut dp_tracker = LoadTracker::new(&model);
            let mut ref_tracker = LoadTracker::new(&model);
            for chain in model.chains() {
                let dp = route_chain(&model, &mut dp_tracker, &cfg, chain);
                let w = cfg.util_weight;
                let reference = route_chain_by(reference_pick, &model, &mut ref_tracker, w, chain);
                assert_paths_equal(&dp, &reference)?;
            }
        }
    }

    /// Under both weightings ONEHOP's routes equal the headroom loop
    /// driven by its greedy walk with every link priced up front.
    #[test]
    fn one_hop_equals_the_eagerly_priced_walk(rm in arb_model()) {
        let model = build(&rm);
        for cfg in [DpConfig::default(), DpConfig { util_weight: 0.0 }] {
            let mut tracker = LoadTracker::new(&model);
            let chains = model
                .chains()
                .iter()
                .map(|chain| {
                    let w = cfg.util_weight;
                    let paths = route_chain_by(greedy_pick, &model, &mut tracker, w, chain);
                    ChainRoutes::from_paths(&model, chain, &paths)
                })
                .collect();
            assert_solutions_equal(&one_hop(&model, &cfg), &RoutingSolution { chains })?;
        }
    }
}

fn assert_paths_equal(a: &[RoutePath], b: &[RoutePath]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(&x.sites, &y.sites);
        prop_assert_eq!(x.fraction.to_bits(), y.fraction.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With the exact cache the batched solver returns the exact solution
    /// of the sequential solver.
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
