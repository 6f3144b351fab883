//! SB-DP: the dynamic-programming routing heuristic (Section 4.4).
//!
//! For each chain the algorithm builds the table `E(z, s)` — the least cost
//! of a route prefix ending with the `z`-th VNF placed at site `s` — by the
//! induction of Eq 8, where the edge cost `cost(s, z, s')` is the sum of:
//!
//! - the propagation latency `s → s'`;
//! - the *network utilization cost*: the Fortz-Thorup convex cost of each
//!   link that routes `s → s'` traffic, weighted by the fraction of traffic
//!   it carries (`r_{ss'e}`);
//! - the *compute utilization cost*: the Fortz-Thorup cost of the next
//!   VNF's utilization at `s'`.
//!
//! After extracting the least-cost site sequence, the algorithm allocates
//! as much of the chain's remaining demand as the path's bottleneck (link
//! or compute) permits, updates the load state, and repeats "until the
//! routes for all the traffic for the chain is computed" — or no path has
//! headroom, leaving the chain partially routed.
//!
//! Chains are processed sequentially against a shared [`LoadTracker`], so
//! later chains see the load earlier chains placed. The same tracker backs
//! the baselines in [`crate::baselines`], keeping accounting identical
//! across schemes.
//!
//! Loads only change between passes, so a pass prices each link at most
//! once, the first time a relaxation reads it: the network term sums
//! `r · price[link]` over a dense per-link vector of Fortz-Thorup costs.
//! A pass relaxes each destination in two passes over its sources. The
//! first computes every source's latency bound `base +
//! (latency + compute)` from one contiguous row of latencies to the
//! destination; the network term is never negative, so no source costs
//! less. The second prices only the sources whose bound is below the best
//! cost found, or equal to it at a lower position. The answer and its
//! tie-breaks are the same as pricing every source in ascending site
//! order. The (VNF, site) loads are a dense vector, and each VNF's
//! deployments come sorted from the model. A [`SubproblemCache`] passed
//! in changes only where a transit cost comes from: its memo keeps each
//! node pair's transit cost, and each link's price, until a load they
//! read changes.

use crate::batch::SubproblemCache;
use crate::model::{ChainSpec, NetworkModel, Place};
use crate::route::{ChainRoutes, RoutePath, RoutingSolution};
use sb_netsim::queueing::fortz_thorup_cost;
use sb_types::{LinkId, SiteId, VnfId};
use std::collections::HashMap;

const EPS: f64 = 1e-9;

/// Tuning knobs of the DP cost function.
#[derive(Debug, Clone)]
pub struct DpConfig {
    /// Weight (in milliseconds per unit Fortz-Thorup cost) of the network
    /// and compute utilization terms relative to propagation latency. Zero
    /// turns SB-DP into the DP-Latency variant of Figure 13a.
    pub util_weight: f64,
}

/// Cap on extracted paths per chain (defensive; the headroom loop
/// terminates on its own in practice).
pub(crate) const MAX_PATHS_PER_CHAIN: usize = 64;

impl Default for DpConfig {
    fn default() -> Self {
        Self {
            util_weight: 30.0,
        }
    }
}

/// Residual-load accounting shared by the sequential schemes.
#[derive(Debug)]
pub struct LoadTracker {
    /// Chain traffic placed on each link so far.
    pub link_load: Vec<f64>,
    /// Compute load placed at each site so far.
    pub site_load: Vec<f64>,
    /// Compute load per (VNF, site), dense:
    /// `vnf_site_load[vnf * num_sites + site]`.
    vnf_site_load: Vec<f64>,
    /// Site count of the model the tracker was sized for.
    num_sites: usize,
}

impl Clone for LoadTracker {
    fn clone(&self) -> Self {
        Self {
            link_load: self.link_load.clone(),
            site_load: self.site_load.clone(),
            vnf_site_load: self.vnf_site_load.clone(),
            num_sites: self.num_sites,
        }
    }

    /// Copies `source` into the tracker's own buffers: a trial copy per
    /// solve allocates nothing once the buffers have grown.
    fn clone_from(&mut self, source: &Self) {
        self.link_load.clone_from(&source.link_load);
        self.site_load.clone_from(&source.site_load);
        self.vnf_site_load.clone_from(&source.vnf_site_load);
        self.num_sites = source.num_sites;
    }
}

impl LoadTracker {
    /// A tracker with no load placed.
    #[must_use]
    pub fn new(model: &NetworkModel) -> Self {
        let num_sites = model.num_sites();
        Self {
            link_load: vec![0.0; model.topology().num_links()],
            site_load: vec![0.0; num_sites],
            vnf_site_load: vec![0.0; model.vnfs().len() * num_sites],
            num_sites,
        }
    }

    /// Compute load placed on `vnf` at `site` so far (0 where none was).
    #[must_use]
    pub fn vnf_site_load(&self, vnf: VnfId, site: SiteId) -> f64 {
        self.vnf_site_load[self.vnf_site(vnf, site)]
    }

    /// The dense index of `(vnf, site)`.
    fn vnf_site(&self, vnf: VnfId, site: SiteId) -> usize {
        vnf.index() * self.num_sites + site.index()
    }

    /// Current utilization of `link` including background traffic.
    #[must_use]
    pub fn link_utilization(&self, model: &NetworkModel, link: LinkId) -> f64 {
        let l = model.topology().links()[link.index()].bandwidth();
        (self.link_load[link.index()] + model.background(link)) / l
    }

    /// Current utilization of `vnf` at `site` (0 when not deployed).
    #[must_use]
    pub fn vnf_utilization(&self, model: &NetworkModel, vnf: VnfId, site: SiteId) -> f64 {
        let cap = model.vnfs()[vnf.index()]
            .site_capacity
            .get(&site)
            .copied()
            .unwrap_or(0.0);
        self.vnf_utilization_at(vnf, site, cap)
    }

    /// [`vnf_utilization`](Self::vnf_utilization) with the deployment's
    /// capacity `cap` already looked up (infinite when `cap ≤ 0`).
    fn vnf_utilization_at(&self, vnf: VnfId, site: SiteId, cap: f64) -> f64 {
        if cap <= 0.0 {
            return f64::INFINITY;
        }
        self.vnf_site_load(vnf, site) / cap
    }

    /// Largest extra fraction of `chain`'s demand the path can carry given
    /// residual link, site and VNF capacities.
    #[must_use]
    pub fn headroom(&self, model: &NetworkModel, coefs: &PathCoefs) -> f64 {
        let mut h = f64::INFINITY;
        for (&link, &coef) in &coefs.links {
            if coef > EPS {
                let l = &model.topology().links()[link.index()];
                let budget = model.mlu() * l.bandwidth()
                    - model.background(link)
                    - self.link_load[link.index()];
                h = h.min((budget / coef).max(0.0));
            }
        }
        for (&site, &coef) in &coefs.sites {
            if coef > EPS {
                let budget = model.site_capacity(site) - self.site_load[site.index()];
                h = h.min((budget / coef).max(0.0));
            }
        }
        for (&(vnf, site), &coef) in &coefs.vnf_sites {
            if coef > EPS {
                let cap = model.vnfs()[vnf.index()]
                    .site_capacity
                    .get(&site)
                    .copied()
                    .unwrap_or(0.0);
                let used = self.vnf_site_load(vnf, site);
                h = h.min(((cap - used) / coef).max(0.0));
            }
        }
        h
    }

    /// Applies `fraction` of the path's demand to the tracked loads.
    pub fn apply(&mut self, coefs: &PathCoefs, fraction: f64) {
        for (&link, &coef) in &coefs.links {
            self.link_load[link.index()] += coef * fraction;
        }
        for (&site, &coef) in &coefs.sites {
            self.site_load[site.index()] += coef * fraction;
        }
        for (&(vnf, site), &coef) in &coefs.vnf_sites {
            let i = self.vnf_site(vnf, site);
            self.vnf_site_load[i] += coef * fraction;
        }
    }
}

/// Per-unit-fraction resource coefficients of one candidate path.
#[derive(Debug, Clone, Default)]
pub struct PathCoefs {
    /// Link traffic per unit fraction.
    pub links: HashMap<LinkId, f64>,
    /// Site compute load per unit fraction.
    pub sites: HashMap<SiteId, f64>,
    /// (VNF, site) compute load per unit fraction.
    pub vnf_sites: HashMap<(VnfId, SiteId), f64>,
}

/// Computes the resource coefficients of routing one unit fraction of
/// `chain`'s demand along `sites` (one site per VNF). Accounting matches
/// [`crate::eval::Evaluation`] exactly.
#[must_use]
pub fn path_coefficients(model: &NetworkModel, chain: &ChainSpec, sites: &[SiteId]) -> PathCoefs {
    assert_eq!(sites.len(), chain.vnfs.len(), "path arity mismatch");
    let mut coefs = PathCoefs::default();
    for z in 0..chain.num_stages() {
        let from = if z == 0 {
            Place::node(chain.ingress)
        } else {
            Place::site(model.site_node(sites[z - 1]), sites[z - 1])
        };
        let to = if z == chain.num_stages() - 1 {
            Place::node(chain.egress)
        } else {
            Place::site(model.site_node(sites[z]), sites[z])
        };
        let w = chain.forward[z];
        let v = chain.reverse[z];
        if from.node != to.node {
            for &(link, r) in model.routing().fractions_between(from.node, to.node) {
                *coefs.links.entry(link).or_insert(0.0) += w * r;
            }
            for &(link, r) in model.routing().fractions_between(to.node, from.node) {
                *coefs.links.entry(link).or_insert(0.0) += v * r;
            }
        }
        let combined = w + v;
        if let Some(site) = to.site {
            let vnf = chain.vnfs[z];
            let lf = model.vnfs()[vnf.index()].load_per_unit;
            *coefs.sites.entry(site).or_insert(0.0) += lf * combined;
            *coefs.vnf_sites.entry((vnf, site)).or_insert(0.0) += lf * combined;
        }
        if let Some(site) = from.site {
            let vnf = chain.vnfs[z - 1];
            let lf = model.vnfs()[vnf.index()].load_per_unit;
            *coefs.sites.entry(site).or_insert(0.0) += lf * combined;
            *coefs.vnf_sites.entry((vnf, site)).or_insert(0.0) += lf * combined;
        }
    }
    coefs
}

/// `link`'s Fortz-Thorup cost at its current utilization: the factor the
/// network term weights by `r_{ss'e}`. It is read from `prices` (indexed
/// by link id), and priced there on first read (`NaN` = not yet priced).
pub(crate) fn link_price(
    model: &NetworkModel,
    tracker: &LoadTracker,
    prices: &mut [f64],
    link: LinkId,
) -> f64 {
    let price = &mut prices[link.index()];
    if price.is_nan() {
        *price = fortz_thorup_cost(tracker.link_utilization(model, link));
    }
    *price
}

/// The part of the DP edge cost `cost(s, z, s')` of Section 4.4 that
/// depends on both endpoints: propagation latency plus weighted network
/// utilization cost `from → to`, infinite when `to` is unreachable.
/// `price` gives a link's Fortz-Thorup cost; it is called only when
/// `util_weight > 0`.
///
/// Never below the latency: `r ≥ 0` and every price is `≥ 0`, so the
/// network term is non-negative. [`cheapest_source`] relies on that bound.
pub(crate) fn transit_cost(
    model: &NetworkModel,
    config: &DpConfig,
    from: Place,
    to: Place,
    mut price: impl FnMut(LinkId) -> f64,
) -> f64 {
    let latency = model.latency(from.node, to.node).value();
    if !latency.is_finite() {
        return f64::INFINITY;
    }
    let mut cost = latency;
    if config.util_weight > 0.0 && from.node != to.node {
        let mut net = 0.0;
        for &(link, r) in model.routing().fractions_between(from.node, to.node) {
            net += r * price(link);
        }
        cost += config.util_weight * net;
    }
    cost
}

/// The part of the edge cost that depends on the destination alone: the
/// weighted compute utilization cost of `vnf` at `site`, whose capacity
/// there is `cap`; infinite where the VNF has no capacity, zero without a
/// utilization weight.
pub(crate) fn compute_cost(
    tracker: &LoadTracker,
    config: &DpConfig,
    vnf: VnfId,
    site: SiteId,
    cap: f64,
) -> f64 {
    if config.util_weight <= 0.0 {
        return 0.0;
    }
    let u = tracker.vnf_utilization_at(vnf, site, cap);
    if u.is_infinite() {
        f64::INFINITY
    } else {
        config.util_weight * fortz_thorup_cost(u)
    }
}

/// One relaxed cell of Eq 8's table `E(z, s)`: where the stage's VNF
/// sits, the least cost of a route prefix ending there, and the position
/// of that prefix's previous stop in the previous stage's frontier.
#[derive(Debug, Clone, Copy)]
struct Cell {
    at: Place,
    cost: f64,
    parent: usize,
}

/// Reusable SB-DP workspace: the per-stage tables [`route_chain`] needs,
/// hoisted out of the solver so the batched entry points and the
/// controller allocate them once instead of once per stage per chain.
#[derive(Debug, Default)]
pub struct DpScratch {
    /// Per-stage frontiers: `frontiers[z + 1]` holds the relaxed cells of
    /// the `z`-th VNF in ascending site order (Eq 8's `E(z, s)` with
    /// backpointers, the deterministic tie-break order); `frontiers[0]`
    /// is the ingress alone.
    frontiers: Vec<Vec<Cell>>,
    /// Per-link Fortz-Thorup prices of the current pass, `NaN` until a
    /// relaxation first reads the link.
    prices: Vec<f64>,
    /// The current destination's latency bound of each frontier source.
    bounds: Vec<f64>,
}

impl DpScratch {
    /// A fresh, empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the frontiers for one pass over a chain of `stages` VNFs
    /// and seeds the first with the ingress, reusing every previously
    /// grown allocation.
    fn reset(&mut self, chain: &ChainSpec) {
        let stages = chain.vnfs.len();
        if self.frontiers.len() <= stages {
            self.frontiers.resize_with(stages + 1, Vec::new);
        }
        for frontier in &mut self.frontiers[..=stages] {
            frontier.clear();
        }
        self.frontiers[0].push(Cell {
            at: Place::node(chain.ingress),
            cost: 0.0,
            parent: 0,
        });
    }
}

/// A pass's view of the cost function: a link is priced on first read,
/// so a pass prices the links its relaxations cross, once each, and no
/// other. With a `memo`, transit costs and link prices come from the
/// [`SubproblemCache`], which keeps them until a load they read changes.
pub(crate) struct Pricer<'a> {
    model: &'a NetworkModel,
    tracker: &'a LoadTracker,
    config: &'a DpConfig,
    prices: &'a mut [f64],
    memo: Option<&'a mut SubproblemCache>,
}

impl<'a> Pricer<'a> {
    /// A pricer against `tracker` that has priced no link yet, reusing
    /// the `prices` buffer.
    pub(crate) fn new(
        model: &'a NetworkModel,
        tracker: &'a LoadTracker,
        config: &'a DpConfig,
        prices: &'a mut Vec<f64>,
        memo: Option<&'a mut SubproblemCache>,
    ) -> Self {
        prices.clear();
        if config.util_weight > 0.0 {
            prices.resize(model.topology().num_links(), f64::NAN);
        }
        Self {
            model,
            tracker,
            config,
            prices,
            memo,
        }
    }

    /// `base + (transit + compute)` of reaching `to` from `from`.
    pub(crate) fn cost(&mut self, from: Place, base: f64, to: Place, compute: f64) -> f64 {
        let Self {
            model,
            tracker,
            config,
            prices,
            memo,
        } = self;
        let transit = match memo {
            Some(memo) => memo.transit(model, tracker, config, from, to),
            None => transit_cost(model, config, from, to, |link| {
                link_price(model, tracker, prices, link)
            }),
        };
        base + (transit + compute)
    }
}

/// Runs the DP of Eq 8 once for `chain` against the current loads and
/// returns the least-cost site sequence, or `None` when no VNF of the
/// chain has any deployment reachable from the ingress.
///
/// Each destination takes the source of least cost, the lowest site id
/// on a tie: [`cheapest_source`] finds it in two passes over the frontier
/// and prices only the sources their latency bound admits. Transit costs
/// go through `memo` when one is supplied (see [`crate::batch`]); a kept
/// cost is bit-identical to a fresh one, so the result is the same either
/// way. `tests/sbdp_oracle.rs` holds the pass to an unpruned scan over
/// every (source, destination) pair and to an enumeration of every site
/// sequence.
fn best_path(
    model: &NetworkModel,
    tracker: &LoadTracker,
    config: &DpConfig,
    chain: &ChainSpec,
    scratch: &mut DpScratch,
    memo: Option<&mut SubproblemCache>,
) -> Option<Vec<SiteId>> {
    scratch.reset(chain);
    let DpScratch {
        frontiers,
        prices,
        bounds,
    } = scratch;
    let mut pricer = Pricer::new(model, tracker, config, prices, memo);

    for (z, &vnf_id) in chain.vnfs.iter().enumerate() {
        let (done, rest) = frontiers.split_at_mut(z + 1);
        let (prev, next) = (&done[z], &mut rest[0]);
        for &(site, cap) in model.deployments(vnf_id) {
            let to = Place::site(model.site_node(site), site);
            // The destination's compute term is priced once here, not
            // once per source.
            let compute = compute_cost(tracker, config, vnf_id, site, cap);
            if let Some((cost, parent)) = cheapest_source(&mut pricer, bounds, prev, to, compute) {
                next.push(Cell {
                    at: to,
                    cost,
                    parent,
                });
            }
        }
        if next.is_empty() {
            return None;
        }
    }

    // Close to the egress, which has no VNF.
    let egress = Place::node(chain.egress);
    let last = &frontiers[chain.vnfs.len()];
    let best_last = cheapest_source(&mut pricer, bounds, last, egress, 0.0);
    if chain.vnfs.is_empty() {
        // Chains without VNFs route directly ingress -> egress.
        return Some(Vec::new());
    }
    let (_, mut i) = best_last?;
    // Backtrack parents.
    let mut sites = Vec::with_capacity(chain.vnfs.len());
    for frontier in frontiers[1..=chain.vnfs.len()].iter().rev() {
        let cell = frontier[i];
        sites.push(cell.at.site.expect("a VNF stage's cells are sites"));
        i = cell.parent;
    }
    sites.reverse();
    Some(sites)
}

/// The source of `prev` (by position) that reaches `to` at least cost,
/// `base + (transit + compute)`, and that cost: the lowest position among
/// equals, which is the lowest site id. `None` when no source reaches
/// `to` at a finite cost.
///
/// Two passes over the frontier. The first, branch-light, fills `bounds`
/// with each source's latency bound `base + (latency + compute)`, reading
/// the one contiguous row of latencies to `to`, and keeps the lowest
/// bound's position (the first of equals). [`transit_cost`] is never
/// below the latency and float addition is monotone, so no source costs
/// less than its bound. The second prices that source first, then only
/// the sources whose bound is below the best cost `b`, or equals it at a
/// lower position than the best's: any other costs more than `b`, or ties
/// it from a higher position. A priced source wins with `c < b`, or
/// `c == b` at a lower position — a source co-located with `to` has zero
/// transit, so its bound is exact and can tie `b` from below. The answer,
/// tie-break included, is the unpruned scan's.
fn cheapest_source(
    pricer: &mut Pricer<'_>,
    bounds: &mut Vec<f64>,
    prev: &[Cell],
    to: Place,
    compute: f64,
) -> Option<(f64, usize)> {
    if compute.is_infinite() {
        return None;
    }
    let latencies = pricer.model.routing().latencies_to(to.node);
    bounds.clear();
    let (mut lowest, mut first) = (f64::INFINITY, 0);
    for (i, c) in prev.iter().enumerate() {
        let bound = c.cost + (latencies[c.at.node.index()] + compute);
        bounds.push(bound);
        let lower = bound < lowest;
        lowest = if lower { bound } else { lowest };
        first = if lower { i } else { first };
    }

    // `(b, at)` is the best so far; `b` stays infinite until a source
    // reaches `to` at a finite cost.
    let (mut b, mut at) = (f64::INFINITY, first);
    let mut price = |i: usize, b: &mut f64, at: &mut usize| {
        let c = pricer.cost(prev[i].at, prev[i].cost, to, compute);
        if c < *b || (c == *b && i < *at) {
            (*b, *at) = (c, i);
        }
    };
    price(first, &mut b, &mut at);
    for (i, &bound) in bounds.iter().enumerate() {
        if i != first && (bound < b || (bound == b && i < at)) {
            price(i, &mut b, &mut at);
        }
    }
    b.is_finite().then_some((b, at))
}

/// Routes one chain with SB-DP against `tracker`, mutating the tracker and
/// returning the extracted paths.
#[must_use]
pub fn route_chain(
    model: &NetworkModel,
    tracker: &mut LoadTracker,
    config: &DpConfig,
    chain: &ChainSpec,
) -> Vec<RoutePath> {
    route_chain_with(model, tracker, config, chain, &mut DpScratch::new(), None)
}

/// [`route_chain`] with caller-supplied workspaces: `scratch` is reused
/// across calls (O(1) allocations per chain once grown), and transit costs
/// go through `cache`'s memo when one is supplied. Every load the call
/// places is reported to the cache, so a kept cost is always the fresh one
/// — results are identical to [`route_chain`].
#[must_use]
pub fn route_chain_with(
    model: &NetworkModel,
    tracker: &mut LoadTracker,
    config: &DpConfig,
    chain: &ChainSpec,
    scratch: &mut DpScratch,
    mut cache: Option<&mut SubproblemCache>,
) -> Vec<RoutePath> {
    let mut remaining = 1.0;
    let mut paths: Vec<RoutePath> = Vec::new();
    for _ in 0..MAX_PATHS_PER_CHAIN {
        if remaining <= EPS {
            break;
        }
        let Some(sites) = best_path(model, tracker, config, chain, scratch, cache.as_deref_mut())
        else {
            break;
        };
        let coefs = path_coefficients(model, chain, &sites);
        let headroom = tracker.headroom(model, &coefs);
        let fraction = headroom.min(remaining);
        if fraction <= EPS {
            break;
        }
        tracker.apply(&coefs, fraction);
        if let Some(c) = cache.as_deref_mut() {
            c.note_apply(&coefs);
        }
        remaining -= fraction;
        // Merge with an existing identical path if the DP re-picks it.
        if let Some(p) = paths.iter_mut().find(|p| p.sites == sites) {
            p.fraction += fraction;
            // The same path can only be re-picked when its bottleneck was
            // not yet tight; if it is picked twice at zero incremental
            // headroom we would have broken out above.
        } else {
            paths.push(RoutePath { sites, fraction });
        }
    }
    paths
}

/// Routes all chains sequentially with SB-DP (or DP-Latency when
/// `config.util_weight == 0`).
#[must_use]
pub fn route_chains(model: &NetworkModel, config: &DpConfig) -> RoutingSolution {
    route_chains_with(model, config, None)
}

/// Routes all chains in order against one tracker, through one reused
/// [`DpScratch`] and `cache` when one is supplied.
pub(crate) fn route_chains_with(
    model: &NetworkModel,
    config: &DpConfig,
    mut cache: Option<&mut SubproblemCache>,
) -> RoutingSolution {
    let mut tracker = LoadTracker::new(model);
    let mut scratch = DpScratch::new();
    let chains = model
        .chains()
        .iter()
        .map(|c| {
            let cache = cache.as_deref_mut();
            let paths = route_chain_with(model, &mut tracker, config, c, &mut scratch, cache);
            ChainRoutes::from_paths(model, c, &paths)
        })
        .collect();
    RoutingSolution { chains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluation;
    use crate::model::testutil::line_model;
    use sb_types::{ChainId, Millis, NodeId};
    use std::collections::HashMap as Map;

    #[test]
    fn dp_routes_full_demand_when_capacity_allows() {
        let m = line_model();
        let sol = route_chains(&m, &DpConfig::default());
        assert!((sol.chains[0].routed - 1.0).abs() < 1e-9);
        assert!(sol.chains[0].is_conserved(1e-9));
        let e = Evaluation::of(&m, &sol);
        assert!(e.is_feasible(&m, 1e-6));
    }

    #[test]
    fn dp_splits_across_sites_under_pressure() {
        // One site cannot hold the tripled demand; DP must emit >= 2 paths.
        let m = line_model().with_scaled_traffic(3.0);
        let sol = route_chains(&m, &DpConfig::default());
        assert!((sol.chains[0].routed - 1.0).abs() < 1e-6, "{}", sol.chains[0].routed);
        let paths = sol.chains[0].decompose(&m.chains()[0]);
        assert!(paths.len() >= 2, "{paths:?}");
        let e = Evaluation::of(&m, &sol);
        assert!(e.is_feasible(&m, 1e-6));
    }

    #[test]
    fn dp_reports_partial_routing_when_saturated() {
        let m = line_model().with_scaled_traffic(100.0);
        let sol = route_chains(&m, &DpConfig::default());
        let routed = sol.chains[0].routed;
        // Total VNF capacity 100; load per unit demand >= 24 at scale 1, so
        // at scale 100 only ~100/2400 of demand fits.
        assert!(routed > 0.0 && routed < 0.1, "{routed}");
        let e = Evaluation::of(&m, &sol);
        assert!(e.is_feasible(&m, 1e-6));
    }

    #[test]
    fn dp_latency_variant_ignores_load() {
        // Two sites, one close and loaded, one far and empty: DP-Latency
        // keeps hammering the close one; SB-DP eventually spreads.
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("in", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("near", (0.0, 1.0), 1.0);
        let n2 = tb.add_node("far", (0.0, 2.0), 1.0);
        let n3 = tb.add_node("out", (0.0, 3.0), 1.0);
        tb.add_duplex_link(n0, n1, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n0, n2, 1000.0, Millis::new(20.0));
        tb.add_duplex_link(n1, n3, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n2, n3, 1000.0, Millis::new(20.0));
        let mut b = NetworkModel::builder(tb.build());
        let near = b.add_site(n1, 1e6);
        let far = b.add_site(n2, 1e6);
        // Capacity 50 per site: 10 chains of load 4 would drive the near
        // site to 80% utilization, deep into the steep Fortz-Thorup region,
        // so SB-DP diverts the tail chains while DP-Latency keeps piling on.
        let vnf = b.add_vnf(Map::from([(near, 50.0), (far, 50.0)]), 1.0);
        for i in 0..10 {
            b.add_chain(ChainSpec::uniform(
                ChainId::new(i),
                n0,
                n3,
                vec![vnf],
                2.0,
                0.0,
            ));
        }
        let m = b.build().unwrap();

        let latency_only = route_chains(&m, &DpConfig { util_weight: 0.0 });
        let full = route_chains(&m, &DpConfig::default());

        let near_load =
            |sol: &RoutingSolution| Evaluation::of(&m, sol).vnf_site_load
                .get(&(vnf, near))
                .copied()
                .unwrap_or(0.0);
        // DP-Latency loads the near site strictly more than SB-DP does.
        assert!(
            near_load(&latency_only) > near_load(&full),
            "latency-only {} vs full {}",
            near_load(&latency_only),
            near_load(&full)
        );
    }

    #[test]
    fn exact_ties_go_to_the_lowest_site_id() {
        // Mirror-image sites 0 and 1 reach site 2 (and node n3) at exactly
        // equal cost, so both the stage relaxation and the egress close see
        // a tie that the latency-bound pruning must leave to the first
        // source.
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("in", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("left", (-1.0, 1.0), 1.0);
        let n2 = tb.add_node("right", (1.0, 1.0), 1.0);
        let n3 = tb.add_node("join", (0.0, 2.0), 1.0);
        tb.add_duplex_link(n0, n1, 1000.0, Millis::new(2.0));
        tb.add_duplex_link(n0, n2, 1000.0, Millis::new(2.0));
        tb.add_duplex_link(n1, n3, 1000.0, Millis::new(3.0));
        tb.add_duplex_link(n2, n3, 1000.0, Millis::new(3.0));
        let mut b = NetworkModel::builder(tb.build());
        let s0 = b.add_site(n1, 100.0);
        let s1 = b.add_site(n2, 100.0);
        let s2 = b.add_site(n3, 100.0);
        let mirrored = b.add_vnf(Map::from([(s0, 50.0), (s1, 50.0)]), 1.0);
        let joined = b.add_vnf(Map::from([(s2, 50.0)]), 1.0);
        let m = b.build().unwrap();
        let egress_tie = ChainSpec::uniform(ChainId::new(0), n0, n3, vec![mirrored], 1.0, 0.5);
        let stage_tie =
            ChainSpec::uniform(ChainId::new(1), n0, n3, vec![mirrored, joined], 1.0, 0.5);
        for config in [DpConfig::default(), DpConfig { util_weight: 0.0 }] {
            for (chain, want) in [(&egress_tie, vec![s0]), (&stage_tie, vec![s0, s2])] {
                let paths = route_chain(&m, &mut LoadTracker::new(&m), &config, chain);
                assert_eq!(paths.len(), 1, "{config:?}: {paths:?}");
                assert_eq!(paths[0].sites, want, "{config:?}: chain {}", chain.id);
            }
        }
    }

    #[test]
    fn a_tie_goes_to_the_lower_id_even_from_a_dearer_prefix() {
        // Site 0 costs 3 ms from the ingress, site 1 costs 1 ms, and both
        // reach the join at 4 ms in total: equal bounds, equal costs.
        // Site 0's equal total must take the cell.
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("in", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("far", (-1.0, 1.0), 1.0);
        let n2 = tb.add_node("near", (1.0, 1.0), 1.0);
        let n3 = tb.add_node("join", (0.0, 2.0), 1.0);
        tb.add_duplex_link(n0, n1, 1000.0, Millis::new(3.0));
        tb.add_duplex_link(n0, n2, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n1, n3, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n2, n3, 1000.0, Millis::new(3.0));
        let mut b = NetworkModel::builder(tb.build());
        let s0 = b.add_site(n1, 100.0);
        let s1 = b.add_site(n2, 100.0);
        let s2 = b.add_site(n3, 100.0);
        let split = b.add_vnf(Map::from([(s0, 50.0), (s1, 50.0)]), 1.0);
        let joined = b.add_vnf(Map::from([(s2, 50.0)]), 1.0);
        let m = b.build().unwrap();
        let egress_tie = ChainSpec::uniform(ChainId::new(0), n0, n3, vec![split], 1.0, 0.5);
        let stage_tie = ChainSpec::uniform(ChainId::new(1), n0, n3, vec![split, joined], 1.0, 0.5);
        for config in [DpConfig::default(), DpConfig { util_weight: 0.0 }] {
            for (chain, want) in [(&egress_tie, vec![s0]), (&stage_tie, vec![s0, s2])] {
                let paths = route_chain(&m, &mut LoadTracker::new(&m), &config, chain);
                assert_eq!(paths.len(), 1, "{config:?}: {paths:?}");
                assert_eq!(paths[0].sites, want, "{config:?}: chain {}", chain.id);
            }
        }
    }

    #[test]
    fn a_co_located_source_ties_at_its_exact_bound() {
        // Site 1 (1 ms from the ingress) reaches site 0 at 4 ms. Site 0
        // itself costs 4 ms from the ingress and is zero transit from
        // itself, so its bound is its exact cost and equals the best:
        // pruning it would hand the tie to the higher id.
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("in", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("hub", (0.0, 2.0), 1.0);
        let n2 = tb.add_node("relay", (0.0, 1.0), 1.0);
        tb.add_duplex_link(n0, n2, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n2, n1, 1000.0, Millis::new(3.0));
        let mut b = NetworkModel::builder(tb.build());
        let s0 = b.add_site(n1, 100.0);
        let s1 = b.add_site(n2, 100.0);
        let first = b.add_vnf(Map::from([(s0, 50.0), (s1, 50.0)]), 1.0);
        let second = b.add_vnf(Map::from([(s0, 50.0)]), 1.0);
        let m = b.build().unwrap();
        let chain = ChainSpec::uniform(ChainId::new(0), n0, n1, vec![first, second], 1.0, 0.5);
        for config in [DpConfig::default(), DpConfig { util_weight: 0.0 }] {
            let paths = route_chain(&m, &mut LoadTracker::new(&m), &config, &chain);
            assert_eq!(paths.len(), 1, "{config:?}: {paths:?}");
            assert_eq!(paths[0].sites, vec![s0, s0], "{config:?}");
        }
    }

    /// The ingress reaches sites 0 (`left`) and 1 (`right`) in 1 ms each;
    /// they reach site 2 at the join in 1 ms and `right_ms`. The
    /// left → join link carries 250 of background on 1 000 of bandwidth:
    /// a Fortz-Thorup cost of 0.25, which the default weight of 30 prices
    /// at exactly 7.5 ms on top of the latency. The chain places one VNF
    /// at site 0 or 1, then one at site 2, and leaves from the join.
    fn loaded_diamond(right_ms: f64) -> (NetworkModel, ChainSpec, [SiteId; 3]) {
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("in", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("left", (-1.0, 1.0), 1.0);
        let n2 = tb.add_node("right", (1.0, 1.0), 1.0);
        let n3 = tb.add_node("join", (0.0, 2.0), 1.0);
        tb.add_duplex_link(n0, n1, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n0, n2, 1000.0, Millis::new(1.0));
        let (loaded, _) = tb.add_duplex_link(n1, n3, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n2, n3, 1000.0, Millis::new(right_ms));
        let mut b = NetworkModel::builder(tb.build());
        b.set_background(loaded, 250.0);
        let s0 = b.add_site(n1, 100.0);
        let s1 = b.add_site(n2, 100.0);
        let s2 = b.add_site(n3, 100.0);
        let split = b.add_vnf(Map::from([(s0, 50.0), (s1, 50.0)]), 1.0);
        let joined = b.add_vnf(Map::from([(s2, 50.0)]), 1.0);
        let chain = ChainSpec::uniform(ChainId::new(0), n0, n3, vec![split, joined], 1.0, 0.5);
        (b.build().unwrap(), chain, [s0, s1, s2])
    }

    /// The one path SB-DP routes `chain` along on an unloaded tracker.
    fn only_path(m: &NetworkModel, config: &DpConfig, chain: &ChainSpec) -> Vec<SiteId> {
        let paths = route_chain(m, &mut LoadTracker::new(m), config, chain);
        assert_eq!(paths.len(), 1, "{config:?}: {paths:?}");
        paths[0].sites.clone()
    }

    #[test]
    fn the_source_with_the_lowest_bound_can_lose() {
        // At the join, site 0's bound is 2 ms and site 1's 3 ms, but the
        // loaded link makes site 0 cost 9.5 ms: site 1, priced second
        // because its bound is below that, wins at 3 ms.
        let (m, chain, [s0, s1, s2]) = loaded_diamond(2.0);
        assert_eq!(only_path(&m, &DpConfig::default(), &chain), [s1, s2]);
        let latency_only = DpConfig { util_weight: 0.0 };
        assert_eq!(only_path(&m, &latency_only, &chain), [s0, s2]);
    }

    #[test]
    fn of_two_sources_tied_on_bound_the_higher_can_win() {
        // Both sites reach the join with a 2 ms bound. Site 0, the first
        // of equals, is priced first at 9.5 ms; site 1's equal bound is
        // below that, so it is priced too and wins at 2 ms. Without the
        // network term the two tie exactly and site 0 keeps the cell.
        let (m, chain, [s0, s1, s2]) = loaded_diamond(1.0);
        assert_eq!(only_path(&m, &DpConfig::default(), &chain), [s1, s2]);
        let latency_only = DpConfig { util_weight: 0.0 };
        assert_eq!(only_path(&m, &latency_only, &chain), [s0, s2]);
    }

    #[test]
    fn a_zero_transit_source_ties_the_best_from_a_lower_position() {
        // The hub (site 0) is reached through the relay (site 1) over a
        // loaded link: 4 ms + 7.5 ms from the ingress. For the second VNF,
        // at the hub, the relay's bound is 1 + 3 = 4 ms, the lowest, and
        // it is priced first at 1 + 3 + 7.5 = 11.5 ms. The hub itself,
        // zero transit away, has bound and cost 11.5 ms: equal to the
        // best, from a lower position, so it is priced and takes the cell.
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("in", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("hub", (0.0, 2.0), 1.0);
        let n2 = tb.add_node("relay", (0.0, 1.0), 1.0);
        tb.add_duplex_link(n0, n2, 1000.0, Millis::new(1.0));
        let (loaded, _) = tb.add_duplex_link(n2, n1, 1000.0, Millis::new(3.0));
        let mut b = NetworkModel::builder(tb.build());
        b.set_background(loaded, 250.0);
        let s0 = b.add_site(n1, 100.0);
        let s1 = b.add_site(n2, 100.0);
        let first = b.add_vnf(Map::from([(s0, 50.0), (s1, 50.0)]), 1.0);
        let second = b.add_vnf(Map::from([(s0, 50.0)]), 1.0);
        let m = b.build().unwrap();
        let chain = ChainSpec::uniform(ChainId::new(0), n0, n1, vec![first, second], 1.0, 0.5);
        let (tracker, config) = (LoadTracker::new(&m), DpConfig::default());
        let mut prices = Vec::new();
        let mut pricer = Pricer::new(&m, &tracker, &config, &mut prices, None);
        let mut edge = |from, to: Place, vnf| {
            let compute = compute_cost(&tracker, &config, vnf, to.site.expect("a site"), 50.0);
            pricer.cost(from, 0.0, to, compute)
        };
        let (ingress, hub, relay) = (Place::node(n0), Place::site(n1, s0), Place::site(n2, s1));
        let via_relay = edge(ingress, relay, first) + edge(relay, hub, second);
        let at_hub = edge(ingress, hub, first) + edge(hub, hub, second);
        assert_eq!((via_relay, at_hub), (11.5, 11.5), "an exact tie");
        assert_eq!(only_path(&m, &config, &chain), [s0, s0]);
    }

    #[test]
    fn later_chains_see_earlier_load() {
        // Two identical chains, VNF capacity fits exactly one chain per
        // site: the second chain must take the other site.
        let m = line_model();
        // Chain demand 12 -> load 24 per site; capacity 50 fits two chains.
        // Shrink VNF capacity to 30 so each site fits exactly one chain.
        let mut m2 = m.with_vnf_sites(
            sb_types::VnfId::new(0),
            Map::from([(SiteId::new(0), 30.0), (SiteId::new(1), 30.0)]),
        );
        // Duplicate the chain.
        let c = m2.chains()[0].clone();
        let mut b = NetworkModel::builder(m2.topology().clone());
        let s0 = b.add_site(NodeId::new(1), 100.0);
        let s1 = b.add_site(NodeId::new(2), 100.0);
        let vnf = b.add_vnf(Map::from([(s0, 30.0), (s1, 30.0)]), 1.0);
        for i in 0..2 {
            b.add_chain(ChainSpec::uniform(
                ChainId::new(i),
                c.ingress,
                c.egress,
                vec![vnf],
                10.0,
                2.0,
            ));
        }
        m2 = b.build().unwrap();
        let sol = route_chains(&m2, &DpConfig::default());
        assert!((sol.chains[0].routed - 1.0).abs() < 1e-6);
        assert!((sol.chains[1].routed - 1.0).abs() < 1e-6);
        let e = Evaluation::of(&m2, &sol);
        assert!(e.is_feasible(&m2, 1e-6));
        // Both sites carry load.
        assert!(e.site_load[0] > 0.0 && e.site_load[1] > 0.0, "{:?}", e.site_load);
    }

    #[test]
    fn chain_without_vnfs_routes_directly() {
        let m = line_model();
        let mut b = NetworkModel::builder(m.topology().clone());
        let _s = b.add_site(NodeId::new(1), 10.0);
        b.add_chain(ChainSpec::uniform(
            ChainId::new(0),
            NodeId::new(0),
            NodeId::new(3),
            vec![],
            5.0,
            0.0,
        ));
        let m2 = b.build().unwrap();
        let sol = route_chains(&m2, &DpConfig::default());
        assert!((sol.chains[0].routed - 1.0).abs() < 1e-9);
        let e = Evaluation::of(&m2, &sol);
        assert!(e.mean_latency().value() > 0.0);
    }

    #[test]
    fn path_coefficients_match_evaluator() {
        let m = line_model();
        let chain = &m.chains()[0];
        let coefs = path_coefficients(&m, chain, &[SiteId::new(0)]);
        let sol = RoutingSolution {
            chains: vec![ChainRoutes::from_paths(
                &m,
                chain,
                &[RoutePath {
                    sites: vec![SiteId::new(0)],
                    fraction: 1.0,
                }],
            )],
        };
        let e = Evaluation::of(&m, &sol);
        for (link, coef) in &coefs.links {
            assert!(
                (e.link_load[link.index()] - coef).abs() < 1e-9,
                "link {link} mismatch"
            );
        }
        for (site, coef) in &coefs.sites {
            assert!((e.site_load[site.index()] - coef).abs() < 1e-9);
        }
    }
}
