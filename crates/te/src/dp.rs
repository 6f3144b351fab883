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
//! Loads only change between passes, so a pass prices each link once: the
//! network term sums `r · price[link]` over a dense per-link vector of
//! Fortz-Thorup costs. Uncached, a pass walks each destination's sources
//! cheapest prefix first: it stops at the first source whose prefix cost
//! alone already loses to the destination's best, and skips each source
//! whose latency alone does (the network term is never negative). The
//! answer and its tie-breaks are the same as pricing every source in
//! ascending site order.

use crate::model::{ChainSpec, NetworkModel, Place};
use crate::route::{ChainRoutes, RoutePath, RoutingSolution};
use sb_netsim::queueing::fortz_thorup_cost;
use sb_types::{LinkId, SiteId, VnfId};
use std::collections::HashMap;

const EPS: f64 = 1e-9;

/// One DP table cell: the best prefix cost of placing the current
/// stage's VNF at this site, plus the parent site of the previous stage
/// (`None` for the first stage — the ingress has no site). `None` cells
/// were never relaxed.
type DpCell = Option<(f64, Option<SiteId>)>;

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
#[derive(Debug, Clone)]
pub struct LoadTracker {
    /// Chain traffic placed on each link so far.
    pub link_load: Vec<f64>,
    /// Compute load placed at each site so far.
    pub site_load: Vec<f64>,
    /// Compute load per (VNF, site).
    pub vnf_site_load: HashMap<(VnfId, SiteId), f64>,
}

impl LoadTracker {
    /// A tracker with no load placed.
    #[must_use]
    pub fn new(model: &NetworkModel) -> Self {
        Self {
            link_load: vec![0.0; model.topology().num_links()],
            site_load: vec![0.0; model.num_sites()],
            vnf_site_load: HashMap::new(),
        }
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
        self.vnf_site_load.get(&(vnf, site)).copied().unwrap_or(0.0) / cap
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
                let used = self.vnf_site_load.get(&(vnf, site)).copied().unwrap_or(0.0);
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
        for (&key, &coef) in &coefs.vnf_sites {
            *self.vnf_site_load.entry(key).or_insert(0.0) += coef * fraction;
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

/// The DP edge cost `cost(s, z, s')` of Section 4.4: latency + weighted
/// network utilization cost + weighted compute utilization cost of the next
/// VNF at the destination. `prices` are the link prices [`price_links`]
/// filled against `tracker`.
pub(crate) fn edge_cost(
    model: &NetworkModel,
    tracker: &LoadTracker,
    prices: &[f64],
    config: &DpConfig,
    from: Place,
    to: Place,
    next_vnf: Option<VnfId>,
) -> f64 {
    transit_cost(model, prices, config, from, to)
        + compute_cost(model, tracker, config, to, next_vnf)
}

/// Fills `prices` with every link's Fortz-Thorup cost at its current
/// utilization, indexed by link id: the factor the network term weights
/// by `r_{ss'e}`. Loads only change between passes, so one fill serves
/// every relaxation of a pass.
pub(crate) fn price_links(model: &NetworkModel, tracker: &LoadTracker, prices: &mut Vec<f64>) {
    prices.clear();
    prices.extend(
        model
            .topology()
            .links()
            .iter()
            .map(|l| fortz_thorup_cost(tracker.link_utilization(model, l.id()))),
    );
}

/// The part of [`edge_cost`] that depends on both endpoints: propagation
/// latency plus weighted network utilization cost `from → to`, infinite
/// when `to` is unreachable. `prices` are per-link Fortz-Thorup costs
/// from [`price_links`]; they are read only when `util_weight > 0`.
///
/// Never below the latency: `r ≥ 0` and every price is `≥ 0`, so the
/// network term is non-negative. [`cheapest_source`] relies on that bound.
pub(crate) fn transit_cost(
    model: &NetworkModel,
    prices: &[f64],
    config: &DpConfig,
    from: Place,
    to: Place,
) -> f64 {
    let latency = model.latency(from.node, to.node).value();
    if !latency.is_finite() {
        return f64::INFINITY;
    }
    let mut cost = latency;
    if config.util_weight > 0.0 && from.node != to.node {
        let mut net = 0.0;
        for &(link, r) in model.routing().fractions_between(from.node, to.node) {
            net += r * prices[link.index()];
        }
        cost += config.util_weight * net;
    }
    cost
}

/// The part of [`edge_cost`] that depends on the destination alone: the
/// weighted compute utilization cost of `next_vnf` at `to`'s site,
/// infinite where the VNF has no capacity, zero without a VNF or a
/// utilization weight.
fn compute_cost(
    model: &NetworkModel,
    tracker: &LoadTracker,
    config: &DpConfig,
    to: Place,
    next_vnf: Option<VnfId>,
) -> f64 {
    match (next_vnf, to.site) {
        (Some(vnf), Some(site)) if config.util_weight > 0.0 => {
            let cap = model.vnfs()[vnf.index()]
                .site_capacity
                .get(&site)
                .copied()
                .unwrap_or(0.0);
            vnf_compute_cost(tracker, config, vnf, site, cap)
        }
        _ => 0.0,
    }
}

/// [`compute_cost`] of `vnf` at `site`, whose capacity there is `cap`.
fn vnf_compute_cost(
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

/// Reusable SB-DP workspace: the per-stage tables [`route_chain`] needs,
/// hoisted out of the solver so the batched entry points allocate them
/// once per fleet instead of once per stage per chain. The tables are
/// dense (indexed by `SiteId`), which also removes per-relaxation hashing
/// from the DP inner loop.
#[derive(Debug, Default)]
pub struct DpScratch {
    /// Per-stage DP tables: `stages[z][site.index()]` holds the best
    /// prefix cost placing the `z`-th VNF at that site, plus the parent
    /// site of the preceding stage (Eq 8's `E(z, s)` with backpointers).
    stages: Vec<Vec<DpCell>>,
    /// Frontier of the previous stage, in ascending site-id order (the
    /// deterministic tie-break order the sequential solver established).
    prev: Vec<(Place, f64, Option<SiteId>)>,
    /// Per-link Fortz-Thorup prices of the current pass (uncached solve
    /// only), filled once by [`price_links`] before any relaxation.
    prices: Vec<f64>,
    /// The current stage VNF's `(site, capacity)` deployments, in
    /// ascending site order.
    sites: Vec<(SiteId, f64)>,
    /// Positions in `prev`, cheapest prefix cost first, position breaking
    /// ties (uncached solve only).
    order: Vec<usize>,
}

impl DpScratch {
    /// A fresh, empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and resizes the tables for one run of `chain` against
    /// `model`, reusing every previously grown allocation.
    fn reset(&mut self, model: &NetworkModel, chain: &ChainSpec) {
        let n = model.num_sites();
        while self.stages.len() < chain.vnfs.len() {
            self.stages.push(Vec::new());
        }
        for stage in self.stages.iter_mut().take(chain.vnfs.len()) {
            stage.clear();
            stage.resize(n, None);
        }
        self.prev.clear();
    }
}

/// Runs the DP of Eq 8 once for `chain` against the current loads and
/// returns the least-cost site sequence, or `None` when no VNF of the
/// chain has any deployment reachable from the ingress. Edge costs go
/// through `cache` when one is supplied (see [`crate::batch`]); the cache
/// is exact, so the result is identical either way.
///
/// Each destination takes the source of least cost, the lowest site id
/// on a tie. Uncached, a pass prices every link once and finds that
/// source with [`cheapest_source`]; cached, it scans every source in
/// ascending site order. `tests/sbdp_oracle.rs` holds the uncached pass
/// to that scan over every (source, destination) pair and to an
/// enumeration of every site sequence.
fn best_path(
    model: &NetworkModel,
    tracker: &LoadTracker,
    config: &DpConfig,
    chain: &ChainSpec,
    scratch: &mut DpScratch,
    mut cache: Option<&mut crate::batch::SubproblemCache>,
) -> Option<Vec<SiteId>> {
    scratch.reset(model, chain);
    scratch.prev.push((Place::node(chain.ingress), 0.0, None));
    let uncached = cache.is_none();
    if uncached && config.util_weight > 0.0 {
        price_links(model, tracker, &mut scratch.prices);
    }

    for (z, &vnf_id) in chain.vnfs.iter().enumerate() {
        let DpScratch {
            stages,
            prev,
            prices,
            sites,
            order,
        } = &mut *scratch;
        let deployments = &model.vnfs()[vnf_id.index()].site_capacity;
        sites.clear();
        sites.extend(deployments.iter().map(|(&s, &c)| (s, c)));
        sites.sort_unstable_by_key(|&(s, _)| s);
        if uncached {
            cost_order(prev, order);
        }
        let stage = &mut stages[z];
        let mut any = false;
        for &(site, cap) in sites.iter() {
            let to = Place::site(model.site_node(site), site);
            let best = match cache.as_deref_mut() {
                Some(c) => cached_source(c, model, tracker, config, prev, to, Some(vnf_id)),
                None => {
                    // The destination's compute term is priced once here,
                    // not once per source: `edge_cost` is `transit + compute`.
                    let compute = vnf_compute_cost(tracker, config, vnf_id, site, cap);
                    cheapest_source(model, prices, config, prev, order, to, compute)
                }
            };
            if let Some((c, i)) = best {
                stage[site.index()] = Some((c, prev[i].0.site));
                any = true;
            }
        }
        if !any {
            return None;
        }
        // Rebuild the frontier by ascending site index: the same
        // deterministic order the sorted sparse frontier used to have.
        prev.clear();
        for (idx, slot) in stage.iter().enumerate() {
            if let Some((c, _)) = *slot {
                let s = SiteId::new(u32::try_from(idx).expect("site count fits u32"));
                prev.push((Place::site(model.site_node(s), s), c, Some(s)));
            }
        }
    }

    // Close to the egress, which has no VNF.
    let egress = Place::node(chain.egress);
    let prev = &scratch.prev;
    let best_last = match cache {
        Some(c) => cached_source(c, model, tracker, config, prev, egress, None),
        None => {
            let order = &mut scratch.order;
            cost_order(prev, order);
            cheapest_source(model, &scratch.prices, config, prev, order, egress, 0.0)
        }
    };
    if chain.vnfs.is_empty() {
        // Chains without VNFs route directly ingress -> egress.
        return Some(Vec::new());
    }
    let (_, i) = best_last?;
    let mut at = prev[i].0.site.expect("a non-first frontier holds sites");
    // Backtrack parents.
    let mut sites = vec![at];
    for z in (1..chain.vnfs.len()).rev() {
        let (_, parent) = scratch.stages[z][at.index()].expect("backtracked site was relaxed");
        let p = parent.expect("non-first stage has a parent site");
        sites.push(p);
        at = p;
    }
    sites.reverse();
    Some(sites)
}

/// Fills `order` with the positions of `prev`, cheapest prefix cost
/// first and position breaking ties.
fn cost_order(prev: &[(Place, f64, Option<SiteId>)], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..prev.len());
    order.sort_unstable_by(|&a, &b| prev[a].1.total_cmp(&prev[b].1).then(a.cmp(&b)));
}

/// The source of `prev` (by position) that reaches `to` at least cost,
/// `base + (transit + compute)`, and that cost: the lowest position among
/// equals, which is the lowest site id. `None` when no source reaches
/// `to` at a finite cost. `order` is `prev`'s [`cost_order`].
///
/// Walking cheapest prefix first, the walk stops at the first source
/// whose `base + compute` is above the best `b`: [`transit_cost`] is
/// never negative and float addition is monotone, so its cost and every
/// later source's is above `b`. The stop is strict: a source co-located
/// with `to` has zero transit and can tie `b` from a lower position. A
/// source is skipped unpriced when its latency bound
/// `base + (latency + compute)` is above `b`, or equals it at a higher
/// position than the best's; a priced source wins with `c < b`, or
/// `c == b` at a lower position.
fn cheapest_source(
    model: &NetworkModel,
    prices: &[f64],
    config: &DpConfig,
    prev: &[(Place, f64, Option<SiteId>)],
    order: &[usize],
    to: Place,
    compute: f64,
) -> Option<(f64, usize)> {
    if compute.is_infinite() {
        return None;
    }
    let mut best: Option<(f64, usize)> = None;
    for &i in order {
        let (from, base, _) = prev[i];
        if let Some((b, at)) = best {
            if base + compute > b {
                break;
            }
            let bound = base + (model.latency(from.node, to.node).value() + compute);
            if bound > b || (bound == b && i > at) {
                continue;
            }
        }
        let c = base + (transit_cost(model, prices, config, from, to) + compute);
        if c.is_finite() && best.is_none_or(|(b, at)| c < b || (c == b && i < at)) {
            best = Some((c, i));
        }
    }
    best
}

/// [`cheapest_source`] through `cache`: every source of `prev` priced,
/// in position order, the first of equals kept.
fn cached_source(
    cache: &mut crate::batch::SubproblemCache,
    model: &NetworkModel,
    tracker: &LoadTracker,
    config: &DpConfig,
    prev: &[(Place, f64, Option<SiteId>)],
    to: Place,
    next_vnf: Option<VnfId>,
) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for (i, &(from, base, _)) in prev.iter().enumerate() {
        let c = base + cache.edge_cost(model, tracker, config, from, to, next_vnf);
        if c.is_finite() && best.is_none_or(|(b, _)| c < b) {
            best = Some((c, i));
        }
    }
    best
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
/// across calls (O(1) allocations per chain once grown), and edge costs go
/// through `cache` when one is supplied. Every load the call places is
/// reported to the cache, so cached costs stay exact — results are
/// identical to [`route_chain`].
#[must_use]
pub fn route_chain_with(
    model: &NetworkModel,
    tracker: &mut LoadTracker,
    config: &DpConfig,
    chain: &ChainSpec,
    scratch: &mut DpScratch,
    mut cache: Option<&mut crate::batch::SubproblemCache>,
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
    let mut tracker = LoadTracker::new(model);
    let chains = model
        .chains()
        .iter()
        .map(|c| {
            let paths = route_chain(model, &mut tracker, config, c);
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
        // a tie that the latency-bound skip must leave to the first source.
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
        // reach the join at 4 ms in total. The cost-ordered walk prices
        // site 1 first; site 0's equal total must still take the cell.
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
    fn the_walk_does_not_stop_at_a_source_that_can_still_tie() {
        // Site 1 (1 ms from the ingress) reaches site 0 at 4 ms. Site 0
        // itself costs 4 ms from the ingress and is zero transit from
        // itself, so when the walk reaches it `base + compute` equals the
        // best: stopping there would hand the tie to the higher id.
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
