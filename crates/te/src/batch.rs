//! Batched SB-DP with a cross-chain subproblem cache.
//!
//! Chains with overlapping site sequences relax the same DP edges
//! `cost(s, z, s')` against a load state that barely moved in between.
//! This module memoizes those relaxations. Since [`crate::dp`] prices
//! each link once per pass and skips sources by their latency bound, the
//! cache is slower than the plain solver; no control-plane path uses it,
//! and its one caller is the benchmark's TE probe.
//!
//! - [`SubproblemCache`] caches [`crate::dp`]'s edge cost keyed by the
//!   site-sequence segment it closes, split along its two independent
//!   load dependencies: a *transit* term (propagation latency + network
//!   utilization cost, keyed by the `(from node, to node)` pair and
//!   depending only on the links routing it) and a *VNF* term (the
//!   compute utilization cost, keyed by `(next VNF, destination site)`
//!   and depending only on that pool's load). Both tables are dense
//!   arrays, so a hit is an index + NaN check — far cheaper than the walk
//!   over the routing table's links a fresh evaluation pays — and the
//!   coarse transit key is shared across every VNF and chain crossing the
//!   same node pair. A miss is that fresh evaluation, by the same function
//!   the sequential solver calls;
//! - every transit cell is indexed by the links it reads, and
//!   [`SubproblemCache::note_apply`] invalidates the touched cells
//!   whenever [`crate::dp::LoadTracker::apply`] dirties a link or pool —
//!   so a hit always returns the value a fresh evaluation would compute,
//!   and the batched solver is *result-identical* to the sequential one
//!   (property-tested in `tests/sbdp_oracle.rs`).
//!
//! [`route_chains_batched`] is the entry point: one shared
//! [`crate::dp::DpScratch`] (O(1) allocations per chain) plus one shared
//! cache across all chains of a model.

use crate::dp::{self, DpConfig, DpScratch, LoadTracker, PathCoefs};
use crate::model::{NetworkModel, Place};
use crate::route::{ChainRoutes, RoutingSolution};
use sb_netsim::queueing::fortz_thorup_cost;
use sb_types::{LinkId, SiteId, VnfId};

/// Hit/miss/invalidation counters of a [`SubproblemCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh edge-cost evaluation.
    pub misses: u64,
    /// Entries dropped because a load they depend on changed.
    pub invalidations: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoized DP edge costs shared across chains, with exact invalidation.
///
/// Coherence contract: between [`SubproblemCache::clear`] (or
/// construction) and now, every mutation of the tracker the cached costs
/// were computed against must have been reported via
/// [`SubproblemCache::note_apply`]. [`route_chains_batched`] maintains
/// this automatically; clear the cache when switching to a different
/// tracker or model.
#[derive(Debug, Clone)]
pub struct SubproblemCache {
    /// Node count the dense tables were sized for (0 = unsized).
    n_nodes: usize,
    /// Site count the VNF table was sized for.
    num_sites: usize,
    /// VNF count the VNF table was sized for.
    num_vnfs: usize,
    /// Transit cost cells, `NaN` = empty: `transit[a * n + b]` holds
    /// `latency(a, b) + util_weight * net_cost(a, b)` against the loads
    /// last reported (infinite when `b` is unreachable from `a`).
    transit: Vec<f64>,
    /// Fortz-Thorup compute cost cells, `NaN` = empty:
    /// `vnf_ft[vnf * num_sites + site]` (infinite when not deployed).
    vnf_ft: Vec<f64>,
    /// Which live transit cells read each link's load (cell indexes;
    /// drained on invalidation, duplicates after a refill are harmless).
    by_link: Vec<Vec<u32>>,
    /// Per-link Fortz-Thorup prices a transit miss reads, filled by
    /// [`dp::price_links`] on the first miss after a load change.
    prices: Vec<f64>,
    /// Whether `prices` match the loads last reported.
    priced: bool,
    stats: CacheStats,
}

impl Default for SubproblemCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SubproblemCache {
    /// An unbounded, exact cache: hits are always identical to a fresh
    /// evaluation.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n_nodes: 0,
            num_sites: 0,
            num_vnfs: 0,
            transit: Vec::new(),
            vnf_ft: Vec::new(),
            by_link: Vec::new(),
            prices: Vec::new(),
            priced: false,
            stats: CacheStats::default(),
        }
    }

    /// Counter snapshot (cumulative across [`SubproblemCache::clear`]).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every live cell and dependency index, keeping the counters
    /// and table sizing. Required when the tracker the cache shadows is
    /// replaced or mutated outside [`SubproblemCache::note_apply`]'s
    /// knowledge.
    pub fn clear(&mut self) {
        self.transit.fill(f64::NAN);
        self.vnf_ft.fill(f64::NAN);
        for cells in &mut self.by_link {
            cells.clear();
        }
        self.priced = false;
    }

    /// (Re)allocates the dense tables when the model's dimensions differ
    /// from what the cache was last sized for.
    fn ensure_model(&mut self, model: &NetworkModel) {
        let n = model.topology().num_nodes();
        let l = model.topology().num_links();
        let s = model.num_sites();
        let v = model.vnfs().len();
        if self.n_nodes == n && self.num_sites == s && self.num_vnfs == v && self.by_link.len() == l
        {
            return;
        }
        self.n_nodes = n;
        self.num_sites = s;
        self.num_vnfs = v;
        self.transit = vec![f64::NAN; n * n];
        self.vnf_ft = vec![f64::NAN; v * s];
        self.by_link = vec![Vec::new(); l];
        self.priced = false;
    }

    /// The memoized DP edge cost: identical to [`crate::dp`]'s cost
    /// function, served from the dense transit and VNF tables when their
    /// cells are live and recomputed (and cached) otherwise.
    #[must_use]
    pub fn edge_cost(
        &mut self,
        model: &NetworkModel,
        tracker: &LoadTracker,
        config: &DpConfig,
        from: Place,
        to: Place,
        next_vnf: Option<VnfId>,
    ) -> f64 {
        self.ensure_model(model);
        let ti = from.node.index() * self.n_nodes + to.node.index();
        let mut hit = true;
        let mut transit = self.transit[ti];
        if transit.is_nan() {
            hit = false;
            transit = self.fill_transit(model, tracker, config, ti, from, to);
        }
        let mut cost = transit;
        if transit.is_finite() && config.util_weight > 0.0 {
            if let (Some(vnf), Some(site)) = (next_vnf, to.site) {
                let vi = vnf.index() * self.num_sites + site.index();
                let mut ft = self.vnf_ft[vi];
                if ft.is_nan() {
                    hit = false;
                    ft = self.fill_vnf(model, tracker, vi, vnf, site);
                }
                cost = if ft.is_infinite() {
                    f64::INFINITY
                } else {
                    cost + config.util_weight * ft
                };
            }
        }
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        cost
    }

    /// Computes [`dp::transit_cost`] `from → to` and caches it in transit
    /// cell `ti`, registering the links whose load it read in the
    /// invalidation index. The link prices are refilled first when a load
    /// changed since the last fill.
    fn fill_transit(
        &mut self,
        model: &NetworkModel,
        tracker: &LoadTracker,
        config: &DpConfig,
        ti: usize,
        from: Place,
        to: Place,
    ) -> f64 {
        if !self.priced {
            dp::price_links(model, tracker, &mut self.prices);
            self.priced = true;
        }
        let prices = &self.prices;
        let cost = dp::transit_cost(model, config, from, to, |link| prices[link.index()]);
        self.transit[ti] = cost;
        // Only the network-utilization term reads loads; an unreachable
        // pair routes over no link.
        if config.util_weight > 0.0 && from.node != to.node {
            let cell = u32::try_from(ti).expect("transit table fits u32");
            for &(link, _) in model.routing().fractions_between(from.node, to.node) {
                self.by_link[link.index()].push(cell);
            }
        }
        cost
    }

    /// Computes and caches the Fortz-Thorup compute cost cell `vi` of
    /// `vnf` at `site`.
    fn fill_vnf(
        &mut self,
        model: &NetworkModel,
        tracker: &LoadTracker,
        vi: usize,
        vnf: VnfId,
        site: SiteId,
    ) -> f64 {
        let u = tracker.vnf_utilization(model, vnf, site);
        let ft = if u.is_infinite() {
            f64::INFINITY
        } else {
            fortz_thorup_cost(u)
        };
        self.vnf_ft[vi] = ft;
        ft
    }

    /// Reports that the tracker just absorbed (or released) load along
    /// `coefs` — the hook paired with every [`LoadTracker::apply`] in the
    /// batched/reconciled paths. Cells depending on a touched link or
    /// (VNF, site) pool are invalidated.
    pub fn note_apply(&mut self, coefs: &PathCoefs) {
        if self.n_nodes == 0 {
            return;
        }
        for &link in coefs.links.keys() {
            self.touch_link(link);
            self.priced = false;
        }
        for &(vnf, site) in coefs.vnf_sites.keys() {
            self.touch_vnf_site(vnf, site);
        }
    }

    fn touch_link(&mut self, link: LinkId) {
        let li = link.index();
        for cell in self.by_link[li].drain(..) {
            let slot = &mut self.transit[cell as usize];
            if !slot.is_nan() {
                *slot = f64::NAN;
                self.stats.invalidations += 1;
            }
        }
    }

    fn touch_vnf_site(&mut self, vnf: VnfId, site: SiteId) {
        let vi = vnf.index() * self.num_sites + site.index();
        if vi >= self.vnf_ft.len() {
            return;
        }
        if !self.vnf_ft[vi].is_nan() {
            self.vnf_ft[vi] = f64::NAN;
            self.stats.invalidations += 1;
        }
    }
}

/// Routes all chains sequentially like [`dp::route_chains`], but through
/// one shared [`DpScratch`] and `cache`. The cache is cleared on entry
/// (its entries may shadow a different load state) and left coherent with
/// the final load state on return. The result is identical to
/// [`dp::route_chains`].
#[must_use]
pub fn route_chains_batched(
    model: &NetworkModel,
    config: &DpConfig,
    cache: &mut SubproblemCache,
) -> RoutingSolution {
    let mut tracker = LoadTracker::new(model);
    let mut scratch = DpScratch::new();
    cache.clear();
    let chains = model
        .chains()
        .iter()
        .map(|c| {
            let paths =
                dp::route_chain_with(model, &mut tracker, config, c, &mut scratch, Some(cache));
            ChainRoutes::from_paths(model, c, &paths)
        })
        .collect();
    RoutingSolution { chains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::route_chains;
    use crate::model::testutil::line_model;

    fn solutions_equal(a: &RoutingSolution, b: &RoutingSolution) -> bool {
        a.chains.len() == b.chains.len()
            && a.chains.iter().zip(&b.chains).all(|(x, y)| {
                (x.routed - y.routed).abs() < 1e-12
                    && x.stages.len() == y.stages.len()
                    && x.stages.iter().zip(&y.stages).all(|(sa, sb)| {
                        sa.len() == sb.len()
                            && sa.iter().zip(sb).all(|(fa, fb)| {
                                fa.from == fb.from
                                    && fa.to == fb.to
                                    && (fa.fraction - fb.fraction).abs() < 1e-12
                            })
                    })
            })
    }

    #[test]
    fn batched_matches_sequential_on_line_model() {
        let m = line_model();
        let cfg = DpConfig::default();
        let seq = route_chains(&m, &cfg);
        let mut cache = SubproblemCache::new();
        let bat = route_chains_batched(&m, &cfg, &mut cache);
        assert!(solutions_equal(&seq, &bat));
        let s = cache.stats();
        assert!(s.misses > 0, "cache never consulted");
    }

    #[test]
    fn cache_hits_on_repeated_edges_and_invalidates_on_apply() {
        let m = line_model();
        let cfg = DpConfig::default();
        let tracker = LoadTracker::new(&m);
        let mut cache = SubproblemCache::new();
        let chain = &m.chains()[0];
        let from = Place::node(chain.ingress);
        let site = m.vnfs()[0].sites()[0];
        let to = Place::site(m.site_node(site), site);
        let c1 = cache.edge_cost(&m, &tracker, &cfg, from, to, Some(chain.vnfs[0]));
        let c2 = cache.edge_cost(&m, &tracker, &cfg, from, to, Some(chain.vnfs[0]));
        assert_eq!(c1.to_bits(), c2.to_bits());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);

        // Load the destination pool: the entry must fall out.
        let mut tracker = tracker;
        let coefs = dp::path_coefficients(&m, chain, &[site]);
        tracker.apply(&coefs, 0.5);
        cache.note_apply(&coefs);
        let c3 = cache.edge_cost(&m, &tracker, &cfg, from, to, Some(chain.vnfs[0]));
        assert_eq!(cache.stats().misses, 2, "stale entry survived an apply");
        assert!(c3 > c1, "cost must rise with destination load");
        assert!(cache.stats().invalidations > 0);
    }

    #[test]
    fn hit_rate_reporting() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!(CacheStats::default().hit_rate() == 0.0);
    }
}
