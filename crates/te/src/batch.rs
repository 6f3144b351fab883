//! Batched SB-DP with a cross-chain transit memo.
//!
//! Chains with overlapping site sequences relax the same node pairs
//! against a load state that barely moved in between. [`SubproblemCache`]
//! keeps those pairs' transit costs (propagation latency plus weighted
//! network utilization cost) for [`crate::dp`]'s one relaxation, which
//! reads them inside its one cost call; the compute term is still priced
//! once per destination. The plain solver already prices each link once
//! per pass and skips sources by their latency bound, so the memo saves
//! about nothing: no control-plane path uses it, and its one caller is the
//! benchmark's TE probe.
//!
//! - a transit cell is keyed by its `(from node, to node)` pair, shared by
//!   every VNF and chain crossing the pair, in a dense array: a hit is an
//!   index and a `NaN` check. A miss computes the cost by the function
//!   the plain solver calls, over a per-link price vector the cache keeps
//!   and fills on first read;
//! - every transit cell is indexed by the links it reads, and
//!   [`SubproblemCache::note_apply`] drops a touched link's price and the
//!   cells that read it whenever [`crate::dp::LoadTracker::apply`] moves
//!   that link's load. So a hit always returns the value a fresh
//!   evaluation would compute, and the batched solver is
//!   *result-identical* to the sequential one (property-tested in
//!   `tests/sbdp_oracle.rs`).
//!
//! [`route_chains_batched`] is the entry point: one shared
//! [`crate::dp::DpScratch`] (O(1) allocations per chain) plus one shared
//! cache across all chains of a model.

use crate::dp::{self, DpConfig, LoadTracker, PathCoefs};
use crate::model::{NetworkModel, Place};
use crate::route::RoutingSolution;

/// Hit/miss/invalidation counters of a [`SubproblemCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Transit lookups answered from the memo.
    pub hits: u64,
    /// Transit lookups that fell through to a fresh evaluation.
    pub misses: u64,
    /// Transit cells dropped because a link load they read changed.
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

/// Memoized transit costs and link prices shared across chains, with
/// exact invalidation.
///
/// Coherence contract: between [`SubproblemCache::clear`] (or
/// construction) and now, every mutation of the tracker the kept values
/// were computed against must have been reported via
/// [`SubproblemCache::note_apply`]. [`route_chains_batched`] maintains
/// this automatically; clear the cache when switching to a different
/// tracker or model.
#[derive(Debug, Clone, Default)]
pub struct SubproblemCache {
    /// Node count the transit table was sized for (0 = unsized).
    n_nodes: usize,
    /// Transit cost cells, `NaN` = empty: `transit[a * n + b]` holds
    /// `latency(a, b) + util_weight * net_cost(a, b)` against the loads
    /// last reported (infinite when `b` is unreachable from `a`).
    transit: Vec<f64>,
    /// Which live transit cells read each link's load (cell indexes;
    /// drained on invalidation, duplicates after a refill are harmless).
    by_link: Vec<Vec<u32>>,
    /// Per-link Fortz-Thorup prices against the loads last reported,
    /// `NaN` until a transit miss first reads the link.
    prices: Vec<f64>,
    stats: CacheStats,
}

impl SubproblemCache {
    /// An unbounded, exact cache: hits are always identical to a fresh
    /// evaluation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter snapshot (cumulative across [`SubproblemCache::clear`]).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every live cell, link price and dependency index, keeping
    /// the counters and table sizing. Required when the tracker the cache
    /// shadows is replaced or mutated outside
    /// [`SubproblemCache::note_apply`]'s knowledge.
    pub fn clear(&mut self) {
        self.transit.fill(f64::NAN);
        self.prices.fill(f64::NAN);
        for cells in &mut self.by_link {
            cells.clear();
        }
    }

    /// (Re)allocates the dense tables when the model's dimensions differ
    /// from what the cache was last sized for.
    fn ensure_model(&mut self, model: &NetworkModel) {
        let n = model.topology().num_nodes();
        let l = model.topology().num_links();
        if self.n_nodes == n && self.by_link.len() == l {
            return;
        }
        self.n_nodes = n;
        self.transit = vec![f64::NAN; n * n];
        self.by_link = vec![Vec::new(); l];
        self.prices = vec![f64::NAN; l];
    }

    /// [`dp::transit_cost`] `from → to` against `tracker`: served from its
    /// cell when live, and otherwise computed over the kept link prices,
    /// kept, and registered under each link it read.
    pub(crate) fn transit(
        &mut self,
        model: &NetworkModel,
        tracker: &LoadTracker,
        config: &DpConfig,
        from: Place,
        to: Place,
    ) -> f64 {
        self.ensure_model(model);
        let ti = from.node.index() * self.n_nodes + to.node.index();
        let kept = self.transit[ti];
        if !kept.is_nan() {
            self.stats.hits += 1;
            return kept;
        }
        self.stats.misses += 1;
        let prices = &mut self.prices;
        let cost = dp::transit_cost(model, config, from, to, |link| {
            dp::link_price(model, tracker, prices, link)
        });
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

    /// Reports that the tracker just absorbed (or released) load along
    /// `coefs` — the hook paired with every [`LoadTracker::apply`] in the
    /// batched path. Each touched link's price and the transit cells that
    /// read it are dropped.
    pub fn note_apply(&mut self, coefs: &PathCoefs) {
        if self.n_nodes == 0 {
            return;
        }
        for &link in coefs.links.keys() {
            self.prices[link.index()] = f64::NAN;
            for cell in self.by_link[link.index()].drain(..) {
                let slot = &mut self.transit[cell as usize];
                if !slot.is_nan() {
                    *slot = f64::NAN;
                    self.stats.invalidations += 1;
                }
            }
        }
    }
}

/// Routes all chains sequentially like [`dp::route_chains`], but through
/// `cache`. The cache is cleared on entry (its entries may shadow a
/// different load state) and left coherent with the final load state on
/// return. The result is identical to [`dp::route_chains`].
#[must_use]
pub fn route_chains_batched(
    model: &NetworkModel,
    config: &DpConfig,
    cache: &mut SubproblemCache,
) -> RoutingSolution {
    cache.clear();
    dp::route_chains_with(model, config, Some(cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::route_chains;
    use crate::model::testutil::line_model;
    use sb_netsim::queueing::fortz_thorup_cost;
    use std::collections::HashMap;

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
    fn cache_hits_on_repeated_transits_and_invalidates_on_apply() {
        let m = line_model();
        let cfg = DpConfig::default();
        let mut tracker = LoadTracker::new(&m);
        let mut cache = SubproblemCache::new();
        let chain = &m.chains()[0];
        let from = Place::node(chain.ingress);
        let site = m.vnfs()[0].sites()[0];
        let to = Place::site(m.site_node(site), site);
        let c1 = cache.transit(&m, &tracker, &cfg, from, to);
        let c2 = cache.transit(&m, &tracker, &cfg, from, to);
        assert_eq!(c1.to_bits(), c2.to_bits());
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));

        // Compute load alone reads no link: the cell stays live.
        let compute_only = PathCoefs {
            vnf_sites: HashMap::from([((chain.vnfs[0], site), 24.0)]),
            ..PathCoefs::default()
        };
        tracker.apply(&compute_only, 1.0);
        cache.note_apply(&compute_only);
        let c3 = cache.transit(&m, &tracker, &cfg, from, to);
        assert_eq!(c3.to_bits(), c1.to_bits());
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 1));

        // Load the link the pair routes over: its price and the cell fall
        // out, and the refill prices the new load.
        let link = m.routing().fractions_between(from.node, to.node)[0].0;
        let coefs = dp::path_coefficients(&m, chain, &[site]);
        assert!(coefs.links.contains_key(&link));
        tracker.apply(&coefs, 0.5);
        cache.note_apply(&coefs);
        assert!(cache.prices[link.index()].is_nan(), "stale price survived");
        assert_eq!(cache.stats().invalidations, 1);
        let c4 = cache.transit(&m, &tracker, &cfg, from, to);
        assert_eq!(cache.stats().misses, 2, "stale cell survived an apply");
        assert!(c4 > c1, "cost must rise with link load");
        let fresh = dp::transit_cost(&m, &cfg, from, to, |l| {
            fortz_thorup_cost(tracker.link_utilization(&m, l))
        });
        assert_eq!(c4.to_bits(), fresh.to_bits());
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
