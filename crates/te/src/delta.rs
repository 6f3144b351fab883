//! Route deltas: diffing routing solutions and warm-started recomputation.
//!
//! The control plane's incremental update pipeline (DESIGN.md §10) starts
//! here: a target route set is diffed against the installed one into
//! added / modified / removed path sets, and only the resources named in
//! the delta are touched downstream (delta-scoped two-phase commit,
//! make-before-break rule installation, delta-scoped announcements).
//!
//! Two entry points:
//!
//! - [`RouteDelta::diff`] / [`RouteDelta::apply`]: the path-level diff and
//!   its reconciliation inverse (`apply(diff(old, new), old) == new`, the
//!   property the proptest suite pins down);
//! - [`warm_route_chains`]: SB-DP across traffic epochs that keeps every
//!   chain whose previous paths still fit and re-routes only the misfits,
//!   instead of solving the whole network from scratch.

use crate::dp::{self, DpConfig, LoadTracker};
use crate::model::NetworkModel;
use crate::route::{ChainRoutes, RoutePath, RoutingSolution};
use sb_types::SiteId;

const EPS: f64 = 1e-9;

/// A fraction change on a path whose site sequence is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionChange {
    /// The (unchanged) site sequence.
    pub sites: Vec<SiteId>,
    /// Fraction carried before the update.
    pub old_fraction: f64,
    /// Fraction carried after the update.
    pub new_fraction: f64,
}

/// The difference between an installed path set and a target path set,
/// keyed by site sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteDelta {
    /// Paths present only in the target.
    pub added: Vec<RoutePath>,
    /// Paths present in both, with a different fraction.
    pub modified: Vec<FractionChange>,
    /// Paths present only in the installed set.
    pub removed: Vec<RoutePath>,
    /// Paths identical in both (never touched by the update pipeline).
    pub unchanged: Vec<RoutePath>,
}

/// Merges duplicate site sequences, drops negligible fractions, and sorts
/// by site sequence — the canonical form every diff/apply works on.
#[must_use]
pub fn canonical_paths(paths: &[RoutePath]) -> Vec<RoutePath> {
    let mut out: Vec<RoutePath> = Vec::new();
    for p in paths {
        if p.fraction <= EPS {
            continue;
        }
        match out.iter_mut().find(|q| q.sites == p.sites) {
            Some(q) => q.fraction += p.fraction,
            None => out.push(p.clone()),
        }
    }
    out.sort_by(|a, b| a.sites.cmp(&b.sites));
    out
}

/// Whether two path sets are equal up to canonicalization and `tol` on
/// every fraction.
#[must_use]
pub fn paths_equal(a: &[RoutePath], b: &[RoutePath], tol: f64) -> bool {
    let (a, b) = (canonical_paths(a), canonical_paths(b));
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|(x, y)| x.sites == y.sites && (x.fraction - y.fraction).abs() <= tol)
}

impl RouteDelta {
    /// Diffs the installed path set against the target path set.
    #[must_use]
    pub fn diff(old: &[RoutePath], new: &[RoutePath]) -> Self {
        let old = canonical_paths(old);
        let new = canonical_paths(new);
        let mut delta = Self::default();
        for o in &old {
            match new.iter().find(|n| n.sites == o.sites) {
                None => delta.removed.push(o.clone()),
                Some(n) if (n.fraction - o.fraction).abs() <= EPS => {
                    delta.unchanged.push(o.clone());
                }
                Some(n) => delta.modified.push(FractionChange {
                    sites: o.sites.clone(),
                    old_fraction: o.fraction,
                    new_fraction: n.fraction,
                }),
            }
        }
        for n in &new {
            if !old.iter().any(|o| o.sites == n.sites) {
                delta.added.push(n.clone());
            }
        }
        delta
    }

    /// No change at all — the update pipeline short-circuits on this.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.modified.is_empty() && self.removed.is_empty()
    }

    /// Number of per-path operations the delta carries.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.added.len() + self.modified.len() + self.removed.len()
    }

    /// The sites named by any added / modified / removed path, sorted and
    /// deduplicated — the scope of two-phase commit and announcement
    /// propagation for this delta. Unchanged paths contribute nothing.
    #[must_use]
    pub fn affected_sites(&self) -> Vec<SiteId> {
        let mut sites: Vec<SiteId> = self
            .added
            .iter()
            .flat_map(|p| p.sites.iter().copied())
            .chain(self.modified.iter().flat_map(|m| m.sites.iter().copied()))
            .chain(self.removed.iter().flat_map(|p| p.sites.iter().copied()))
            .collect();
        sites.sort();
        sites.dedup();
        sites
    }

    /// Reconciliation: applies this delta to `old`, producing the target
    /// path set in canonical form. For any `old`/`new`,
    /// `apply(diff(old, new), old)` equals `canonical_paths(new)`.
    #[must_use]
    pub fn apply(&self, old: &[RoutePath]) -> Vec<RoutePath> {
        let mut out = canonical_paths(old);
        out.retain(|p| !self.removed.iter().any(|r| r.sites == p.sites));
        for m in &self.modified {
            if let Some(p) = out.iter_mut().find(|p| p.sites == m.sites) {
                p.fraction = m.new_fraction;
            }
        }
        out.extend(self.added.iter().cloned());
        canonical_paths(&out)
    }
}

/// Per-chain deltas between two routing solutions (same chain indexing as
/// the model's chain list).
#[derive(Debug, Clone, Default)]
pub struct SolutionDelta {
    /// One delta per chain.
    pub chains: Vec<RouteDelta>,
}

impl SolutionDelta {
    /// Total per-path operations across all chains.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.chains.iter().map(RouteDelta::num_ops).sum()
    }

    /// Union of all chains' affected sites.
    #[must_use]
    pub fn affected_sites(&self) -> Vec<SiteId> {
        let mut sites: Vec<SiteId> = self
            .chains
            .iter()
            .flat_map(RouteDelta::affected_sites)
            .collect();
        sites.sort();
        sites.dedup();
        sites
    }
}

/// Diffs two whole routing solutions chain-by-chain (paths obtained by
/// greedy flow decomposition, the same form the controller installs).
#[must_use]
pub fn diff_solutions(
    model: &NetworkModel,
    old: &RoutingSolution,
    new: &RoutingSolution,
) -> SolutionDelta {
    let chains = model
        .chains()
        .iter()
        .zip(old.chains.iter().zip(&new.chains))
        .map(|(spec, (o, n))| RouteDelta::diff(&o.decompose(spec), &n.decompose(spec)))
        .collect();
    SolutionDelta { chains }
}

/// Outcome of a warm solution-level re-route.
#[derive(Debug, Clone)]
pub struct WarmRouteOutcome {
    /// The new solution.
    pub solution: RoutingSolution,
    /// Its delta against the previous solution.
    pub delta: SolutionDelta,
    /// Chains whose previous paths were kept verbatim.
    pub kept: usize,
    /// Chains that went back through SB-DP.
    pub rerouted: usize,
}

/// Routes all chains incrementally: each chain keeps its previous paths
/// when they still fit the (possibly changed) model — fully routed and
/// within residual link/site/VNF headroom — and only the chains that no
/// longer fit are re-solved with SB-DP against the accumulated load.
/// The full-recompute equivalent is [`dp::route_chains`].
#[must_use]
pub fn warm_route_chains(
    model: &NetworkModel,
    prev: &RoutingSolution,
    config: &DpConfig,
) -> WarmRouteOutcome {
    let mut tracker = LoadTracker::new(model);
    let specs = model.chains();
    let mut chains: Vec<Option<ChainRoutes>> = vec![None; specs.len()];
    let mut reroute: Vec<usize> = Vec::new();
    let mut kept = 0usize;

    // Pass 1: keep previous paths wherever they still fit.
    for (i, spec) in specs.iter().enumerate() {
        let prev_routes = match prev.chains.get(i) {
            Some(r) if (r.routed - 1.0).abs() <= 1e-6 => r,
            _ => {
                reroute.push(i);
                continue;
            }
        };
        let paths = prev_routes.decompose(spec);
        let coefs: Vec<_> = paths
            .iter()
            .map(|p| dp::path_coefficients(model, spec, &p.sites))
            .collect();
        let fits = paths
            .iter()
            .zip(&coefs)
            .all(|(p, c)| tracker.headroom(model, c) + EPS >= p.fraction);
        if fits {
            for (p, c) in paths.iter().zip(&coefs) {
                tracker.apply(c, p.fraction);
            }
            chains[i] = Some(ChainRoutes::from_paths(model, spec, &paths));
            kept += 1;
        } else {
            reroute.push(i);
        }
    }

    // Pass 2: re-solve only the chains that no longer fit.
    for &i in &reroute {
        let paths = dp::route_chain(model, &mut tracker, config, &specs[i]);
        chains[i] = Some(ChainRoutes::from_paths(model, &specs[i], &paths));
    }

    let solution = RoutingSolution {
        chains: chains
            .into_iter()
            .map(|c| c.expect("every chain routed in one of the passes"))
            .collect(),
    };
    let delta = diff_solutions(model, prev, &solution);
    WarmRouteOutcome {
        solution,
        delta,
        kept,
        rerouted: reroute.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::line_model;

    fn p(sites: &[u32], fraction: f64) -> RoutePath {
        RoutePath {
            sites: sites.iter().map(|&s| SiteId::new(s)).collect(),
            fraction,
        }
    }

    #[test]
    fn diff_classifies_all_three_kinds() {
        let old = vec![p(&[0], 0.6), p(&[1], 0.4)];
        let new = vec![p(&[1], 0.5), p(&[2], 0.5)];
        let d = RouteDelta::diff(&old, &new);
        assert_eq!(d.added, vec![p(&[2], 0.5)]);
        assert_eq!(d.removed, vec![p(&[0], 0.6)]);
        assert_eq!(
            d.modified,
            vec![FractionChange {
                sites: vec![SiteId::new(1)],
                old_fraction: 0.4,
                new_fraction: 0.5,
            }]
        );
        assert!(d.unchanged.is_empty());
        assert_eq!(d.num_ops(), 3);
        assert_eq!(
            d.affected_sites(),
            vec![SiteId::new(0), SiteId::new(1), SiteId::new(2)]
        );
    }

    #[test]
    fn unchanged_paths_do_not_widen_the_scope() {
        let old = vec![p(&[0], 0.5), p(&[1], 0.5)];
        let new = vec![p(&[0], 0.5), p(&[2], 0.5)];
        let d = RouteDelta::diff(&old, &new);
        assert_eq!(d.unchanged, vec![p(&[0], 0.5)]);
        // Site 0 is untouched by the update: not in the affected set.
        assert_eq!(d.affected_sites(), vec![SiteId::new(1), SiteId::new(2)]);
    }

    #[test]
    fn identical_sets_produce_an_empty_delta() {
        let paths = vec![p(&[0], 0.3), p(&[1], 0.7)];
        let d = RouteDelta::diff(&paths, &paths);
        assert!(d.is_empty());
        assert_eq!(d.num_ops(), 0);
        assert!(d.affected_sites().is_empty());
    }

    #[test]
    fn apply_reconciles_diff() {
        let old = vec![p(&[0], 0.6), p(&[1], 0.4)];
        let new = vec![p(&[1], 0.25), p(&[2], 0.5), p(&[3], 0.25)];
        let d = RouteDelta::diff(&old, &new);
        assert!(paths_equal(&d.apply(&old), &new, 1e-12));
        // From-empty and to-empty degenerate deltas reconcile too.
        let from_empty = RouteDelta::diff(&[], &new);
        assert_eq!(from_empty.added.len(), 3);
        assert!(paths_equal(&from_empty.apply(&[]), &new, 1e-12));
        let to_empty = RouteDelta::diff(&old, &[]);
        assert_eq!(to_empty.removed.len(), 2);
        assert!(to_empty.apply(&old).is_empty());
    }

    #[test]
    fn duplicate_site_sequences_merge_before_diffing() {
        let old = vec![p(&[0], 0.3), p(&[0], 0.2)];
        let new = vec![p(&[0], 0.5)];
        assert!(RouteDelta::diff(&old, &new).is_empty());
    }

    #[test]
    fn warm_route_chains_keeps_fitting_chains() {
        let m = line_model();
        let full = dp::route_chains(&m, &DpConfig::default());
        let warm = warm_route_chains(&m, &full, &DpConfig::default());
        assert_eq!(warm.kept, m.chains().len());
        assert_eq!(warm.rerouted, 0);
        assert_eq!(warm.delta.num_ops(), 0);
    }

    #[test]
    fn warm_route_chains_reroutes_unfitting_chains() {
        let m = line_model();
        let full = dp::route_chains(&m, &DpConfig::default());
        // Triple the demand: the old single-site placement no longer fits,
        // so the chain must go back through the DP (which splits it).
        let heavier = m.with_scaled_traffic(3.0);
        let warm = warm_route_chains(&heavier, &full, &DpConfig::default());
        assert_eq!(warm.rerouted, 1);
        assert!((warm.solution.chains[0].routed - 1.0).abs() < 1e-6);
        assert!(warm.delta.num_ops() > 0);
    }

    #[test]
    fn solution_diff_matches_per_chain_diff() {
        let m = line_model();
        let spec = &m.chains()[0];
        let old = RoutingSolution {
            chains: vec![ChainRoutes::from_paths(&m, spec, &[p(&[0], 1.0)])],
        };
        let new = RoutingSolution {
            chains: vec![ChainRoutes::from_paths(
                &m,
                spec,
                &[p(&[0], 0.5), p(&[1], 0.5)],
            )],
        };
        let d = diff_solutions(&m, &old, &new);
        assert_eq!(d.chains[0].added.len(), 1);
        assert_eq!(d.chains[0].modified.len(), 1);
        assert_eq!(
            d.affected_sites(),
            vec![SiteId::new(0), SiteId::new(1)]
        );
    }
}
