//! Routing-solution representation shared by every scheme.
//!
//! The LP produces per-stage fractional flows (the paper's `x_{czn1n2}`
//! variables); SB-DP and the baselines produce site-sequence paths with
//! fractions. [`ChainRoutes`] stores the stage-flow form (the common
//! denominator the evaluator scores) and converts in both directions:
//! paths → flows on construction, flows → paths by greedy flow
//! decomposition (what the controller installs in the data plane).

use crate::model::{ChainSpec, NetworkModel, Place};
use sb_types::SiteId;

const EPS: f64 = 1e-9;

/// A fractional flow at one stage of a chain: `fraction` of the chain's
/// demand travels `from → to` at this stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageFlow {
    /// Source place.
    pub from: Place,
    /// Destination place.
    pub to: Place,
    /// Fraction of the chain's demand (0..=1).
    pub fraction: f64,
}

/// One extracted wide-area route: the cloud site hosting each VNF of the
/// chain in order, carrying `fraction` of the chain demand.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePath {
    /// One site per VNF in the chain.
    pub sites: Vec<SiteId>,
    /// Fraction of the chain's demand on this route.
    pub fraction: f64,
}

/// The routing of one chain: per-stage fractional flows plus the routed
/// share of demand (1.0 when fully placed; the DP may place less under
/// resource shortage).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRoutes {
    /// `stages[z]` holds the flows of stage `z` (0-based).
    pub stages: Vec<Vec<StageFlow>>,
    /// Total routed fraction of the chain's demand.
    pub routed: f64,
}

impl ChainRoutes {
    /// An empty (fully unrouted) chain.
    #[must_use]
    pub fn unrouted(num_stages: usize) -> Self {
        Self {
            stages: vec![Vec::new(); num_stages],
            routed: 0.0,
        }
    }

    /// Builds stage flows from site-sequence paths.
    ///
    /// # Panics
    ///
    /// Panics if a path's site count differs from the chain's VNF count.
    #[must_use]
    pub fn from_paths(model: &NetworkModel, chain: &ChainSpec, paths: &[RoutePath]) -> Self {
        let mut stages = vec![Vec::new(); chain.num_stages()];
        let mut routed = 0.0;
        for p in paths {
            assert_eq!(
                p.sites.len(),
                chain.vnfs.len(),
                "path arity must match chain VNF count"
            );
            if p.fraction <= EPS {
                continue;
            }
            routed += p.fraction;
            // Indexing is clearer than zipping here: `z` addresses sites
            // at z-1/z and stages[z] simultaneously.
            #[allow(clippy::needless_range_loop)]
            for z in 0..chain.num_stages() {
                let from = if z == 0 {
                    Place::node(chain.ingress)
                } else {
                    let s = p.sites[z - 1];
                    Place::site(model.site_node(s), s)
                };
                let to = if z == chain.num_stages() - 1 {
                    Place::node(chain.egress)
                } else {
                    let s = p.sites[z];
                    Place::site(model.site_node(s), s)
                };
                merge_flow(&mut stages[z], from, to, p.fraction);
            }
        }
        Self { stages, routed }
    }

    /// Greedy flow decomposition into site-sequence paths. The fractions of
    /// the returned paths sum to [`routed`](Self::routed) (up to numerical
    /// tolerance).
    #[must_use]
    pub fn decompose(&self, chain: &ChainSpec) -> Vec<RoutePath> {
        let mut residual = self.stages.clone();
        let mut paths = Vec::new();
        loop {
            // Walk greedily from the ingress, at each stage taking the
            // largest-fraction flow consistent with the current place.
            let mut sites = Vec::with_capacity(chain.vnfs.len());
            let mut picks = Vec::with_capacity(residual.len());
            let mut at = Place::node(chain.ingress);
            let mut bottleneck = f64::INFINITY;
            let mut complete = true;
            for stage in &residual {
                let best = stage
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.from == at && f.fraction > EPS)
                    .max_by(|a, b| {
                        a.1.fraction
                            .partial_cmp(&b.1.fraction)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                let Some((idx, flow)) = best else {
                    complete = false;
                    break;
                };
                bottleneck = bottleneck.min(flow.fraction);
                picks.push(idx);
                if let Some(site) = flow.to.site {
                    sites.push(site);
                }
                at = flow.to;
            }
            if !complete || bottleneck <= EPS || !bottleneck.is_finite() {
                break;
            }
            for (z, &idx) in picks.iter().enumerate() {
                residual[z][idx].fraction -= bottleneck;
            }
            paths.push(RoutePath {
                sites,
                fraction: bottleneck,
            });
        }
        paths
    }

    /// Checks flow conservation: at every stage boundary, inflow into each
    /// place equals outflow from it (within `tol`), and each stage's total
    /// equals [`routed`](Self::routed).
    #[must_use]
    pub fn is_conserved(&self, tol: f64) -> bool {
        for stage in &self.stages {
            let total: f64 = stage.iter().map(|f| f.fraction).sum();
            if (total - self.routed).abs() > tol {
                return false;
            }
        }
        for w in self.stages.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let mut places: Vec<Place> = a.iter().map(|f| f.to).collect();
            places.extend(b.iter().map(|f| f.from));
            places.sort_by_key(|p| (p.node, p.site.map(sb_types::SiteId::value)));
            places.dedup();
            for p in places {
                let inflow: f64 = a.iter().filter(|f| f.to == p).map(|f| f.fraction).sum();
                let outflow: f64 = b.iter().filter(|f| f.from == p).map(|f| f.fraction).sum();
                if (inflow - outflow).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

fn merge_flow(stage: &mut Vec<StageFlow>, from: Place, to: Place, fraction: f64) {
    for f in stage.iter_mut() {
        if f.from == from && f.to == to {
            f.fraction += fraction;
            return;
        }
    }
    stage.push(StageFlow { from, to, fraction });
}

/// The routing of all chains, in the model's chain order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingSolution {
    /// Per-chain routes (same indexing as `NetworkModel::chains`).
    pub chains: Vec<ChainRoutes>,
}

impl RoutingSolution {
    /// A solution with every chain unrouted.
    #[must_use]
    pub fn empty(model: &NetworkModel) -> Self {
        Self {
            chains: model
                .chains()
                .iter()
                .map(|c| ChainRoutes::unrouted(c.num_stages()))
                .collect(),
        }
    }

    /// The demand-weighted fraction of total traffic that was routed.
    #[must_use]
    pub fn routed_share(&self, model: &NetworkModel) -> f64 {
        let total: f64 = model.chains().iter().map(ChainSpec::demand).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let routed: f64 = model
            .chains()
            .iter()
            .zip(&self.chains)
            .map(|(c, r)| c.demand() * r.routed)
            .sum();
        routed / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::line_model;

    #[test]
    fn paths_round_trip_through_flows() {
        let m = line_model();
        let c = &m.chains()[0];
        let paths = vec![
            RoutePath {
                sites: vec![SiteId::new(0)],
                fraction: 0.6,
            },
            RoutePath {
                sites: vec![SiteId::new(1)],
                fraction: 0.4,
            },
        ];
        let routes = ChainRoutes::from_paths(&m, c, &paths);
        assert!((routes.routed - 1.0).abs() < 1e-9);
        assert!(routes.is_conserved(1e-9));
        let mut back = routes.decompose(c);
        back.sort_by(|a, b| b.fraction.partial_cmp(&a.fraction).unwrap());
        assert_eq!(back.len(), 2);
        assert!((back[0].fraction - 0.6).abs() < 1e-9);
        assert_eq!(back[0].sites, vec![SiteId::new(0)]);
        assert!((back[1].fraction - 0.4).abs() < 1e-9);
    }

    #[test]
    fn duplicate_paths_merge() {
        let m = line_model();
        let c = &m.chains()[0];
        let paths = vec![
            RoutePath {
                sites: vec![SiteId::new(0)],
                fraction: 0.3,
            },
            RoutePath {
                sites: vec![SiteId::new(0)],
                fraction: 0.2,
            },
        ];
        let routes = ChainRoutes::from_paths(&m, c, &paths);
        assert_eq!(routes.stages[0].len(), 1);
        assert!((routes.stages[0][0].fraction - 0.5).abs() < 1e-9);
        assert!((routes.routed - 0.5).abs() < 1e-9);
    }

    #[test]
    fn partial_routing_is_represented() {
        let m = line_model();
        let c = &m.chains()[0];
        let routes = ChainRoutes::from_paths(
            &m,
            c,
            &[RoutePath {
                sites: vec![SiteId::new(1)],
                fraction: 0.25,
            }],
        );
        assert!((routes.routed - 0.25).abs() < 1e-9);
        assert!(routes.is_conserved(1e-9));
        let share = RoutingSolution {
            chains: vec![routes],
        }
        .routed_share(&m);
        assert!((share - 0.25).abs() < 1e-9);
    }

    #[test]
    fn conservation_detects_imbalance() {
        let m = line_model();
        let c = &m.chains()[0];
        let mut routes = ChainRoutes::from_paths(
            &m,
            c,
            &[RoutePath {
                sites: vec![SiteId::new(0)],
                fraction: 1.0,
            }],
        );
        // Corrupt: stage 1 leaves from the other site.
        routes.stages[1][0].from = Place::site(m.site_node(SiteId::new(1)), SiteId::new(1));
        assert!(!routes.is_conserved(1e-9));
    }

    #[test]
    fn unrouted_chain_has_zero_share() {
        let m = line_model();
        let sol = RoutingSolution::empty(&m);
        assert_eq!(sol.routed_share(&m), 0.0);
        assert!(sol.chains[0].is_conserved(1e-9));
    }

    #[test]
    fn decompose_handles_split_and_merge() {
        // Split at stage 0 across two sites, merge back at egress.
        let m = line_model();
        let c = &m.chains()[0];
        let routes = ChainRoutes::from_paths(
            &m,
            c,
            &[
                RoutePath {
                    sites: vec![SiteId::new(0)],
                    fraction: 0.5,
                },
                RoutePath {
                    sites: vec![SiteId::new(1)],
                    fraction: 0.5,
                },
            ],
        );
        let paths = routes.decompose(c);
        let total: f64 = paths.iter().map(|p| p.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(paths.len(), 2);
    }
}
