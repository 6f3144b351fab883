//! The decentralized routing baselines of Section 7.2/7.3.
//!
//! - [`anycast`]: "selects the site for the next VNF in a chain purely
//!   based on propagation latency, ignoring the available network link
//!   capacity on the route and the compute capacity available at that
//!   site" — the FastRoute-style scheme Switchboard is primarily compared
//!   against;
//! - [`compute_aware`]: "similar to Anycast in that it considers sites in
//!   the order of lowest latency, but it does not pick a site if it does
//!   not have sufficient compute capacity";
//! - [`one_hop`]: "uses the same cost function as SB-DP, but it computes
//!   routes on a per-hop basis" (Figure 13a's ONEHOP variant).
//!
//! All three run against the same [`LoadTracker`] accounting as SB-DP and
//! are scored by the same evaluator.

use crate::dp::{
    compute_cost, path_coefficients, DpConfig, LoadTracker, Pricer, MAX_PATHS_PER_CHAIN,
};
use crate::model::{ChainSpec, NetworkModel, Place};
use crate::route::{ChainRoutes, RoutePath, RoutingSolution};
use sb_types::SiteId;

const EPS: f64 = 1e-9;

/// Anycast: nearest next-VNF site by propagation latency, oblivious to
/// load. Emits exactly one full-demand path per chain (or leaves the chain
/// unrouted when some VNF has no reachable deployment).
#[must_use]
pub fn anycast(model: &NetworkModel) -> RoutingSolution {
    let chains = model
        .chains()
        .iter()
        .map(|chain| {
            let mut at = Place::node(chain.ingress);
            let mut sites = Vec::with_capacity(chain.vnfs.len());
            let mut ok = true;
            for &vnf_id in &chain.vnfs {
                let vnf = &model.vnfs()[vnf_id.index()];
                let best = vnf
                    .sites()
                    .into_iter()
                    .map(|s| {
                        let node = model.site_node(s);
                        (model.latency(at.node, node).value(), s)
                    })
                    .filter(|(d, _)| d.is_finite())
                    .min_by(|a, b| {
                        a.0.partial_cmp(&b.0)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.1.cmp(&b.1))
                    });
                match best {
                    Some((_, s)) => {
                        sites.push(s);
                        at = Place::site(model.site_node(s), s);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                ChainRoutes::from_paths(
                    model,
                    chain,
                    &[RoutePath {
                        sites,
                        fraction: 1.0,
                    }],
                )
            } else {
                ChainRoutes::unrouted(chain.num_stages())
            }
        })
        .collect();
    RoutingSolution { chains }
}

/// Compute-Aware: nearest site by latency among those whose VNF deployment
/// still has compute headroom for this chain's full load at that hop; when
/// no site fits fully, the site with the largest remaining headroom is
/// taken. Network load is ignored (that is Switchboard's edge over it in
/// Figure 11).
#[must_use]
pub fn compute_aware(model: &NetworkModel) -> RoutingSolution {
    let mut tracker = LoadTracker::new(model);
    let chains = model
        .chains()
        .iter()
        .map(|chain| {
            let mut at = Place::node(chain.ingress);
            let mut sites = Vec::with_capacity(chain.vnfs.len());
            let mut ok = true;
            for (z, &vnf_id) in chain.vnfs.iter().enumerate() {
                let vnf = &model.vnfs()[vnf_id.index()];
                // Load this chain adds at the site: traffic in (stage z)
                // plus traffic out (stage z+1), times l_f.
                let add = vnf.load_per_unit
                    * (chain.stage_traffic(z) + chain.stage_traffic(z + 1));
                let mut candidates: Vec<(f64, SiteId, f64)> = vnf
                    .sites()
                    .into_iter()
                    .map(|s| {
                        let node = model.site_node(s);
                        let cap = vnf.site_capacity[&s];
                        let used = tracker.vnf_site_load(vnf_id, s);
                        (model.latency(at.node, node).value(), s, cap - used)
                    })
                    .filter(|(d, _, _)| d.is_finite())
                    .collect();
                candidates.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                let pick = candidates
                    .iter()
                    .find(|&&(_, _, headroom)| headroom >= add - EPS)
                    .or_else(|| {
                        candidates.iter().max_by(|a, b| {
                            a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal)
                        })
                    });
                match pick {
                    Some(&(_, s, _)) => {
                        sites.push(s);
                        at = Place::site(model.site_node(s), s);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                let coefs = path_coefficients(model, chain, &sites);
                tracker.apply(&coefs, 1.0);
                ChainRoutes::from_paths(
                    model,
                    chain,
                    &[RoutePath {
                        sites,
                        fraction: 1.0,
                    }],
                )
            } else {
                ChainRoutes::unrouted(chain.num_stages())
            }
        })
        .collect();
    RoutingSolution { chains }
}

/// OneHop: greedy per-hop minimization of the SB-DP cost function, with
/// SB-DP's headroom-bounded allocation loop (so it, too, can split demand
/// across repeat walks) — isolating the value of *holistic* route
/// computation in Figure 13a.
#[must_use]
pub fn one_hop(model: &NetworkModel, config: &DpConfig) -> RoutingSolution {
    let mut tracker = LoadTracker::new(model);
    let chains = model
        .chains()
        .iter()
        .map(|chain| {
            let mut remaining = 1.0;
            let mut paths: Vec<RoutePath> = Vec::new();
            for _ in 0..MAX_PATHS_PER_CHAIN {
                if remaining <= EPS {
                    break;
                }
                let Some(sites) = greedy_walk(model, &tracker, config, chain) else {
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
            ChainRoutes::from_paths(model, chain, &paths)
        })
        .collect();
    RoutingSolution { chains }
}

/// One greedy ingress-to-egress walk minimizing the DP edge cost per hop,
/// priced by SB-DP's pricer.
fn greedy_walk(
    model: &NetworkModel,
    tracker: &LoadTracker,
    config: &DpConfig,
    chain: &ChainSpec,
) -> Option<Vec<SiteId>> {
    let mut prices = Vec::new();
    let mut pricer = Pricer::new(model, tracker, config, &mut prices, None);
    let mut at = Place::node(chain.ingress);
    let mut sites = Vec::with_capacity(chain.vnfs.len());
    for &vnf_id in &chain.vnfs {
        let mut best: Option<(f64, SiteId)> = None;
        for &(s, cap) in model.deployments(vnf_id) {
            let to = Place::site(model.site_node(s), s);
            let compute = compute_cost(tracker, config, vnf_id, s, cap);
            let c = pricer.cost(at, 0.0, to, compute);
            if c.is_finite() && best.is_none_or(|(b, _)| c < b) {
                best = Some((c, s));
            }
        }
        let (_, s) = best?;
        sites.push(s);
        at = Place::site(model.site_node(s), s);
    }
    Some(sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluation;
    use crate::model::testutil::line_model;
    use sb_types::{ChainId, Millis, VnfId};
    use std::collections::HashMap as Map;

    /// Two sites: near (tiny capacity) and far (big capacity); several
    /// chains all from the same ingress.
    fn pressure_model(chains: u64) -> NetworkModel {
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("in", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("near", (0.0, 1.0), 1.0);
        let n2 = tb.add_node("far", (0.0, 2.0), 1.0);
        let n3 = tb.add_node("out", (0.0, 3.0), 1.0);
        tb.add_duplex_link(n0, n1, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n0, n2, 1000.0, Millis::new(30.0));
        tb.add_duplex_link(n1, n3, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n2, n3, 1000.0, Millis::new(30.0));
        let mut b = NetworkModel::builder(tb.build());
        let near = b.add_site(n1, 1e6);
        let far = b.add_site(n2, 1e6);
        let vnf = b.add_vnf(Map::from([(near, 48.0), (far, 1e6)]), 1.0);
        for i in 0..chains {
            b.add_chain(ChainSpec::uniform(
                ChainId::new(i),
                n0,
                n3,
                vec![vnf],
                10.0,
                2.0,
            ));
        }
        b.build().unwrap()
    }

    #[test]
    fn anycast_always_picks_nearest() {
        // 4 chains x load 24 = 96 > near capacity 48, but anycast piles on.
        let m = pressure_model(4);
        let sol = anycast(&m);
        let e = Evaluation::of(&m, &sol);
        let near_load = e.vnf_site_load[&(VnfId::new(0), SiteId::new(0))];
        assert!((near_load - 96.0).abs() < 1e-9, "{near_load}");
        assert!(!e.is_feasible(&m, 1e-6), "anycast oversubscribes");
        // Its sustainable scale is 48/96 = 0.5.
        assert!((e.max_uniform_scale(&m) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn compute_aware_overflows_to_far_site() {
        let m = pressure_model(4);
        let sol = compute_aware(&m);
        let e = Evaluation::of(&m, &sol);
        assert!(e.is_feasible(&m, 1e-6), "compute-aware respects compute");
        let near_load = e.vnf_site_load[&(VnfId::new(0), SiteId::new(0))];
        let far_load = e.vnf_site_load[&(VnfId::new(0), SiteId::new(1))];
        // Two chains fit at near (48), the rest overflow.
        assert!((near_load - 48.0).abs() < 1e-9, "{near_load}");
        assert!((far_load - 48.0).abs() < 1e-9, "{far_load}");
    }

    #[test]
    fn compute_aware_beats_anycast_throughput_under_pressure() {
        let m = pressure_model(4);
        let any = Evaluation::of(&m, &anycast(&m));
        let ca = Evaluation::of(&m, &compute_aware(&m));
        assert!(ca.max_throughput(&m) > any.max_throughput(&m) * 1.5);
    }

    #[test]
    fn one_hop_respects_capacity_via_headroom() {
        let m = pressure_model(4);
        let sol = one_hop(&m, &DpConfig::default());
        let e = Evaluation::of(&m, &sol);
        assert!(e.is_feasible(&m, 1e-6));
        // All chains fully routed (far site has plenty).
        for c in &sol.chains {
            assert!((c.routed - 1.0).abs() < 1e-6, "{}", c.routed);
        }
    }

    #[test]
    fn anycast_routes_unconstrained_model_fine() {
        let m = line_model();
        let sol = anycast(&m);
        let e = Evaluation::of(&m, &sol);
        assert!((sol.chains[0].routed - 1.0).abs() < 1e-9);
        assert!(e.is_feasible(&m, 1e-6));
        assert!(sol.chains[0].is_conserved(1e-9));
    }

    #[test]
    fn anycast_skips_chain_with_unreachable_vnf() {
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("a", (0.0, 0.0), 1.0);
        let n1 = tb.add_node("island", (0.0, 1.0), 1.0);
        let mut b = NetworkModel::builder(tb.build());
        let s = b.add_site(n1, 10.0);
        let vnf = b.add_vnf(Map::from([(s, 10.0)]), 1.0);
        b.add_chain(ChainSpec::uniform(
            ChainId::new(0),
            n0,
            n0,
            vec![vnf],
            1.0,
            0.0,
        ));
        let m = b.build().unwrap();
        let sol = anycast(&m);
        assert_eq!(sol.chains[0].routed, 0.0);
    }
}
