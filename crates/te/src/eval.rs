//! The shared route evaluator.
//!
//! Every routing scheme — SB-LP, SB-DP, and all baselines — is scored by
//! the same evaluator so the comparisons of Figures 11-13 are apples to
//! apples. Given a [`RoutingSolution`], the evaluator computes per-link
//! loads (through the routing fractions `r_{n1n2e}`, with forward and
//! reverse stage traffic routed in opposite node orders, Eq 7), per-site
//! and per-VNF compute loads (Eq 4 accounting: traffic into plus out of the
//! VNF), the aggregate latency objective (Eq 3), and the largest uniform
//! traffic scale-up the routes sustain — the "throughput" metric of the
//! evaluation section.

use crate::model::NetworkModel;
use crate::route::RoutingSolution;
use sb_types::{LoadUnits, Millis, Rate, SiteId, VnfId};
use std::collections::HashMap;

/// The evaluation of one routing solution against its model.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Chain traffic per link (background not included).
    pub link_load: Vec<Rate>,
    /// Total compute load per site.
    pub site_load: Vec<LoadUnits>,
    /// Compute load per (VNF, site) deployment.
    pub vnf_site_load: HashMap<(VnfId, SiteId), LoadUnits>,
    /// The Eq 3 objective: Σ (w+v) · d · x over all chains/stages/flows.
    pub aggregate_latency: f64,
    /// Total routed traffic volume across all stages (the Eq 3 weights).
    pub routed_volume: Rate,
    /// Demand actually placed, Σ_c demand_c · routed_c.
    pub routed_demand: Rate,
    /// Total offered demand, Σ_c demand_c.
    pub total_demand: Rate,
}

impl Evaluation {
    /// Evaluates `solution` against `model`.
    ///
    /// # Panics
    ///
    /// Panics if the solution's chain count differs from the model's.
    #[must_use]
    pub fn of(model: &NetworkModel, solution: &RoutingSolution) -> Self {
        assert_eq!(
            solution.chains.len(),
            model.chains().len(),
            "solution arity must match model chains"
        );
        let routing = model.routing();
        let mut link_load = vec![0.0; model.topology().num_links()];
        let mut site_load = vec![0.0; model.num_sites()];
        let mut vnf_site_load: HashMap<(VnfId, SiteId), LoadUnits> = HashMap::new();
        let mut aggregate_latency = 0.0;
        let mut routed_volume = 0.0;
        let mut routed_demand = 0.0;
        let mut total_demand = 0.0;

        for (chain, routes) in model.chains().iter().zip(&solution.chains) {
            total_demand += chain.demand();
            routed_demand += chain.demand() * routes.routed;
            for (z, stage) in routes.stages.iter().enumerate() {
                let w = chain.forward[z];
                let v = chain.reverse[z];
                for flow in stage {
                    if flow.fraction <= 0.0 {
                        continue;
                    }
                    let fwd_traffic = w * flow.fraction;
                    let rev_traffic = v * flow.fraction;
                    let combined = fwd_traffic + rev_traffic;
                    routed_volume += combined;

                    // Eq 3 latency term.
                    let d = model.latency(flow.from.node, flow.to.node).value();
                    if d.is_finite() {
                        aggregate_latency += combined * d;
                    }

                    // Link loads: forward traffic follows from->to routing,
                    // reverse traffic follows to->from (Eq 7).
                    if flow.from.node != flow.to.node {
                        if fwd_traffic > 0.0 {
                            for &(link, r) in
                                routing.fractions_between(flow.from.node, flow.to.node)
                            {
                                link_load[link.index()] += fwd_traffic * r;
                            }
                        }
                        if rev_traffic > 0.0 {
                            for &(link, r) in
                                routing.fractions_between(flow.to.node, flow.from.node)
                            {
                                link_load[link.index()] += rev_traffic * r;
                            }
                        }
                    }

                    // Compute loads (Eq 4): traffic into the stage-z VNF...
                    if let Some(site) = flow.to.site {
                        let vnf = chain.vnfs[z];
                        let lf = model.vnfs()[vnf.index()].load_per_unit;
                        let load = lf * combined;
                        site_load[site.index()] += load;
                        *vnf_site_load.entry((vnf, site)).or_insert(0.0) += load;
                    }
                    // ...plus traffic out of the stage-(z-1) VNF.
                    if let Some(site) = flow.from.site {
                        let vnf = chain.vnfs[z - 1];
                        let lf = model.vnfs()[vnf.index()].load_per_unit;
                        let load = lf * combined;
                        site_load[site.index()] += load;
                        *vnf_site_load.entry((vnf, site)).or_insert(0.0) += load;
                    }
                }
            }
        }

        Self {
            link_load,
            site_load,
            vnf_site_load,
            aggregate_latency,
            routed_volume,
            routed_demand,
            total_demand,
        }
    }

    /// Maximum link utilization including background traffic.
    #[must_use]
    pub fn max_link_utilization(&self, model: &NetworkModel) -> f64 {
        model
            .topology()
            .links()
            .iter()
            .map(|l| {
                (self.link_load[l.id().index()] + model.background(l.id())) / l.bandwidth()
            })
            .fold(0.0, f64::max)
    }

    /// Whether the solution respects the MLU limit and every compute
    /// capacity, within a relative tolerance.
    #[must_use]
    pub fn is_feasible(&self, model: &NetworkModel, tol: f64) -> bool {
        for l in model.topology().links() {
            let cap = model.mlu() * l.bandwidth() - model.background(l.id());
            if self.link_load[l.id().index()] > cap * (1.0 + tol) + tol {
                return false;
            }
        }
        for (i, &load) in self.site_load.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let site = SiteId::new(i as u32);
            if load > model.site_capacity(site) * (1.0 + tol) + tol {
                return false;
            }
        }
        for (&(vnf, site), &load) in &self.vnf_site_load {
            let cap = model.vnfs()[vnf.index()]
                .site_capacity
                .get(&site)
                .copied()
                .unwrap_or(0.0);
            if load > cap * (1.0 + tol) + tol {
                return false;
            }
        }
        true
    }

    /// The largest factor α by which all chain traffic can be scaled while
    /// the solution stays feasible (background traffic fixed). Infinite
    /// when the solution carries no traffic.
    #[must_use]
    pub fn max_uniform_scale(&self, model: &NetworkModel) -> f64 {
        let mut alpha = f64::INFINITY;
        for l in model.topology().links() {
            let load = self.link_load[l.id().index()];
            if load > 0.0 {
                let budget = model.mlu() * l.bandwidth() - model.background(l.id());
                alpha = alpha.min((budget / load).max(0.0));
            }
        }
        for (i, &load) in self.site_load.iter().enumerate() {
            if load > 0.0 {
                #[allow(clippy::cast_possible_truncation)]
                let site = SiteId::new(i as u32);
                alpha = alpha.min(model.site_capacity(site) / load);
            }
        }
        for (&(vnf, site), &load) in &self.vnf_site_load {
            if load > 0.0 {
                let cap = model.vnfs()[vnf.index()]
                    .site_capacity
                    .get(&site)
                    .copied()
                    .unwrap_or(0.0);
                alpha = alpha.min(cap / load);
            }
        }
        alpha
    }

    /// The scheme's maximum sustainable throughput: the demand it placed,
    /// scaled to the feasibility frontier. This is the "throughput" series
    /// of Figures 12a/12b/13a.
    #[must_use]
    pub fn max_throughput(&self, model: &NetworkModel) -> Rate {
        if self.routed_demand <= 0.0 {
            return 0.0;
        }
        let alpha = self.max_uniform_scale(model);
        if alpha.is_infinite() {
            return self.routed_demand;
        }
        self.routed_demand * alpha.min(1e6)
    }

    /// Mean propagation latency per unit of routed traffic (ms): the Eq 3
    /// objective normalized by the routed volume.
    #[must_use]
    pub fn mean_latency(&self) -> Millis {
        if self.routed_volume <= 0.0 {
            Millis::ZERO
        } else {
            Millis::new(self.aggregate_latency / self.routed_volume)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::line_model;
    use crate::route::{ChainRoutes, RoutePath, RoutingSolution};
    use sb_types::SiteId;

    fn solution_via(m: &NetworkModel, site: u32, fraction: f64) -> RoutingSolution {
        let c = &m.chains()[0];
        RoutingSolution {
            chains: vec![ChainRoutes::from_paths(
                m,
                c,
                &[RoutePath {
                    sites: vec![SiteId::new(site)],
                    fraction,
                }],
            )],
        }
    }

    #[test]
    fn latency_matches_hand_computation() {
        let m = line_model();
        // Via site 0 (node n1): ingress->n1 is 5ms, n1->egress is 15ms.
        let sol = solution_via(&m, 0, 1.0);
        let e = Evaluation::of(&m, &sol);
        // Stage traffic = 12 per stage (10 fwd + 2 rev): 12*5 + 12*15 = 240.
        assert!((e.aggregate_latency - 240.0).abs() < 1e-9, "{}", e.aggregate_latency);
        assert!((e.mean_latency().value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn link_loads_respect_direction() {
        let m = line_model();
        let sol = solution_via(&m, 0, 1.0);
        let e = Evaluation::of(&m, &sol);
        // Link n0->n1 carries forward stage-0 traffic (10); n1->n0 carries
        // reverse stage-0 traffic (2).
        let l01 = m
            .topology()
            .link_between(sb_types::NodeId::new(0), sb_types::NodeId::new(1))
            .unwrap()
            .id();
        let l10 = m
            .topology()
            .link_between(sb_types::NodeId::new(1), sb_types::NodeId::new(0))
            .unwrap()
            .id();
        assert!((e.link_load[l01.index()] - 10.0).abs() < 1e-9);
        assert!((e.link_load[l10.index()] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn compute_load_counts_in_and_out() {
        let m = line_model();
        let sol = solution_via(&m, 0, 1.0);
        let e = Evaluation::of(&m, &sol);
        // l_f = 1; traffic in = 12 (stage 0), out = 12 (stage 1) -> load 24.
        assert!((e.site_load[0] - 24.0).abs() < 1e-9, "{:?}", e.site_load);
        assert_eq!(e.site_load[1], 0.0);
        let vl = e.vnf_site_load[&(sb_types::VnfId::new(0), SiteId::new(0))];
        assert!((vl - 24.0).abs() < 1e-9);
    }

    #[test]
    fn max_uniform_scale_hits_tightest_resource() {
        let m = line_model();
        let sol = solution_via(&m, 0, 1.0);
        let e = Evaluation::of(&m, &sol);
        // VNF capacity at site 0 is 50, load 24 -> alpha_vnf = 50/24.
        // Links: load 10 on 100 cap -> alpha 10. Site: 100/24.
        let alpha = e.max_uniform_scale(&m);
        assert!((alpha - 50.0 / 24.0).abs() < 1e-9, "{alpha}");
        // Throughput = 12 * alpha.
        assert!((e.max_throughput(&m) - 12.0 * alpha).abs() < 1e-9);
    }

    #[test]
    fn partial_routing_scales_demand_share() {
        let m = line_model();
        let sol = solution_via(&m, 1, 0.5);
        let e = Evaluation::of(&m, &sol);
        assert!((e.routed_demand - 6.0).abs() < 1e-9);
        assert!((e.total_demand - 12.0).abs() < 1e-9);
    }

    #[test]
    fn infeasibility_is_detected() {
        let m = line_model();
        // Scale demand so VNF load (24x) exceeds capacity 50 at x=3.
        let m3 = m.with_scaled_traffic(3.0);
        let sol = solution_via(&m3, 0, 1.0);
        let e = Evaluation::of(&m3, &sol);
        assert!(!e.is_feasible(&m3, 1e-6));
        let sol_ok = solution_via(&m, 0, 1.0);
        let e_ok = Evaluation::of(&m, &sol_ok);
        assert!(e_ok.is_feasible(&m, 1e-6));
    }

    #[test]
    fn empty_solution_evaluates_to_zero() {
        let m = line_model();
        let e = Evaluation::of(&m, &RoutingSolution::empty(&m));
        assert_eq!(e.routed_demand, 0.0);
        assert_eq!(e.max_throughput(&m), 0.0);
        assert_eq!(e.mean_latency(), Millis::ZERO);
        assert!(e.is_feasible(&m, 1e-9));
    }

    #[test]
    fn background_traffic_tightens_links() {
        let m = line_model();
        let sol = solution_via(&m, 0, 1.0);
        let e = Evaluation::of(&m, &sol);
        let no_bg = e.max_link_utilization(&m);
        assert!(no_bg > 0.0 && no_bg < 1.0);
    }
}
