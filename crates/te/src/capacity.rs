//! The capacity-planning problems (Sections 4.2-4.3, Figure 13b/c).
//!
//! **Cloud capacity planning**: given additional compute `A` to deploy
//! across sites, choose the per-site allocation `a_s` that maximizes the
//! uniform traffic scale-up α. The paper adapts the chain-routing LP by
//! turning site capacities into variables `m_s + a_s` with `Σ a_s ≤ A`.
//! Per-VNF capacities are assumed to scale with their site's capacity
//! (matching the simulation setup's "capacity is divided equally among all
//! VNF instances at that site"), so the joint LP optimizes site totals and
//! both candidate allocations are *scored* on models with proportionally
//! scaled VNF capacities. The baseline spreads `A` uniformly (Figure 13b).
//!
//! **VNF capacity planning**: given `y_f` new sites for a VNF, choose the
//! set `S'_f` (disjoint from `S_f`) minimizing aggregate chain latency.
//! The paper formulates a MIP with binary placement variables `w_fs`;
//! [`plan_vnf_placement_mip`] implements exactly that on top of the
//! min-latency LP, and [`plan_vnf_placement_greedy`] provides the scalable
//! greedy variant used at figure scale. The baseline picks new sites at
//! random (Figure 13c).

use crate::dp::{route_chains, DpConfig};
use crate::eval::Evaluation;
use crate::lp;
use crate::model::NetworkModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sb_lp::{LinExpr, MipOptions, Model as LpModel, Sense};
use sb_types::{Error, LoadUnits, Result, SiteId, VnfId};
use std::collections::BTreeMap;

/// Returns a copy of `model` with site capacities set to `new_caps` and
/// every VNF's per-site capacity scaled by its site's growth factor.
#[must_use]
pub fn rescale_model(model: &NetworkModel, new_caps: &[LoadUnits]) -> NetworkModel {
    let mut m = model.with_site_capacities(new_caps.to_vec());
    for vnf in model.vnfs() {
        let mut caps = vnf.site_capacity.clone();
        for (site, c) in &mut caps {
            let old = model.site_capacity(*site);
            if old > 0.0 {
                *c *= new_caps[site.index()] / old;
            }
        }
        m = m.with_vnf_sites(vnf.id, caps);
    }
    m
}

/// Cloud capacity planning: allocates `extra` total capacity across sites
/// to maximize the achievable uniform scale α, by the adapted
/// max-throughput LP with variable site capacities. Returns the new
/// per-site capacity vector (`m_s + a_s`).
///
/// # Errors
///
/// Propagates LP failures; [`Error::Infeasible`] only on malformed models.
pub fn plan_cloud_capacity(model: &NetworkModel, extra: LoadUnits) -> Result<Vec<LoadUnits>> {
    model.validate()?;
    let mut lpm = LpModel::new(Sense::Maximize);
    let vars = lp::build_vars(model, &mut lpm);
    let alpha = lpm.add_var("alpha", 0.0, f64::INFINITY, 1.0);

    // Demand rows: Σ first-stage = α.
    for (ci, _chain) in model.chains().iter().enumerate() {
        let mut expr: LinExpr = vars
            .iter()
            .filter(|f| f.chain == ci && f.stage == 0)
            .map(|f| (f.var, 1.0))
            .collect();
        if expr.terms().is_empty() {
            return Err(Error::infeasible(format!(
                "chain {ci} has no reachable first-stage placement"
            )));
        }
        expr.add_term(alpha, -1.0);
        lpm.add_eq(expr, 0.0);
    }

    lp::add_conservation(model, &mut lpm, &vars);

    // Per-site allocation variables, Σ a_s <= extra.
    let sites = model.sites();
    let alloc: Vec<_> = sites
        .iter()
        .map(|s| lpm.add_var(format!("a_{s}"), 0.0, f64::INFINITY, 0.0))
        .collect();
    let budget: LinExpr = alloc.iter().map(|&a| (a, 1.0)).collect();
    lpm.add_le(budget, extra);

    // Site compute: load - a_s <= m_s; and per-(VNF, site) compute with
    // the VNF's slot growing proportionally with its site:
    // load_{f,s} <= m_sf + (m_sf / m_s) * a_s. Both are linear in a_s, and
    // together they make the planning LP agree exactly with how
    // [`rescale_model`] scores an allocation.
    let mut site_exprs: Vec<LinExpr> = vec![LinExpr::new(); model.num_sites()];
    let mut vnf_site_exprs: BTreeMap<(VnfId, SiteId), LinExpr> = BTreeMap::new();
    for fv in &vars {
        let chain = &model.chains()[fv.chain];
        let traffic = chain.stage_traffic(fv.stage);
        if let Some(site) = fv.to.site {
            let vnf = chain.vnfs[fv.stage];
            let lf = model.vnfs()[vnf.index()].load_per_unit;
            site_exprs[site.index()].add_term(fv.var, lf * traffic);
            vnf_site_exprs
                .entry((vnf, site))
                .or_default()
                .add_term(fv.var, lf * traffic);
        }
        if let Some(site) = fv.from.site {
            let vnf = chain.vnfs[fv.stage - 1];
            let lf = model.vnfs()[vnf.index()].load_per_unit;
            site_exprs[site.index()].add_term(fv.var, lf * traffic);
            vnf_site_exprs
                .entry((vnf, site))
                .or_default()
                .add_term(fv.var, lf * traffic);
        }
    }
    for (i, mut expr) in site_exprs.into_iter().enumerate() {
        if expr.terms().is_empty() {
            continue;
        }
        #[allow(clippy::cast_possible_truncation)]
        let site = SiteId::new(i as u32);
        expr.add_term(alloc[i], -1.0);
        lpm.add_le(expr, model.site_capacity(site));
    }
    for ((vnf, site), mut expr) in vnf_site_exprs {
        let m_sf = model.vnfs()[vnf.index()]
            .site_capacity
            .get(&site)
            .copied()
            .unwrap_or(0.0);
        let m_s = model.site_capacity(site);
        if m_s > 0.0 {
            expr.add_term(alloc[site.index()], -m_sf / m_s);
        }
        lpm.add_le(expr, m_sf);
    }

    // MLU rows.
    let mut link_exprs: Vec<LinExpr> = vec![LinExpr::new(); model.topology().num_links()];
    for fv in &vars {
        let chain = &model.chains()[fv.chain];
        if fv.from.node == fv.to.node {
            continue;
        }
        let (w, v) = (chain.forward[fv.stage], chain.reverse[fv.stage]);
        if w > 0.0 {
            for &(link, r) in model.routing().fractions_between(fv.from.node, fv.to.node) {
                link_exprs[link.index()].add_term(fv.var, w * r);
            }
        }
        if v > 0.0 {
            for &(link, r) in model.routing().fractions_between(fv.to.node, fv.from.node) {
                link_exprs[link.index()].add_term(fv.var, v * r);
            }
        }
    }
    for (i, expr) in link_exprs.into_iter().enumerate() {
        if !expr.terms().is_empty() {
            let link = &model.topology().links()[i];
            let budget = model.mlu() * link.bandwidth() - model.background(link.id());
            lpm.add_le(expr, budget.max(0.0));
        }
    }

    let sol = lpm.solve().map_err(lp::lp_err)?;
    Ok(sites
        .iter()
        .zip(&alloc)
        .map(|(s, &a)| model.site_capacity(*s) + sol.value(a).max(0.0))
        .collect())
}

/// The uniform baseline: spreads `extra` equally across all sites.
#[must_use]
pub fn uniform_cloud_capacity(model: &NetworkModel, extra: LoadUnits) -> Vec<LoadUnits> {
    #[allow(clippy::cast_precision_loss)]
    let per = extra / model.num_sites() as f64;
    model
        .sites()
        .iter()
        .map(|&s| model.site_capacity(s) + per)
        .collect()
}

/// VNF placement via the paper's MIP: picks `new_sites` sites (not already
/// hosting `vnf`) to minimize aggregate chain latency, giving each new
/// deployment `per_site_capacity`. Exact but exponential in the worst
/// case; intended for small instances (see
/// [`plan_vnf_placement_greedy`] for figure scale).
///
/// # Errors
///
/// - [`Error::Infeasible`] when no placement admits a feasible routing.
/// - [`Error::invalid_argument`] when fewer than `new_sites` candidate
///   sites exist.
pub fn plan_vnf_placement_mip(
    model: &NetworkModel,
    vnf: VnfId,
    new_sites: usize,
    per_site_capacity: LoadUnits,
) -> Result<Vec<SiteId>> {
    let candidates = placement_candidates(model, vnf, new_sites)?;

    // Trial model: the VNF deployed everywhere (existing + candidates).
    let trial = trial_model(model, vnf, &candidates, per_site_capacity);

    let mut lpm = LpModel::new(Sense::Minimize);
    let vars = lp::build_vars(&trial, &mut lpm);
    for fv in &vars {
        let chain = &trial.chains()[fv.chain];
        let d = trial.latency(fv.from.node, fv.to.node).value();
        if d.is_finite() {
            lpm.set_objective_coef(fv.var, chain.stage_traffic(fv.stage) * d);
        }
    }
    for (ci, _chain) in trial.chains().iter().enumerate() {
        let expr: LinExpr = vars
            .iter()
            .filter(|f| f.chain == ci && f.stage == 0)
            .map(|f| (f.var, 1.0))
            .collect();
        lpm.add_eq(expr, 1.0);
    }
    lp::add_shared_constraints(&trial, &mut lpm, &vars);

    // Binary placement variables and linking constraints: flow into a
    // candidate site of this VNF requires w_fs = 1.
    let mut w = BTreeMap::new();
    for &s in &candidates {
        w.insert(s, lpm.add_binary_var(format!("w_{s}"), 0.0));
    }
    let count: LinExpr = w.values().map(|&b| (b, 1.0)).collect();
    #[allow(clippy::cast_precision_loss)]
    lpm.add_eq(count, new_sites as f64);
    for fv in &vars {
        let chain = &trial.chains()[fv.chain];
        let touches = |site: Option<SiteId>, stage_vnf: Option<VnfId>| {
            site.and_then(|s| w.get(&s).copied())
                .filter(|_| stage_vnf == Some(vnf))
        };
        let to_vnf = (fv.stage < chain.vnfs.len()).then(|| chain.vnfs[fv.stage]);
        let from_vnf = (fv.stage > 0).then(|| chain.vnfs[fv.stage - 1]);
        for bin in [touches(fv.to.site, to_vnf), touches(fv.from.site, from_vnf)]
            .into_iter()
            .flatten()
        {
            // x <= w.
            lpm.add_le(LinExpr::from(vec![(fv.var, 1.0), (bin, -1.0)]), 0.0);
        }
    }

    let sol = lpm.solve_mip(&MipOptions::default()).map_err(lp::lp_err)?;
    let mut chosen: Vec<SiteId> = candidates
        .into_iter()
        .filter(|s| sol.value(w[s]) > 0.5)
        .collect();
    chosen.sort();
    Ok(chosen)
}

/// Greedy VNF placement: adds one site at a time, each time choosing the
/// candidate that most reduces the SB-DP aggregate latency. Scales to the
/// figure-sized models where the exact MIP would branch too much.
///
/// # Errors
///
/// Returns [`Error::invalid_argument`] when fewer than `new_sites`
/// candidates exist.
pub fn plan_vnf_placement_greedy(
    model: &NetworkModel,
    vnf: VnfId,
    new_sites: usize,
    per_site_capacity: LoadUnits,
) -> Result<Vec<SiteId>> {
    let mut candidates = placement_candidates(model, vnf, new_sites)?;
    let mut chosen = Vec::with_capacity(new_sites);
    // Pure-latency DP: the placement objective is aggregate latency
    // (Section 4.2), so utilization costs would only add noise here.
    let config = DpConfig { util_weight: 0.0 };
    for _ in 0..new_sites {
        let mut best: Option<(f64, SiteId)> = None;
        for &s in &candidates {
            let mut sites = chosen.clone();
            sites.push(s);
            let trial = trial_model(model, vnf, &sites, per_site_capacity);
            let sol = route_chains(&trial, &config);
            let e = Evaluation::of(&trial, &sol);
            // Unrouted demand is penalized so coverage wins ties.
            let score =
                e.aggregate_latency + 1e6 * (e.total_demand - e.routed_demand).max(0.0);
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, s));
            }
        }
        let (_, s) = best.expect("candidates is non-empty");
        chosen.push(s);
        candidates.retain(|&c| c != s);
    }
    chosen.sort();
    Ok(chosen)
}

/// The random-placement baseline of Figure 13c.
///
/// # Errors
///
/// Returns [`Error::invalid_argument`] when fewer than `new_sites`
/// candidates exist.
pub fn random_vnf_placement(
    model: &NetworkModel,
    vnf: VnfId,
    new_sites: usize,
    seed: u64,
) -> Result<Vec<SiteId>> {
    let mut candidates = placement_candidates(model, vnf, new_sites)?;
    let mut rng = StdRng::seed_from_u64(seed);
    candidates.shuffle(&mut rng);
    let mut chosen: Vec<SiteId> = candidates.into_iter().take(new_sites).collect();
    chosen.sort();
    Ok(chosen)
}

/// Applies a placement: returns the model with `vnf` additionally deployed
/// at `sites` with `per_site_capacity` each.
#[must_use]
pub fn apply_placement(
    model: &NetworkModel,
    vnf: VnfId,
    sites: &[SiteId],
    per_site_capacity: LoadUnits,
) -> NetworkModel {
    trial_model(model, vnf, sites, per_site_capacity)
}

fn trial_model(
    model: &NetworkModel,
    vnf: VnfId,
    extra_sites: &[SiteId],
    per_site_capacity: LoadUnits,
) -> NetworkModel {
    let mut caps = model.vnfs()[vnf.index()].site_capacity.clone();
    for &s in extra_sites {
        caps.entry(s).or_insert(per_site_capacity);
    }
    model.with_vnf_sites(vnf, caps)
}

fn placement_candidates(
    model: &NetworkModel,
    vnf: VnfId,
    new_sites: usize,
) -> Result<Vec<SiteId>> {
    let existing = model.vnf(vnf)?.sites();
    let candidates: Vec<SiteId> = model
        .sites()
        .into_iter()
        .filter(|s| !existing.contains(s))
        .collect();
    if candidates.len() < new_sites {
        return Err(Error::invalid_argument(format!(
            "need {new_sites} new sites but only {} candidates exist",
            candidates.len()
        )));
    }
    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ChainSpec, NetworkModel};
    use sb_types::{ChainId, Millis};
    use std::collections::HashMap as Map;

    /// Hot site (well connected) and cold site (thin links): extra compute
    /// placed at the cold site is stranded behind its link capacity, so the
    /// planner should funnel capacity to the hot site.
    fn skewed_model() -> NetworkModel {
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("src", (0.0, 0.0), 1.0);
        let hot = tb.add_node("hot", (0.0, 1.0), 1.0);
        let cold = tb.add_node("cold", (0.0, 9.0), 1.0);
        let n3 = tb.add_node("dst", (0.0, 2.0), 1.0);
        tb.add_duplex_link(n0, hot, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(hot, n3, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n0, cold, 10.0, Millis::new(40.0));
        tb.add_duplex_link(cold, n3, 10.0, Millis::new(40.0));
        let mut b = NetworkModel::builder(tb.build());
        let s_hot = b.add_site(hot, 10.0);
        let s_cold = b.add_site(cold, 10.0);
        let vnf = b.add_vnf(Map::from([(s_hot, 10.0), (s_cold, 10.0)]), 1.0);
        b.add_chain(ChainSpec::uniform(
            ChainId::new(0),
            n0,
            n3,
            vec![vnf],
            10.0,
            0.0,
        ));
        b.build().unwrap()
    }

    #[test]
    fn cloud_planning_funnels_capacity_to_hot_site() {
        let m = skewed_model();
        let caps = plan_cloud_capacity(&m, 100.0).unwrap();
        // Optimized allocation sends (essentially) everything to hot.
        assert!(
            caps[0] > caps[1],
            "hot {} should exceed cold {}",
            caps[0],
            caps[1]
        );
        // And achieves at least the uniform baseline's throughput.
        let planned = rescale_model(&m, &caps);
        let uniform = rescale_model(&m, &uniform_cloud_capacity(&m, 100.0));
        let (_, a_plan) = lp::max_throughput(&planned).unwrap();
        let (_, a_uni) = lp::max_throughput(&uniform).unwrap();
        assert!(
            a_plan >= a_uni - 1e-6,
            "planned {a_plan} vs uniform {a_uni}"
        );
        assert!(a_plan > a_uni * 1.2, "expected a clear win: {a_plan} vs {a_uni}");
    }

    #[test]
    fn uniform_allocation_spreads_evenly() {
        let m = skewed_model();
        let caps = uniform_cloud_capacity(&m, 100.0);
        assert!((caps[0] - 60.0).abs() < 1e-9);
        assert!((caps[1] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn rescale_scales_vnf_caps_proportionally() {
        let m = skewed_model();
        let m2 = rescale_model(&m, &[20.0, 10.0]);
        // Site 0 doubled -> its VNF slot doubles too.
        assert_eq!(
            m2.vnfs()[0].site_capacity[&SiteId::new(0)],
            20.0
        );
        assert_eq!(m2.vnfs()[0].site_capacity[&SiteId::new(1)], 10.0);
    }

    /// Model where a VNF exists only at a distant site and two candidate
    /// sites differ sharply in latency.
    fn placement_model() -> NetworkModel {
        let mut tb = sb_topology::TopologyBuilder::new();
        let n0 = tb.add_node("src", (0.0, 0.0), 1.0);
        let far = tb.add_node("far", (0.0, 9.0), 1.0);
        let near = tb.add_node("near", (0.0, 1.0), 1.0);
        let mid = tb.add_node("mid", (0.0, 5.0), 1.0);
        let n4 = tb.add_node("dst", (0.0, 2.0), 1.0);
        tb.add_duplex_link(n0, near, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(near, n4, 1000.0, Millis::new(1.0));
        tb.add_duplex_link(n0, mid, 1000.0, Millis::new(15.0));
        tb.add_duplex_link(mid, n4, 1000.0, Millis::new(15.0));
        tb.add_duplex_link(n0, far, 1000.0, Millis::new(50.0));
        tb.add_duplex_link(far, n4, 1000.0, Millis::new(50.0));
        let mut b = NetworkModel::builder(tb.build());
        let s_far = b.add_site(far, 100.0);
        let s_near = b.add_site(near, 100.0);
        let s_mid = b.add_site(mid, 100.0);
        let _ = (s_near, s_mid);
        let vnf = b.add_vnf(Map::from([(s_far, 100.0)]), 1.0);
        b.add_chain(ChainSpec::uniform(
            ChainId::new(0),
            n0,
            n4,
            vec![vnf],
            5.0,
            0.0,
        ));
        b.build().unwrap()
    }

    #[test]
    fn mip_places_vnf_at_lowest_latency_candidate() {
        let m = placement_model();
        let chosen = plan_vnf_placement_mip(&m, sb_types::VnfId::new(0), 1, 100.0).unwrap();
        // near (site 1) gives a 2ms path vs mid (30ms) vs far (100ms).
        assert_eq!(chosen, vec![SiteId::new(1)]);
    }

    #[test]
    fn greedy_matches_mip_on_small_instance() {
        let m = placement_model();
        let mip = plan_vnf_placement_mip(&m, sb_types::VnfId::new(0), 1, 100.0).unwrap();
        let greedy = plan_vnf_placement_greedy(&m, sb_types::VnfId::new(0), 1, 100.0).unwrap();
        assert_eq!(mip, greedy);
    }

    #[test]
    fn random_placement_is_deterministic_per_seed() {
        let m = placement_model();
        let a = random_vnf_placement(&m, sb_types::VnfId::new(0), 1, 7).unwrap();
        let b = random_vnf_placement(&m, sb_types::VnfId::new(0), 1, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        // Never selects the existing site.
        assert_ne!(a[0], SiteId::new(0));
    }

    #[test]
    fn placement_improves_latency_over_status_quo() {
        let m = placement_model();
        let chosen = plan_vnf_placement_mip(&m, sb_types::VnfId::new(0), 1, 100.0).unwrap();
        let placed = apply_placement(&m, sb_types::VnfId::new(0), &chosen, 100.0);
        let before = Evaluation::of(&m, &route_chains(&m, &DpConfig::default()));
        let after = Evaluation::of(&placed, &route_chains(&placed, &DpConfig::default()));
        assert!(
            after.mean_latency() < before.mean_latency() * 0.5,
            "before {} after {}",
            before.mean_latency(),
            after.mean_latency()
        );
    }

    #[test]
    fn too_few_candidates_is_rejected() {
        let m = placement_model();
        assert!(plan_vnf_placement_mip(&m, sb_types::VnfId::new(0), 5, 1.0).is_err());
        assert!(random_vnf_placement(&m, sb_types::VnfId::new(0), 5, 1).is_err());
    }
}
