//! Solve stage (Figure 4, arrow 2): the network model, the live load of
//! every installed route, and the SB-DP solve against them that hands the
//! verbs a route set. [`Solve::account`] is told what load a committed or
//! retired route moves.

use crate::chain::{ChainRequest, InstalledRoute};
use crate::global::ControlPlane;
use crate::messages::RouteAnnouncement;
use sb_te::dp::{self, DpConfig, DpScratch, LoadTracker};
use sb_te::{ChainSpec, NetworkModel, RoutePath};
use sb_types::{ChainId, Error, Result, SiteId, VnfId};
use std::borrow::Cow;

/// The model and the live load state.
pub(crate) struct Solve {
    /// Sites/VNF catalog/topology, with an empty chain list.
    model: NetworkModel,
    /// The load of every installed route.
    tracker: LoadTracker,
    /// A solve's trial copy of `tracker`, its buffers reused by every
    /// solve.
    trial: LoadTracker,
    /// SB-DP's tables, reused by every solve.
    scratch: DpScratch,
}

impl Solve {
    /// The solve stage over `model` (its chain list is dropped), with no
    /// load installed.
    pub(crate) fn new(model: &NetworkModel) -> Self {
        let model = model.with_chains(Vec::new());
        let tracker = LoadTracker::new(&model);
        Self {
            model,
            trial: tracker.clone(),
            tracker,
            scratch: DpScratch::new(),
        }
    }

    /// The TE layer's view of a chain between two resolved sites.
    pub(crate) fn spec(&self, request: &ChainRequest, ends: (SiteId, SiteId)) -> ChainSpec {
        ChainSpec::uniform(
            request.id,
            self.model.site_node(ends.0),
            self.model.site_node(ends.1),
            request.vnfs.clone(),
            request.forward,
            request.reverse,
        )
    }

    /// The model a route solve may use: `shared` without the `dead`
    /// sites' VNF capacity and without the `excluded` (VNF, site)
    /// deployments that 2PC vetoed, so route (re)computation degrades
    /// gracefully instead of proposing routes through them. It stays
    /// borrowed while there is nothing to remove — a healthy solve copies
    /// and scans nothing — and otherwise replaces each affected VNF's
    /// deployment map once.
    fn solve_model<'a>(
        shared: &'a NetworkModel,
        dead: &[SiteId],
        excluded: &[(VnfId, SiteId)],
    ) -> Cow<'a, NetworkModel> {
        let mut model = Cow::Borrowed(shared);
        if dead.is_empty() && excluded.is_empty() {
            return model;
        }
        let stripped =
            |vnf: VnfId, site: &SiteId| dead.contains(site) || excluded.contains(&(vnf, *site));
        for vnf in shared.vnfs() {
            if vnf.site_capacity.keys().any(|s| stripped(vnf.id, s)) {
                let mut caps = vnf.site_capacity.clone();
                caps.retain(|s, _| !stripped(vnf.id, s));
                model = Cow::Owned(model.with_vnf_sites(vnf.id, caps));
            }
        }
        model
    }

    /// The one route solve: SB-DP for `spec` on the
    /// [`solve_model`](Self::solve_model) against a trial copy of the live
    /// tracker, with the `installed` paths (a rerouted chain's own routes;
    /// empty otherwise) lifted off it first, so only this chain's load is
    /// re-solved. Admission-controlled by [`check_placeable`], which names
    /// the solve by `when`. The live tracker is untouched; only the
    /// reused trial copy and DP tables change.
    pub(crate) fn solve(
        &mut self,
        spec: &ChainSpec,
        dead: &[SiteId],
        excluded: &[(VnfId, SiteId)],
        installed: &[RoutePath],
        when: &str,
    ) -> Result<Vec<RoutePath>> {
        let model = Self::solve_model(&self.model, dead, excluded);
        let trial = &mut self.trial;
        trial.clone_from(&self.tracker);
        for p in installed {
            let coefs = dp::path_coefficients(&model, spec, &p.sites);
            trial.apply(&coefs, -p.fraction);
        }
        let (config, scratch) = (DpConfig::default(), &mut self.scratch);
        let paths = dp::route_chain_with(&model, trial, &config, spec, scratch, None);
        check_placeable(&paths, spec.id, when)?;
        Ok(paths)
    }

    /// Moves the load of `spec` routed through `sites` by `by` (a
    /// fraction of the chain's demand; negative unwinds it).
    pub(crate) fn account(&mut self, spec: &ChainSpec, sites: &[SiteId], by: f64) {
        let coefs = dp::path_coefficients(&self.model, spec, sites);
        self.tracker.apply(&coefs, by);
    }

    /// The route, of `routes` held in route-id order, whose first VNF site
    /// is nearest to `site`. `min_by` keeps the first of equals, so the
    /// lowest route id wins a tie.
    pub(crate) fn nearest_route<'a>(
        &self,
        routes: &'a [InstalledRoute],
        site: SiteId,
    ) -> Option<&'a InstalledRoute> {
        let (m, from) = (&self.model, self.model.site_node(site));
        let latency = |r: &InstalledRoute| m.latency(from, m.site_node(r.ann.sites[0])).value();
        routes
            .iter()
            .min_by(|a, b| latency(a).total_cmp(&latency(b)))
    }

    /// Each stage's 2PC reservation load on `route` at `fraction`: the
    /// VNF's load coefficient times the stage's in+out traffic, scaled by
    /// the fraction. Yields `(vnf, site, load)` in stage order.
    pub(crate) fn stage_load<'a>(
        &'a self,
        spec: &'a ChainSpec,
        route: &'a RouteAnnouncement,
        fraction: f64,
    ) -> impl Iterator<Item = (VnfId, SiteId, f64)> + 'a {
        let stages = route.vnfs.iter().zip(&route.sites).enumerate();
        stages.map(move |(z, (&vnf, &site))| {
            let load = self.model.vnfs()[vnf.index()].load_per_unit
                * (spec.stage_traffic(z) + spec.stage_traffic(z + 1))
                * fraction;
            (vnf, site, load)
        })
    }
}

/// The solve stage's state as the public API reads it.
impl ControlPlane {
    /// The traffic-engineering model the control plane was built over:
    /// sites, VNF catalog and topology. Its chain list is empty; deployed
    /// chains live in the chain records ([`routes_of`](Self::routes_of)).
    #[must_use]
    pub fn model(&self) -> &NetworkModel {
        &self.solve.model
    }
}

/// Admission control on a solved route set: a chain is installed only
/// when its full estimated demand is placed. `when` names the solve in
/// the error (empty for a first deploy).
fn check_placeable(paths: &[RoutePath], chain: ChainId, when: &str) -> Result<()> {
    let routed: f64 = paths.iter().map(|p| p.fraction).sum();
    if routed < 1.0 - 1e-6 {
        return Err(Error::infeasible(format!(
            "only {:.1}% of {chain} demand is placeable{when}",
            routed * 100.0
        )));
    }
    Ok(())
}

/// Rejects a caller-specified route set that is not a split of the whole
/// demand: empty, a route whose site count mismatches the chain's VNFs,
/// a fraction that is not finite and positive, or fractions not summing
/// to 1 within deploy's admission tolerance.
pub(crate) fn check_route_set(routes: &[(Vec<SiteId>, f64)], num_vnfs: usize) -> Result<()> {
    if routes.is_empty() {
        return Err(Error::invalid_argument("a chain needs at least one route"));
    }
    for (sites, fraction) in routes {
        if sites.len() != num_vnfs {
            return Err(Error::invalid_argument(
                "route site count must match chain VNF count",
            ));
        }
        if !fraction.is_finite() || *fraction <= 0.0 {
            return Err(Error::invalid_argument(format!(
                "route fraction {fraction} is not finite and positive"
            )));
        }
    }
    let total: f64 = routes.iter().map(|(_, fraction)| fraction).sum();
    if (total - 1.0).abs() > 1e-6 {
        return Err(Error::invalid_argument(format!(
            "route fractions sum to {total}, not 1"
        )));
    }
    Ok(())
}

#[cfg(test)]
impl Solve {
    /// The live load state.
    pub(crate) fn tracker(&self) -> &LoadTracker {
        &self.tracker
    }
}
