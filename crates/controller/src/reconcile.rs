//! The prioritized reconciliation queue: fleet-scale convergence after
//! demand storms (DESIGN.md §12).
//!
//! The deployment saga of [`crate::ControlPlane`] re-routes one chain per
//! update. At fleet scale the interesting regime is a *storm*: thousands
//! of demand changes arriving faster than they can be solved. The
//! [`FleetReconciler`] absorbs a storm without re-solving the fleet:
//!
//! - [`FleetReconciler::enqueue`] marks a chain dirty with a priority and
//!   a demand target. Repeated updates to the same chain **coalesce**
//!   (highest priority wins, latest demand target wins), so a chain that
//!   flaps a hundred times between drains is solved once;
//! - [`FleetReconciler::drain`] converges the queue: every dirty chain's
//!   installed load is unwound from the shared
//!   [`sb_te::dp::LoadTracker`], then the dirty chains are re-solved in
//!   canonical order — ascending `(priority, chain id)` — against the
//!   clean chains' standing load, through one shared
//!   [`sb_te::dp::DpScratch`]. The canonical order makes the outcome a
//!   function of the coalesced queue *contents*, independent of update
//!   arrival order (property-tested);
//! - each re-solve is diffed against the installed paths with
//!   [`sb_te::delta::RouteDelta`], so the report carries the update
//!   pipeline's real WAN cost: one message per affected site, exactly as
//!   [`crate::ControlPlane`] scopes its delta announcements.
//!
//! When every chain is dirty the drain degenerates to a cold re-solve
//! (tracker reset instead of pairwise unwinding, which would leave float
//! dust), making a full-fleet storm bit-identical to
//! [`sb_te::dp::route_chains`].

use sb_te::delta::RouteDelta;
use sb_te::dp::{self, DpConfig, DpScratch, LoadTracker};
use sb_te::{ChainRoutes, ChainSpec, NetworkModel, RoutePath, RoutingSolution};
use sb_telemetry::{Counter, Histogram, Telemetry};
use sb_types::{ChainId, SiteId};
use std::collections::{BTreeSet, HashMap};

/// One coalesced pending entry of the reconciliation queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Lower is more urgent.
    priority: u8,
    /// Demand target as a scale of the chain's base (construction-time)
    /// demand.
    scale: f64,
}

/// What one [`FleetReconciler::drain`] did.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Dirty chains re-solved in this drain.
    pub resolved_chains: usize,
    /// Updates absorbed by coalescing since the previous drain.
    pub coalesced: u64,
    /// Per-path route operations across all emitted deltas.
    pub delta_ops: usize,
    /// WAN messages the update pipeline would send: one per site affected
    /// by each chain's delta (unchanged paths cost nothing).
    pub wan_messages: usize,
}

/// Telemetry handles the reconciler publishes into (named exactly as the
/// benchmark snapshot expects them).
#[derive(Debug, Clone)]
struct ReconcileTelemetry {
    queue_coalesced: Counter,
    route_compute: Histogram,
}

impl ReconcileTelemetry {
    fn new(hub: &Telemetry) -> Self {
        Self {
            queue_coalesced: hub.registry.counter("te.queue_coalesced"),
            route_compute: hub.registry.histogram("cp.route_compute"),
        }
    }
}

/// The fleet-scale incremental routing driver: chain specs, their
/// installed routes, the live load tracker and the prioritized dirty-chain
/// queue.
#[derive(Debug)]
pub struct FleetReconciler {
    model: NetworkModel,
    /// The healthy model as constructed — site failures degrade copies of
    /// this, never the original, so healing restores it exactly.
    pristine_model: NetworkModel,
    config: DpConfig,
    /// Chain specs as originally deployed — demand targets scale these.
    base_specs: Vec<ChainSpec>,
    /// Current per-chain specs (base demand × last applied scale).
    specs: Vec<ChainSpec>,
    /// Last applied demand scale per chain (so health-driven re-solves
    /// preserve the demand target).
    scales: Vec<f64>,
    /// Installed route paths per chain, kept in lockstep with `tracker`.
    installed: Vec<Vec<RoutePath>>,
    index: HashMap<ChainId, usize>,
    tracker: LoadTracker,
    scratch: DpScratch,
    pending: HashMap<usize, Pending>,
    coalesced_since_drain: u64,
    /// Sites currently marked failed.
    failed_sites: BTreeSet<SiteId>,
    /// Chains whose routes were forced off their preferred sites by a
    /// failure; re-enqueued on the next health change so healing lets
    /// them reclaim optimal placement.
    displaced: BTreeSet<usize>,
    tele: Option<ReconcileTelemetry>,
}

impl FleetReconciler {
    /// Deploys every chain of `model` through SB-DP with one shared scratch
    /// and returns the reconciler holding the resulting live state.
    #[must_use]
    pub fn new(model: NetworkModel, config: DpConfig) -> Self {
        let base_specs: Vec<ChainSpec> = model.chains().to_vec();
        let index = base_specs
            .iter()
            .enumerate()
            .map(|(i, c)| (c.id, i))
            .collect();
        let mut tracker = LoadTracker::new(&model);
        let mut scratch = DpScratch::new();
        let installed = base_specs
            .iter()
            .map(|spec| {
                dp::route_chain_with(&model, &mut tracker, &config, spec, &mut scratch, None)
            })
            .collect();
        Self {
            specs: base_specs.clone(),
            scales: vec![1.0; base_specs.len()],
            base_specs,
            installed,
            index,
            tracker,
            scratch,
            pristine_model: model.clone(),
            model,
            config,
            pending: HashMap::new(),
            coalesced_since_drain: 0,
            failed_sites: BTreeSet::new(),
            displaced: BTreeSet::new(),
            tele: None,
        }
    }

    /// Publishes the queue's coalescing counter plus the per-chain
    /// `cp.route_compute` latency histogram into `hub`.
    pub fn attach_telemetry(&mut self, hub: &Telemetry) {
        self.tele = Some(ReconcileTelemetry::new(hub));
    }

    /// Number of chains under management.
    #[must_use]
    pub fn num_chains(&self) -> usize {
        self.specs.len()
    }

    /// Dirty chains currently queued.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Marks `chain` dirty: its demand moves to `demand_scale` × the base
    /// demand, to be re-solved at `priority` (lower = more urgent) on the
    /// next [`FleetReconciler::drain`]. Repeated updates to the same
    /// chain coalesce — the most urgent priority and the latest target
    /// win. Returns `false` for chains the reconciler does not manage.
    pub fn enqueue(&mut self, chain: ChainId, priority: u8, demand_scale: f64) -> bool {
        let Some(&i) = self.index.get(&chain) else {
            return false;
        };
        match self.pending.entry(i) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let p = e.get_mut();
                p.priority = p.priority.min(priority);
                p.scale = demand_scale;
                self.coalesced_since_drain += 1;
                if let Some(t) = &self.tele {
                    t.queue_coalesced.inc();
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Pending {
                    priority,
                    scale: demand_scale,
                });
            }
        }
        true
    }

    /// The installed route paths of `chain` (empty for unknown chains).
    #[must_use]
    pub fn installed_paths(&self, chain: ChainId) -> &[RoutePath] {
        self.index
            .get(&chain)
            .map_or(&[][..], |&i| &self.installed[i])
    }

    /// Sites currently marked failed.
    #[must_use]
    pub fn failed_sites(&self) -> &BTreeSet<SiteId> {
        &self.failed_sites
    }

    /// Replaces the set of failed sites (pass `&[]` to heal everything)
    /// and enqueues every chain the health change can affect, at
    /// `priority`. Returns the number of chains enqueued.
    ///
    /// The routing model is rebuilt from the pristine one with failed
    /// sites removed from every VNF's deployment map. Installed load is
    /// **not** unwound here — [`FleetReconciler::drain`] unwinds pending
    /// chains itself; path load coefficients depend only on topology,
    /// which a VNF-site-set swap leaves unchanged.
    ///
    /// Affected chains are: those whose installed paths touch a site whose
    /// health changed, those left under-routed by an earlier change, and
    /// those previously displaced by a failure (so healing lets them
    /// reclaim optimal placement). Chains already pending keep their
    /// queued demand target; only their priority can become more urgent.
    pub fn set_failed_sites(&mut self, failed: &[SiteId], priority: u8) -> usize {
        let new: BTreeSet<SiteId> = failed.iter().copied().collect();
        if new == self.failed_sites {
            return 0;
        }
        let changed: BTreeSet<SiteId> = self
            .failed_sites
            .symmetric_difference(&new)
            .copied()
            .collect();
        self.failed_sites = new;

        let mut model = self.pristine_model.clone();
        for vnf in self.pristine_model.vnfs() {
            if vnf
                .site_capacity
                .keys()
                .any(|s| self.failed_sites.contains(s))
            {
                let degraded = vnf
                    .site_capacity
                    .iter()
                    .filter(|(s, _)| !self.failed_sites.contains(s))
                    .map(|(s, c)| (*s, *c))
                    .collect();
                model = model.with_vnf_sites(vnf.id, degraded);
            }
        }
        self.model = model;

        let mut affected = std::mem::take(&mut self.displaced);
        for (i, paths) in self.installed.iter().enumerate() {
            let touches_changed = paths
                .iter()
                .any(|p| p.sites.iter().any(|s| changed.contains(s)));
            let under_routed = paths.iter().map(|p| p.fraction).sum::<f64>() < 1.0 - 1e-9;
            if touches_changed || under_routed {
                affected.insert(i);
            }
        }
        for &i in &affected {
            match self.pending.entry(i) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().priority = e.get().priority.min(priority);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(Pending {
                        priority,
                        scale: self.scales[i],
                    });
                }
            }
        }
        let count = affected.len();
        // On a fully healed model nothing stays displaced; otherwise the
        // affected set is exactly what the next health change must revisit.
        self.displaced = if self.failed_sites.is_empty() {
            BTreeSet::new()
        } else {
            affected
        };
        count
    }

    /// Converges the queue: unwinds every dirty chain's installed load,
    /// then re-solves the dirty chains in ascending `(priority, chain
    /// id)` order against the standing load of the untouched chains.
    /// Clean chains are never re-solved and never generate WAN traffic.
    pub fn drain(&mut self) -> DrainReport {
        let mut work: Vec<(u8, usize, f64)> = self
            .pending
            .drain()
            .map(|(i, p)| (p.priority, i, p.scale))
            .collect();
        work.sort_unstable_by_key(|&(priority, i, _)| (priority, i));

        let mut report = DrainReport {
            coalesced: self.coalesced_since_drain,
            ..DrainReport::default()
        };
        self.coalesced_since_drain = 0;

        if work.len() == self.specs.len() {
            // Full-fleet storm: a fresh tracker instead of pairwise
            // unwinding, so the drain is exactly a cold re-solve
            // (unwinding would leave float dust on every load).
            self.tracker = LoadTracker::new(&self.model);
        } else {
            for &(_, i, _) in &work {
                for p in &self.installed[i] {
                    let coefs = dp::path_coefficients(&self.model, &self.specs[i], &p.sites);
                    self.tracker.apply(&coefs, -p.fraction);
                }
            }
        }

        for &(_, i, scale) in &work {
            self.specs[i] = scaled_spec(&self.base_specs[i], scale);
            self.scales[i] = scale;
            let t0 = std::time::Instant::now();
            let paths = dp::route_chain_with(
                &self.model,
                &mut self.tracker,
                &self.config,
                &self.specs[i],
                &mut self.scratch,
                None,
            );
            if let Some(t) = &self.tele {
                #[allow(clippy::cast_possible_truncation)]
                t.route_compute.record(t0.elapsed().as_nanos() as u64);
            }
            let delta = RouteDelta::diff(&self.installed[i], &paths);
            report.delta_ops += delta.num_ops();
            report.wan_messages += delta.affected_sites().len();
            self.installed[i] = paths;
            report.resolved_chains += 1;
        }

        report
    }

    /// The currently installed routing solution.
    #[must_use]
    pub fn solution(&self) -> RoutingSolution {
        RoutingSolution {
            chains: self
                .specs
                .iter()
                .zip(&self.installed)
                .map(|(spec, paths)| ChainRoutes::from_paths(&self.model, spec, paths))
                .collect(),
        }
    }

    /// The full sequential cold re-solve of the current specs — the
    /// baseline the drain is benchmarked against (`bench-controlplane
    /// --check-warm`).
    #[must_use]
    pub fn solve_cold(&self) -> RoutingSolution {
        let mut tracker = LoadTracker::new(&self.model);
        RoutingSolution {
            chains: self
                .specs
                .iter()
                .map(|spec| {
                    let paths = dp::route_chain(&self.model, &mut tracker, &self.config, spec);
                    ChainRoutes::from_paths(&self.model, spec, &paths)
                })
                .collect(),
        }
    }
}

/// `base` with every per-stage forward/reverse demand scaled by `scale`.
fn scaled_spec(base: &ChainSpec, scale: f64) -> ChainSpec {
    let mut spec = base.clone();
    for w in &mut spec.forward {
        *w *= scale;
    }
    for v in &mut spec.reverse {
        *v *= scale;
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchboard_test_model::*;

    // Local line model mirroring sb-te's test fixture (that one is
    // crate-private): 4 nodes, 2 middle sites, 2 VNFs, one chain.
    mod switchboard_test_model {
        use sb_te::{ChainSpec, NetworkModel};
        use sb_topology::TopologyBuilder;
        use sb_types::{ChainId, Millis, SiteId};
        use std::collections::HashMap;

        pub fn line_model(num_chains: usize) -> NetworkModel {
            let mut tb = TopologyBuilder::new();
            let n0 = tb.add_node("n0", (0.0, 0.0), 1.0);
            let n1 = tb.add_node("n1", (0.0, 1.0), 1.0);
            let n2 = tb.add_node("n2", (0.0, 2.0), 1.0);
            let n3 = tb.add_node("n3", (0.0, 3.0), 1.0);
            tb.add_duplex_link(n0, n1, 1000.0, Millis::new(5.0));
            tb.add_duplex_link(n1, n2, 1000.0, Millis::new(10.0));
            tb.add_duplex_link(n2, n3, 1000.0, Millis::new(5.0));
            let mut b = NetworkModel::builder(tb.build());
            let s1 = b.add_site(n1, 1000.0);
            let s2 = b.add_site(n2, 1000.0);
            let caps: HashMap<SiteId, f64> = [(s1, 300.0), (s2, 300.0)].into();
            let vnf = b.add_vnf(caps, 1.0);
            for i in 0..num_chains {
                b.add_chain(ChainSpec::uniform(
                    ChainId::new(i as u64),
                    n0,
                    n3,
                    vec![vnf],
                    10.0,
                    2.0,
                ));
            }
            b.build().expect("static construction is valid")
        }
    }

    fn routed_total(sol: &RoutingSolution) -> f64 {
        sol.chains.iter().map(|c| c.routed).sum()
    }

    #[test]
    fn initial_solve_routes_every_chain() {
        let r = FleetReconciler::new(line_model(4), DpConfig::default());
        assert_eq!(r.num_chains(), 4);
        assert!((routed_total(&r.solution()) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn coalescing_keeps_one_entry_per_chain() {
        let mut r = FleetReconciler::new(line_model(3), DpConfig::default());
        assert!(r.enqueue(ChainId::new(1), 2, 1.5));
        assert!(r.enqueue(ChainId::new(1), 0, 1.2)); // more urgent, newer target
        assert!(r.enqueue(ChainId::new(1), 3, 1.4)); // less urgent, newest target
        assert!(!r.enqueue(ChainId::new(99), 0, 1.0));
        assert_eq!(r.pending_len(), 1);
        let report = r.drain();
        assert_eq!(report.resolved_chains, 1);
        assert_eq!(report.coalesced, 2);
        // The latest target won: chain 1 now runs at 1.4x demand.
        assert!((r.specs[1].demand() / r.base_specs[1].demand() - 1.4).abs() < 1e-9);
    }

    #[test]
    fn drain_converges_to_the_demand_targets() {
        let mut r = FleetReconciler::new(line_model(3), DpConfig::default());
        r.enqueue(ChainId::new(0), 1, 2.0);
        r.enqueue(ChainId::new(2), 0, 0.5);
        let report = r.drain();
        assert_eq!(report.resolved_chains, 2);
        assert!(report.wan_messages > 0 || report.delta_ops == 0);
        let sol = r.solution();
        assert!((routed_total(&sol) - 3.0).abs() < 1e-6, "all demand placed");
        // Untouched chain 1 kept its routes: a second drain with an empty
        // queue does nothing.
        let empty = r.drain();
        assert_eq!(empty.resolved_chains, 0);
        assert_eq!(empty.wan_messages, 0);
    }

    #[test]
    fn full_fleet_storm_equals_cold_resolve() {
        let mut r = FleetReconciler::new(line_model(5), DpConfig::default());
        for i in 0..5 {
            r.enqueue(ChainId::new(i), 1, 1.7);
        }
        let report = r.drain();
        assert_eq!(report.resolved_chains, 5);
        let warm = r.solution();
        let cold = r.solve_cold();
        for (w, c) in warm.chains.iter().zip(&cold.chains) {
            assert!((w.routed - c.routed).abs() < 1e-12);
            assert_eq!(w.stages.len(), c.stages.len());
            for (sw, sc) in w.stages.iter().zip(&c.stages) {
                assert_eq!(sw.len(), sc.len());
                for (fw, fc) in sw.iter().zip(sc) {
                    assert_eq!(fw.from, fc.from);
                    assert_eq!(fw.to, fc.to);
                    assert!((fw.fraction - fc.fraction).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn site_failure_reroutes_off_the_failed_site_and_healing_restores() {
        let model = line_model(4);
        let sites = model.sites();
        let mut r = FleetReconciler::new(model, DpConfig::default());
        let healthy_routed = routed_total(&r.solution());
        assert!((healthy_routed - 4.0).abs() < 1e-6);

        // Fail the first site: every chain routed through it must move.
        let enqueued = r.set_failed_sites(&sites[..1], 0);
        assert!(enqueued > 0);
        assert_eq!(r.pending_len(), enqueued);
        let report = r.drain();
        assert_eq!(report.resolved_chains, enqueued);
        for i in 0..4u64 {
            for p in r.installed_paths(ChainId::new(i)) {
                assert!(
                    !p.sites.contains(&sites[0]),
                    "chain {i} still routed through the failed site"
                );
            }
        }
        // The surviving site has capacity for the whole fleet.
        assert!((routed_total(&r.solution()) - 4.0).abs() < 1e-6);

        // Unchanged health is a no-op.
        assert_eq!(r.set_failed_sites(&sites[..1], 0), 0);

        // Healing re-enqueues the displaced chains and converges back to
        // full delivery on the pristine model.
        let healed = r.set_failed_sites(&[], 0);
        assert!(healed > 0);
        r.drain();
        assert!(r.failed_sites().is_empty());
        assert!((routed_total(&r.solution()) - healthy_routed).abs() < 1e-9);
    }

    #[test]
    fn failure_keeps_queued_demand_targets() {
        let model = line_model(2);
        let sites = model.sites();
        let mut r = FleetReconciler::new(model, DpConfig::default());
        // A demand update is queued before the failure lands: the failure
        // must raise urgency without clobbering the newer target.
        r.enqueue(ChainId::new(0), 5, 1.5);
        let _ = r.set_failed_sites(&sites[..1], 0);
        let _ = r.drain();
        assert!((r.specs[0].demand() / r.base_specs[0].demand() - 1.5).abs() < 1e-9);
        // The scale survives the heal-driven re-solve too.
        let _ = r.set_failed_sites(&[], 0);
        let _ = r.drain();
        assert!((r.specs[0].demand() / r.base_specs[0].demand() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn telemetry_counters_are_published() {
        let hub = Telemetry::new();
        let mut r = FleetReconciler::new(line_model(3), DpConfig::default());
        r.attach_telemetry(&hub);
        r.enqueue(ChainId::new(0), 0, 1.3);
        r.enqueue(ChainId::new(0), 0, 1.3);
        let _ = r.drain();
        assert_eq!(hub.registry.counter("te.queue_coalesced").get(), 1);
        let snap = hub.registry.snapshot();
        let h = snap.histogram("cp.route_compute").expect("histogram exists");
        assert_eq!(h.count, 1);
    }
}
