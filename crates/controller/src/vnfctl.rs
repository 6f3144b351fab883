//! The per-VNF controller: instance ownership and two-phase commit voting.

use crate::messages::InstanceRecord;
use sb_types::{ChainId, Error, LoadUnits, Result, RouteId, SiteId, VnfId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One site's pool of instances for a VNF.
#[derive(Debug, Clone)]
struct SitePool {
    capacity: LoadUnits,
    committed: LoadUnits,
    /// Outstanding reservations, in key order: their sum decides a veto,
    /// so it must add the same terms in the same order in every process.
    prepared: BTreeMap<(ChainId, RouteId), LoadUnits>,
    /// Keys of live routes whose reservation has been committed, so a
    /// retried commit (after a lost acknowledgment) is an idempotent
    /// no-op. [`VnfController::retire`] removes a route's key.
    committed_keys: HashSet<(ChainId, RouteId)>,
    instances: Vec<InstanceRecord>,
}

/// The controller of one VNF service (Section 3: "A VNF service is a
/// multi-site, multi-tenant service comprised of VNF instances at each site
/// and a centralized VNF controller").
///
/// The controller is the two-phase-commit participant for its VNF: a
/// `prepare` reserves capacity for a chain route at a site (vetoing when
/// short — the paper's reason for using 2PC), `commit` makes it durable,
/// `abort` releases it.
#[derive(Debug, Clone)]
pub struct VnfController {
    vnf: VnfId,
    /// The site whose proxy this controller publishes from (its home).
    home_site: SiteId,
    pools: HashMap<SiteId, SitePool>,
}

impl VnfController {
    /// Creates a controller for `vnf` homed at `home_site`, with no
    /// deployments yet.
    #[must_use]
    pub fn new(vnf: VnfId, home_site: SiteId) -> Self {
        Self {
            vnf,
            home_site,
            pools: HashMap::new(),
        }
    }

    /// The VNF this controller manages.
    #[must_use]
    pub fn vnf(&self) -> VnfId {
        self.vnf
    }

    /// The controller's home site.
    #[must_use]
    pub fn home_site(&self) -> SiteId {
        self.home_site
    }

    /// Registers a deployment at `site` with `capacity` and a set of
    /// instances (Section 3, phase 1: instances register before chains are
    /// specified).
    pub fn deploy_at(
        &mut self,
        site: SiteId,
        capacity: LoadUnits,
        instances: Vec<InstanceRecord>,
    ) {
        self.pools.insert(
            site,
            SitePool {
                capacity,
                committed: 0.0,
                prepared: BTreeMap::new(),
                committed_keys: HashSet::new(),
                instances,
            },
        );
    }

    /// The deployment sites, sorted.
    #[must_use]
    pub fn sites(&self) -> Vec<SiteId> {
        let mut s: Vec<_> = self.pools.keys().copied().collect();
        s.sort();
        s
    }

    /// The instances at `site` (the payload of the Figure 6
    /// `.../site_X_instances` topic).
    #[must_use]
    pub fn instances_at(&self, site: SiteId) -> Vec<InstanceRecord> {
        self.pools
            .get(&site)
            .map(|p| p.instances.clone())
            .unwrap_or_default()
    }

    /// Remaining uncommitted capacity at `site`.
    #[must_use]
    pub fn available_at(&self, site: SiteId) -> LoadUnits {
        self.pools.get(&site).map_or(0.0, |p| {
            let pending: LoadUnits = p.prepared.values().sum();
            p.capacity - p.committed - pending
        })
    }

    /// Two-phase commit, phase 1: reserve `load` at `site` for a chain
    /// route. The paper: "Two-phase commit allows Global Switchboard to
    /// recompute the route if the proposed route is rejected by a VNF
    /// controller due to resource shortage."
    ///
    /// # Errors
    ///
    /// - [`Error::UnknownEntity`] when the VNF is not deployed at `site`.
    /// - [`Error::CommitRejected`] when remaining capacity is insufficient,
    ///   when `site` has no instances to serve the load, or when it has a
    ///   label-unaware instance and already holds a reservation for another
    ///   route: its forwarder re-affixes one label pair per such instance,
    ///   so the pool carries one route.
    pub fn prepare(
        &mut self,
        chain: ChainId,
        route: RouteId,
        site: SiteId,
        load: LoadUnits,
    ) -> Result<()> {
        let vnf = self.vnf;
        let available = self.available_at(site);
        let pool = self
            .pools
            .get_mut(&site)
            .ok_or_else(|| Error::unknown("vnf deployment site", site))?;
        let reject = |reason: String| Error::CommitRejected { vnf, site, reason };
        if load > available + 1e-9 {
            return Err(reject(format!(
                "need {load:.3} load units, only {available:.3} available"
            )));
        }
        if pool.instances.is_empty() {
            return Err(reject("no instances to serve the reservation".into()));
        }
        if pool.instances.iter().any(|i| !i.supports_labels)
            && pool
                .prepared
                .keys()
                .chain(&pool.committed_keys)
                .any(|&key| key != (chain, route))
        {
            return Err(reject(
                "a label-unaware instance already serves another route".into(),
            ));
        }
        *pool.prepared.entry((chain, route)).or_insert(0.0) += load;
        Ok(())
    }

    /// Two-phase commit, phase 2: make the reservation durable.
    ///
    /// Commit is **idempotent** for a live route: once a `(chain, route)`
    /// reservation has been committed at `site`, committing it again is a
    /// no-op success until the route is [retired](Self::retire).
    /// The coordinator relies on this to retry commits whose
    /// acknowledgment was lost (the commit decision is final, so the only
    /// safe recovery is re-sending it).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] when nothing was prepared (and
    /// nothing previously committed) for this chain route at `site`.
    pub fn commit(&mut self, chain: ChainId, route: RouteId, site: SiteId) -> Result<()> {
        let pool = self
            .pools
            .get_mut(&site)
            .ok_or_else(|| Error::unknown("vnf deployment site", site))?;
        match pool.prepared.remove(&(chain, route)) {
            Some(load) => {
                pool.committed += load;
                pool.committed_keys.insert((chain, route));
                Ok(())
            }
            None if pool.committed_keys.contains(&(chain, route)) => Ok(()),
            None => Err(Error::unknown(
                "prepared reservation",
                format!("{chain}/{route}"),
            )),
        }
    }

    /// Two-phase commit: release a reservation (vote-no cleanup).
    pub fn abort(&mut self, chain: ChainId, route: RouteId, site: SiteId) {
        if let Some(pool) = self.pools.get_mut(&site) {
            pool.prepared.remove(&(chain, route));
        }
    }

    /// All outstanding (prepared but neither committed nor aborted)
    /// reservations, as `(site, chain, route, load)` tuples sorted for
    /// determinism. A correct coordinator leaves this empty between
    /// deployments — the atomicity property the chaos tests assert.
    #[must_use]
    pub fn pending_reservations(&self) -> Vec<(SiteId, ChainId, RouteId, LoadUnits)> {
        let mut out: Vec<_> = self
            .pools
            .iter()
            .flat_map(|(&site, pool)| {
                pool.prepared
                    .iter()
                    .map(move |(&(chain, route), &load)| (site, chain, route, load))
            })
            .collect();
        out.sort_by_key(|&(site, chain, route, _)| {
            (site.value(), chain.value(), route.value())
        });
        out
    }

    /// Releases committed capacity of a reservation that stays (a route
    /// whose fraction shrank).
    pub fn release(&mut self, site: SiteId, load: LoadUnits) {
        if let Some(pool) = self.pools.get_mut(&site) {
            pool.committed = (pool.committed - load).max(0.0);
        }
    }

    /// Retires a route's reservation at `site`: releases its remaining
    /// `load` and forgets the `(chain, route)` key, so the key set holds
    /// live routes only. A commit re-sent for the retired key afterwards is
    /// [`Error::UnknownEntity`], not an acknowledgment of capacity that is
    /// no longer held.
    pub fn retire(&mut self, chain: ChainId, route: RouteId, site: SiteId, load: LoadUnits) {
        self.release(site, load);
        if let Some(pool) = self.pools.get_mut(&site) {
            pool.committed_keys.remove(&(chain, route));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_types::InstanceId;

    fn ctl() -> VnfController {
        let mut c = VnfController::new(VnfId::new(1), SiteId::new(0));
        c.deploy_at(
            SiteId::new(0),
            10.0,
            vec![InstanceRecord {
                instance: InstanceId::new(1),
                weight: 1.0,
                supports_labels: true,
            }],
        );
        c
    }

    #[test]
    fn prepare_commit_consumes_capacity() {
        let mut c = ctl();
        assert_eq!(c.available_at(SiteId::new(0)), 10.0);
        c.prepare(ChainId::new(1), RouteId::new(1), SiteId::new(0), 6.0)
            .unwrap();
        assert!((c.available_at(SiteId::new(0)) - 4.0).abs() < 1e-12);
        c.commit(ChainId::new(1), RouteId::new(1), SiteId::new(0))
            .unwrap();
        assert!((c.available_at(SiteId::new(0)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn over_capacity_prepare_is_rejected() {
        let mut c = ctl();
        c.prepare(ChainId::new(1), RouteId::new(1), SiteId::new(0), 6.0)
            .unwrap();
        let err = c
            .prepare(ChainId::new(2), RouteId::new(2), SiteId::new(0), 6.0)
            .unwrap_err();
        assert!(matches!(err, Error::CommitRejected { .. }));
    }

    #[test]
    fn abort_releases_reservation() {
        let mut c = ctl();
        c.prepare(ChainId::new(1), RouteId::new(1), SiteId::new(0), 6.0)
            .unwrap();
        c.abort(ChainId::new(1), RouteId::new(1), SiteId::new(0));
        assert_eq!(c.available_at(SiteId::new(0)), 10.0);
        // A fresh prepare now succeeds.
        c.prepare(ChainId::new(2), RouteId::new(2), SiteId::new(0), 9.0)
            .unwrap();
    }

    #[test]
    fn unknown_site_is_reported() {
        let mut c = ctl();
        assert!(c
            .prepare(ChainId::new(1), RouteId::new(1), SiteId::new(9), 1.0)
            .is_err());
        assert!(c
            .commit(ChainId::new(1), RouteId::new(1), SiteId::new(9))
            .is_err());
        assert_eq!(c.available_at(SiteId::new(9)), 0.0);
        assert!(c.instances_at(SiteId::new(9)).is_empty());
    }

    #[test]
    fn commit_without_prepare_fails() {
        let mut c = ctl();
        assert!(c
            .commit(ChainId::new(1), RouteId::new(1), SiteId::new(0))
            .is_err());
    }

    #[test]
    fn commit_is_idempotent_after_lost_ack() {
        let mut c = ctl();
        c.prepare(ChainId::new(1), RouteId::new(1), SiteId::new(0), 6.0)
            .unwrap();
        c.commit(ChainId::new(1), RouteId::new(1), SiteId::new(0))
            .unwrap();
        // The coordinator's ack was lost; it retries the commit.
        c.commit(ChainId::new(1), RouteId::new(1), SiteId::new(0))
            .unwrap();
        assert!((c.available_at(SiteId::new(0)) - 4.0).abs() < 1e-12);
        // A different, never-prepared key still fails.
        assert!(c
            .commit(ChainId::new(9), RouteId::new(9), SiteId::new(0))
            .is_err());
    }

    #[test]
    fn pending_reservations_tracks_outstanding_prepares() {
        let mut c = ctl();
        assert!(c.pending_reservations().is_empty());
        c.prepare(ChainId::new(1), RouteId::new(1), SiteId::new(0), 2.0)
            .unwrap();
        c.prepare(ChainId::new(2), RouteId::new(2), SiteId::new(0), 3.0)
            .unwrap();
        let pending = c.pending_reservations();
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].1, ChainId::new(1));
        c.commit(ChainId::new(1), RouteId::new(1), SiteId::new(0))
            .unwrap();
        c.abort(ChainId::new(2), RouteId::new(2), SiteId::new(0));
        assert!(c.pending_reservations().is_empty());
    }

    #[test]
    fn retire_releases_and_forgets_the_key() {
        let mut c = ctl();
        let (chain, route, site) = (ChainId::new(1), RouteId::new(1), SiteId::new(0));
        c.prepare(chain, route, site, 8.0).unwrap();
        c.commit(chain, route, site).unwrap();
        // Shrinking keeps the key: the route is live, a re-sent commit is
        // still a no-op success.
        c.release(site, 2.0);
        c.commit(chain, route, site).unwrap();
        c.retire(chain, route, site, 6.0);
        assert_eq!(c.available_at(site), 10.0);
        let err = c.commit(chain, route, site).unwrap_err();
        assert!(matches!(err, Error::UnknownEntity { .. }), "{err}");
        // The same key can be reserved and committed afresh.
        c.prepare(chain, route, site, 3.0).unwrap();
        c.commit(chain, route, site).unwrap();
        assert!((c.available_at(site) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn release_returns_committed_capacity() {
        let mut c = ctl();
        c.prepare(ChainId::new(1), RouteId::new(1), SiteId::new(0), 8.0)
            .unwrap();
        c.commit(ChainId::new(1), RouteId::new(1), SiteId::new(0))
            .unwrap();
        c.release(SiteId::new(0), 8.0);
        assert_eq!(c.available_at(SiteId::new(0)), 10.0);
    }
}
