//! The per-site Local Switchboard.
//!
//! Section 3: "the local Switchboard controls the horizontal scaling of
//! forwarders at the site and performs aggregation of messages sent either
//! by or to forwarders". Section 5.2 / Figure 6: it subscribes to the
//! instance and forwarder topics of the chains routed through its site and
//! combines the wide-area route with the published weights into the three
//! rule sets installed at each forwarder.
//!
//! Routes are replicated at every site (Section 6) by the announcement each
//! site receives on the Global Switchboard's route topic, and that bus
//! delivery is what the replication costs. In process the chain record of
//! [`crate::ControlPlane`] is the one copy of a chain's routes: a Local
//! Switchboard holds forwarders and their rules, not routes.
//!
//! One deliberate simplification relative to Figure 5: forwarder pools are
//! per-VNF (a forwarder serves instances of a single VNF), so a packet's
//! (label, arrival-context) pair uniquely identifies its chain stage at a
//! forwarder. The paper's prototype disambiguates stages by input
//! interface, which has no equivalent in our in-process data plane.

use crate::messages::{ForwarderRecord, InstanceRecord, RouteAnnouncement};
use sb_dataplane::{
    Addr, ArtifactKind, Forwarder, ForwarderMode, RuleSet, SiteArtifact, WeightedChoice,
};
use sb_telemetry::Telemetry;
use sb_types::{Error, ForwarderId, InstanceId, LabelPair, Result, SiteId, VnfId};
use std::collections::HashMap;

/// Forwarder ids per site: a site allocates from `site · IDS_PER_SITE`
/// upward, keeping ids globally unique without coordination.
const IDS_PER_SITE: u64 = 1_000_000;

/// The Local Switchboard of one site.
#[derive(Debug)]
pub struct LocalSwitchboard {
    site: SiteId,
    /// Forwarder id allocation base (globally unique per site).
    id_base: u64,
    next_idx: u64,
    /// Max VNF instances served by one forwarder before the pool grows.
    instances_per_forwarder: usize,
    forwarders: HashMap<ForwarderId, Forwarder>,
    /// Per-VNF forwarder pool at this site.
    pools: HashMap<VnfId, Vec<ForwarderId>>,
    /// Instances assigned to each forwarder.
    assigned: HashMap<ForwarderId, Vec<InstanceRecord>>,
    /// Which forwarder serves each instance.
    instance_fwd: HashMap<InstanceId, ForwarderId>,
    /// Label pairs whose forwarder rules changed since the last artifact
    /// compile — written by the two rule mutators and nothing else, so
    /// the compile's scope is what was touched, not what a caller recalls.
    touched: Vec<LabelPair>,
    /// Telemetry hub + packet sampling period applied to every forwarder
    /// (current and future); `None` leaves the data plane uninstrumented.
    telemetry: Option<(Telemetry, u64)>,
}

impl LocalSwitchboard {
    /// Creates the Local Switchboard for `site`. Forwarder identifiers are
    /// allocated from a base derived from `site`, keeping them globally
    /// unique without coordination.
    #[must_use]
    pub fn new(site: SiteId, instances_per_forwarder: usize) -> Self {
        Self {
            site,
            id_base: u64::from(site.value()) * IDS_PER_SITE,
            next_idx: 0,
            instances_per_forwarder: instances_per_forwarder.max(1),
            forwarders: HashMap::new(),
            pools: HashMap::new(),
            assigned: HashMap::new(),
            instance_fwd: HashMap::new(),
            touched: Vec::new(),
            telemetry: None,
        }
    }

    /// Instruments every forwarder of this site with `hub` (sampled packet
    /// spans at 1-in-`sample_every`, per-forwarder counters), including
    /// forwarders created by later [`attach_instances`](Self::attach_instances)
    /// calls. `sample_every == 0` detaches instead.
    pub fn attach_telemetry(&mut self, hub: &Telemetry, sample_every: u64) {
        if sample_every == 0 {
            self.telemetry = None;
            return;
        }
        for fwd in self.forwarders.values_mut() {
            fwd.attach_telemetry(hub, sample_every);
        }
        self.telemetry = Some((hub.clone(), sample_every));
    }

    /// The site whose Local Switchboard allocates forwarder id `id`.
    #[must_use]
    pub(crate) fn allocating_site(id: ForwarderId) -> Option<SiteId> {
        u32::try_from(id.value() / IDS_PER_SITE)
            .ok()
            .map(SiteId::new)
    }

    /// The site this Local Switchboard runs at.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Number of forwarders in the pool.
    #[must_use]
    pub fn num_forwarders(&self) -> usize {
        self.forwarders.len()
    }

    /// Access a forwarder by id.
    #[must_use]
    pub fn forwarder(&self, id: ForwarderId) -> Option<&Forwarder> {
        self.forwarders.get(&id)
    }

    /// Mutable access to a forwarder by id (the data-plane harness moves
    /// packets through this).
    pub fn forwarder_mut(&mut self, id: ForwarderId) -> Option<&mut Forwarder> {
        self.forwarders.get_mut(&id)
    }

    /// All forwarder ids, sorted.
    #[must_use]
    pub fn forwarder_ids(&self) -> Vec<ForwarderId> {
        let mut ids: Vec<_> = self.forwarders.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Attaches VNF instances to forwarders, growing the per-VNF pool
    /// elastically (Section 5.1: "As more VNF instances are added at the
    /// site, the Local Switchboard scales the number of forwarders").
    /// Returns the forwarder records (id + aggregate weight) to publish on
    /// the bus — the payload of the `.../site_X_forwarders` topic.
    pub fn attach_instances(
        &mut self,
        vnf: VnfId,
        records: &[InstanceRecord],
    ) -> Vec<ForwarderRecord> {
        for rec in records {
            if self.instance_fwd.contains_key(&rec.instance) {
                continue;
            }
            // Least-loaded forwarder of this VNF's pool with spare slots.
            let pool = self.pools.entry(vnf).or_default();
            let target = pool
                .iter()
                .copied()
                .filter(|f| {
                    self.assigned.get(f).map_or(0, Vec::len) < self.instances_per_forwarder
                })
                .min_by_key(|f| self.assigned.get(f).map_or(0, Vec::len));
            let fwd_id = match target {
                Some(f) => f,
                None => {
                    let id = ForwarderId::new(self.id_base + self.next_idx);
                    self.next_idx += 1;
                    let mut fwd = Forwarder::new(id, self.site, ForwarderMode::Affinity);
                    if let Some((hub, every)) = &self.telemetry {
                        fwd.attach_telemetry(hub, *every);
                    }
                    self.forwarders.insert(id, fwd);
                    pool.push(id);
                    id
                }
            };
            self.assigned.entry(fwd_id).or_default().push(*rec);
            self.instance_fwd.insert(rec.instance, fwd_id);
        }
        self.forwarder_records(vnf)
    }

    /// The forwarders serving `vnf` at this site, with their aggregate
    /// weights (sum of assigned instance weights, Section 5.2).
    #[must_use]
    pub fn forwarder_records(&self, vnf: VnfId) -> Vec<ForwarderRecord> {
        let Some(pool) = self.pools.get(&vnf) else {
            return Vec::new();
        };
        pool.iter()
            .map(|f| ForwarderRecord {
                forwarder: *f,
                weight: self
                    .assigned
                    .get(f)
                    .map_or(0.0, |recs| recs.iter().map(|r| r.weight).sum()),
            })
            .collect()
    }

    /// Installs the stage-`z` rules of `route` at every forwarder serving
    /// the stage's VNF here: load-balance among its own instances, forward
    /// onward to `next_hops`, backward to `prev_hops` (Figure 6). Each row
    /// carries the route's epoch. Returns how many forwarders held the
    /// pair at an older epoch — the epochs this install retires.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] when the stage VNF has no
    /// instances attached at this site, or [`Error::InvalidArgument`] when
    /// a hop set is empty.
    pub(crate) fn install_stage_rules(
        &mut self,
        route: &RouteAnnouncement,
        stage: usize,
        next_hops: Vec<(Addr, f64)>,
        prev_hops: Vec<(Addr, f64)>,
    ) -> Result<usize> {
        self.touched.push(route.labels);
        let mut retired = 0;
        let vnf = route.vnfs[stage];
        let pool = self
            .pools
            .get(&vnf)
            .cloned()
            .ok_or_else(|| Error::unknown("vnf pool at site", format!("{vnf}@{}", self.site)))?;
        let to_next = WeightedChoice::new(next_hops)?;
        let to_prev = WeightedChoice::new(prev_hops)?;
        for fwd_id in pool {
            let recs = self.assigned.get(&fwd_id).cloned().unwrap_or_default();
            if recs.is_empty() {
                continue;
            }
            let to_vnf = WeightedChoice::new(
                recs.iter()
                    .map(|r| (Addr::Vnf(r.instance), r.weight))
                    .collect(),
            )?;
            let fwd = self
                .forwarders
                .get_mut(&fwd_id)
                .expect("pool members exist");
            let held = fwd.active_epoch(route.labels);
            retired += usize::from(held.is_some_and(|e| e < route.epoch));
            fwd.install_rules_epoch(
                route.labels,
                RuleSet {
                    to_vnf,
                    to_next: to_next.clone(),
                    to_prev: to_prev.clone(),
                },
                route.epoch,
            );
            for r in &recs {
                if !r.supports_labels {
                    fwd.register_label_unaware_vnf(r.instance, route.labels);
                }
            }
        }
        Ok(retired)
    }

    /// Removes the rule set for `labels` from every forwarder at this
    /// site, returning the number of forwarders that had one. Pinned flows
    /// in forwarder flow tables are untouched — removal only stops new
    /// flows from matching (teardown, DESIGN.md §10).
    pub(crate) fn remove_route_rules(&mut self, labels: LabelPair) -> usize {
        self.touched.push(labels);
        let mut removed = 0;
        for fwd in self.forwarders.values_mut() {
            if fwd.remove_rules(labels) {
                removed += 1;
            }
        }
        removed
    }

    /// Hands over, and forgets, the label pairs the rule mutators touched
    /// since the previous call.
    pub(crate) fn take_touched(&mut self) -> Vec<LabelPair> {
        std::mem::take(&mut self.touched)
    }

    /// Exports this site's complete compiled forwarding state as a
    /// [`ArtifactKind::Full`] artifact tagged with the control plane's
    /// route `epoch`: every forwarder's published [`sb_dataplane::CompiledFib`]
    /// rows plus its label-unaware registrations, in forwarder-id order.
    /// Serializing the result ([`sb_dataplane::artifact::encode`]) is
    /// byte-deterministic for a given route solution.
    #[must_use]
    pub fn export_site_artifact(&self, epoch: u64) -> SiteArtifact {
        let forwarders = self
            .forwarder_ids()
            .into_iter()
            .map(|id| self.forwarders[&id].export_artifact())
            .collect();
        SiteArtifact {
            site: self.site,
            epoch,
            kind: ArtifactKind::Full,
            forwarders,
        }
    }

    /// Exports a [`ArtifactKind::Patch`] artifact scoped to `labels`: per
    /// forwarder, the current rows for pairs that still exist, a removal
    /// entry for pairs that no longer do, and the label-unaware
    /// registrations touching those pairs. Applying the patch on top of
    /// the previous epoch's state (via `Forwarder::apply_artifact`, which
    /// routes each row through the single-row `patch_row` path)
    /// reproduces this site's current state for those pairs. Each
    /// forwarder reads only the rows of `labels`
    /// ([`Forwarder::export_artifact_in`]).
    #[must_use]
    pub fn export_patch_artifact(&self, labels: &[LabelPair], epoch: u64) -> SiteArtifact {
        let forwarders = self
            .forwarder_ids()
            .into_iter()
            .map(|id| self.forwarders[&id].export_artifact_in(Some(labels)))
            .collect();
        SiteArtifact {
            site: self.site,
            epoch,
            kind: ArtifactKind::Patch,
            forwarders,
        }
    }

    /// The forwarder serving `instance`, when attached here.
    #[must_use]
    pub fn forwarder_of_instance(&self, instance: InstanceId) -> Option<ForwarderId> {
        self.instance_fwd.get(&instance).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sb_types::{ChainId, ChainLabel, EgressLabel};

    fn rec(i: u64, weight: f64) -> InstanceRecord {
        InstanceRecord {
            instance: InstanceId::new(i),
            weight,
            supports_labels: true,
        }
    }

    fn route(chain: u64, route_id: u64, vnf: u32, site: u32) -> RouteAnnouncement {
        RouteAnnouncement {
            chain: ChainId::new(chain),
            route: sb_types::RouteId::new(route_id),
            labels: LabelPair::new(
                ChainLabel::new(u32::try_from(route_id).unwrap()),
                EgressLabel::new(1),
            ),
            ingress_site: SiteId::new(0),
            egress_site: SiteId::new(1),
            vnfs: vec![VnfId::new(vnf)],
            sites: vec![SiteId::new(site)],
            fraction: 1.0,
            epoch: 1,
        }
    }

    #[test]
    fn pool_scales_elastically() {
        let mut l = LocalSwitchboard::new(SiteId::new(3), 2);
        let vnf = VnfId::new(1);
        let records = l.attach_instances(vnf, &[rec(1, 1.0), rec(2, 1.0)]);
        assert_eq!(l.num_forwarders(), 1, "two instances fit one forwarder");
        assert_eq!(records.len(), 1);
        assert!((records[0].weight - 2.0).abs() < 1e-12);

        let records = l.attach_instances(vnf, &[rec(3, 0.5)]);
        assert_eq!(l.num_forwarders(), 2, "third instance grows the pool");
        assert_eq!(records.len(), 2);
        // Forwarder ids are namespaced by site.
        assert!(records.iter().all(|r| r.forwarder.value() >= 3_000_000));
    }

    #[test]
    fn reattaching_same_instance_is_idempotent() {
        let mut l = LocalSwitchboard::new(SiteId::new(0), 2);
        let vnf = VnfId::new(1);
        l.attach_instances(vnf, &[rec(1, 1.0)]);
        let records = l.attach_instances(vnf, &[rec(1, 1.0)]);
        assert_eq!(l.num_forwarders(), 1);
        assert!((records[0].weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn different_vnfs_use_disjoint_pools() {
        let mut l = LocalSwitchboard::new(SiteId::new(0), 4);
        l.attach_instances(VnfId::new(1), &[rec(1, 1.0)]);
        l.attach_instances(VnfId::new(2), &[rec(2, 1.0)]);
        assert_eq!(l.num_forwarders(), 2);
        let f1 = l.forwarder_of_instance(InstanceId::new(1)).unwrap();
        let f2 = l.forwarder_of_instance(InstanceId::new(2)).unwrap();
        assert_ne!(f1, f2);
    }

    #[test]
    fn stage_rules_reach_all_pool_forwarders() {
        let mut l = LocalSwitchboard::new(SiteId::new(0), 1);
        let vnf = VnfId::new(1);
        l.attach_instances(vnf, &[rec(1, 1.0), rec(2, 1.0)]); // two forwarders
        let r = route(1, 1, 1, 0);
        l.install_stage_rules(
            &r,
            0,
            vec![(Addr::Edge(sb_types::EdgeInstanceId::new(9)), 1.0)],
            vec![(Addr::Edge(sb_types::EdgeInstanceId::new(8)), 1.0)],
        )
        .unwrap();
        // Both forwarders can now process packets with the route's labels.
        for id in l.forwarder_ids() {
            let fwd = l.forwarder_mut(id).unwrap();
            let key = sb_types::FlowKey::tcp([1, 1, 1, 1], 5, [2, 2, 2, 2], 6);
            let pkt = sb_dataplane::Packet::labeled(r.labels, key, 64);
            let (_, hop) = fwd
                .process(pkt, Addr::Edge(sb_types::EdgeInstanceId::new(8)))
                .unwrap();
            assert!(matches!(hop, Addr::Vnf(_)));
        }
    }

    #[test]
    fn stage_rules_without_pool_fail() {
        let mut l = LocalSwitchboard::new(SiteId::new(0), 1);
        let r = route(1, 1, 1, 0);
        assert!(l
            .install_stage_rules(&r, 0, vec![(Addr::Edge(sb_types::EdgeInstanceId::new(9)), 1.0)], vec![(Addr::Edge(sb_types::EdgeInstanceId::new(8)), 1.0)])
            .is_err());
    }

    #[test]
    fn remove_route_rules_strips_every_forwarder() {
        let mut l = LocalSwitchboard::new(SiteId::new(0), 1);
        let vnf = VnfId::new(1);
        l.attach_instances(vnf, &[rec(1, 1.0), rec(2, 1.0)]); // two forwarders
        let r = route(1, 1, 1, 0);
        l.install_stage_rules(
            &r,
            0,
            vec![(Addr::Edge(sb_types::EdgeInstanceId::new(9)), 1.0)],
            vec![(Addr::Edge(sb_types::EdgeInstanceId::new(8)), 1.0)],
        )
        .unwrap();
        assert_eq!(l.remove_route_rules(r.labels), 2);
        // New flows for the removed labels now fail at every forwarder.
        for id in l.forwarder_ids() {
            let fwd = l.forwarder_mut(id).unwrap();
            let key = sb_types::FlowKey::tcp([1, 1, 1, 1], 5, [2, 2, 2, 2], 6);
            let pkt = sb_dataplane::Packet::labeled(r.labels, key, 64);
            assert!(fwd
                .process(pkt, Addr::Edge(sb_types::EdgeInstanceId::new(8)))
                .is_err());
        }
    }

    #[test]
    fn a_new_epoch_install_counts_the_epochs_it_retires() {
        let mut l = LocalSwitchboard::new(SiteId::new(0), 1);
        l.attach_instances(VnfId::new(1), &[rec(1, 1.0), rec(2, 1.0)]); // two forwarders
        let mut r = route(1, 1, 1, 0);
        let hops = vec![(Addr::Edge(sb_types::EdgeInstanceId::new(9)), 1.0)];
        assert_eq!(l.install_stage_rules(&r, 0, hops.clone(), hops.clone()).unwrap(), 0);
        // The same epoch again retires nothing; a newer one retires the
        // older row at both forwarders.
        assert_eq!(l.install_stage_rules(&r, 0, hops.clone(), hops.clone()).unwrap(), 0);
        r.epoch = 2;
        assert_eq!(l.install_stage_rules(&r, 0, hops.clone(), hops).unwrap(), 2);
        for id in l.forwarder_ids() {
            assert_eq!(l.forwarder(id).unwrap().active_epoch(r.labels), Some(2));
        }
    }

    /// The patch export as first written, kept as the oracle: filter each
    /// forwarder's full export down to `labels`.
    fn filtered_full_export(
        l: &LocalSwitchboard,
        labels: &[LabelPair],
        epoch: u64,
    ) -> SiteArtifact {
        let forwarders = l
            .forwarder_ids()
            .into_iter()
            .map(|id| {
                let full = l.forwarders[&id].export_artifact();
                let rows: Vec<_> = full
                    .rows
                    .iter()
                    .filter(|r| labels.contains(&r.labels))
                    .cloned()
                    .collect();
                let removed: Vec<LabelPair> = labels
                    .iter()
                    .copied()
                    .filter(|l| !rows.iter().any(|r| r.labels == *l))
                    .collect();
                let label_unaware: Vec<_> = full
                    .label_unaware
                    .into_iter()
                    .filter(|(_, l)| labels.contains(l))
                    .collect();
                sb_dataplane::ForwarderArtifact {
                    rows: rows.into(),
                    removed,
                    label_unaware,
                    ..full
                }
            })
            .collect();
        SiteArtifact {
            site: l.site,
            epoch,
            kind: ArtifactKind::Patch,
            forwarders,
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Attach instance `.1` of VNF `.0`, label-aware or not.
        Attach(u32, u64, bool),
        /// Install VNF `.0`'s stage of the route labelled `.1` at epoch `.2`.
        Install(u32, (u32, u32), u64),
        Remove((u32, u32)),
    }

    fn pair((chain, egress): (u32, u32)) -> LabelPair {
        LabelPair::new(ChainLabel::new(chain), EgressLabel::new(egress))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Reading only the scope's rows exports what filtering the whole
        /// export did, after any mix of attaches, installs (label-unaware
        /// instances included) and removals — for any scope, unsorted,
        /// repeated, or naming pairs no forwarder ever held.
        #[test]
        fn a_scoped_patch_export_equals_the_filtered_full_export(
            ops in prop::collection::vec(
                prop_oneof![
                    2 => (0u32..2, 0u64..12, any::<bool>())
                        .prop_map(|(v, i, a)| Op::Attach(v, i, a)),
                    3 => (0u32..2, (1u32..6, 1u32..3), 1u64..4)
                        .prop_map(|(v, l, e)| Op::Install(v, l, e)),
                    1 => (1u32..6, 1u32..3).prop_map(Op::Remove),
                ],
                0..32,
            ),
            // Mostly pairs the ops use; some no forwarder ever held.
            scope in prop::collection::vec(
                prop_oneof![3 => (1u32..6, 1u32..3), 1 => (0u32..8, 0u32..4)],
                0..8,
            ),
        ) {
            let mut l = LocalSwitchboard::new(SiteId::new(4), 2);
            let hops = vec![(Addr::Edge(sb_types::EdgeInstanceId::new(9)), 1.0)];
            for op in ops {
                match op {
                    Op::Attach(vnf, i, aware) => {
                        let rec = InstanceRecord { supports_labels: aware, ..rec(i, 1.0) };
                        l.attach_instances(VnfId::new(vnf), &[rec]);
                    }
                    Op::Install(vnf, labels, epoch) => {
                        let mut r = route(1, 1, vnf, 4);
                        (r.labels, r.epoch) = (pair(labels), epoch);
                        // A VNF with no instances here refuses; nothing changes.
                        let _ = l.install_stage_rules(&r, 0, hops.clone(), hops.clone());
                    }
                    Op::Remove(labels) => {
                        l.remove_route_rules(pair(labels));
                    }
                }
            }
            let scope: Vec<LabelPair> = scope.into_iter().map(pair).collect();
            prop_assert_eq!(
                l.export_patch_artifact(&scope, 7),
                filtered_full_export(&l, &scope, 7)
            );
        }
    }
}
