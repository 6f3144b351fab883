//! Ready-made experiment scenarios.
//!
//! These builders assemble the network models behind the paper's
//! evaluation setups, shared by the examples, integration tests and the
//! benchmark harness:
//!
//! - [`line_testbed`]: a small 4-node line with two 2-site VNFs — the
//!   workhorse for functional tests;
//! - [`two_site_testbed`]: the Figure 11 setup — two sites with a
//!   configurable inter-site RTT and a capacity-limited stateful-firewall
//!   VNF at each;
//! - [`tier1`]: the Section 7.3 simulation — the synthetic tier-1 backbone
//!   with gravity-model traffic, N VNFs at `coverage` of the sites
//!   (capacity divided equally among co-located VNFs), random 3-5-VNF
//!   chains in a canonical order, and 4:1 Switchboard-to-background
//!   traffic.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sb_te::{ChainSpec, NetworkModel};
use sb_topology::{tier1 as t1, Routing, TopologyBuilder, TrafficMatrix};
use sb_types::{ChainId, Millis, Rate, SiteId};
use std::collections::HashMap;

pub mod daylife;

/// A 4-node line (`n0 - n1 - n2 - n3`) with a site at every node and two
/// VNFs (ids 0 and 1) deployed at the middle sites. Returns the model and
/// the four site ids in node order. No chains are pre-installed.
///
/// # Panics
///
/// Never panics for the fixed construction.
#[must_use]
pub fn line_testbed() -> (NetworkModel, Vec<SiteId>) {
    let mut tb = TopologyBuilder::new();
    let n0 = tb.add_node("n0", (0.0, 0.0), 1.0);
    let n1 = tb.add_node("n1", (0.0, 1.0), 1.0);
    let n2 = tb.add_node("n2", (0.0, 2.0), 1.0);
    let n3 = tb.add_node("n3", (0.0, 3.0), 1.0);
    tb.add_duplex_link(n0, n1, 100.0, Millis::new(5.0));
    tb.add_duplex_link(n1, n2, 100.0, Millis::new(10.0));
    tb.add_duplex_link(n2, n3, 100.0, Millis::new(5.0));
    let mut b = NetworkModel::builder(tb.build());
    let s0 = b.add_site(n0, 1000.0);
    let s1 = b.add_site(n1, 1000.0);
    let s2 = b.add_site(n2, 1000.0);
    let s3 = b.add_site(n3, 1000.0);
    b.add_vnf(HashMap::from([(s1, 200.0), (s2, 200.0)]), 1.0);
    b.add_vnf(HashMap::from([(s1, 200.0), (s2, 200.0)]), 1.0);
    let model = b.build().expect("static construction is valid");
    (model, vec![s0, s1, s2, s3])
}

/// The Figure 11 testbed: two sites `A` and `B` joined by a wide-area link
/// with one-way latency `one_way` (the paper uses RTTs of 150 ms on AWS
/// and 80 ms on the private cloud), and a stateful-firewall VNF (id 0) at
/// both sites whose per-site capacity is `fw_capacity` load units.
///
/// Returns `(model, site_a, site_b)`.
#[must_use]
pub fn two_site_testbed(one_way: Millis, fw_capacity: f64) -> (NetworkModel, SiteId, SiteId) {
    let mut tb = TopologyBuilder::new();
    let a = tb.add_node("siteA", (0.0, 0.0), 1.0);
    let b_node = tb.add_node("siteB", (0.0, 10.0), 1.0);
    tb.add_duplex_link(a, b_node, 1000.0, one_way);
    let mut b = NetworkModel::builder(tb.build());
    let sa = b.add_site(a, 1e6);
    let sb_ = b.add_site(b_node, 1e6);
    b.add_vnf(
        HashMap::from([(sa, fw_capacity), (sb_, fw_capacity)]),
        1.0,
    );
    (b.build().expect("static construction is valid"), sa, sb_)
}

/// Parameters of the tier-1 simulation (Section 7.3's setup).
#[derive(Debug, Clone)]
pub struct Tier1Config {
    /// Number of chains (10 000 at paper scale).
    pub num_chains: usize,
    /// Number of VNF services (100 in the paper).
    pub num_vnfs: usize,
    /// Fraction of sites hosting each VNF ("coverage").
    pub coverage: f64,
    /// Compute cost per unit traffic ("CPU/byte").
    pub cpu_per_byte: f64,
    /// Total Switchboard traffic volume across all chains.
    pub total_traffic: Rate,
    /// Compute capacity per cloud site.
    pub site_capacity: f64,
    /// Background:Switchboard traffic is 1:4 in the paper; this is the
    /// background share as a fraction of Switchboard traffic.
    pub background_ratio: f64,
    /// VNFs per chain are drawn from this range (3-5 in the paper).
    pub chain_len: std::ops::RangeInclusive<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Tier1Config {
    fn default() -> Self {
        Self {
            num_chains: 200,
            num_vnfs: 20,
            coverage: 0.5,
            cpu_per_byte: 1.0,
            total_traffic: 400.0,
            site_capacity: 400.0,
            background_ratio: 0.25,
            chain_len: 3..=5,
            seed: 42,
        }
    }
}

/// Builds the tier-1 evaluation model: backbone + sites at every node +
/// randomly placed VNFs (site capacity divided equally among co-located
/// VNFs) + gravity-derived chains + background link traffic.
///
/// # Panics
///
/// Panics if `coverage` is not in `(0, 1]` or ranges are empty.
#[must_use]
pub fn tier1(config: &Tier1Config) -> NetworkModel {
    assert!(
        config.coverage > 0.0 && config.coverage <= 1.0,
        "coverage must be in (0, 1]"
    );
    let topo = t1::backbone();
    let routing = Routing::shortest_paths(&topo);
    let nodes = topo.node_ids();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut b = NetworkModel::builder(topo.clone());
    let sites: Vec<SiteId> = nodes
        .iter()
        .map(|&n| b.add_site(n, config.site_capacity))
        .collect();

    // Place VNFs: coverage fraction of sites each, then divide each site's
    // capacity equally among the VNFs it hosts.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let sites_per_vnf = ((config.coverage * sites.len() as f64).ceil() as usize)
        .clamp(1, sites.len());
    let mut placements: Vec<Vec<SiteId>> = Vec::with_capacity(config.num_vnfs);
    let mut site_count: HashMap<SiteId, usize> = HashMap::new();
    for _ in 0..config.num_vnfs {
        let mut pool = sites.clone();
        pool.shuffle(&mut rng);
        let chosen: Vec<SiteId> = pool.into_iter().take(sites_per_vnf).collect();
        for &s in &chosen {
            *site_count.entry(s).or_insert(0) += 1;
        }
        placements.push(chosen);
    }
    for placement in &placements {
        let caps: HashMap<SiteId, f64> = placement
            .iter()
            .map(|&s| {
                #[allow(clippy::cast_precision_loss)]
                let share = config.site_capacity / site_count[&s] as f64;
                (s, share)
            })
            .collect();
        b.add_vnf(caps, config.cpu_per_byte);
    }

    // Gravity traffic drives both chain demands and background load.
    let tm = TrafficMatrix::gravity(&topo, config.total_traffic, 0.3, config.seed ^ 0x5bd1);

    // Chains: random (ingress, egress) pairs; demand proportional to the
    // ingress node's gravity egress volume; VNF subset in ascending id
    // order (the paper's "pre-determined order of VNFs").
    let mut raw: Vec<(usize, usize, usize, Vec<usize>)> = Vec::with_capacity(config.num_chains);
    let mut weight_sum = 0.0;
    let mut weights = Vec::with_capacity(config.num_chains);
    for _ in 0..config.num_chains {
        let src = rng.gen_range(0..nodes.len());
        let mut dst = rng.gen_range(0..nodes.len());
        while dst == src {
            dst = rng.gen_range(0..nodes.len());
        }
        let len = rng.gen_range(config.chain_len.clone());
        let mut vnf_ids: Vec<usize> = (0..config.num_vnfs).collect();
        vnf_ids.shuffle(&mut rng);
        let mut chosen: Vec<usize> = vnf_ids.into_iter().take(len).collect();
        chosen.sort_unstable();
        let w = tm.egress_of(nodes[src]).max(1e-9);
        weight_sum += w;
        weights.push(w);
        raw.push((src, dst, len, chosen));
    }
    for (i, (src, dst, _len, vnfs)) in raw.into_iter().enumerate() {
        let demand = config.total_traffic * weights[i] / weight_sum;
        b.add_chain(ChainSpec::uniform(
            ChainId::new(i as u64),
            nodes[src],
            nodes[dst],
            vnfs
                .into_iter()
                .map(|v| sb_types::VnfId::new(u32::try_from(v).expect("vnf count fits u32")))
                .collect(),
            demand,
            0.0,
        ));
    }

    // Background traffic: a gravity matrix at `background_ratio` of the
    // Switchboard volume, routed over the shortest paths.
    if config.background_ratio > 0.0 {
        let bg = tm.scaled(config.background_ratio);
        let mut background = vec![0.0; topo.num_links()];
        for &s in &nodes {
            for &d in &nodes {
                if s == d {
                    continue;
                }
                let demand = bg.demand(s, d);
                if demand <= 0.0 {
                    continue;
                }
                for &(link, r) in routing.fractions_between(s, d) {
                    background[link.index()] += demand * r;
                }
            }
        }
        for (i, load) in background.into_iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            b.set_background(sb_types::LinkId::new(i as u32), load);
        }
    }

    b.build().expect("generated model is structurally valid")
}

/// Parameters of the fleet-scale control-plane scenario: a synthetic
/// wide-area backbone far beyond the fixed 25-city tier-1 topology, sized
/// for the many-tenant regime (`bench-controlplane` runs it at 1k–10k
/// chains over 100+ sites).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of backbone nodes; every node hosts a cloud site.
    pub num_sites: usize,
    /// Extra random chords on top of the connectivity ring.
    pub chords: usize,
    /// Number of VNF services in the catalog.
    pub num_vnfs: usize,
    /// Fraction of sites hosting each VNF.
    pub coverage: f64,
    /// Number of chains.
    pub num_chains: usize,
    /// VNFs per chain are drawn from this range.
    pub chain_len: std::ops::RangeInclusive<usize>,
    /// Total Switchboard traffic volume across all chains.
    pub total_traffic: Rate,
    /// Reverse traffic as a fraction of forward traffic.
    pub reverse_ratio: f64,
    /// Aggregate compute capacity as a multiple of the fleet's expected
    /// compute load (4.0 leaves enough headroom that chains route fully
    /// even when random placement crowds a pool, while utilization still
    /// shapes the Fortz-Thorup cost).
    pub capacity_headroom: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            num_sites: 120,
            chords: 180,
            num_vnfs: 12,
            coverage: 0.25,
            num_chains: 1000,
            chain_len: 2..=4,
            total_traffic: 1000.0,
            reverse_ratio: 0.25,
            capacity_headroom: 4.0,
            seed: 42,
        }
    }
}

/// Builds the fleet-scale model: `num_sites` nodes on a geographic circle
/// joined by a ring plus random chords (so shortest paths span several
/// WAN hops), one site per node, VNFs placed at `coverage` of the sites
/// with site capacity divided among co-located VNFs, and `num_chains`
/// random chains with randomized demand shares summing to
/// `total_traffic`. Capacities are auto-sized from the expected compute
/// load via `capacity_headroom`, so the default configuration routes
/// (nearly) all demand at interesting utilization.
///
/// # Panics
///
/// Panics if `num_sites < 3`, `coverage` is not in `(0, 1]`, or
/// `chain_len` is empty.
#[must_use]
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn fleet(config: &FleetConfig) -> NetworkModel {
    assert!(config.num_sites >= 3, "need at least 3 sites");
    assert!(
        config.coverage > 0.0 && config.coverage <= 1.0,
        "coverage must be in (0, 1]"
    );
    assert!(!config.chain_len.is_empty(), "chain_len must be non-empty");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.num_sites;

    // Nodes on a circle; link latency follows chord length so the ring
    // neighbours are ~1 ms apart and antipodal chords cost tens of ms.
    let mut tb = TopologyBuilder::new();
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let theta = std::f64::consts::TAU * i as f64 / n as f64;
            (30.0 * theta.sin(), -100.0 + 30.0 * theta.cos())
        })
        .collect();
    let nodes: Vec<_> = positions
        .iter()
        .enumerate()
        .map(|(i, &pos)| tb.add_node(format!("s{i}"), pos, 1.0))
        .collect();
    let latency = |a: usize, b: usize| {
        let (ax, ay) = positions[a];
        let (bx, by) = positions[b];
        let d = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        Millis::new(0.5 + 0.4 * d)
    };
    // Bandwidth generous enough that link capacity never blocks routing:
    // the compute dimension is what the control plane contends over.
    let bw = config.total_traffic * (1.0 + config.reverse_ratio) * 4.0;
    for i in 0..n {
        tb.add_duplex_link(nodes[i], nodes[(i + 1) % n], bw, latency(i, (i + 1) % n));
    }
    let mut chord_set: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    while chord_set.len() < config.chords {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b || (a + 1) % n == b || (b + 1) % n == a {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if chord_set.insert(key) {
            tb.add_duplex_link(nodes[a], nodes[b], bw, latency(a, b));
        }
    }

    // Expected compute load: every unit of chain traffic crosses every
    // VNF of its chain forward and reverse.
    let mean_len = (config.chain_len.start() + config.chain_len.end()) as f64 / 2.0;
    let expected_load =
        config.total_traffic * (1.0 + config.reverse_ratio) * mean_len;
    let site_capacity = config.capacity_headroom * expected_load / n as f64;

    let mut b = NetworkModel::builder(tb.build());
    let sites: Vec<SiteId> = nodes.iter().map(|&nd| b.add_site(nd, site_capacity)).collect();

    // VNF placement mirrors `tier1`: coverage fraction of sites each,
    // site capacity divided among co-located VNFs.
    let sites_per_vnf = ((config.coverage * n as f64).ceil() as usize).clamp(1, n);
    let mut placements: Vec<Vec<SiteId>> = Vec::with_capacity(config.num_vnfs);
    let mut site_count: HashMap<SiteId, usize> = HashMap::new();
    for _ in 0..config.num_vnfs {
        let mut pool = sites.clone();
        pool.shuffle(&mut rng);
        let chosen: Vec<SiteId> = pool.into_iter().take(sites_per_vnf).collect();
        for &s in &chosen {
            *site_count.entry(s).or_insert(0) += 1;
        }
        placements.push(chosen);
    }
    for placement in &placements {
        let caps: HashMap<SiteId, f64> = placement
            .iter()
            .map(|&s| (s, site_capacity / site_count[&s] as f64))
            .collect();
        b.add_vnf(caps, 1.0);
    }

    // Chains: random endpoints, random ascending VNF subsequence, demand
    // shares drawn uniformly and normalized to the configured volume.
    let mut raw: Vec<(usize, usize, Vec<usize>, f64)> = Vec::with_capacity(config.num_chains);
    let mut weight_sum = 0.0;
    for _ in 0..config.num_chains {
        let src = rng.gen_range(0..n);
        let mut dst = rng.gen_range(0..n);
        while dst == src {
            dst = rng.gen_range(0..n);
        }
        let len = rng.gen_range(config.chain_len.clone()).min(config.num_vnfs);
        let mut vnf_ids: Vec<usize> = (0..config.num_vnfs).collect();
        vnf_ids.shuffle(&mut rng);
        let mut chosen: Vec<usize> = vnf_ids.into_iter().take(len).collect();
        chosen.sort_unstable();
        let w = rng.gen_range(0.5..1.5);
        weight_sum += w;
        raw.push((src, dst, chosen, w));
    }
    for (i, (src, dst, vnfs, w)) in raw.into_iter().enumerate() {
        let demand = config.total_traffic * w / weight_sum;
        b.add_chain(ChainSpec::uniform(
            ChainId::new(i as u64),
            nodes[src],
            nodes[dst],
            vnfs
                .into_iter()
                .map(|v| sb_types::VnfId::new(u32::try_from(v).expect("vnf count fits u32")))
                .collect(),
            demand,
            demand * config.reverse_ratio,
        ));
    }

    b.build().expect("generated model is structurally valid")
}

/// A diurnal sequence of tier-1 models (the paper's Section 7.3 future
/// work: "extend our network model to include time-varying traffic
/// matrices").
///
/// Each epoch scales every chain's demand by a sinusoidal day curve whose
/// phase follows the chain's ingress longitude (the east coast peaks
/// hours before the west coast), between `trough` and `peak` of the base
/// demand. Epoch `i` represents hour `24 i / epochs` of the day.
///
/// # Panics
///
/// Panics if `epochs` is zero or `trough > peak`.
#[must_use]
pub fn diurnal_series(
    config: &Tier1Config,
    epochs: usize,
    trough: f64,
    peak: f64,
) -> Vec<NetworkModel> {
    assert!(epochs > 0, "need at least one epoch");
    assert!(
        trough <= peak && trough >= 0.0,
        "need 0 <= trough <= peak"
    );
    let base = tier1(config);
    let topo = base.topology().clone();
    (0..epochs)
        .map(|e| {
            #[allow(clippy::cast_precision_loss)]
            let hour = 24.0 * e as f64 / epochs as f64;
            let chains = base
                .chains()
                .iter()
                .map(|c| {
                    // Local solar time from the ingress longitude: 15° per
                    // hour, peak demand around 20:00 local.
                    let lon = topo.nodes()[c.ingress.index()].position().1;
                    let local = hour + lon / 15.0;
                    let phase = (local - 20.0) / 24.0 * std::f64::consts::TAU;
                    let factor =
                        trough + (peak - trough) * 0.5 * (1.0 + phase.cos());
                    let mut scaled = c.clone();
                    for w in &mut scaled.forward {
                        *w *= factor;
                    }
                    for v in &mut scaled.reverse {
                        *v *= factor;
                    }
                    scaled
                })
                .collect();
            base.with_chains(chains)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_testbed_is_valid() {
        let (model, sites) = line_testbed();
        assert_eq!(sites.len(), 4);
        assert_eq!(model.vnfs().len(), 2);
        assert!(model.validate().is_ok());
    }

    #[test]
    fn two_site_testbed_has_configured_rtt() {
        let (model, a, b) = two_site_testbed(Millis::new(40.0), 100.0);
        let d = model.latency(model.site_node(a), model.site_node(b));
        assert_eq!(d, Millis::new(40.0));
        assert_eq!(model.vnfs()[0].sites().len(), 2);
    }

    #[test]
    fn tier1_generates_requested_shape() {
        let cfg = Tier1Config {
            num_chains: 50,
            num_vnfs: 10,
            coverage: 0.4,
            ..Tier1Config::default()
        };
        let model = tier1(&cfg);
        assert_eq!(model.chains().len(), 50);
        assert_eq!(model.vnfs().len(), 10);
        assert_eq!(model.num_sites(), 25);
        // Coverage: each VNF at ceil(0.4 * 25) = 10 sites.
        for v in model.vnfs() {
            assert_eq!(v.sites().len(), 10);
        }
        // Chain lengths in 3..=5, ascending VNF order.
        for c in model.chains() {
            assert!((3..=5).contains(&c.vnfs.len()));
            assert!(c.vnfs.windows(2).all(|w| w[0] < w[1]));
            assert!(c.demand() > 0.0);
        }
        // Total chain demand matches the configured volume.
        let total: f64 = model.chains().iter().map(ChainSpec::demand).sum();
        assert!((total - cfg.total_traffic).abs() < 1e-6);
    }

    #[test]
    fn tier1_site_capacity_is_divided_among_vnfs() {
        let cfg = Tier1Config {
            num_chains: 10,
            num_vnfs: 5,
            coverage: 1.0, // every VNF everywhere: 5 VNFs share each site
            ..Tier1Config::default()
        };
        let model = tier1(&cfg);
        for v in model.vnfs() {
            for &cap in v.site_capacity.values() {
                assert!((cap - cfg.site_capacity / 5.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tier1_background_loads_links() {
        let model = tier1(&Tier1Config::default());
        let loaded = model
            .topology()
            .links()
            .iter()
            .filter(|l| model.background(l.id()) > 0.0)
            .count();
        assert!(loaded > model.topology().num_links() / 2);
    }

    #[test]
    fn tier1_is_deterministic_per_seed() {
        let a = tier1(&Tier1Config::default());
        let b = tier1(&Tier1Config::default());
        assert_eq!(a.chains().len(), b.chains().len());
        for (ca, cb) in a.chains().iter().zip(b.chains()) {
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn fleet_generates_requested_shape() {
        let cfg = FleetConfig {
            num_sites: 40,
            chords: 30,
            num_chains: 60,
            ..FleetConfig::default()
        };
        let model = fleet(&cfg);
        assert_eq!(model.num_sites(), 40);
        assert_eq!(model.chains().len(), 60);
        assert_eq!(model.vnfs().len(), cfg.num_vnfs);
        let sites_per_vnf = (cfg.coverage * 40.0).ceil() as usize;
        for v in model.vnfs() {
            assert_eq!(v.sites().len(), sites_per_vnf);
        }
        for c in model.chains() {
            assert!(cfg.chain_len.contains(&c.vnfs.len()));
            assert!(c.vnfs.windows(2).all(|w| w[0] < w[1]));
            assert!(c.demand() > 0.0);
        }
        let total: f64 = model.chains().iter().map(ChainSpec::demand).sum();
        assert!((total - cfg.total_traffic * (1.0 + cfg.reverse_ratio)).abs() < 1e-6);
    }

    #[test]
    fn fleet_routes_nearly_all_demand() {
        // The auto-sized capacities must leave SB-DP room to place the
        // fleet: the scenario is a control-plane benchmark, not a
        // saturation study.
        let cfg = FleetConfig {
            num_sites: 60,
            chords: 60,
            num_chains: 150,
            ..FleetConfig::default()
        };
        let model = fleet(&cfg);
        let sol = sb_te::dp::route_chains(&model, &sb_te::dp::DpConfig::default());
        let routed: f64 = sol.chains.iter().map(|c| c.routed).sum();
        assert!(
            routed > 0.95 * 150.0,
            "only {routed} of 150 chains' demand routed"
        );
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let cfg = FleetConfig {
            num_sites: 30,
            chords: 20,
            num_chains: 25,
            ..FleetConfig::default()
        };
        let a = fleet(&cfg);
        let b = fleet(&cfg);
        assert_eq!(a.chains().len(), b.chains().len());
        for (ca, cb) in a.chains().iter().zip(b.chains()) {
            assert_eq!(ca, cb);
        }
        assert_eq!(a.topology().num_links(), b.topology().num_links());
    }

    #[test]
    fn diurnal_series_scales_within_bounds() {
        let cfg = Tier1Config {
            num_chains: 20,
            num_vnfs: 5,
            ..Tier1Config::default()
        };
        let base = tier1(&cfg);
        let series = diurnal_series(&cfg, 8, 0.3, 1.5);
        assert_eq!(series.len(), 8);
        for epoch in &series {
            assert_eq!(epoch.chains().len(), base.chains().len());
            for (c, b) in epoch.chains().iter().zip(base.chains()) {
                let f = c.demand() / b.demand();
                assert!((0.3 - 1e-9..=1.5 + 1e-9).contains(&f), "factor {f}");
                // Structure is untouched.
                assert_eq!(c.vnfs, b.vnfs);
                assert_eq!(c.ingress, b.ingress);
            }
        }
    }

    #[test]
    fn diurnal_series_varies_over_the_day() {
        let cfg = Tier1Config {
            num_chains: 10,
            num_vnfs: 5,
            ..Tier1Config::default()
        };
        let series = diurnal_series(&cfg, 6, 0.3, 1.5);
        let totals: Vec<f64> = series
            .iter()
            .map(|m| m.chains().iter().map(ChainSpec::demand).sum())
            .collect();
        let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = totals.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.3, "day curve too flat: {totals:?}");
    }

    #[test]
    fn diurnal_phase_follows_longitude() {
        // A west-coast chain peaks later (in UTC-like epoch hours) than an
        // east-coast chain.
        let cfg = Tier1Config {
            num_chains: 40,
            num_vnfs: 5,
            ..Tier1Config::default()
        };
        let base = tier1(&cfg);
        let series = diurnal_series(&cfg, 24, 0.3, 1.5);
        let east = base
            .chains()
            .iter()
            .position(|c| base.topology().nodes()[c.ingress.index()].position().1 > -80.0);
        let west = base
            .chains()
            .iter()
            .position(|c| base.topology().nodes()[c.ingress.index()].position().1 < -115.0);
        if let (Some(e), Some(w)) = (east, west) {
            let peak_hour = |idx: usize| {
                (0..24)
                    .max_by(|&a, &b| {
                        let fa = series[a].chains()[idx].demand();
                        let fb = series[b].chains()[idx].demand();
                        fa.partial_cmp(&fb).unwrap()
                    })
                    .unwrap()
            };
            let pe = peak_hour(e);
            let pw = peak_hour(w);
            assert_ne!(pe, pw, "coasts should peak at different epochs");
        }
    }
}
