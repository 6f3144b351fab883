//! Figure 11: end-to-end comparison vs distributed load balancing.
//!
//! Paper result: Switchboard's globally-optimized routing achieves up to
//! 57% higher TCP throughput and 49% lower latency than Anycast /
//! Compute-Aware on a two-site testbed (inter-site RTT 150 ms on AWS,
//! 80 ms on the private cloud) with a stateful-firewall chain and two
//! routes.
//!
//! Setup (mirroring Figure 11a): chain 1 enters at site A and exits at
//! site B (it must cross the wide area anyway); chain 2 enters and exits
//! at site A (it can stay local). The firewall instance at each site
//! sustains 1.25 chains' worth of traffic, and the wide-area link carries
//! 1.5 chains' worth:
//!
//! - **Anycast** puts both chains on the firewall at A (nearest),
//!   saturating it: throughput collapses and queueing inflates RTT.
//! - **Compute-Aware** spills chain 2 to site B once A is full, paying a
//!   full wide-area detour (A→B→A) and squeezing the shared WAN link.
//! - **Switchboard** ("Switchboard computes routing via its
//!   LP-formulation", Section 7.2) routes chain 1 through the firewall at
//!   B — which lies on its path anyway — and keeps chain 2 local at A:
//!   both instances load evenly, no detour, no saturation. The min-latency
//!   LP finds this assignment because any other one forces chain 2 into a
//!   wide-area detour.
//!
//! TCP throughput comes from max-min fair rates over firewall-instance and
//! link capacities; RTT adds M/M/1 queueing at utilized instances.

use sb_netsim::{queueing::mm1_delay, FluidNetwork};
use sb_te::{baselines, lp, ChainSpec, NetworkModel, RoutingSolution};
use sb_types::{ChainId, Millis, SiteId, VnfId};
use switchboard::scenarios;

/// Metrics for one scheme.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Scheme name.
    pub name: &'static str,
    /// Aggregate TCP throughput (traffic units/s).
    pub throughput: f64,
    /// Demand-weighted mean RTT (ms) including queueing.
    pub mean_rtt: f64,
}

/// Builds the Figure 11 model: two sites, one-way WAN delay `one_way`,
/// firewall capacity 1.25 chains per instance, WAN link 1.5 chains.
#[must_use]
pub fn build_model(one_way: Millis) -> (NetworkModel, SiteId, SiteId) {
    const DEMAND: f64 = 10.0;
    // Load units are 2x traffic (in + out), so capacity 25 load units
    // serves 12.5 traffic units = 1.25 chains.
    let (base, a, b) = scenarios::two_site_testbed(one_way, 25.0);
    // Tighten the WAN link to 1.5 chains of forward traffic.
    let mut tb = sb_topology::TopologyBuilder::new();
    let na = tb.add_node("siteA", (0.0, 0.0), 1.0);
    let nb = tb.add_node("siteB", (0.0, 10.0), 1.0);
    tb.add_duplex_link(na, nb, 15.0, one_way);
    let mut builder = NetworkModel::builder(tb.build());
    let sa = builder.add_site(na, 1e6);
    let sb_ = builder.add_site(nb, 1e6);
    builder.add_vnf(
        std::collections::HashMap::from([(sa, 25.0), (sb_, 25.0)]),
        1.0,
    );
    // Chain 1: A -> B; chain 2: A -> A.
    builder.add_chain(ChainSpec::uniform(
        ChainId::new(0),
        na,
        nb,
        vec![VnfId::new(0)],
        DEMAND,
        0.0,
    ));
    builder.add_chain(ChainSpec::uniform(
        ChainId::new(1),
        na,
        na,
        vec![VnfId::new(0)],
        DEMAND,
        0.0,
    ));
    let _ = (base, a, b);
    (builder.build().expect("static model"), sa, sb_)
}

/// Computes TCP throughput (max-min over instances + links) and
/// queueing-aware mean RTT for a routing solution.
#[must_use]
pub fn tcp_metrics(model: &NetworkModel, solution: &RoutingSolution) -> (f64, f64) {
    let mut fluid = FluidNetwork::new();
    // Firewall instance resources: capacity in traffic units = m_sf / 2l_f.
    let mut vnf_res = std::collections::HashMap::new();
    for vnf in model.vnfs() {
        for (&site, &cap) in &vnf.site_capacity {
            let r = fluid.add_resource(cap / (2.0 * vnf.load_per_unit));
            vnf_res.insert((vnf.id, site), r);
        }
    }
    // Link resources.
    let mut link_res = Vec::new();
    for l in model.topology().links() {
        link_res.push(fluid.add_resource(model.mlu() * l.bandwidth() - model.background(l.id())));
    }

    // One fluid flow per (chain, decomposed path).
    struct FlowInfo {
        flow: sb_netsim::FlowId,
        chain_idx: usize,
        prop_rtt: f64,
        vnf_stops: Vec<(VnfId, SiteId)>,
    }
    let mut flows: Vec<FlowInfo> = Vec::new();
    for (ci, (chain, routes)) in model
        .chains()
        .iter()
        .zip(&solution.chains)
        .enumerate()
    {
        for path in routes.decompose(chain) {
            if path.fraction <= 1e-9 {
                continue;
            }
            let mut resources = Vec::new();
            let mut prop_one_way = 0.0;
            let mut vnf_stops = Vec::new();
            let mut at = chain.ingress;
            for (z, &site) in path.sites.iter().enumerate() {
                let node = model.site_node(site);
                for &link in model.routing().path(at, node) {
                    resources.push(link_res[link.index()]);
                }
                prop_one_way += model.latency(at, node).value();
                resources.push(vnf_res[&(chain.vnfs[z], site)]);
                vnf_stops.push((chain.vnfs[z], site));
                at = node;
            }
            for &link in model.routing().path(at, chain.egress) {
                resources.push(link_res[link.index()]);
            }
            prop_one_way += model.latency(at, chain.egress).value();

            let demand = chain.demand() * path.fraction;
            let flow = fluid.add_flow(resources, Some(demand));
            flows.push(FlowInfo {
                flow,
                chain_idx: ci,
                prop_rtt: 2.0 * prop_one_way,
                vnf_stops,
            });
        }
    }

    let rates = fluid.max_min_rates();
    let throughput: f64 = flows.iter().map(|f| rates[f.flow.index()]).sum();

    // Queueing-aware RTT per chain, rate-weighted.
    let utils = fluid.utilizations(&rates);
    let mut chain_rtt = vec![0.0; model.chains().len()];
    let mut chain_rate = vec![0.0; model.chains().len()];
    for f in &flows {
        let rate = rates[f.flow.index()];
        let mut rtt = f.prop_rtt;
        for &(vnf, site) in &f.vnf_stops {
            let u = utils[vnf_res[&(vnf, site)].index()];
            // 1 ms zero-load service per direction at the firewall.
            rtt += 2.0 * mm1_delay(Millis::new(1.0), u).value();
        }
        chain_rtt[f.chain_idx] += rtt * rate;
        chain_rate[f.chain_idx] += rate;
    }
    let total_rate: f64 = chain_rate.iter().sum();
    let mean_rtt = if total_rate > 0.0 {
        chain_rtt.iter().sum::<f64>() / total_rate
    } else {
        0.0
    };
    (throughput, mean_rtt)
}

/// Runs all three schemes on a testbed with the given one-way WAN delay.
#[must_use]
pub fn run(one_way: Millis) -> Vec<SchemeResult> {
    let (model, _a, _b) = build_model(one_way);

    // "Switchboard computes routing via its LP-formulation to maximize
    // throughput" (Section 7.2). The max-α objective uniquely forces the
    // balanced assignment here: scaling both chains to 1.25x their demand
    // fills each firewall instance exactly, which is only feasible when
    // chain 1 runs entirely through B and chain 2 through A. (min-latency
    // at the offered demand is degenerate: parking part of chain 1 at A
    // costs no propagation latency, so the simplex may pick a vertex that
    // saturates A.)
    let (switchboard, _alpha) =
        lp::max_throughput(&model).expect("fig11 model is feasible");
    let any = baselines::anycast(&model);
    let ca = baselines::compute_aware(&model);

    let mut results = Vec::new();
    for (name, sol) in [
        ("switchboard", &switchboard),
        ("anycast", &any),
        ("compute-aware", &ca),
    ] {
        let (throughput, mean_rtt) = tcp_metrics(&model, sol);
        results.push(SchemeResult {
            name,
            throughput,
            mean_rtt,
        });
    }
    results
}

/// Formats the comparison as paper-style rows.
#[must_use]
pub fn render(label: &str, results: &[SchemeResult]) -> String {
    let mut out = format!(
        "fig11 ({label}): Switchboard vs distributed load balancing (paper: +34-57% tput, -10-49% latency)\n\
         scheme         | TCP throughput | mean RTT ms\n"
    );
    for r in results {
        out.push_str(&format!(
            "{:14} | {:14.1} | {:10.1}\n",
            r.name, r.throughput, r.mean_rtt
        ));
    }
    if let (Some(sb_r), Some(any)) = (
        results.iter().find(|r| r.name == "switchboard"),
        results.iter().find(|r| r.name == "anycast"),
    ) {
        out.push_str(&format!(
            "switchboard vs anycast: {:+.0}% throughput, {:+.0}% latency\n",
            (sb_r.throughput / any.throughput - 1.0) * 100.0,
            (sb_r.mean_rtt / any.mean_rtt - 1.0) * 100.0,
        ));
    }
    if let (Some(sb_r), Some(ca)) = (
        results.iter().find(|r| r.name == "switchboard"),
        results.iter().find(|r| r.name == "compute-aware"),
    ) {
        out.push_str(&format!(
            "switchboard vs compute-aware: {:+.0}% throughput, {:+.0}% latency\n",
            (sb_r.throughput / ca.throughput - 1.0) * 100.0,
            (sb_r.mean_rtt / ca.mean_rtt - 1.0) * 100.0,
        ));
    }
    out
}
