//! Integration: traffic-engineering decisions installed by the control
//! plane are faithfully executed by the data plane — packet-level route
//! splits converge to the TE fractions, and all schemes agree with the
//! shared evaluator.

use std::collections::HashMap;
use switchboard::prelude::*;
use switchboard::scenarios;
use switchboard::te::dp::{route_chains, DpConfig};
use switchboard::te::eval::Evaluation;
use switchboard::te::{baselines, lp};

#[test]
fn installed_fractions_match_packet_level_split() {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    let chain = ChainId::new(1);
    // TE says: 70% via site 1, 30% via site 2.
    sb.deploy_chain_via(
        ChainRequest {
            id: chain,
            ingress_attachment: "in".into(),
            egress_attachment: "out".into(),
            vnfs: vec![VnfId::new(0)],
            forward: 4.0,
            reverse: 1.0,
        },
        vec![(vec![sites[1]], 0.7), (vec![sites[2]], 0.3)],
    )
    .unwrap();

    let mut by_site: HashMap<SiteId, u32> = HashMap::new();
    let n = 2000;
    for p in 0..n {
        let k = FlowKey::tcp([10, 0, 0, 2], 1000 + p, [10, 9, 9, 9], 80);
        let t = sb.send(chain, sites[0], Packet::unlabeled(k, 500)).unwrap();
        let site = sb
            .control_plane()
            .forwarder_site(t.forwarders()[0])
            .unwrap();
        *by_site.entry(site).or_insert(0) += 1;
    }
    let frac1 = f64::from(by_site[&sites[1]]) / f64::from(n);
    assert!(
        (frac1 - 0.7).abs() < 0.05,
        "packet split {frac1} should track the TE fraction 0.7"
    );
}

#[test]
fn lp_dominates_heuristics_on_throughput() {
    let cfg = scenarios::Tier1Config {
        num_chains: 8,
        num_vnfs: 6,
        coverage: 0.3,
        ..scenarios::Tier1Config::default()
    };
    let model = scenarios::tier1(&cfg);
    let (_, lp_alpha) = lp::max_throughput(&model).unwrap();

    // Any feasible solution's uniform scale is bounded by the LP optimum.
    let dp = route_chains(&model, &DpConfig::default());
    let e = Evaluation::of(&model, &dp);
    let dp_scale = e.max_uniform_scale(&model) * dp.routed_share(&model);
    assert!(
        dp_scale <= lp_alpha + 1e-6,
        "DP scale {dp_scale} cannot exceed LP optimum {lp_alpha}"
    );

    let any = baselines::anycast(&model);
    let e = Evaluation::of(&model, &any);
    let any_scale = e.max_uniform_scale(&model);
    assert!(any_scale <= lp_alpha + 1e-6);
}

#[test]
fn lp_min_latency_lower_bounds_heuristics() {
    let cfg = scenarios::Tier1Config {
        num_chains: 6,
        num_vnfs: 5,
        coverage: 0.3,
        total_traffic: 50.0, // light: everything routable
        ..scenarios::Tier1Config::default()
    };
    let model = scenarios::tier1(&cfg);
    let lp_sol = lp::min_latency(&model).unwrap();
    let lp_latency = Evaluation::of(&model, &lp_sol).aggregate_latency;

    for (name, sol) in [
        (
            "dp",
            route_chains(&model, &DpConfig { util_weight: 0.0 }),
        ),
        ("anycast", baselines::anycast(&model)),
    ] {
        let e = Evaluation::of(&model, &sol);
        if sol.routed_share(&model) > 0.999 {
            assert!(
                e.aggregate_latency >= lp_latency - 1e-6,
                "{name} beat the LP lower bound: {} < {lp_latency}",
                e.aggregate_latency
            );
        }
    }
}

#[test]
fn solutions_from_all_schemes_conserve_flow() {
    let cfg = scenarios::Tier1Config {
        num_chains: 10,
        num_vnfs: 6,
        coverage: 0.4,
        ..scenarios::Tier1Config::default()
    };
    let model = scenarios::tier1(&cfg);
    let solutions = vec![
        ("lp", lp::max_throughput(&model).unwrap().0),
        ("dp", route_chains(&model, &DpConfig::default())),
        ("anycast", baselines::anycast(&model)),
        ("compute-aware", baselines::compute_aware(&model)),
        ("one-hop", baselines::one_hop(&model, &DpConfig::default())),
    ];
    for (name, sol) in solutions {
        for (i, chain) in sol.chains.iter().enumerate() {
            assert!(
                chain.is_conserved(1e-5),
                "{name}: chain {i} violates flow conservation"
            );
        }
    }
}

#[test]
fn controller_capacity_accounting_matches_evaluator() {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model.clone(),
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    let chain = ChainId::new(1);
    let handle = sb
        .deploy_chain_via(
            ChainRequest {
                id: chain,
                ingress_attachment: "in".into(),
                egress_attachment: "out".into(),
                vnfs: vec![VnfId::new(0)],
                forward: 10.0,
                reverse: 2.0,
            },
            vec![(vec![sites[1]], 1.0)],
        )
        .unwrap();
    let _ = handle;

    // Evaluator's view of the same routing.
    let spec = switchboard::te::ChainSpec::uniform(
        chain,
        model.site_node(sites[0]),
        model.site_node(sites[3]),
        vec![VnfId::new(0)],
        10.0,
        2.0,
    );
    let m = model.with_chains(vec![spec.clone()]);
    let sol = switchboard::te::RoutingSolution {
        chains: vec![switchboard::te::ChainRoutes::from_paths(
            &m,
            &spec,
            &[switchboard::te::RoutePath {
                sites: vec![sites[1]],
                fraction: 1.0,
            }],
        )],
    };
    let e = Evaluation::of(&m, &sol);
    let eval_load = e.vnf_site_load[&(VnfId::new(0), sites[1])];

    // Controller's committed load at the same deployment.
    let ctl = sb.control_plane().vnf_controller(VnfId::new(0)).unwrap();
    let committed = 200.0 - ctl.available_at(sites[1]); // capacity is 200
    assert!(
        (committed - eval_load).abs() < 1e-6,
        "controller committed {committed}, evaluator computed {eval_load}"
    );
}
