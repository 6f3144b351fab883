//! Figure 10: dynamic chain-route creation.
//!
//! Paper result: (a) "a chain route update takes a total of only 595 ms"
//! and load is balanced evenly across the old and new routes; (b) "the
//! addition of a new chain route doubles the total throughput of the
//! service chain ... commensurate to the additional capacity available on
//! the new chain route."
//!
//! We deploy a NAT chain with one route via site A, trigger a second route
//! via site B, and report the control-plane step latencies (virtual time)
//! plus the chain's sustainable throughput before and after. The route
//! addition is an update to the even split, so its steps are the delta
//! pipeline's (diff, delta 2PC, propagate, install, shift, retire).

use sb_controller::{ChainRequest, DeploymentReport};
use sb_msgbus::DelayModel;
use sb_te::eval::Evaluation;
use sb_te::{ChainRoutes, RoutePath, RoutingSolution};
use sb_types::{ChainId, Millis, SiteId, VnfId};
use switchboard::scenarios;
use switchboard::{Switchboard, SwitchboardConfig};

/// The experiment outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Step latencies of the route addition.
    pub report: DeploymentReport,
    /// Sustainable chain throughput with one route.
    pub throughput_before: f64,
    /// Sustainable chain throughput after the second route.
    pub throughput_after: f64,
    /// Route fractions after rebalancing.
    pub fractions: Vec<f64>,
    /// Cost of shifting the split incrementally (`update_chain`, epoch
    /// pipeline): only the delta's sites are contacted.
    pub update_report: DeploymentReport,
    /// Cost of installing the identical target from scratch — what a
    /// non-incremental controller pays after a teardown + redeploy.
    pub redeploy_report: DeploymentReport,
}

/// Runs the Figure 10 experiment.
///
/// # Panics
///
/// Panics if the static scenario fails to deploy (a bug, not an input
/// condition).
#[must_use]
pub fn run() -> Outcome {
    // Two sites, NAT capacity 48 per site; chain demand 12 -> load 24, so
    // one site sustains 2x the demand and adding the second route doubles
    // the ceiling.
    let (model, site_a, site_b) = scenarios::two_site_testbed(Millis::new(40.0), 48.0);
    let mut sb = Switchboard::new(
        model.clone(),
        DelayModel::uniform(Millis::new(0.1), Millis::new(40.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    sb.register_attachment("ingress", site_a);
    sb.register_attachment("egress", site_b);

    let chain = ChainId::new(1);
    let request = ChainRequest {
        id: chain,
        ingress_attachment: "ingress".into(),
        egress_attachment: "egress".into(),
        vnfs: vec![VnfId::new(0)],
        forward: 10.0,
        reverse: 2.0,
    };
    sb.deploy_chain_via(request.clone(), vec![(vec![site_a], 1.0)])
        .unwrap();

    let throughput = |routes: &[(Vec<SiteId>, f64)]| -> f64 {
        let spec = sb_te::ChainSpec::uniform(
            chain,
            model.site_node(site_a),
            model.site_node(site_b),
            request.vnfs.clone(),
            request.forward,
            request.reverse,
        );
        let m = model.with_chains(vec![spec.clone()]);
        let paths: Vec<RoutePath> = routes
            .iter()
            .map(|(sites, f)| RoutePath {
                sites: sites.clone(),
                fraction: *f,
            })
            .collect();
        let sol = RoutingSolution {
            chains: vec![ChainRoutes::from_paths(&m, &spec, &paths)],
        };
        Evaluation::of(&m, &sol).max_throughput(&m)
    };

    let throughput_before = throughput(&[(vec![site_a], 1.0)]);
    let (_, report) = sb.add_route_via(chain, vec![site_b]).unwrap();
    let routes = sb.routes_of(chain);
    let fractions: Vec<f64> = routes.iter().map(|r| r.fraction).collect();
    let after_routes: Vec<(Vec<SiteId>, f64)> = routes
        .iter()
        .map(|r| (r.sites.clone(), r.fraction))
        .collect();
    let throughput_after = throughput(&after_routes);

    // Update-vs-redeploy: shift the 50/50 split to 40/60. Incrementally,
    // only the grown route votes in 2PC and only the delta's sites hear
    // announcements; a full redeploy re-prepares every reservation and
    // replicates the whole route set.
    let target = vec![(vec![site_a], 0.4), (vec![site_b], 0.6)];
    let update_report = sb.update_chain(chain, target.clone()).unwrap().report;
    let redeploy_report = {
        let mut fresh = Switchboard::new(
            model.clone(),
            DelayModel::uniform(Millis::new(0.1), Millis::new(40.0)),
            SwitchboardConfig::default(),
        );
        fresh.register_attachment("ingress", site_a);
        fresh.register_attachment("egress", site_b);
        fresh.deploy_chain_via(request, target).unwrap().report
    };

    Outcome {
        report,
        throughput_before,
        throughput_after,
        fractions,
        update_report,
        redeploy_report,
    }
}

/// Formats the outcome as paper-style rows.
#[must_use]
pub fn render(o: &Outcome) -> String {
    let mut out = String::from(
        "fig10a: chain route update latency (paper: 595 ms total)\n",
    );
    for (name, d) in &o.report.steps {
        out.push_str(&format!("  {name:44} {d}\n"));
    }
    out.push_str(&format!("  {:44} {}\n", "TOTAL", o.report.total()));
    out.push_str(&format!(
        "fig10b: throughput before {:.1} -> after {:.1} ({}x, paper: ~2x); fractions {:?}\n",
        o.throughput_before,
        o.throughput_after,
        o.throughput_after / o.throughput_before.max(1e-9),
        o.fractions,
    ));
    out.push_str("fig10c: incremental update vs full redeploy (same target split)\n");
    out.push_str(&format!(
        "  {:24} {:>12} {:>16} {:>12}\n",
        "", "latency", "2pc participants", "wan msgs"
    ));
    out.push_str(&format!(
        "  {:24} {:>12} {:>16} {:>12}\n",
        "update_chain (delta)",
        o.update_report.total().to_string(),
        o.update_report.participants_2pc,
        o.update_report.wan_messages,
    ));
    out.push_str(&format!(
        "  {:24} {:>12} {:>16} {:>12}\n",
        "full redeploy",
        o.redeploy_report.total().to_string(),
        o.redeploy_report.participants_2pc,
        o.redeploy_report.wan_messages,
    ));
    out
}
