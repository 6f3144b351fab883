//! Extension experiment: time-varying traffic matrices (Section 7.3
//! future work: "we plan to extend our network model to include
//! time-varying traffic matrices and design routing algorithms for it").
//!
//! A diurnal day is sliced into epochs whose chain demands follow
//! longitude-phased sinusoids (`switchboard::scenarios::diurnal_series`).
//! Two operating modes are compared:
//!
//! - **static**: SB-DP routes once, against the *peak-hour* matrix, and
//!   the routes are held all day (the conservative provisioning strategy
//!   a time-blind controller must adopt);
//! - **adaptive**: SB-DP re-routes at every epoch against that epoch's
//!   matrix from scratch, as a time-aware but non-incremental controller
//!   would;
//! - **incremental**: warm-started SB-DP ([`sb_te::delta::warm_route_chains`])
//!   carries each chain's routes across epochs and re-solves only the
//!   chains that stopped fitting, so the per-epoch update cost (delta
//!   operations, re-routed chains) scales with the traffic change, not
//!   the network.
//!
//! Static routing pays for its peak provisioning all day: off-peak
//! traffic follows detours chosen for peak congestion. Adaptive routing
//! tracks the demand and recovers latency at every epoch; incremental
//! routing keeps most of that latency win while touching only a fraction
//! of the chains.

use crate::Scale;
use sb_te::delta::warm_route_chains;
use sb_te::dp::{route_chains, DpConfig};
use sb_te::eval::Evaluation;
use switchboard::scenarios::{diurnal_series, Tier1Config};

/// Per-epoch comparison row.
#[derive(Debug, Clone)]
pub struct EpochRow {
    /// Hour of (virtual) day.
    pub hour: f64,
    /// Total offered demand this epoch.
    pub demand: f64,
    /// Static routing: demand-weighted mean latency (ms), when feasible.
    pub static_latency: Option<f64>,
    /// Static routing: maximum link utilization.
    pub static_mlu: f64,
    /// Adaptive routing: mean latency (ms), when fully routed.
    pub adaptive_latency: Option<f64>,
    /// Adaptive routing: maximum link utilization.
    pub adaptive_mlu: f64,
    /// Incremental (warm-started) routing: mean latency (ms), when fully
    /// routed.
    pub incremental_latency: Option<f64>,
    /// Incremental routing: chains whose routes were kept verbatim.
    pub incremental_kept: usize,
    /// Incremental routing: chains re-solved this epoch.
    pub incremental_rerouted: usize,
    /// Incremental routing: per-path delta operations against the
    /// previous epoch — the wide-area update cost of this epoch.
    pub incremental_ops: usize,
}

/// Runs the day-long comparison.
#[must_use]
pub fn run(scale: Scale) -> Vec<EpochRow> {
    let cfg = Tier1Config {
        num_chains: scale.pick(40, 120),
        num_vnfs: scale.pick(8, 16),
        coverage: 0.4,
        total_traffic: 300.0,
        ..Tier1Config::default()
    };
    let epochs = scale.pick(8, 24);
    let series = diurnal_series(&cfg, epochs, 0.3, 1.5);
    let dp = DpConfig::default();

    // Static mode: route the peak epoch once, then apply those per-chain
    // stage flows (rescaled per-epoch demand applies automatically because
    // flows are fractions of each chain's demand).
    let peak_idx = (0..series.len())
        .max_by(|&a, &b| {
            let da: f64 = series[a].chains().iter().map(sb_te::ChainSpec::demand).sum();
            let db: f64 = series[b].chains().iter().map(sb_te::ChainSpec::demand).sum();
            da.partial_cmp(&db).unwrap()
        })
        .expect("non-empty series");
    let static_solution = route_chains(&series[peak_idx], &dp);

    // Incremental mode threads the previous epoch's solution through
    // `warm_route_chains`; the first epoch is a cold start.
    let mut prev_incremental: Option<sb_te::RoutingSolution> = None;

    series
        .iter()
        .enumerate()
        .map(|(e, model)| {
            #[allow(clippy::cast_precision_loss)]
            let hour = 24.0 * e as f64 / epochs as f64;
            let demand: f64 = model.chains().iter().map(sb_te::ChainSpec::demand).sum();

            let static_eval = Evaluation::of(model, &static_solution);
            let static_ok = static_eval.is_feasible(model, 1e-6)
                && static_solution.routed_share(&series[peak_idx]) > 0.999;
            let adaptive_solution = route_chains(model, &dp);
            let adaptive_eval = Evaluation::of(model, &adaptive_solution);
            let adaptive_ok = adaptive_solution.routed_share(model) > 0.999;

            let (incremental, kept, rerouted, ops) = match &prev_incremental {
                Some(prev) => {
                    let out = warm_route_chains(model, prev, &dp);
                    let ops = out.delta.num_ops();
                    (out.solution, out.kept, out.rerouted, ops)
                }
                None => {
                    let sol = adaptive_solution.clone();
                    let n = sol.chains.len();
                    (sol, 0, n, 0)
                }
            };
            let incremental_eval = Evaluation::of(model, &incremental);
            let incremental_ok = incremental.routed_share(model) > 0.999;
            let incremental_latency =
                incremental_ok.then(|| incremental_eval.mean_latency().value());
            prev_incremental = Some(incremental);

            EpochRow {
                hour,
                demand,
                static_latency: static_ok.then(|| static_eval.mean_latency().value()),
                static_mlu: static_eval.max_link_utilization(model),
                adaptive_latency: adaptive_ok
                    .then(|| adaptive_eval.mean_latency().value()),
                adaptive_mlu: adaptive_eval.max_link_utilization(model),
                incremental_latency,
                incremental_kept: kept,
                incremental_rerouted: rerouted,
                incremental_ops: ops,
            }
        })
        .collect()
}

/// Formats the day as rows.
#[must_use]
pub fn render(rows: &[EpochRow]) -> String {
    let mut out = String::from(
        "ext-timevarying: diurnal traffic, static (peak-provisioned) vs adaptive vs \
         incremental SB-DP\n\
         hour | demand | static lat ms | static mlu | adaptive lat ms | adaptive mlu \
         | incr lat ms | kept | rerouted | delta ops\n",
    );
    for r in rows {
        let f = |l: Option<f64>| l.map_or("unroutable".into(), |v| format!("{v:10.1}"));
        out.push_str(&format!(
            "{:4.0} | {:6.0} | {:>13} | {:10.2} | {:>15} | {:12.2} | {:>11} | {:4} | {:8} | {:9}\n",
            r.hour,
            r.demand,
            f(r.static_latency),
            r.static_mlu,
            f(r.adaptive_latency),
            r.adaptive_mlu,
            f(r.incremental_latency),
            r.incremental_kept,
            r.incremental_rerouted,
            r.incremental_ops,
        ));
    }
    let total_chains: usize = rows
        .iter()
        .skip(1)
        .map(|r| r.incremental_kept + r.incremental_rerouted)
        .sum();
    let total_rerouted: usize = rows.iter().skip(1).map(|r| r.incremental_rerouted).sum();
    if total_chains > 0 {
        #[allow(clippy::cast_precision_loss)]
        let share = 100.0 * total_rerouted as f64 / total_chains as f64;
        out.push_str(&format!(
            "incremental: {total_rerouted}/{total_chains} chain re-routes across the day \
             ({share:.0}% of a full per-epoch recompute)\n",
        ));
    }
    let (mut s_sum, mut a_sum, mut n) = (0.0, 0.0, 0u32);
    for r in rows {
        if let (Some(s), Some(a)) = (r.static_latency, r.adaptive_latency) {
            s_sum += s;
            a_sum += a;
            n += 1;
        }
    }
    if n > 0 {
        out.push_str(&format!(
            "day-mean latency: static {:.1} ms vs adaptive {:.1} ms ({:+.1}% for adaptive)\n",
            s_sum / f64::from(n),
            a_sum / f64::from(n),
            (a_sum / s_sum - 1.0) * 100.0,
        ));
    }
    out
}
