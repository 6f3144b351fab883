//! Figure 13: SB-DP ablations and capacity planning.
//!
//! Paper results: (a) SB-DP improves throughput by up to 6× over
//! DP-Latency and 2.3× over OneHop — both its utilization-aware cost
//! function and its holistic whole-chain computation matter. (b) The
//! cloud capacity-planning LP beats uniform provisioning by up to 22% in
//! maximum throughput. (c) The VNF placement hints yield up to 27% lower
//! latency than random site selection.

use crate::fig12_te::base_config;
use crate::Scale;
use sb_te::baselines;
use sb_te::capacity;
use sb_te::dp::{route_chains, DpConfig};
use sb_te::eval::Evaluation;
use sb_te::lp;
use sb_types::VnfId;
use switchboard::scenarios::{tier1, Tier1Config};

/// One DP-variant's throughput at one coverage point.
#[derive(Debug, Clone)]
pub struct VariantPoint {
    /// Variant name.
    pub name: &'static str,
    /// Maximum sustainable throughput.
    pub throughput: f64,
}

/// Figure 13a: SB-DP vs DP-Latency vs OneHop across coverage.
#[must_use]
pub fn dp_variants(scale: Scale) -> Vec<(f64, Vec<VariantPoint>)> {
    let coverages = scale.pick(vec![0.2, 0.5, 0.8], vec![0.1, 0.25, 0.5, 0.75, 1.0]);
    coverages
        .into_iter()
        .map(|coverage| {
            let cfg = Tier1Config {
                coverage,
                ..base_config(scale)
            };
            let model = tier1(&cfg);
            let total_demand: f64 =
                model.chains().iter().map(sb_te::ChainSpec::demand).sum();
            let latency_only = DpConfig { util_weight: 0.0 };
            // All variants re-route as load grows (the paper's throughput
            // measure for the DP family), via the shared search.
            let points = vec![
                VariantPoint {
                    name: "SB-DP",
                    throughput: crate::fig12_te::adaptive_max_load(&model, |m| {
                        route_chains(m, &DpConfig::default())
                    }) * total_demand,
                },
                VariantPoint {
                    name: "DP-LATENCY",
                    throughput: crate::fig12_te::adaptive_max_load(&model, |m| {
                        route_chains(m, &latency_only)
                    }) * total_demand,
                },
                VariantPoint {
                    name: "ONEHOP",
                    throughput: crate::fig12_te::adaptive_max_load(&model, |m| {
                        baselines::one_hop(m, &DpConfig::default())
                    }) * total_demand,
                },
            ];
            (coverage, points)
        })
        .collect()
}

/// One capacity-planning point: extra capacity and both allocations'
/// achievable throughput scale α.
#[derive(Debug, Clone)]
pub struct CloudPoint {
    /// Extra capacity deployed.
    pub extra: f64,
    /// α with the LP-planned allocation.
    pub planned_alpha: f64,
    /// α with uniform spreading.
    pub uniform_alpha: f64,
}

/// Figure 13b: cloud capacity planning vs uniform provisioning.
///
/// The planning problem only bites when compute (not the network) is the
/// binding resource and demand is geographically skewed, so this scenario
/// uses a high CPU/byte, small sites and light background traffic.
#[must_use]
pub fn cloud_planning(scale: Scale) -> Vec<CloudPoint> {
    let cfg = Tier1Config {
        num_chains: scale.pick(8, 32),
        num_vnfs: scale.pick(6, 12),
        cpu_per_byte: 3.0,
        site_capacity: 150.0,
        background_ratio: 0.1,
        ..base_config(scale)
    };
    let model = tier1(&cfg);
    let site_total: f64 = cfg.site_capacity * 25.0;
    let extras = scale.pick(vec![0.25, 1.0], vec![0.1, 0.25, 0.5, 1.0, 2.0]);
    extras
        .into_iter()
        .map(|frac| {
            let extra = site_total * frac;
            let planned_alpha = capacity::plan_cloud_capacity(&model, extra)
                .ok()
                .and_then(|caps| {
                    let m = capacity::rescale_model(&model, &caps);
                    lp::max_throughput(&m).ok().map(|(_, a)| a)
                })
                .unwrap_or(0.0);
            let uniform_alpha = {
                let caps = capacity::uniform_cloud_capacity(&model, extra);
                let m = capacity::rescale_model(&model, &caps);
                lp::max_throughput(&m).map_or(0.0, |(_, a)| a)
            };
            CloudPoint {
                extra,
                planned_alpha,
                uniform_alpha,
            }
        })
        .collect()
}

/// One VNF-placement point.
#[derive(Debug, Clone)]
pub struct PlacementPoint {
    /// New sites added for the VNF.
    pub new_sites: usize,
    /// Mean latency (ms) with the planner's placement.
    pub planned_latency: f64,
    /// Mean latency (ms) with random placement (average of seeds).
    pub random_latency: f64,
}

/// Figure 13c: VNF placement hints vs random site selection.
///
/// Every VNF in the catalog gets `y_f` new sites (matching the paper's
/// formulation, which takes "the number of new sites `y_f` for each VNF
/// `f ∈ F`"); coverage starts very low so placement matters.
#[must_use]
pub fn vnf_placement(scale: Scale) -> Vec<PlacementPoint> {
    let cfg = Tier1Config {
        num_chains: scale.pick(40, 80),
        num_vnfs: scale.pick(8, 12),
        coverage: 0.08,
        // Light demand: every chain routes fully, so the comparison is
        // purely about propagation latency (the Figure 13c metric).
        total_traffic: 100.0,
        ..base_config(scale)
    };
    let model = tier1(&cfg);
    // Ample per-site capacity: Figure 13c is purely about latency, not
    // about relieving compute bottlenecks.
    let per_site_cap = cfg.site_capacity;
    // Latency is scored with the pure-latency DP (capacity is ample by
    // construction, so utilization costs would only perturb routes).
    let dp_cfg = DpConfig { util_weight: 0.0 };
    let num_vnfs = model.vnfs().len();

    let latency_of = |m: &sb_te::NetworkModel| -> f64 {
        let sol = route_chains(m, &dp_cfg);
        Evaluation::of(m, &sol).mean_latency().value()
    };

    scale
        .pick(vec![1usize, 2], vec![1usize, 2, 3, 4])
        .into_iter()
        .map(|new_sites| {
            // Planned: greedy placement per VNF, applied cumulatively.
            let mut planned_model = model.clone();
            for v in 0..num_vnfs {
                let vnf = VnfId::new(u32::try_from(v).expect("vnf count fits u32"));
                let chosen = capacity::plan_vnf_placement_greedy(
                    &planned_model,
                    vnf,
                    new_sites,
                    per_site_cap,
                )
                .expect("candidates exist at low coverage");
                planned_model =
                    capacity::apply_placement(&planned_model, vnf, &chosen, per_site_cap);
            }
            let planned_latency = latency_of(&planned_model);

            // Random baseline, averaged over seeds.
            let seeds = [3u64, 11, 17, 23, 31];
            let random_latency = seeds
                .iter()
                .map(|&seed| {
                    let mut m = model.clone();
                    for v in 0..num_vnfs {
                        let vnf = VnfId::new(u32::try_from(v).expect("fits"));
                        let chosen =
                            capacity::random_vnf_placement(&m, vnf, new_sites, seed + v as u64)
                                .expect("candidates exist");
                        m = capacity::apply_placement(&m, vnf, &chosen, per_site_cap);
                    }
                    latency_of(&m)
                })
                .sum::<f64>()
                / seeds.len() as f64;
            PlacementPoint {
                new_sites,
                planned_latency,
                random_latency,
            }
        })
        .collect()
}

/// Formats Figure 13a.
#[must_use]
pub fn render_variants(rows: &[(f64, Vec<VariantPoint>)]) -> String {
    let mut out = String::from(
        "fig13a: SB-DP vs ablations (paper: up to 6x DP-LATENCY, 2.3x ONEHOP)\n\
         coverage | variant    | throughput\n",
    );
    for (c, points) in rows {
        for p in points {
            out.push_str(&format!("{c:8.2} | {:10} | {:10.1}\n", p.name, p.throughput));
        }
    }
    out
}

/// Formats Figure 13b.
#[must_use]
pub fn render_cloud(points: &[CloudPoint]) -> String {
    let mut out = String::from(
        "fig13b: cloud capacity planning (paper: up to +22% over uniform)\n\
         extra capacity | planned alpha | uniform alpha | gain\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:14.0} | {:13.3} | {:13.3} | {:+.1}%\n",
            p.extra,
            p.planned_alpha,
            p.uniform_alpha,
            (p.planned_alpha / p.uniform_alpha.max(1e-9) - 1.0) * 100.0
        ));
    }
    out
}

/// Formats Figure 13c.
#[must_use]
pub fn render_placement(points: &[PlacementPoint]) -> String {
    let mut out = String::from(
        "fig13c: VNF placement hints vs random (paper: up to -27% latency)\n\
         new sites | planned ms | random ms | gain\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:9} | {:10.1} | {:9.1} | {:+.1}%\n",
            p.new_sites,
            p.planned_latency,
            p.random_latency,
            (p.planned_latency / p.random_latency.max(1e-9) - 1.0) * 100.0
        ));
    }
    out
}
