//! The "day in the life" scenario harness (ROADMAP: million-user scale).
//!
//! [`run`] drives a fleet-scale deployment through a compressed virtual
//! day on the [`sb_netsim::Simulator`], composing the workload dimensions
//! the paper's time-varying experiments (Figs 12–13) are about:
//!
//! - **diurnal demand**: every chain follows a sinusoidal day curve whose
//!   phase tracks its ingress position on the geographic ring, so demand
//!   rolls around the planet instead of breathing in unison;
//! - **Zipf user populations**: the configured user count (millions) is
//!   split across chains by a Zipf law over a seeded rank permutation —
//!   a few giant tenants, a long tail;
//! - **user mobility**: a traveling sine wave sloshes population between
//!   edge sites over the day;
//! - **flash crowds**: a subset of chains ramps to a multiple of its base
//!   demand, holds, and decays;
//! - **regional failures**: a contiguous arc of sites crashes via
//!   [`sb_faults::FaultPlan`] crash windows; traffic routed through the
//!   region is *dropped* until the failure detector (after its configured
//!   delay) feeds [`FleetReconciler::set_failed_sites`] and a drain moves
//!   the affected chains — then healed the same way;
//! - **staggered deploys**: the last chains of the fleet come online one
//!   by one, each activation an update storm for the reconciler.
//!
//! The driver is wired to the windowed telemetry layer: demand, delivery,
//! drops, and path latency integrate into per-chain request counts that
//! are published to a registry observed by a
//! [`WindowRoller`](sb_telemetry::timeseries::WindowRoller), and every
//! run ends in an [`SloReport`] over the per-window series. Everything is
//! deterministic — virtual clock, seeded populations, pure fault windows
//! — so the same config yields byte-identical JSON.

use crate::scenarios::{fleet, FleetConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sb_controller::FleetReconciler;
use sb_faults::{FaultPlan, FaultSpec};
use sb_netsim::{SimTime, Simulator};
use sb_te::dp::DpConfig;
use sb_te::{ChainSpec, NetworkModel, RoutePath};
use sb_telemetry::slo::{self, SloKind, SloReport, SloTarget};
use sb_telemetry::timeseries::{WindowConfig, WindowRoller, WindowSnapshot};
use sb_telemetry::Telemetry;
use sb_types::{ChainId, SiteId};
use std::f64::consts::TAU;

/// A flash crowd: every `stride`-th chain ramps to `magnitude`× its base
/// demand over `ramp_s`, holds for `hold_s`, and decays back over
/// `ramp_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowdSpec {
    /// Onset, in virtual seconds.
    pub start_s: f64,
    /// Ramp-up (and decay) duration in virtual seconds.
    pub ramp_s: f64,
    /// Plateau duration in virtual seconds.
    pub hold_s: f64,
    /// Peak demand multiplier.
    pub magnitude: f64,
    /// Every `stride`-th chain is affected (1 = the whole fleet).
    pub stride: usize,
}

/// A regional outage: a contiguous arc of `region_sites` sites starting
/// at ring index `region_start` crashes at `start_s` and heals at
/// `start_s + duration_s`. The control plane only reacts after
/// `detection_delay_s` (both for the crash and the heal) — the window in
/// between is where drops happen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionalFailureSpec {
    /// Crash instant, in virtual seconds.
    pub start_s: f64,
    /// Outage duration in virtual seconds.
    pub duration_s: f64,
    /// First ring index of the failed arc.
    pub region_start: usize,
    /// Number of consecutive sites in the failed arc.
    pub region_sites: usize,
    /// Failure-detector delay in virtual seconds.
    pub detection_delay_s: f64,
}

/// Staggered chain deploys: the last `chains` chains of the fleet start
/// at a warm-up trickle (10% demand) and activate to full demand one at a
/// time, `interval_s` apart, starting at `start_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaggeredDeploySpec {
    /// Number of late-deployed chains (taken from the end of the fleet).
    pub chains: usize,
    /// First activation, in virtual seconds.
    pub start_s: f64,
    /// Activation spacing in virtual seconds.
    pub interval_s: f64,
}

/// Parameters of one daylife scenario run.
#[derive(Debug, Clone)]
pub struct DaylifeConfig {
    /// Scenario name carried into the result and the bench JSON.
    pub name: String,
    /// The fleet model underneath (topology, VNF catalog, chains).
    pub fleet: FleetConfig,
    /// Seed for the population permutation (the fleet has its own seed).
    pub seed: u64,
    /// Number of telemetry windows to run (the run lasts
    /// `windows × window_ns`).
    pub windows: u64,
    /// Window width in virtual nanoseconds.
    pub window_ns: u64,
    /// Length of the compressed virtual day, in seconds.
    pub day_s: f64,
    /// Total user population across all chains.
    pub users: u64,
    /// Zipf exponent of the per-chain population split.
    pub zipf_exponent: f64,
    /// Offered requests per user per second at demand factor 1.0.
    pub requests_per_user_per_s: f64,
    /// Diurnal trough factor (share of base demand at local night).
    pub diurnal_trough: f64,
    /// Diurnal peak factor.
    pub diurnal_peak: f64,
    /// Amplitude of the mobility wave (0 disables mobility).
    pub mobility_amplitude: f64,
    /// Optional flash crowd.
    pub flash: Option<FlashCrowdSpec>,
    /// Optional regional failure.
    pub failure: Option<RegionalFailureSpec>,
    /// Optional staggered deploys.
    pub deploys: Option<StaggeredDeploySpec>,
    /// Relative demand-scale change that makes a chain worth re-solving
    /// (the reconciler coalesces below it).
    pub enqueue_threshold: f64,
    /// p99 path-latency ceiling for the default SLO set, in nanoseconds.
    pub p99_ceiling_ns: u64,
    /// Max tolerated drop ratio per window for the default SLO set.
    pub max_drop_ratio: f64,
}

impl DaylifeConfig {
    /// The steady diurnal baseline: diurnal curve + mobility + staggered
    /// deploys, no fault, no crowd. This variant must pass every SLO.
    #[must_use]
    pub fn steady(seed: u64) -> Self {
        Self {
            name: "steady_diurnal".to_string(),
            fleet: FleetConfig {
                num_sites: 60,
                chords: 90,
                num_vnfs: 8,
                num_chains: 300,
                total_traffic: 1000.0,
                seed,
                ..FleetConfig::default()
            },
            seed,
            windows: 72,
            window_ns: 1_000_000_000,
            day_s: 72.0,
            users: 3_000_000,
            zipf_exponent: 1.1,
            requests_per_user_per_s: 0.4,
            diurnal_trough: 0.35,
            diurnal_peak: 1.5,
            mobility_amplitude: 0.15,
            flash: None,
            failure: None,
            deploys: Some(StaggeredDeploySpec {
                chains: 30,
                start_s: 10.0,
                interval_s: 0.8,
            }),
            enqueue_threshold: 0.04,
            p99_ceiling_ns: 400_000_000,
            max_drop_ratio: 0.005,
        }
    }

    /// Steady + a 3× flash crowd on every 7th chain mid-day.
    #[must_use]
    pub fn flash_crowd(seed: u64) -> Self {
        Self {
            name: "flash_crowd".to_string(),
            flash: Some(FlashCrowdSpec {
                start_s: 24.0,
                ramp_s: 6.0,
                hold_s: 12.0,
                magnitude: 3.0,
                stride: 7,
            }),
            ..Self::steady(seed)
        }
    }

    /// Steady + a regional outage of a 9-site arc with a 2.2 s detection
    /// delay. Expected to violate the drop-rate SLO during reconvergence
    /// and to recover afterwards.
    #[must_use]
    pub fn regional_failure(seed: u64) -> Self {
        Self {
            name: "regional_failure".to_string(),
            failure: Some(RegionalFailureSpec {
                start_s: 24.3,
                duration_s: 18.0,
                region_start: 10,
                region_sites: 9,
                detection_delay_s: 2.2,
            }),
            ..Self::steady(seed)
        }
    }

    /// A shrunk copy for smoke tests and starved CI hosts: smaller fleet,
    /// shorter day, fewer users; every composed dimension still fires.
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.fleet.num_sites = 30;
        self.fleet.chords = 40;
        self.fleet.num_vnfs = 6;
        self.fleet.num_chains = 80;
        self.windows = 24;
        self.day_s = 24.0;
        self.users = 200_000;
        self.deploys = self.deploys.map(|_| StaggeredDeploySpec {
            chains: 8,
            start_s: 4.0,
            interval_s: 0.5,
        });
        self.flash = self.flash.map(|f| FlashCrowdSpec {
            start_s: 8.0,
            ramp_s: 2.0,
            hold_s: 4.0,
            ..f
        });
        self.failure = self.failure.map(|_| RegionalFailureSpec {
            start_s: 8.3,
            duration_s: 6.0,
            region_start: 5,
            region_sites: 5,
            detection_delay_s: 1.2,
        });
        self
    }

    /// The three canonical variants, full-size.
    #[must_use]
    pub fn standard_suite(seed: u64) -> Vec<Self> {
        vec![
            Self::steady(seed),
            Self::flash_crowd(seed),
            Self::regional_failure(seed),
        ]
    }

    /// The default SLO targets for this configuration: a delivered-
    /// throughput floor, a p99 latency ceiling, a strict per-window drop
    /// ceiling, and a reconvergence budget (the same drop ceiling with an
    /// unlimited error budget but a bounded violation streak).
    #[must_use]
    pub fn slo_targets(&self) -> Vec<SloTarget> {
        // Aggregate demand stays near the day-curve mean (chains peak at
        // different local times), so half the all-trough floor is a
        // meaningful but robust lower bound on delivered throughput.
        #[allow(clippy::cast_precision_loss)]
        let total_req = self.users as f64 * self.requests_per_user_per_s;
        let undeployed = self
            .deploys
            .map_or(0.0, |d| d.chains as f64 / self.fleet.num_chains.max(1) as f64);
        let floor = 0.5
            * self.diurnal_trough
            * (1.0 - self.mobility_amplitude)
            * (1.0 - 0.9 * undeployed)
            * total_req;
        let reconv_budget_ns = {
            let detect_s = self.failure.map_or(0.0, |f| f.detection_delay_s);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let detect_ns = (detect_s * 1e9) as u64;
            detect_ns + 2 * self.window_ns
        };
        vec![
            SloTarget::strict(
                "delivered_throughput",
                SloKind::RateFloor {
                    counter: "daylife.delivered".to_string(),
                    min_per_s: floor,
                },
            ),
            SloTarget::strict(
                "p99_latency",
                SloKind::QuantileCeiling {
                    histogram: "daylife.latency_ns".to_string(),
                    quantile: 0.99,
                    max_value: self.p99_ceiling_ns,
                },
            ),
            SloTarget::strict(
                "drop_rate",
                SloKind::RatioCeiling {
                    numerator: "daylife.dropped".to_string(),
                    denominator: "daylife.offered".to_string(),
                    max_ratio: self.max_drop_ratio,
                },
            ),
            SloTarget::strict(
                "reconvergence",
                SloKind::RatioCeiling {
                    numerator: "daylife.dropped".to_string(),
                    denominator: "daylife.offered".to_string(),
                    max_ratio: self.max_drop_ratio,
                },
            )
            .with_error_budget(1.0)
            .with_max_streak_ns(reconv_budget_ns),
        ]
    }
}

/// Whole-run request totals (exact integers — per-chain cumulative floors).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaylifeTotals {
    /// Requests offered by users.
    pub offered: u64,
    /// Requests delivered over healthy routes.
    pub delivered: u64,
    /// Requests forwarded into a failed region and lost.
    pub dropped: u64,
    /// Requests refused for lack of routed capacity.
    pub unserved: u64,
    /// Reconciler drains executed.
    pub drains: u64,
    /// Chains re-solved across all drains.
    pub resolved_chains: u64,
    /// WAN messages the update pipeline would have sent.
    pub wan_messages: u64,
}

/// The event-engine profile of one run (the calendar-queue decision data
/// recorded in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedProfile {
    /// Events executed by the simulator.
    pub events_executed: u64,
    /// Deepest the pending-event heap ever got.
    pub peak_pending: usize,
}

/// Everything one scenario run produces.
#[derive(Debug, Clone)]
pub struct DaylifeResult {
    /// Scenario name (from the config).
    pub name: String,
    /// The closed windows, oldest first.
    pub windows: Vec<WindowSnapshot>,
    /// The windowed time series as stable JSON
    /// (`WindowRoller::to_json`).
    pub timeseries_json: String,
    /// The SLO verdicts over the window series.
    pub slo: SloReport,
    /// Whole-run totals.
    pub totals: DaylifeTotals,
    /// Event-engine profile.
    pub sched: SchedProfile,
}

/// Per-chain live state: demand inputs, current piecewise-constant rates,
/// and exact cumulative accounting.
#[derive(Debug, Clone, Default)]
struct ChainState {
    /// Offered requests/s at demand factor 1.0.
    base_req: f64,
    /// Ring position of the ingress in [0, 1) — the diurnal phase.
    ring_frac: f64,
    /// Whether this chain is caught in the flash crowd (membership is by
    /// population rank, so the crowd always includes the heaviest
    /// tenants and is visible in the aggregate despite the Zipf skew).
    in_flash_crowd: bool,
    /// Current continuous demand factor (updated every window open).
    target_scale: f64,
    /// Demand factor of the last solve handed to the reconciler.
    applied_scale: f64,
    /// Current rates, requests/s.
    rate_offered: f64,
    rate_delivered: f64,
    rate_dropped: f64,
    rate_unserved: f64,
    /// Exact cumulative request counts (f64 integrals).
    acc_offered: f64,
    acc_delivered: f64,
    acc_dropped: f64,
    acc_unserved: f64,
    /// Already-emitted integer counts (floors of the accumulators).
    emit_offered: u64,
    emit_delivered: u64,
    emit_dropped: u64,
    emit_unserved: u64,
}

/// The simulator state: model, control plane, faults, telemetry, chains.
struct DaylifeState {
    cfg: DaylifeConfig,
    /// The pristine model, used for path-latency lookups (topology never
    /// degrades — only VNF placements do, inside the reconciler).
    model: NetworkModel,
    rec: FleetReconciler,
    faults: FaultPlan,
    hub: Telemetry,
    roller: WindowRoller,
    chains: Vec<ChainState>,
    chain_ids: Vec<ChainId>,
    /// Sites actually down right now (ground truth, pre-detection).
    down: Vec<SiteId>,
    last_integrate_ns: u64,
    totals: DaylifeTotals,
}

impl DaylifeState {
    /// Advances the exact per-chain integrals to `to_ns` at the current
    /// piecewise-constant rates.
    fn integrate_to(&mut self, to_ns: u64) {
        if to_ns <= self.last_integrate_ns {
            return;
        }
        #[allow(clippy::cast_precision_loss)]
        let dt_s = (to_ns - self.last_integrate_ns) as f64 / 1e9;
        for c in &mut self.chains {
            c.acc_offered += c.rate_offered * dt_s;
            c.acc_delivered += c.rate_delivered * dt_s;
            c.acc_dropped += c.rate_dropped * dt_s;
            c.acc_unserved += c.rate_unserved * dt_s;
        }
        self.last_integrate_ns = to_ns;
    }

    /// Recomputes every chain's rates from its demand factor, installed
    /// routes, and the current ground-truth site health. Offered traffic
    /// follows demand continuously; admitted traffic is capped by the
    /// capacity the control plane has actually routed (the last applied
    /// scale), split across installed paths by their fractions; paths
    /// through a down site drop their share.
    fn recompute_rates(&mut self) {
        for (i, c) in self.chains.iter_mut().enumerate() {
            let paths = self.rec.installed_paths(self.chain_ids[i]);
            let mut healthy_f = 0.0;
            let mut total_f = 0.0;
            for p in paths {
                total_f += p.fraction;
                if !path_touches(p, &self.down) {
                    healthy_f += p.fraction;
                }
            }
            c.rate_offered = c.base_req * c.target_scale;
            let capacity = c.base_req * c.applied_scale * total_f;
            let admitted = c.rate_offered.min(capacity);
            if total_f > 0.0 {
                c.rate_delivered = admitted * healthy_f / total_f;
                c.rate_dropped = admitted * (total_f - healthy_f) / total_f;
            } else {
                c.rate_delivered = 0.0;
                c.rate_dropped = 0.0;
            }
            c.rate_unserved = c.rate_offered - admitted;
        }
    }

    /// The continuous demand factor of chain `i` at virtual second `t_s`:
    /// diurnal × mobility × flash × deploy gate.
    fn demand_factor(&self, i: usize, t_s: f64) -> f64 {
        let cfg = &self.cfg;
        let c = &self.chains[i];
        let day_frac = t_s / cfg.day_s;
        let phase = TAU * (day_frac - c.ring_frac);
        let diurnal = cfg.diurnal_trough
            + (cfg.diurnal_peak - cfg.diurnal_trough) * 0.5 * (1.0 + phase.cos());
        let mobility = 1.0
            + cfg.mobility_amplitude * (TAU * (day_frac + 2.0 * c.ring_frac)).sin();
        let flash = match cfg.flash {
            Some(f) if c.in_flash_crowd => {
                let rel = t_s - f.start_s;
                if rel < 0.0 || rel >= 2.0 * f.ramp_s + f.hold_s {
                    1.0
                } else if rel < f.ramp_s {
                    1.0 + (f.magnitude - 1.0) * rel / f.ramp_s
                } else if rel < f.ramp_s + f.hold_s {
                    f.magnitude
                } else {
                    f.magnitude - (f.magnitude - 1.0) * (rel - f.ramp_s - f.hold_s) / f.ramp_s
                }
            }
            _ => 1.0,
        };
        let gate = match cfg.deploys {
            Some(d) if i + d.chains >= self.chains.len() => {
                let nth = i + d.chains - self.chains.len();
                #[allow(clippy::cast_precision_loss)]
                let activation = d.start_s + nth as f64 * d.interval_s;
                if t_s + 1e-12 >= activation {
                    1.0
                } else {
                    0.1
                }
            }
            _ => 1.0,
        };
        diurnal * mobility * flash * gate
    }
}

/// Whether any site of `path` is in the sorted `down` list.
fn path_touches(path: &RoutePath, down: &[SiteId]) -> bool {
    path.sites.iter().any(|s| down.binary_search(s).is_ok())
}

/// One-way latency of `path` in nanoseconds: ingress → each VNF site →
/// egress, each segment over the model's shortest path.
fn path_latency_ns(model: &NetworkModel, spec: &ChainSpec, path: &RoutePath) -> u64 {
    let mut ms = 0.0;
    let mut cur = spec.ingress;
    for &s in &path.sites {
        let node = model.site_node(s);
        ms += model.latency(cur, node).value();
        cur = node;
    }
    ms += model.latency(cur, spec.egress).value();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        (ms * 1e6).max(0.0) as u64
    }
}

/// Runs one daylife scenario to completion.
///
/// # Panics
///
/// Panics on structurally invalid configurations (zero windows, an empty
/// fleet, a failure region outside the site range).
#[must_use]
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(cfg: &DaylifeConfig) -> DaylifeResult {
    assert!(cfg.windows > 0, "need at least one window");
    assert!(cfg.day_s > 0.0, "day must have positive length");

    let model = fleet(&cfg.fleet);
    let num_chains = model.chains().len();
    assert!(num_chains > 0, "fleet has no chains");

    // Zipf populations over a seeded rank permutation.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x00da_11fe);
    let mut ranks: Vec<usize> = (0..num_chains).collect();
    ranks.shuffle(&mut rng);
    let weights: Vec<f64> = ranks
        .iter()
        .map(|&r| 1.0 / ((r + 1) as f64).powf(cfg.zipf_exponent))
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    let total_req = cfg.users as f64 * cfg.requests_per_user_per_s;

    let n_sites = model.num_sites();
    let flash_stride = cfg.flash.map_or(0, |f| f.stride);
    let chains: Vec<ChainState> = model
        .chains()
        .iter()
        .zip(weights.iter().zip(&ranks))
        .map(|(spec, (w, &rank))| ChainState {
            base_req: total_req * w / weight_sum,
            ring_frac: spec.ingress.index() as f64 / n_sites as f64,
            in_flash_crowd: flash_stride > 0 && rank % flash_stride == 0,
            target_scale: 1.0,
            applied_scale: 1.0,
            ..ChainState::default()
        })
        .collect();
    let chain_ids: Vec<ChainId> = model.chains().iter().map(|c| c.id).collect();

    // The fault plan: region = a contiguous arc of the site ring.
    let all_sites = model.sites();
    let mut fault_spec = FaultSpec::new(cfg.seed);
    if let Some(f) = cfg.failure {
        assert!(
            f.region_start + f.region_sites <= all_sites.len(),
            "failure region out of range"
        );
        fault_spec = fault_spec.with_regional_outage(
            &all_sites[f.region_start..f.region_start + f.region_sites],
            SimTime::from_millis(f.start_s * 1e3),
            SimTime::from_millis((f.start_s + f.duration_s) * 1e3),
        );
    }

    let hub = Telemetry::new();
    let roller = WindowRoller::new(
        &hub.registry,
        &hub.clock,
        WindowConfig {
            width_ns: cfg.window_ns,
            #[allow(clippy::cast_possible_truncation)]
            capacity: usize::try_from(cfg.windows).unwrap_or(usize::MAX),
        },
    );
    // Register the scenario metrics up front so even the first window has
    // every series (the roller reports all registered names per window).
    let m_offered = hub.registry.counter("daylife.offered");
    let m_delivered = hub.registry.counter("daylife.delivered");
    let m_dropped = hub.registry.counter("daylife.dropped");
    let m_unserved = hub.registry.counter("daylife.unserved");
    let m_drains = hub.registry.counter("cp.drains");
    let m_resolved = hub.registry.counter("cp.resolved_chains");
    let m_wan = hub.registry.counter("cp.wan_messages");
    let g_users = hub.registry.gauge("daylife.users");
    let g_failed = hub.registry.gauge("daylife.failed_sites");
    let g_pending = hub.registry.gauge("cp.pending_chains");
    let h_latency = hub.registry.histogram("daylife.latency_ns");

    let rec = FleetReconciler::new(model.clone(), DpConfig::default());
    // NOTE: the reconciler's own telemetry is deliberately NOT attached —
    // its `cp.route_compute` histogram records wall-clock solve times,
    // which would break byte-identical determinism. The driver publishes
    // the deterministic control-plane counters itself.

    let mut state = DaylifeState {
        cfg: cfg.clone(),
        model,
        rec,
        faults: FaultPlan::new(fault_spec),
        hub: hub.clone(),
        roller,
        chains,
        chain_ids,
        down: Vec::new(),
        last_integrate_ns: 0,
        totals: DaylifeTotals::default(),
    };

    let mut sim: Simulator<DaylifeState> = Simulator::new();
    let window_ms = cfg.window_ns as f64 / 1e6;

    // Window opens and closes. Open k is scheduled before close k, and
    // close k before open k+1, so equal-timestamp events fire in exactly
    // that order (the engine breaks ties by scheduling order).
    for k in 0..cfg.windows {
        let t_open = SimTime::from_millis(k as f64 * window_ms);
        let t_close = SimTime::from_millis((k + 1) as f64 * window_ms);
        sim.schedule_at(t_open, window_open);
        sim.schedule_at(t_close, move |sim, st: &mut DaylifeState| {
            window_close(sim, st, k);
        });
    }

    // Fault lifecycle events (ground truth + detection).
    if let Some(f) = cfg.failure {
        let onset = SimTime::from_millis(f.start_s * 1e3);
        let heal = SimTime::from_millis((f.start_s + f.duration_s) * 1e3);
        let detect = SimTime::from_millis((f.start_s + f.detection_delay_s) * 1e3);
        let heal_detect =
            SimTime::from_millis((f.start_s + f.duration_s + f.detection_delay_s) * 1e3);
        sim.schedule_at(onset, fault_ground_truth_changed);
        sim.schedule_at(heal, fault_ground_truth_changed);
        sim.schedule_at(detect, fault_detected);
        sim.schedule_at(heal_detect, fault_detected);
    }

    sim.run(&mut state);

    // Counters the closes maintain lazily are final now; evaluate SLOs.
    let windows: Vec<WindowSnapshot> = state.roller.windows().iter().cloned().collect();
    let slo_report = slo::evaluate(&windows, &cfg.slo_targets());
    let timeseries_json = state.roller.to_json();

    // Silence "unused" on handles the closures re-fetch by name.
    let _ = (
        m_offered, m_delivered, m_dropped, m_unserved, m_drains, m_resolved, m_wan, g_users,
        g_failed, g_pending, h_latency,
    );

    DaylifeResult {
        name: cfg.name.clone(),
        windows,
        timeseries_json,
        slo: slo_report,
        totals: state.totals,
        sched: SchedProfile {
            events_executed: sim.executed_events(),
            peak_pending: sim.peak_pending_events(),
        },
    }
}

/// Window-open event: move demand factors to "now", enqueue chains whose
/// factor drifted past the threshold, drain the reconciler, recompute
/// rates.
fn window_open(sim: &mut Simulator<DaylifeState>, st: &mut DaylifeState) {
    let now_ns = sim.now().as_nanos();
    st.integrate_to(now_ns);
    #[allow(clippy::cast_precision_loss)]
    let t_s = now_ns as f64 / 1e9;

    let mut enqueued = false;
    let mut users_now = 0.0;
    for i in 0..st.chains.len() {
        let s = st.demand_factor(i, t_s);
        st.chains[i].target_scale = s;
        users_now += st.chains[i].base_req * s;
        let applied = st.chains[i].applied_scale;
        if (s - applied).abs() > st.cfg.enqueue_threshold * applied.max(1e-9) {
            st.rec.enqueue(st.chain_ids[i], 2, s);
            st.chains[i].applied_scale = s;
            enqueued = true;
        }
    }
    if enqueued {
        let report = st.rec.drain();
        st.totals.drains += 1;
        st.totals.resolved_chains += report.resolved_chains as u64;
        st.totals.wan_messages += report.wan_messages as u64;
    }
    st.recompute_rates();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    st.hub.registry.gauge("daylife.users").set(
        (users_now / st.cfg.requests_per_user_per_s.max(1e-12)).round() as i64,
    );
}

/// Ground-truth fault transition (crash or heal): traffic starts or stops
/// disappearing immediately; the control plane does not know yet.
fn fault_ground_truth_changed(sim: &mut Simulator<DaylifeState>, st: &mut DaylifeState) {
    let now = sim.now();
    st.integrate_to(now.as_nanos());
    st.down = st.faults.sites_down_at(now);
    st.recompute_rates();
    #[allow(clippy::cast_possible_wrap)]
    st.hub
        .registry
        .gauge("daylife.failed_sites")
        .set(st.down.len() as i64);
}

/// Failure-detector event: the reconciler learns the current health set,
/// displaced chains are enqueued at top priority and drained.
fn fault_detected(sim: &mut Simulator<DaylifeState>, st: &mut DaylifeState) {
    let now = sim.now();
    st.integrate_to(now.as_nanos());
    let detected = st.faults.sites_down_at(now);
    let affected = st.rec.set_failed_sites(&detected, 0);
    if affected > 0 {
        let report = st.rec.drain();
        st.totals.drains += 1;
        st.totals.resolved_chains += report.resolved_chains as u64;
        st.totals.wan_messages += report.wan_messages as u64;
    }
    st.recompute_rates();
}

/// Window-close event: integrate to the boundary, publish exact counter
/// deltas (per-chain floors summed in chain order), record demand-weighted
/// path latencies, sync control-plane counters, advance the virtual
/// clock, and roll the window.
#[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn window_close(sim: &mut Simulator<DaylifeState>, st: &mut DaylifeState, _k: u64) {
    let boundary_ns = sim.now().as_nanos();
    st.integrate_to(boundary_ns);

    // Per-chain integer emission (floor of the exact cumulative count),
    // summed in chain order into the window's totals.
    let mut total = [0u64; 4];
    let mut latency_emits: Vec<(u64, u64)> = Vec::new();
    for (i, c) in st.chains.iter_mut().enumerate() {
        let new_offered = c.acc_offered.floor() as u64;
        let new_delivered = c.acc_delivered.floor() as u64;
        let new_dropped = c.acc_dropped.floor() as u64;
        let new_unserved = c.acc_unserved.floor() as u64;
        let d = [
            new_offered.saturating_sub(c.emit_offered),
            new_delivered.saturating_sub(c.emit_delivered),
            new_dropped.saturating_sub(c.emit_dropped),
            new_unserved.saturating_sub(c.emit_unserved),
        ];
        c.emit_offered = new_offered;
        c.emit_delivered = new_delivered;
        c.emit_dropped = new_dropped;
        c.emit_unserved = new_unserved;
        for (acc, delta) in total.iter_mut().zip(d) {
            *acc += delta;
        }
        latency_emits.push((i as u64, d[1]));
    }
    let reg = &st.hub.registry;
    reg.counter("daylife.offered").add(total[0]);
    reg.counter("daylife.delivered").add(total[1]);
    reg.counter("daylife.dropped").add(total[2]);
    reg.counter("daylife.unserved").add(total[3]);
    st.totals.offered += total[0];
    st.totals.delivered += total[1];
    st.totals.dropped += total[2];
    st.totals.unserved += total[3];

    // Demand-weighted path latencies for the delivered share: each healthy
    // path gets its fraction of the chain's delivered requests, remainder
    // to the first healthy path.
    let h_latency = reg.histogram("daylife.latency_ns");
    for &(ci, delivered) in &latency_emits {
        if delivered == 0 {
            continue;
        }
        let i = ci as usize;
        let spec = &st.model.chains()[i];
        let paths = st.rec.installed_paths(st.chain_ids[i]);
        let healthy: Vec<&RoutePath> = paths
            .iter()
            .filter(|p| !path_touches(p, &st.down))
            .collect();
        let healthy_f: f64 = healthy.iter().map(|p| p.fraction).sum();
        if healthy.is_empty() || healthy_f <= 0.0 {
            continue;
        }
        let mut assigned = 0u64;
        for (pi, p) in healthy.iter().enumerate() {
            let share = if pi + 1 == healthy.len() {
                delivered - assigned
            } else {
                ((delivered as f64) * p.fraction / healthy_f).floor() as u64
            };
            assigned += share;
            h_latency.record_n(path_latency_ns(&st.model, spec, p), share);
        }
    }

    // Control-plane counters: published as absolute values (single-writer
    // pattern), deterministic because they count logical work, not time.
    reg.counter("cp.drains").set(st.totals.drains);
    reg.counter("cp.resolved_chains").set(st.totals.resolved_chains);
    reg.counter("cp.wan_messages").set(st.totals.wan_messages);
    reg.gauge("cp.pending_chains")
        .set(st.rec.pending_len() as i64);

    // Advance the shared virtual clock to the boundary and close the
    // window.
    let now = st.hub.clock.now_ns();
    if boundary_ns > now {
        st.hub.clock.advance_ns(boundary_ns - now);
    }
    st.roller.tick();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: DaylifeConfig) -> DaylifeResult {
        run(&cfg.quick())
    }

    #[test]
    fn steady_scenario_passes_every_slo() {
        let r = quick(DaylifeConfig::steady(7));
        assert_eq!(r.windows.len(), 24);
        assert!(r.totals.offered > 0);
        assert!(r.totals.delivered > 0);
        assert_eq!(r.totals.dropped, 0, "no faults, no drops");
        assert!(
            r.slo.pass,
            "steady scenario must pass all SLOs: {}",
            r.slo.to_json()
        );
        // The day actually churns the control plane.
        assert!(r.totals.drains > 5);
        assert!(r.totals.resolved_chains > 50);
    }

    #[test]
    fn regional_failure_shows_violation_and_recovery() {
        let cfg = DaylifeConfig::regional_failure(7).quick();
        let f = cfg.failure.unwrap();
        let r = run(&cfg);
        assert!(r.totals.dropped > 0, "outage must drop traffic");
        let drop_slo = r.slo.outcome("drop_rate").expect("target exists");
        assert!(
            !drop_slo.violated_windows.is_empty(),
            "outage must violate the drop SLO: {}",
            r.slo.to_json()
        );
        // Violations sit inside [onset, heal + detection]; afterwards the
        // system recovers (no violations in the tail).
        let window_s = cfg.window_ns as f64 / 1e9;
        let first_bad = f.start_s / window_s;
        let last_bad = (f.start_s + f.duration_s + f.detection_delay_s) / window_s + 1.0;
        for &w in &drop_slo.violated_windows {
            #[allow(clippy::cast_precision_loss)]
            let w = w as f64;
            assert!(
                w >= first_bad.floor() && w <= last_bad.ceil(),
                "violation window {w} outside the fault interval"
            );
        }
        // Reconvergence: the violation streak respects the detection
        // budget.
        let reconv = r.slo.outcome("reconvergence").expect("target exists");
        assert!(
            reconv.pass,
            "drops must stop within the reconvergence budget: {}",
            r.slo.to_json()
        );
        // And the fleet delivers again after healing.
        let tail = &r.windows[r.windows.len() - 3..];
        for w in tail {
            assert_eq!(w.counter("daylife.dropped").delta, 0);
            assert!(w.counter("daylife.delivered").delta > 0);
        }
    }

    #[test]
    fn flash_crowd_raises_offered_load_mid_run() {
        let cfg = DaylifeConfig::flash_crowd(7).quick();
        let f = cfg.flash.unwrap();
        let r = run(&cfg);
        // Same day without the crowd: the window-by-window diff isolates
        // the flash from the diurnal/mobility baseline.
        let mut base_cfg = cfg.clone();
        base_cfg.flash = None;
        let base = run(&base_cfg);
        let window_s = cfg.window_ns as f64 / 1e9;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let peak_w = ((f.start_s + f.ramp_s + f.hold_s / 2.0) / window_s) as usize;
        let with = r.windows[peak_w].counter("daylife.offered").rate_per_s;
        let without = base.windows[peak_w].counter("daylife.offered").rate_per_s;
        assert!(
            with > without * 1.2,
            "flash crowd invisible at its peak: with={with} without={without}"
        );
        // Before the onset the runs are identical.
        let w0 = r.windows[1].counter("daylife.offered").delta;
        let b0 = base.windows[1].counter("daylife.offered").delta;
        assert_eq!(w0, b0, "crowd leaked outside its window");
        assert_eq!(r.totals.dropped, 0, "a crowd is not an outage");
    }

    #[test]
    fn runs_are_deterministic() {
        let base = DaylifeConfig::steady(11).quick();
        let a = run(&base);
        let b = run(&base);
        assert_eq!(a.timeseries_json, b.timeseries_json);
        assert_eq!(a.slo.to_json(), b.slo.to_json());
    }

    #[test]
    fn scheduler_profile_is_tiny() {
        let r = quick(DaylifeConfig::regional_failure(3));
        // The driver schedules O(windows + faults) events; the heap depth
        // stays far below anything a calendar queue would help with.
        assert!(r.sched.events_executed >= 48);
        assert!(r.sched.peak_pending <= 2 * 24 + 8);
    }
}
