//! The machine-readable control-plane scaling baseline
//! (`BENCH_controlplane.json`) — the control-plane twin of
//! [`crate::dataplane_baseline`].
//!
//! Each row runs the fleet-scale scenario
//! ([`switchboard::scenarios::fleet`]) at one chain count and measures:
//!
//! - **deployments/sec**: the sequential cold SB-DP solve
//!   ([`sb_te::dp::route_chains`]);
//! - **update-storm convergence**: a burst of coalescing demand updates
//!   against a [`sb_controller::FleetReconciler`], drained warm (dirty
//!   chains only, priority order) versus a cold full re-solve;
//! - **WAN messages per update** (one message per site affected by each
//!   chain's route delta, matching the update pipeline's announcement
//!   scoping).
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p sb-bench --bin bench-controlplane -- --out BENCH_controlplane.json
//! ```
//!
//! CI runs the same binary with `--quick` as a smoke check and with
//! `--check-warm` as the storm-convergence gate.

use crate::dataplane_baseline::PairedRuns;
use sb_controller::FleetReconciler;
use sb_te::dp::{route_chains, DpConfig};
use sb_telemetry::Telemetry;
use serde::Serialize;
use std::time::Instant;
use switchboard::scenarios::{fleet, FleetConfig};

/// One chain-count row of the scaling matrix.
#[derive(Debug, Clone, Serialize)]
pub struct ControlPlaneCell {
    /// Chains deployed in this row.
    pub chains: usize,
    /// Cloud sites in the fleet model.
    pub sites: usize,
    /// Wall time of the sequential cold solve (fresh tracker, per-chain
    /// allocations).
    pub cold_solve_ms: f64,
    /// `chains / cold_solve_s`.
    pub cold_deploys_per_sec: f64,
    /// Distinct chains hit by the update storm.
    pub storm_chains: usize,
    /// Raw updates enqueued (each chain is updated repeatedly; the queue
    /// coalesces them).
    pub storm_raw_updates: usize,
    /// Updates absorbed by coalescing.
    pub storm_coalesced: u64,
    /// Wall time for the warm prioritized drain to converge the storm.
    pub storm_warm_ms: f64,
    /// Wall time for the cold full re-solve of the same post-storm specs.
    pub storm_cold_ms: f64,
    /// `storm_cold_ms / storm_warm_ms`.
    pub warm_speedup: f64,
    /// Per-path route operations across the storm's deltas.
    pub delta_ops: usize,
    /// WAN messages the storm's deltas cost (one per affected site per
    /// chain delta).
    pub wan_messages: usize,
    /// `wan_messages / storm_chains`.
    pub wan_messages_per_update: f64,
}

/// The full baseline document.
#[derive(Debug, Clone, Serialize)]
pub struct ControlPlaneBaseline {
    /// Document identifier.
    pub benchmark: &'static str,
    /// How the numbers were measured.
    pub methodology: &'static str,
    /// Cloud sites in every row's fleet model.
    pub sites: usize,
    /// VNF services in the catalog.
    pub vnfs: usize,
    /// Fraction of chains hit by each row's update storm.
    pub storm_fraction: f64,
    /// The scaling matrix.
    pub rows: Vec<ControlPlaneCell>,
    /// The [`sb_telemetry::Telemetry::export_json`] snapshot the
    /// reconciler runs reported into: `cp.route_compute` per-chain
    /// latency histogram plus the `te.queue_coalesced` counter.
    pub telemetry: serde_json::Value,
}

/// Parameters of a baseline run.
#[derive(Debug, Clone)]
pub struct ControlPlaneConfig {
    /// Cloud sites (every site on its own backbone node).
    pub sites: usize,
    /// Extra random chords on the backbone ring.
    pub chords: usize,
    /// VNF services in the catalog.
    pub vnfs: usize,
    /// Chain counts, one row each.
    pub chain_counts: Vec<usize>,
    /// Fraction of chains hit by each row's update storm.
    pub storm_fraction: f64,
    /// Updates enqueued per stormed chain (exercises coalescing).
    pub updates_per_chain: usize,
    /// RNG seed for the fleet models and the storm.
    pub seed: u64,
}

impl ControlPlaneConfig {
    /// Fast parameters for CI smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            sites: 100,
            chords: 150,
            vnfs: 12,
            chain_counts: vec![200, 1000],
            storm_fraction: 0.05,
            updates_per_chain: 3,
            seed: 42,
        }
    }

    /// The checked-in baseline parameters: 1k–10k chains × 120 sites.
    #[must_use]
    pub fn full() -> Self {
        Self {
            sites: 120,
            chords: 180,
            vnfs: 12,
            chain_counts: vec![1000, 3000, 10_000],
            storm_fraction: 0.05,
            updates_per_chain: 3,
            seed: 42,
        }
    }

    fn fleet_config(&self, chains: usize) -> FleetConfig {
        FleetConfig {
            num_sites: self.sites,
            chords: self.chords,
            num_vnfs: self.vnfs,
            num_chains: chains,
            seed: self.seed,
            ..FleetConfig::default()
        }
    }
}

/// A deterministic storm over `chains` chains: every
/// `storm_fraction`-selected chain receives `updates_per_chain` updates
/// with a fixed per-chain priority and demand target (repeats exercise
/// coalescing without making the outcome order-dependent).
fn storm_plan(cfg: &ControlPlaneConfig, chains: usize) -> Vec<(u64, u8, f64)> {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let storm_size = ((chains as f64 * cfg.storm_fraction).ceil() as usize).clamp(1, chains);
    let stride = (chains / storm_size).max(1);
    (0..storm_size)
        .map(|k| {
            let id = (k * stride) % chains;
            // Deterministic spread of priorities and demand targets.
            let priority = (k % 3) as u8;
            let scale = 0.6 + 0.2 * ((k % 7) as f64);
            (id as u64, priority, scale)
        })
        .collect()
}

#[allow(clippy::cast_precision_loss)]
fn run_row(cfg: &ControlPlaneConfig, chains: usize, hub: &Telemetry) -> ControlPlaneCell {
    let model = fleet(&cfg.fleet_config(chains));
    let dp = DpConfig::default();

    let t0 = Instant::now();
    std::hint::black_box(route_chains(&model, &dp));
    let cold_s = t0.elapsed().as_secs_f64();

    // Update storm against a live reconciler.
    let mut reconciler = FleetReconciler::new(model, dp);
    reconciler.attach_telemetry(hub);
    let plan = storm_plan(cfg, chains);
    let mut raw_updates = 0usize;
    for _ in 0..cfg.updates_per_chain.max(1) {
        for &(id, priority, scale) in &plan {
            reconciler.enqueue(sb_types::ChainId::new(id), priority, scale);
            raw_updates += 1;
        }
    }
    let t0 = Instant::now();
    let report = reconciler.drain();
    let warm_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let _ = reconciler.solve_cold();
    let storm_cold_s = t0.elapsed().as_secs_f64();

    ControlPlaneCell {
        chains,
        sites: cfg.sites,
        cold_solve_ms: cold_s * 1e3,
        cold_deploys_per_sec: chains as f64 / cold_s,
        storm_chains: plan.len(),
        storm_raw_updates: raw_updates,
        storm_coalesced: report.coalesced,
        storm_warm_ms: warm_s * 1e3,
        storm_cold_ms: storm_cold_s * 1e3,
        warm_speedup: storm_cold_s / warm_s,
        delta_ops: report.delta_ops,
        wan_messages: report.wan_messages,
        wan_messages_per_update: report.wan_messages as f64 / plan.len() as f64,
    }
}

/// Runs the full scaling matrix, all rows reporting into one telemetry
/// hub whose snapshot is embedded in the document.
#[must_use]
pub fn run(cfg: &ControlPlaneConfig) -> ControlPlaneBaseline {
    let hub = Telemetry::new();
    let rows = cfg
        .chain_counts
        .iter()
        .map(|&chains| run_row(cfg, chains, &hub))
        .collect();
    let telemetry = serde_json::from_str_value(&hub.export_json())
        .expect("telemetry snapshot is well-formed JSON");
    ControlPlaneBaseline {
        benchmark: "controlplane",
        methodology: "fleet-scale scenario (ring+chord WAN backbone, one site per node, \
                      coverage-placed VNF catalog); cold = sb_te::dp::route_chains \
                      (sequential, fresh tracker, no reuse); storm = coalescing \
                      priority-queue drain of a 5% demand storm via \
                      sb_controller::FleetReconciler versus a cold full re-solve of the \
                      same post-storm specs; wan_messages = one message per site affected \
                      by each re-solved chain's RouteDelta",
        sites: cfg.sites,
        vnfs: cfg.vnfs,
        storm_fraction: cfg.storm_fraction,
        rows,
        telemetry,
    }
}

/// Chain count of the gated row (the acceptance row of the checked-in
/// baseline).
pub const WARM_GATE_CHAINS: usize = 1000;

/// Rows the storm-convergence gate runs.
pub const WARM_GATE_PAIRS: usize = 7;

/// The storm-convergence gate (`bench-controlplane --check-warm`):
/// [`WARM_GATE_PAIRS`] rows at [`WARM_GATE_CHAINS`] chains, each timing
/// the warm prioritized drain (the reference arm) and the cold full
/// re-solve of the same post-storm specs (the candidate) back to back, so
/// host drift lands on both arms of a pair. The verdict is the median of
/// the per-pair ratios `cold / warm`. Both arms are single-threaded.
#[must_use]
pub fn check_warm(cfg: &ControlPlaneConfig) -> PairedRuns {
    let hub = Telemetry::new();
    let pairs = (0..WARM_GATE_PAIRS)
        .map(|_| {
            let cell = run_row(cfg, WARM_GATE_CHAINS, &hub);
            (cell.storm_warm_ms, cell.storm_cold_ms)
        })
        .collect();
    PairedRuns::new(pairs)
}

/// Serializes a baseline as indented JSON (same re-indenting scheme as
/// [`crate::dataplane_baseline::to_json`]; the vendored `serde_json` has
/// no pretty printer).
///
/// # Panics
///
/// Panics if serialization fails (plain data, cannot happen).
#[must_use]
pub fn to_json(baseline: &ControlPlaneBaseline) -> String {
    let compact = serde_json::to_string(baseline).expect("baseline serializes");
    crate::dataplane_baseline::indent_json(&compact)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ControlPlaneConfig {
        ControlPlaneConfig {
            sites: 30,
            chords: 25,
            vnfs: 8,
            chain_counts: vec![40],
            storm_fraction: 0.1,
            updates_per_chain: 2,
            seed: 7,
        }
    }

    #[test]
    fn tiny_run_produces_well_formed_json() {
        let b = run(&tiny());
        assert_eq!(b.rows.len(), 1);
        let row = &b.rows[0];
        assert!(row.cold_deploys_per_sec > 0.0);
        assert_eq!(row.storm_raw_updates, row.storm_chains * 2);
        assert!(row.storm_coalesced > 0, "repeat updates must coalesce");
        assert!(row.wan_messages_per_update >= 0.0);

        let json = to_json(&b);
        let parsed = serde_json::from_str_value(&json).unwrap();
        assert!(parsed.get("rows").is_some());
        let metrics = parsed
            .get("telemetry")
            .and_then(|t| t.get("metrics"))
            .expect("telemetry.metrics section");
        assert!(
            metrics
                .get("counters")
                .and_then(|c| c.get("te.queue_coalesced"))
                .is_some(),
            "missing counter te.queue_coalesced"
        );
        assert!(
            metrics
                .get("histograms")
                .and_then(|h| h.get("cp.route_compute"))
                .is_some(),
            "missing cp.route_compute histogram"
        );
    }

    #[test]
    fn a_paired_gate_decides_on_the_median_pair_ratio() {
        // One slow outlier in either arm moves a best-of or a block ratio,
        // not the median.
        let pairs = vec![
            (2.0, 40.0),
            (1.0, 21.0),
            (9.0, 18.0),
            (2.0, 44.0),
            (1.0, 23.0),
        ];
        let runs = PairedRuns::new(pairs);
        assert_eq!(runs.pairs.len(), 5);
        assert_eq!(
            runs.pairs[2],
            (9.0, 18.0),
            "pairs are kept in the order run"
        );
        assert!((runs.ratio - 21.0).abs() < 1e-12, "{}", runs.ratio);
    }

    #[test]
    fn storm_plan_is_deterministic_and_bounded() {
        let cfg = tiny();
        let a = storm_plan(&cfg, 40);
        let b = storm_plan(&cfg, 40);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4); // ceil(40 * 0.1)
        for &(id, priority, scale) in &a {
            assert!(id < 40);
            assert!(priority < 3);
            assert!(scale > 0.0);
        }
    }
}
