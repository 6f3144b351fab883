//! Figure 8: DPDK-style forwarder scale-out.
//!
//! Paper result: ~7 Mpps on one core; each additional instance adds
//! 3-4 Mpps; six instances sustain >20 Mpps aggregate over 3 million
//! concurrent flows (512K per instance), with throughput decaying as the
//! flow table outgrows the CPU caches.
//!
//! Each instance runs in isolation (the paper pins one instance per core
//! with zero sharing; see `sb_dataplane::runner::measure_isolated`), and
//! the aggregate is the per-instance sum.

use crate::Scale;
use sb_dataplane::runner::{measure_isolated, ScaleoutConfig};
use sb_dataplane::ForwarderMode;
use std::time::Duration;

/// One cell of the Figure 8 matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Forwarder instances.
    pub instances: usize,
    /// Flows per instance.
    pub flows_per_instance: usize,
    /// Aggregate throughput (Mpps).
    pub mpps: f64,
    /// Total flow-table entries across instances.
    pub flow_entries: usize,
}

/// Runs the scale-out matrix.
#[must_use]
pub fn run(scale: Scale) -> Vec<Cell> {
    let instance_counts: Vec<usize> = scale.pick(vec![1, 2, 4, 6], vec![1, 2, 3, 4, 5, 6]);
    let flow_counts: Vec<usize> = scale.pick(
        vec![2_048, 65_536, 262_144],
        vec![2_048, 65_536, 524_288],
    );
    let duration = scale.pick(Duration::from_millis(150), Duration::from_millis(500));
    let mut cells = Vec::new();
    for &flows in &flow_counts {
        for &instances in &instance_counts {
            let r = measure_isolated(
                &ScaleoutConfig {
                    instances,
                    flows_per_instance: flows,
                    packet_size: 64,
                    mode: ForwarderMode::Affinity,
                    duration,
                    warmup: duration / 3,
                    ..ScaleoutConfig::default()
                },
                None,
            );
            cells.push(Cell {
                instances,
                flows_per_instance: flows,
                mpps: r.throughput.value(),
                flow_entries: r.flow_entries,
            });
        }
    }
    cells
}

/// Formats the matrix as paper-style rows.
#[must_use]
pub fn render(cells: &[Cell]) -> String {
    let mut out = String::from(
        "fig8: forwarder scale-out (paper: ~7 Mpps/core, >20 Mpps @ 6x512K flows)\n\
         flows/inst | instances | aggregate Mpps | total flow entries\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{:10} | {:9} | {:14.2} | {}\n",
            c.flows_per_instance, c.instances, c.mpps, c.flow_entries
        ));
    }
    out
}
