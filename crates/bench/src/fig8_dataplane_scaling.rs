//! Figure 8: DPDK-style forwarder scale-out.
//!
//! Paper result: ~7 Mpps on one core; each additional instance adds
//! 3-4 Mpps; six instances sustain >20 Mpps aggregate over 3 million
//! concurrent flows (512K per instance), with throughput decaying as the
//! flow table outgrows the CPU caches.
//!
//! Each cell runs its shards at once, each forwarding its own RSS share of
//! one population of `shards × flows per shard` flows
//! (`sb_dataplane::runner::measure_sharded`). The paper gives each
//! instance its own core; a cell with more shards than the host has cores
//! is marked oversubscribed and shows what those cores deliver, not
//! scaling.

use crate::Scale;
use sb_dataplane::runner::{measure_sharded, ScaleoutConfig};
use sb_dataplane::ForwarderMode;
use std::time::Duration;

/// One cell of the Figure 8 matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Concurrent forwarder shards.
    pub shards: usize,
    /// Flows per shard.
    pub flows_per_shard: usize,
    /// More shards than host cores.
    pub oversubscribed: bool,
    /// Aggregate throughput (Mpps).
    pub mpps: f64,
    /// Total flow-table entries across shards.
    pub flow_entries: usize,
}

/// Runs the scale-out matrix.
#[must_use]
pub fn run(scale: Scale) -> Vec<Cell> {
    let shard_counts: Vec<usize> = scale.pick(vec![1, 2, 4, 6], vec![1, 2, 3, 4, 5, 6]);
    let flow_counts: Vec<usize> = scale.pick(
        vec![2_048, 65_536, 262_144],
        vec![2_048, 65_536, 524_288],
    );
    let duration = scale.pick(Duration::from_millis(150), Duration::from_millis(500));
    let cores = crate::dataplane_baseline::available_cores();
    let mut cells = Vec::new();
    for &per_shard in &flow_counts {
        for &shards in &shard_counts {
            let r = measure_sharded(
                &ScaleoutConfig {
                    shards,
                    flows: shards * per_shard,
                    mode: ForwarderMode::Affinity,
                    duration,
                    warmup: duration / 3,
                    ..ScaleoutConfig::default()
                },
                None,
            );
            cells.push(Cell {
                shards,
                flows_per_shard: per_shard,
                oversubscribed: shards > cores,
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
         flows/shard | shards | aggregate Mpps | total flow entries\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{:11} | {:6} | {:14.2} | {}{}\n",
            c.flows_per_shard,
            c.shards,
            c.mpps,
            c.flow_entries,
            if c.oversubscribed { "  (oversubscribed)" } else { "" }
        ));
    }
    out
}
