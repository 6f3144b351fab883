//! Figure 7: forwarder feature overhead vs a plain bridge.
//!
//! Paper result: "Compared to a normal bridge (c), overlay labels
//! (VXLAN+MPLS) add between 19-29% overhead (b), and flow affinity rules
//! further add between 33-44% overhead (a). With more concurrent flows,
//! the overhead reduces."
//!
//! We run the same three-way comparison on the software forwarder's three
//! modes with 1-50 concurrent flows and report per-mode throughput plus
//! overhead percentages relative to the bridge.

use sb_dataplane::runner::{measure_sharded, ScaleoutConfig};
use sb_dataplane::ForwarderMode;
use std::time::Duration;

/// One row of the Figure 7 sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// Concurrent flows.
    pub flows: usize,
    /// Bridge throughput (Mpps).
    pub bridge: f64,
    /// Overlay (labels + tunnel) throughput (Mpps).
    pub overlay: f64,
    /// Full affinity-mode throughput (Mpps).
    pub affinity: f64,
}

impl Row {
    /// Overhead of overlay labels over the bridge, in percent of the
    /// bridge's per-packet cost.
    #[must_use]
    pub fn overlay_overhead_pct(&self) -> f64 {
        (self.bridge / self.overlay - 1.0) * 100.0
    }

    /// Additional overhead of flow-affinity rules over overlay, in percent.
    #[must_use]
    pub fn affinity_overhead_pct(&self) -> f64 {
        (self.overlay / self.affinity - 1.0) * 100.0
    }
}

/// Runs one mode/flow-count cell on one forwarder.
#[must_use]
pub fn measure_mode(mode: ForwarderMode, flows: usize, millis: u64) -> f64 {
    let r = measure_sharded(
        &ScaleoutConfig {
            flows,
            mode,
            duration: Duration::from_millis(millis),
            warmup: Duration::from_millis(millis / 4),
            ..ScaleoutConfig::default()
        },
        None,
    );
    r.throughput.value()
}

/// Runs the full Figure 7 sweep.
#[must_use]
pub fn run(duration_ms: u64) -> Vec<Row> {
    [1usize, 10, 25, 50]
        .into_iter()
        .map(|flows| Row {
            flows,
            bridge: measure_mode(ForwarderMode::Bridge, flows, duration_ms),
            overlay: measure_mode(ForwarderMode::Overlay, flows, duration_ms),
            affinity: measure_mode(ForwarderMode::Affinity, flows, duration_ms),
        })
        .collect()
}

/// Formats the sweep as paper-style rows.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "fig7: forwarder overhead vs bridge (paper: labels +19-29%, affinity +33-44%)\n\
         flows | bridge Mpps | +labels Mpps (ovh%) | +affinity Mpps (ovh%)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:5} | {:11.2} | {:12.2} ({:+5.1}%) | {:13.2} ({:+5.1}%)\n",
            r.flows,
            r.bridge,
            r.overlay,
            r.overlay_overhead_pct(),
            r.affinity,
            r.affinity_overhead_pct(),
        ));
    }
    out
}
