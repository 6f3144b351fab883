//! `sb-telemetry`: the unified observability substrate for the
//! Switchboard reproduction.
//!
//! Every other crate reports into this one, so it deliberately has **no
//! dependencies** — not even the vendored serde stand-ins — and offers
//! two primitives (DESIGN.md §9):
//!
//! - [`metrics::Registry`] — named counters, gauges, and log2-bucketed
//!   latency histograms with lock-free updates after registration;
//! - [`trace::TraceRecorder`] — structured spans/events with
//!   parent/child IDs in a bounded ring, timestamped by a virtual
//!   [`trace::Clock`] (simulation) or real elapsed time (bench).
//!
//! A [`Telemetry`] hub bundles a registry, a ring and a clock and is
//! cloned (cheaply, by `Arc`) into the control plane, message bus,
//! forwarders, and fault plans of a deployment, giving a single
//! JSON-exportable view of the whole system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use slo::{evaluate, SloKind, SloOutcome, SloReport, SloTarget};
pub use timeseries::{CounterWindow, WindowConfig, WindowRoller, WindowSnapshot};
pub use trace::{Clock, RecordKind, SpanId, TraceRecord, TraceRecorder};

/// One registry + one trace ring + one clock, shared by every component
/// of a deployment. Cloning shares all three.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// The metrics registry.
    pub registry: Registry,
    /// The span/event recorder.
    pub tracer: TraceRecorder,
    /// The virtual clock stamping simulation-side records.
    pub clock: Clock,
}

impl Telemetry {
    /// A fresh hub with default trace capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh hub whose trace ring holds at most `trace_capacity` records.
    #[must_use]
    pub fn with_trace_capacity(trace_capacity: usize) -> Self {
        Self {
            registry: Registry::new(),
            tracer: TraceRecorder::with_capacity(trace_capacity),
            clock: Clock::new(),
        }
    }

    /// The complete observability state as one JSON object:
    /// `{"metrics":{...},"trace":{...}}`.
    ///
    /// Exporting first publishes the trace ring's overflow count as the
    /// `trace.dropped_spans` counter, so silent span loss from ring wrap
    /// is visible in every metrics snapshot (and in the bench telemetry
    /// JSON, which is built from this export).
    #[must_use]
    pub fn export_json(&self) -> String {
        self.registry
            .counter("trace.dropped_spans")
            .set(self.tracer.dropped());
        let mut out = String::new();
        out.push('{');
        json::push_key(&mut out, "metrics");
        out.push_str(&self.registry.to_json());
        out.push(',');
        json::push_key(&mut out, "trace");
        out.push_str(&self.tracer.to_json());
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Telemetry::new();
        let b = a.clone();
        a.registry.counter("c").inc();
        b.tracer.event("e", None, a.clock.advance_ns(7), &[]);
        assert_eq!(b.registry.counter("c").get(), 1);
        assert_eq!(a.tracer.len(), 1);
        assert_eq!(b.clock.now_ns(), 7);
    }

    #[test]
    fn export_contains_both_sections() {
        let t = Telemetry::new();
        t.registry.counter("x").add(2);
        t.tracer.span("s", None, 0, 5, &[]);
        let json = t.export_json();
        assert!(json.starts_with("{\"metrics\":{"));
        assert!(json.contains("\"trace\":{"));
        assert!(json.contains("\"x\":2"));
        assert!(json.contains("\"name\":\"s\""));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn export_surfaces_trace_ring_overflow() {
        let t = Telemetry::with_trace_capacity(2);
        for i in 0..5 {
            t.tracer.event("e", None, i, &[]);
        }
        let json = t.export_json();
        assert!(json.contains("\"trace.dropped_spans\":3"), "{json}");
        assert_eq!(t.registry.counter("trace.dropped_spans").get(), 3);
    }
}
