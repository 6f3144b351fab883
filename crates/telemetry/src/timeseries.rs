//! Windowed time-series telemetry: a flight recorder over the registry.
//!
//! The cumulative [`Registry`](crate::metrics::Registry) answers "what
//! happened over the whole run"; this module answers "what happened,
//! *when*". A [`WindowRoller`] observes one registry through the shared
//! virtual [`Clock`](crate::trace::Clock) and rolls its counters, gauges,
//! and histograms into fixed-width windows of virtual time:
//!
//! - **counters** become per-window deltas and rates (`delta / width`);
//! - **histograms** become per-window bucket deltas, so `p50`/`p99` are
//!   percentiles *of that window*, not of the whole run so far;
//! - **gauges** report their last value at the window close.
//!
//! Closed windows live in a bounded ring (the flight recorder): once
//! `capacity` windows are held, the oldest is evicted and counted in
//! `dropped_windows`, so a long scenario can roll forever in bounded
//! memory. [`WindowRoller::to_json`] exports the ring as a stable JSON
//! time series that the [`slo`](crate::slo) engine and the scenario
//! harness consume.
//!
//! Rolling is pull-based and happens *off* any hot path: nothing is paid
//! per metric update; the whole cost is one registry snapshot plus one
//! subtraction per metric at each window close. Because window boundaries
//! come from the virtual clock, the resulting series is deterministic
//! under a fixed seed — the same scenario produces byte-identical JSON.

use crate::json;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS};
use crate::trace::Clock;
use std::collections::VecDeque;

/// Default window width: one second of virtual time.
pub const DEFAULT_WINDOW_WIDTH_NS: u64 = 1_000_000_000;

/// Default flight-recorder capacity, in windows.
pub const DEFAULT_WINDOW_CAPACITY: usize = 4096;

/// Fixed-width window parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window width in virtual nanoseconds (min 1).
    pub width_ns: u64,
    /// Maximum closed windows retained (min 1); older windows are evicted
    /// and counted in [`WindowRoller::dropped_windows`].
    pub capacity: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            width_ns: DEFAULT_WINDOW_WIDTH_NS,
            capacity: DEFAULT_WINDOW_CAPACITY,
        }
    }
}

/// One counter's activity inside one window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CounterWindow {
    /// Increase over the window (saturating: a counter that was `set`
    /// backwards reads as 0, not as a huge wrap).
    pub delta: u64,
    /// Cumulative value at the window close.
    pub total: u64,
    /// `delta` per second of virtual time.
    pub rate_per_s: f64,
}

/// One closed window: per-metric activity between `start_ns` and `end_ns`.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSnapshot {
    /// Absolute window ordinal since the roller started (never resets,
    /// even after ring eviction).
    pub index: u64,
    /// Window start (inclusive), virtual ns.
    pub start_ns: u64,
    /// Window end (exclusive), virtual ns.
    pub end_ns: u64,
    /// Per-counter deltas, name-sorted.
    pub counters: Vec<(String, CounterWindow)>,
    /// Gauge last-values at the close, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// Per-histogram window-local snapshots, name-sorted. `max` is the
    /// upper bound of the highest non-empty bucket (the true per-window
    /// max is not recoverable from cumulative buckets).
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl WindowSnapshot {
    /// The counter window named `name`, or an all-zero window when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> CounterWindow {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(
                CounterWindow {
                    delta: 0,
                    total: 0,
                    rate_per_s: 0.0,
                },
                |&(_, w)| w,
            )
    }

    /// The gauge value named `name` at the close, or 0 when absent.
    #[must_use]
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The window-local histogram named `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        json::push_key(out, "index");
        out.push_str(&self.index.to_string());
        out.push(',');
        json::push_key(out, "start_ns");
        out.push_str(&self.start_ns.to_string());
        out.push(',');
        json::push_key(out, "end_ns");
        out.push_str(&self.end_ns.to_string());
        out.push(',');
        json::push_key(out, "counters");
        out.push('{');
        for (i, (name, w)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(out, name);
            out.push('{');
            json::push_key(out, "delta");
            out.push_str(&w.delta.to_string());
            out.push(',');
            json::push_key(out, "total");
            out.push_str(&w.total.to_string());
            out.push(',');
            json::push_key(out, "rate_per_s");
            json::push_f64(out, w.rate_per_s);
            out.push('}');
        }
        out.push_str("},");
        json::push_key(out, "gauges");
        out.push('{');
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},");
        json::push_key(out, "histograms");
        out.push('{');
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(out, name);
            h.write_windowed_json(out);
        }
        out.push_str("}}");
    }
}

/// Rolls a [`Registry`] into fixed-width windows of virtual time.
///
/// The roller holds a clone of the registry and clock handles (both are
/// `Arc`-backed), a cumulative snapshot at the last closed boundary, and
/// the bounded ring of closed windows. Call [`WindowRoller::tick`]
/// whenever the clock may have crossed one or more window boundaries —
/// typically once per scenario step; every complete window between the
/// last close and "now" is rolled, empty ones included, so the series has
/// no gaps.
#[derive(Debug)]
pub struct WindowRoller {
    registry: Registry,
    clock: Clock,
    width_ns: u64,
    capacity: usize,
    /// Start of the currently open (not yet closed) window.
    open_start_ns: u64,
    /// Ordinal of the currently open window.
    open_index: u64,
    /// Cumulative registry state at `open_start_ns`.
    prev: MetricsSnapshot,
    windows: VecDeque<WindowSnapshot>,
    dropped_windows: u64,
}

impl WindowRoller {
    /// A roller over `registry` and `clock` starting its first window at
    /// the clock's current time.
    #[must_use]
    pub fn new(registry: &Registry, clock: &Clock, config: WindowConfig) -> Self {
        let clock = clock.clone();
        let registry = registry.clone();
        let open_start_ns = clock.now_ns();
        let prev = registry.snapshot();
        Self {
            registry,
            clock,
            width_ns: config.width_ns.max(1),
            capacity: config.capacity.max(1),
            open_start_ns,
            open_index: 0,
            prev,
            windows: VecDeque::new(),
            dropped_windows: 0,
        }
    }

    /// The configured window width in virtual nanoseconds.
    #[must_use]
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Windows evicted from the flight recorder so far.
    #[must_use]
    pub fn dropped_windows(&self) -> u64 {
        self.dropped_windows
    }

    /// Closed windows currently held, oldest first.
    #[must_use]
    pub fn windows(&self) -> &VecDeque<WindowSnapshot> {
        &self.windows
    }

    /// Closes every complete window between the last close and the
    /// clock's current time. Returns the number of windows closed.
    ///
    /// All windows closed by one `tick` share a single registry snapshot
    /// taken at call time: updates that landed since the last tick are
    /// attributed to the *last* of those windows, so tick at least once
    /// per window (the scenario drivers tick exactly once per window).
    pub fn tick(&mut self) -> usize {
        let now = self.clock.now_ns();
        let mut closed = 0;
        // Snapshot once; intermediate (skipped-over) windows are empty.
        let mut current: Option<MetricsSnapshot> = None;
        while now >= self.open_start_ns + self.width_ns {
            let end_ns = self.open_start_ns + self.width_ns;
            let is_last = now < end_ns + self.width_ns;
            let snap = if is_last {
                current
                    .get_or_insert_with(|| self.registry.snapshot())
                    .clone()
            } else {
                // An empty filler window: nothing can be attributed to it,
                // so its state equals the previous boundary's.
                self.prev.clone()
            };
            let window = diff_window(
                self.open_index,
                self.open_start_ns,
                end_ns,
                &self.prev,
                &snap,
            );
            if self.windows.len() == self.capacity {
                self.windows.pop_front();
                self.dropped_windows += 1;
            }
            self.windows.push_back(window);
            self.prev = snap;
            self.open_start_ns = end_ns;
            self.open_index += 1;
            closed += 1;
        }
        closed
    }

    /// The ring rendered as one stable JSON object:
    /// `{"width_ns":W,"dropped_windows":D,"windows":[...]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        json::push_key(&mut out, "width_ns");
        out.push_str(&self.width_ns.to_string());
        out.push(',');
        json::push_key(&mut out, "dropped_windows");
        out.push_str(&self.dropped_windows.to_string());
        out.push(',');
        json::push_key(&mut out, "windows");
        out.push('[');
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            w.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

/// The per-window difference between two cumulative snapshots.
fn diff_window(
    index: u64,
    start_ns: u64,
    end_ns: u64,
    prev: &MetricsSnapshot,
    curr: &MetricsSnapshot,
) -> WindowSnapshot {
    #[allow(clippy::cast_precision_loss)]
    let width_s = (end_ns - start_ns) as f64 / 1e9;
    let counters = curr
        .counters
        .iter()
        .map(|(name, total)| {
            let total = *total;
            let before = prev
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v);
            let delta = total.saturating_sub(before);
            #[allow(clippy::cast_precision_loss)]
            let rate_per_s = if width_s > 0.0 {
                delta as f64 / width_s
            } else {
                0.0
            };
            (
                name.clone(),
                CounterWindow {
                    delta,
                    total,
                    rate_per_s,
                },
            )
        })
        .collect();
    let gauges = curr.gauges.clone();
    let histograms = curr
        .histograms
        .iter()
        .map(|(name, h)| {
            let before = prev.histograms.iter().find(|(n, _)| n == name).map(|(_, s)| s);
            (name.clone(), window_histogram(before, h))
        })
        .collect();
    WindowSnapshot {
        index,
        start_ns,
        end_ns,
        counters,
        gauges,
        histograms,
    }
}

/// Bucket-wise difference of two cumulative histogram snapshots. The
/// window's `max` is the upper bound of its highest non-empty bucket —
/// the exact per-window maximum is not recoverable from cumulative
/// buckets, and the bound errs high by at most one bucket width.
fn window_histogram(
    prev: Option<&HistogramSnapshot>,
    curr: &HistogramSnapshot,
) -> HistogramSnapshot {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    let mut count = 0u64;
    let mut max = 0u64;
    for (i, b) in buckets.iter_mut().enumerate() {
        let before = prev.map_or(0, |p| p.buckets[i]);
        *b = curr.buckets[i].saturating_sub(before);
        count += *b;
        if *b > 0 {
            max = if i + 1 >= 64 {
                u64::MAX
            } else {
                (1u64 << (i + 1)) - 1
            };
        }
    }
    let sum = curr.sum.saturating_sub(prev.map_or(0, |p| p.sum));
    HistogramSnapshot {
        buckets,
        count,
        sum,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn hub_with_roller(width_ns: u64, capacity: usize) -> (Telemetry, WindowRoller) {
        let hub = Telemetry::new();
        let roller = WindowRoller::new(
            &hub.registry,
            &hub.clock,
            WindowConfig { width_ns, capacity },
        );
        (hub, roller)
    }

    #[test]
    fn counters_roll_into_per_window_deltas_and_rates() {
        let (hub, mut roller) = hub_with_roller(1_000_000_000, 16);
        let c = hub.registry.counter("pkts");
        c.add(100);
        hub.clock.advance_ns(1_000_000_000);
        assert_eq!(roller.tick(), 1);
        c.add(50);
        hub.clock.advance_ns(1_000_000_000);
        assert_eq!(roller.tick(), 1);
        let w: Vec<_> = roller.windows().iter().collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].counter("pkts").delta, 100);
        assert_eq!(w[0].counter("pkts").total, 100);
        assert!((w[0].counter("pkts").rate_per_s - 100.0).abs() < 1e-9);
        assert_eq!(w[1].counter("pkts").delta, 50);
        assert_eq!(w[1].counter("pkts").total, 150);
        assert_eq!((w[0].start_ns, w[0].end_ns), (0, 1_000_000_000));
        assert_eq!((w[1].start_ns, w[1].end_ns), (1_000_000_000, 2_000_000_000));
    }

    #[test]
    fn skipped_windows_are_emitted_empty_with_activity_in_the_last() {
        let (hub, mut roller) = hub_with_roller(1_000, 16);
        let c = hub.registry.counter("x");
        c.add(7);
        hub.clock.advance_ns(3_500); // three full windows pass at once
        assert_eq!(roller.tick(), 3);
        let w: Vec<_> = roller.windows().iter().collect();
        assert_eq!(w[0].counter("x").delta, 0);
        assert_eq!(w[1].counter("x").delta, 0);
        assert_eq!(w[2].counter("x").delta, 7);
        assert_eq!(w[2].index, 2);
        // The open window [3000, 4000) is not closed yet.
        assert_eq!(roller.tick(), 0);
    }

    #[test]
    fn histograms_roll_into_window_local_percentiles() {
        let (hub, mut roller) = hub_with_roller(1_000, 16);
        let h = hub.registry.histogram("lat");
        for _ in 0..100 {
            h.record(100);
        }
        hub.clock.advance_ns(1_000);
        roller.tick();
        // Second window: much slower samples. Cumulative p50 would still
        // sit near 100; the *window* p50 must be near 10_000.
        for _ in 0..100 {
            h.record(10_000);
        }
        hub.clock.advance_ns(1_000);
        roller.tick();
        let w: Vec<_> = roller.windows().iter().collect();
        let h0 = w[0].histogram("lat").unwrap();
        let h1 = w[1].histogram("lat").unwrap();
        assert_eq!(h0.count, 100);
        assert_eq!(h1.count, 100);
        assert!(h0.p50() >= 64 && h0.p50() <= 200, "{}", h0.p50());
        assert!(h1.p50() >= 8_192 && h1.p50() <= 16_384, "{}", h1.p50());
        // Window max is the bucket upper bound, never below the samples.
        assert!(h1.max >= 10_000);
    }

    #[test]
    fn empty_window_histogram_has_no_percentiles() {
        let (hub, mut roller) = hub_with_roller(1_000, 16);
        hub.registry.histogram("lat").record(50);
        hub.clock.advance_ns(1_000);
        roller.tick();
        hub.clock.advance_ns(1_000);
        roller.tick();
        let w: Vec<_> = roller.windows().iter().collect();
        let idle = w[1].histogram("lat").unwrap();
        assert_eq!(idle.count, 0);
        assert_eq!(idle.quantile_opt(0.99), None);
        let json = roller.to_json();
        // The idle window's histogram must not claim a 0ns p99.
        assert!(!json.contains("\"p99\":0"), "{json}");
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let (hub, mut roller) = hub_with_roller(10, 3);
        for _ in 0..5 {
            hub.clock.advance_ns(10);
            roller.tick();
        }
        assert_eq!(roller.windows().len(), 3);
        assert_eq!(roller.dropped_windows(), 2);
        // Absolute indices survive eviction.
        assert_eq!(roller.windows()[0].index, 2);
        assert_eq!(roller.windows()[2].index, 4);
    }

    #[test]
    fn gauges_report_last_value_at_close() {
        let (hub, mut roller) = hub_with_roller(1_000, 8);
        let g = hub.registry.gauge("occupancy");
        g.set(5);
        g.set(9);
        hub.clock.advance_ns(1_000);
        roller.tick();
        assert_eq!(roller.windows()[0].gauge("occupancy"), 9);
        assert_eq!(roller.windows()[0].gauge("missing"), 0);
    }

    #[test]
    fn json_shape_is_stable() {
        let (hub, mut roller) = hub_with_roller(1_000, 8);
        hub.registry.counter("a").add(2);
        hub.registry.gauge("g").set(-3);
        hub.registry.histogram("h").record(100);
        hub.clock.advance_ns(1_000);
        roller.tick();
        let json = roller.to_json();
        assert!(json.starts_with("{\"width_ns\":1000,\"dropped_windows\":0,\"windows\":["));
        assert!(json.contains("\"a\":{\"delta\":2,\"total\":2,\"rate_per_s\":"));
        assert!(json.contains("\"g\":-3"));
        assert!(json.contains("\"count\":1"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(json, roller.to_json());
    }

    #[test]
    fn a_counter_set_backwards_reads_as_zero_delta() {
        let (hub, mut roller) = hub_with_roller(1_000, 8);
        let c = hub.registry.counter("published");
        c.set(100);
        hub.clock.advance_ns(1_000);
        roller.tick();
        c.set(40); // single-writer republish below the old value
        hub.clock.advance_ns(1_000);
        roller.tick();
        assert_eq!(roller.windows()[1].counter("published").delta, 0);
    }
}
