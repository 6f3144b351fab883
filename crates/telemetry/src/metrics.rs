//! The lock-cheap metrics registry: named counters, gauges, and
//! log2-bucketed latency histograms.
//!
//! Registration (name lookup) takes a mutex once; the returned handles are
//! `Arc`-shared atomics, so the hot path never locks. Two update styles are
//! supported and both are cheap:
//!
//! - [`Counter::add`] / [`Histogram::record`] — atomic read-modify-write,
//!   safe with any number of writers;
//! - [`Counter::set`] — a plain atomic store, for the single-writer
//!   pattern where a subsystem owns its counter and periodically publishes
//!   an absolute value (the forwarder fast path does this so packet
//!   processing keeps its non-atomic local counters).

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically-increasing named value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone (unregistered) counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Safe with concurrent writers.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Publishes an absolute value (single-writer pattern: a plain store,
    /// cheaper than a read-modify-write on every architecture).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named value that can move both ways (e.g. flow-table occupancy).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A standalone (unregistered) gauge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `i` covers `[2^i, 2^(i+1))` (bucket 0
/// covers `[0, 2)`), enough for any `u64` sample.
pub const HISTOGRAM_BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed histogram of non-negative samples (typically latency in
/// nanoseconds). Recording is four relaxed atomic operations; percentile
/// estimates interpolate linearly within the target bucket (clamped to the
/// observed max), so they carry bounded sub-bucket error — the right trade
/// for a dependency-free fast path whose job is spotting
/// order-of-magnitude latency shifts.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A standalone (unregistered) histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of `value`.
    #[must_use]
    fn bucket_of(value: u64) -> usize {
        if value < 2 {
            0
        } else {
            value.ilog2() as usize
        }
    }

    /// Records one sample. Safe with concurrent writers.
    pub fn record(&self, value: u64) {
        let inner = &*self.0;
        inner.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records `n` identical samples in O(1). The scenario drivers use
    /// this to attribute millions of modeled requests to one computed
    /// path latency without a per-request loop.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let inner = &*self.0;
        inner.buckets[Self::bucket_of(value)].fetch_add(n, Ordering::Relaxed);
        inner.count.fetch_add(n, Ordering::Relaxed);
        inner.sum.fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Folds another histogram's buckets into this one (e.g. merging
    /// per-worker histograms after a measurement).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(&other.0.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.0
            .count
            .fetch_add(other.0.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .sum
            .fetch_add(other.0.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .max
            .fetch_max(other.0.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy with percentile estimates.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&inner.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        // Re-derive the count from the copied buckets so the snapshot is
        // internally consistent even if writers race the copy.
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
        }
    }
}

/// A consistent copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` covers `[2^i, 2^(i+1))`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The estimate of quantile `q` in `[0, 1]`, or 0 when empty. Prefer
    /// [`HistogramSnapshot::quantile_opt`] where "no data" must stay
    /// distinguishable from a genuine 0 ns sample.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_opt(q).unwrap_or(0)
    }

    /// The estimate of quantile `q` in `[0, 1]`, or `None` when the
    /// histogram holds no samples.
    ///
    /// The estimate interpolates linearly at the rank's position within
    /// its log2 bucket `[2^i, 2^(i+1))` and is clamped to the observed
    /// maximum, so it never exceeds any real sample and sits within one
    /// bucket of the true value.
    #[must_use]
    pub fn quantile_opt(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        #[allow(clippy::cast_possible_truncation)]
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                let offset = target - seen; // rank within the bucket, 1..=n
                #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
                #[allow(clippy::cast_possible_truncation)]
                let est = (lo as f64 + (offset as f64 / n as f64) * (hi - lo) as f64) as u64;
                // A non-empty bucket i implies max >= lo, so the clamp
                // bounds are always ordered.
                return Some(est.clamp(lo, self.max.max(lo)));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of all samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        json::push_key(out, "count");
        out.push_str(&self.count.to_string());
        out.push(',');
        json::push_key(out, "sum");
        out.push_str(&self.sum.to_string());
        out.push(',');
        json::push_key(out, "max");
        out.push_str(&self.max.to_string());
        if self.count > 0 {
            out.push(',');
            json::push_key(out, "p50");
            out.push_str(&self.p50().to_string());
            out.push(',');
            json::push_key(out, "p90");
            out.push_str(&self.p90().to_string());
            out.push(',');
            json::push_key(out, "p99");
            out.push_str(&self.p99().to_string());
            out.push(',');
            json::push_key(out, "mean");
            json::push_f64(out, self.mean());
        }
        out.push('}');
    }

    /// Renders this snapshot as a JSON object. Percentile and mean keys
    /// are **omitted** when the histogram holds no samples, so a consumer
    /// can tell "no data" from a genuine 0 ns sample — an idle window must
    /// never read as a 0 ns p99 pass.
    pub fn write_windowed_json(&self, out: &mut String) {
        self.write_json(out);
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The shared name → metric table. Cloning shares the table; handles
/// returned by the accessors never touch the lock again.
#[derive(Clone, Debug, Default)]
pub struct Registry(Arc<Mutex<BTreeMap<String, Metric>>>);

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.0.lock().expect("metrics registry lock poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric '{name}' is not a counter: {other:?}"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.0.lock().expect("metrics registry lock poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric '{name}' is not a gauge: {other:?}"),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.0.lock().expect("metrics registry lock poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric '{name}' is not a histogram: {other:?}"),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.0.lock().expect("metrics registry lock poisoned");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => histograms.push((name.clone(), h.snapshot())),
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// [`Registry::snapshot`] rendered as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// A point-in-time copy of a [`Registry`], name-sorted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` of every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` of every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` of every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, or 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The gauge named `name`, or 0 when absent.
    #[must_use]
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The histogram named `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as a JSON object
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        json::push_key(&mut out, "counters");
        out.push('{');
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},");
        json::push_key(&mut out, "gauges");
        out.push('{');
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},");
        json::push_key(&mut out, "histograms");
        out.push('{');
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            h.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_updates_are_visible_through_the_registry() {
        let reg = Registry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a.b").get(), 5);
        c.set(3);
        assert_eq!(reg.snapshot().counter("a.b"), 3);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("occupancy");
        g.set(10);
        g.add(-3);
        assert_eq!(reg.snapshot().gauge("occupancy"), 7);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.gauge("x");
        let _ = reg.counter("x");
    }

    #[test]
    fn histogram_percentiles_track_bucket_order() {
        let h = Histogram::new();
        // 90 fast samples (~100ns), 10 slow ones (~100µs).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100_000);
        // p50 sits in the fast bucket, p99 in the slow one; log2 midpoints
        // are within 2x of the true values.
        assert!(s.p50() >= 64 && s.p50() <= 200, "{}", s.p50());
        assert!(s.p99() >= 65_536 && s.p99() <= 200_000, "{}", s.p99());
        assert!((s.mean() - (90.0 * 100.0 + 10.0 * 100_000.0) / 100.0).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.max, s.p50(), s.p99()), (0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn empty_histogram_percentiles_are_no_data() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile_opt(0.50), None);
        assert_eq!(s.quantile_opt(0.99), None);
        let mut json = String::new();
        s.write_windowed_json(&mut json);
        assert!(!json.contains("\"p50\""), "{json}");
        assert!(!json.contains("\"p99\""), "{json}");
        assert!(json.contains("\"count\":0"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets_and_clamp_to_max() {
        let h = Histogram::new();
        // All 100 samples in bucket [64, 128): quantiles must spread
        // monotonically across the bucket instead of sitting on one
        // midpoint, and never exceed the observed max.
        for _ in 0..100 {
            h.record(100);
        }
        let s = h.snapshot();
        let q25 = s.quantile(0.25);
        let q50 = s.quantile(0.50);
        let q99 = s.quantile(0.99);
        assert!((64..128).contains(&q25), "{q25}");
        assert!(q25 < q50 && q50 < q99, "{q25} {q50} {q99}");
        assert!(q99 <= s.max, "{q99} > max {}", s.max);
        // Rank 1 of a single-sample bucket interpolates to the bucket's
        // upper edge, clamped to the sample itself.
        let one = Histogram::new();
        one.record(100);
        assert_eq!(one.snapshot().quantile(0.99), 100);
    }

    #[test]
    fn merge_accumulates_buckets() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(10_000);
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 10_000);
    }

    #[test]
    fn small_values_land_in_low_buckets() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[1], 2); // 2 and 3
    }

    #[test]
    fn snapshot_json_is_stable_and_parsable_shape() {
        let reg = Registry::new();
        reg.counter("z").add(1);
        reg.counter("a").add(2);
        reg.histogram("lat").record(5);
        let json = reg.to_json();
        // Name-sorted: "a" before "z".
        assert!(json.find("\"a\"").unwrap() < json.find("\"z\"").unwrap());
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn concurrent_writers_are_not_lost() {
        let reg = Registry::new();
        let c = reg.counter("hot");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }
}
