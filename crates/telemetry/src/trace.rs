//! Structured trace spans and events in a bounded in-memory ring.
//!
//! A [`TraceRecorder`] collects [`TraceRecord`]s — spans (an interval with
//! a start and end) and events (a point in time) — linked by parent/child
//! IDs. The ring is bounded: once `capacity` records are held, each new
//! record evicts the oldest and bumps a `dropped` counter, so a long-lived
//! process can keep a recorder attached without unbounded growth.
//!
//! Timestamps are plain `u64` nanoseconds supplied by the caller. The
//! simulation-oriented crates use a shared [`Clock`] (virtual nanoseconds,
//! advanced explicitly) so traces are deterministic under a fixed seed;
//! the bench harness feeds real elapsed times instead. The recorder does
//! not read wall clocks itself.

use crate::json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identifier of a span or event within one [`TraceRecorder`].
///
/// IDs are assigned from 1 upward; they remain valid as references (e.g.
/// in a child's `parent` field) even after the underlying record is
/// evicted from the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// Whether a [`TraceRecord`] is an interval or a point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// An interval with a start and end time.
    Span,
    /// A point in time (`end_ns == start_ns`).
    Event,
}

impl RecordKind {
    fn as_str(self) -> &'static str {
        match self {
            RecordKind::Span => "span",
            RecordKind::Event => "event",
        }
    }
}

/// One record in the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// This record's ID.
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Span or event.
    pub kind: RecordKind,
    /// Dotted name, e.g. `"2pc.prepare"`.
    pub name: String,
    /// Start time in (virtual or real) nanoseconds.
    pub start_ns: u64,
    /// End time; equals `start_ns` for events and still-open spans.
    pub end_ns: u64,
    /// Free-form key/value attributes, e.g. `("site", "site-2")`.
    pub attrs: Vec<(String, String)>,
}

impl TraceRecord {
    /// The attribute named `key`, if present.
    #[must_use]
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        json::push_key(out, "id");
        out.push_str(&self.id.0.to_string());
        out.push(',');
        json::push_key(out, "parent");
        match self.parent {
            Some(p) => out.push_str(&p.0.to_string()),
            None => out.push_str("null"),
        }
        out.push(',');
        json::push_key(out, "kind");
        json::push_str_literal(out, self.kind.as_str());
        out.push(',');
        json::push_key(out, "name");
        json::push_str_literal(out, &self.name);
        out.push(',');
        json::push_key(out, "start_ns");
        out.push_str(&self.start_ns.to_string());
        out.push(',');
        json::push_key(out, "end_ns");
        out.push_str(&self.end_ns.to_string());
        out.push(',');
        json::push_key(out, "attrs");
        out.push('{');
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(out, k);
            json::push_str_literal(out, v);
        }
        out.push_str("}}");
    }
}

#[derive(Debug)]
struct Ring {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    next_id: u64,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, mut record: TraceRecord) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        record.id = id;
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
        id
    }
}

/// Default ring capacity: generous for control-plane timelines plus
/// sampled packet spans, small enough (~a few MB worst case) to forget.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// A bounded, shared recorder of spans and events.
///
/// Cloning shares the ring. All methods take one short mutex; callers on
/// throughput-critical paths are expected to sample (one in
/// [`DEFAULT_SAMPLE_EVERY`] packets, say) rather than record every packet.
#[derive(Clone, Debug)]
pub struct TraceRecorder(Arc<Mutex<Ring>>);

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRecorder {
    /// A recorder holding at most [`DEFAULT_TRACE_CAPACITY`] records.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder holding at most `capacity` records (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Arc::new(Mutex::new(Ring {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            next_id: 1,
            dropped: 0,
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.0.lock().expect("trace ring lock poisoned")
    }

    /// Opens a span at `start_ns`; close it with [`TraceRecorder::end`].
    pub fn begin(&self, name: &str, parent: Option<SpanId>, start_ns: u64) -> SpanId {
        self.lock().push(TraceRecord {
            id: SpanId(0),
            parent,
            kind: RecordKind::Span,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        })
    }

    /// Closes span `id` at `end_ns`. A no-op if the record was evicted.
    pub fn end(&self, id: SpanId, end_ns: u64) {
        let mut ring = self.lock();
        if let Some(r) = ring.records.iter_mut().rev().find(|r| r.id == id) {
            r.end_ns = end_ns.max(r.start_ns);
        }
    }

    /// Attaches `key=value` to record `id`. A no-op if evicted.
    pub fn attr(&self, id: SpanId, key: &str, value: &str) {
        let mut ring = self.lock();
        if let Some(r) = ring.records.iter_mut().rev().find(|r| r.id == id) {
            r.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Records a complete span in one call.
    pub fn span(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        attrs: &[(&str, &str)],
    ) -> SpanId {
        self.lock().push(TraceRecord {
            id: SpanId(0),
            parent,
            kind: RecordKind::Span,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            attrs: attrs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }

    /// Records a point-in-time event.
    pub fn event(
        &self,
        name: &str,
        parent: Option<SpanId>,
        at_ns: u64,
        attrs: &[(&str, &str)],
    ) -> SpanId {
        self.lock().push(TraceRecord {
            id: SpanId(0),
            parent,
            kind: RecordKind::Event,
            name: name.to_string(),
            start_ns: at_ns,
            end_ns: at_ns,
            attrs: attrs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }

    /// Records currently held, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.lock().records.iter().cloned().collect()
    }

    /// Number of records evicted by the bound so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all records (IDs keep counting up).
    pub fn clear(&self) {
        self.lock().records.clear();
    }

    /// The ring rendered as a JSON object
    /// `{"dropped":N,"records":[...]}`, oldest record first.
    #[must_use]
    pub fn to_json(&self) -> String {
        let ring = self.lock();
        let mut out = String::new();
        out.push('{');
        json::push_key(&mut out, "dropped");
        out.push_str(&ring.dropped.to_string());
        out.push(',');
        json::push_key(&mut out, "records");
        out.push('[');
        for (i, r) in ring.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

/// A shared virtual clock in nanoseconds.
///
/// The simulated crates have no meaningful wall time (netsim delivery is
/// driven by virtual `Millis`), so trace timestamps come from this
/// counter: callers advance it explicitly at interesting boundaries,
/// which keeps timelines deterministic under a fixed fault seed.
#[derive(Clone, Debug, Default)]
pub struct Clock(Arc<AtomicU64>);

impl Clock {
    /// A clock starting at 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Advances the clock by `ns` and returns the new time.
    pub fn advance_ns(&self, ns: u64) -> u64 {
        self.0.fetch_add(ns, Ordering::Relaxed) + ns
    }
}

/// Default packet-span sampling rate: 1 in 1024 keeps trace overhead well
/// under the 5% throughput budget (see DESIGN.md §9).
pub const DEFAULT_SAMPLE_EVERY: u64 = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_via_parent_ids() {
        let t = TraceRecorder::new();
        let root = t.begin("deploy", None, 0);
        let child = t.span("2pc.prepare", Some(root), 10, 20, &[("site", "s1")]);
        t.end(root, 30);
        let recs = t.snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "deploy");
        assert_eq!(recs[0].end_ns, 30);
        assert_eq!(recs[1].id, child);
        assert_eq!(recs[1].parent, Some(root));
        assert_eq!(recs[1].attr("site"), Some("s1"));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let t = TraceRecorder::with_capacity(3);
        for i in 0..5 {
            t.event(&format!("e{i}"), None, i, &[]);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let names: Vec<_> = t.snapshot().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
    }

    #[test]
    fn end_after_eviction_is_a_noop() {
        let t = TraceRecorder::with_capacity(1);
        let a = t.begin("a", None, 0);
        let _b = t.begin("b", None, 1); // evicts a
        t.end(a, 99);
        assert_eq!(t.snapshot()[0].name, "b");
    }

    #[test]
    fn end_never_moves_before_start() {
        let t = TraceRecorder::new();
        let a = t.begin("a", None, 100);
        t.end(a, 50);
        assert_eq!(t.snapshot()[0].end_ns, 100);
    }

    #[test]
    fn ids_are_unique_and_increasing_across_clears() {
        let t = TraceRecorder::new();
        let a = t.event("a", None, 0, &[]);
        t.clear();
        let b = t.event("b", None, 0, &[]);
        assert!(b > a);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clock_advances_monotonically() {
        let c = Clock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance_ns(5), 5);
        assert_eq!(c.advance_ns(1_000_000), 1_000_005);
        assert_eq!(c.now_ns(), 1_000_005);
    }

    #[test]
    fn json_renders_records_and_drop_count() {
        let t = TraceRecorder::with_capacity(2);
        t.event("x", None, 1, &[("k", "v")]);
        let json = t.to_json();
        assert!(json.contains("\"dropped\":0"));
        assert!(json.contains("\"name\":\"x\""));
        assert!(json.contains("\"kind\":\"event\""));
        assert!(json.contains("\"k\":\"v\""));
        assert!(json.contains("\"parent\":null"));
    }
}
