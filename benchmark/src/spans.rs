//! The benchmark's own span recorder (choosing-metrics §4): one span per
//! call into a layer, taken from outside the program, kept in a `Vec` and
//! written out when the run ends. Every call is timed whether or not
//! tracing is on — the untraced run needs the same durations for its
//! latency samples — so "tracing on" adds only the `Vec` push, and the
//! difference between the two halves of a traced run is that cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent of a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call: `name` is the layer, `op` the request it served.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-layer totals derived from the spans.
#[derive(Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that encloses later ones (an operation); close it with
    /// [`end`](Self::end). Returns [`ROOT`] when tracing is off.
    pub fn begin(&mut self, name: &'static str, op: u32, start: Instant) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: ROOT,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32, end: Instant) {
        if id != ROOT {
            self.spans[id as usize].end_ns = self.ns(end);
        }
    }

    /// Records a finished call whose bounds the caller already measured.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                op,
            });
        }
    }

    /// Times `f` as one call into layer `name`; returns its result and
    /// duration in nanoseconds.
    #[inline]
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, op, start, end);
        (out, end.duration_since(start).as_nanos() as u64)
    }

    /// Calls, total and self time per layer name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The self-time table printed after a traced run.
    pub fn table(&self, window_ns: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12} {:>12} {:>8}",
            "layer span", "calls", "total ms", "self ms", "window%"
        );
        for (name, t) in self.totals() {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12.3} {:>12.3} {:>7.2}%",
                name,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / window_ns.max(1) as f64
            );
        }
        out
    }

    /// `{"workload":…,"names":[…],"spans":[[name,start_ns,end_ns,parent,op],…]}`
    /// with `parent` an index into `spans` (or -1).
    pub fn to_json(&self, workload: &str) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        let mut body = String::with_capacity(self.spans.len() * 40);
        for (i, s) in self.spans.iter().enumerate() {
            let idx = match names.iter().position(|n| *n == s.name) {
                Some(i) => i,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            if i > 0 {
                body.push(',');
            }
            let _ = write!(
                body,
                "[{idx},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.op
            );
        }
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"names\":[");
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{n}\"");
        }
        out.push_str("],\"spans\":[");
        out.push_str(&body);
        out.push_str("]}\n");
        out
    }
}
