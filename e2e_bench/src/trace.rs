//! In-memory spans around every layer call the benchmark makes.
//!
//! [`Tracer::timed`] is the one way the benchmark times a call: it always
//! measures the call's duration, and while the tracer is *recording* it
//! also keeps a span (name, start, end, parent, request id) reusing the
//! same two clock reads. Spans stay in memory and are written as Chrome
//! `trace_event` JSON when the run ends. Spans come from the benchmark's
//! own files only; the program under test is not instrumented.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Spans kept per run; later spans are counted as dropped.
const MAX_SPANS: usize = 1 << 20;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `syntax` or `parse.tree.vm`.
    pub name: &'static str,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// End, relative to the tracer's creation.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the call served: a document, edit or rep index.
    pub req: u64,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Times layer calls and, while recording, keeps their spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: Cell<bool>,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
    dropped: Cell<u64>,
}

impl Tracer {
    /// A tracer that is not recording.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: Cell::new(false),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
            dropped: Cell::new(0),
        }
    }

    /// Starts or stops keeping spans.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Runs `f`, returning its result and its duration in seconds. While
    /// recording, also keeps a span named `name` for request `req`, whose
    /// parent is the innermost `timed` call still running.
    pub fn timed<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.recording.get() {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_secs_f64());
        }
        let parent = self.open.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            if spans.len() >= MAX_SPANS {
                None
            } else {
                spans.push(Span {
                    name,
                    start: Duration::ZERO,
                    end: Duration::ZERO,
                    parent,
                    req,
                });
                Some(spans.len() - 1)
            }
        };
        if idx.is_none() {
            self.dropped.set(self.dropped.get() + 1);
        } else {
            self.open.set(idx);
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        if let Some(i) = idx {
            self.open.set(parent);
            let mut spans = self.spans.borrow_mut();
            spans[i].start = t0 - self.origin;
            spans[i].end = t1 - self.origin;
        }
        (r, (t1 - t0).as_secs_f64())
    }

    /// Number of spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Seconds covered by the top-level spans with index in `range`.
    pub fn top_level_seconds(&self, range: std::ops::Range<usize>) -> f64 {
        self.spans.borrow()[range]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur().as_secs_f64())
            .sum()
    }

    /// Per-name totals: `(name, calls, total seconds, self seconds)`,
    /// where a span's self time is its duration minus the time its child
    /// spans cover (children of one span never overlap: one thread).
    pub fn self_times(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let spans = self.spans.borrow();
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur().as_secs_f64();
            e.2 += s.dur().saturating_sub(*c).as_secs_f64();
        }
        by_name
            .into_iter()
            .map(|(n, (k, t, s))| (n, k, t, s))
            .collect()
    }

    /// The spans as Chrome `trace_event` JSON (complete `X` events, µs).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur().as_secs_f64() * 1e6,
                s.req
            );
        }
        let _ = write!(
            out,
            "\n],\"otherData\":{{\"dropped_spans\":{}}}}}\n",
            self.dropped.get()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let t = Tracer::new();
        t.set_recording(true);
        let ((), _) = t.timed("outer", 7, || {
            t.timed("inner", 7, || std::thread::sleep(Duration::from_millis(2)));
        });
        t.set_recording(false);
        t.timed("untraced", 0, || ());
        assert_eq!(t.len(), 2);
        let table = t.self_times();
        let outer = table.iter().find(|r| r.0 == "outer").unwrap();
        let inner = table.iter().find(|r| r.0 == "inner").unwrap();
        assert!(outer.3 < inner.2, "outer self time excludes its child");
        assert_eq!(t.top_level_seconds(0..2), outer.2);
        let json = t.chrome_json();
        modpeg_telemetry::validate_json(&json).expect("chrome trace is valid JSON");
        assert!(json.contains("\"parent\":0"), "{json}");
    }
}
