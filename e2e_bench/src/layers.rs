//! Assembling the reported metrics: the end-to-end set of an untraced run
//! and the per-layer set of a traced one, in `BENCHMARK.json` order.

use std::hint::black_box;

use modpeg_runtime::{EventCounts, Stats};

use crate::families::{Engine, Parsers, Setup};
use crate::measure::{median, percentile, Metric, Rounds};
use crate::trace::Tracer;

pub const MIB: f64 = 1024.0 * 1024.0;

/// About how many bytes of documents the per-layer probe pass parses.
const PROBE_BYTES: usize = 384 << 10;

/// The end-to-end metrics: set-up time (median over `setup_secs`),
/// per-engine throughput, operation latency per KiB of input and
/// per-engine peak heap. `op_cost` holds each timed round's operation
/// costs in seconds per byte; a latency percentile is the median over
/// rounds of that round's percentile, so that rounds slowed by another
/// tenant of the machine do not decide the tail.
pub fn end_to_end(
    setup_secs: &[f64],
    mib_s: [f64; 3],
    op_cost: &[Vec<f64>],
    heap: [u64; 3],
) -> Vec<Metric> {
    let mut m = vec![Metric::new("setup_s", median(setup_secs), "s")];
    for e in Engine::ALL {
        m.push(Metric::new(
            format!("mib_s.{}", e.name()),
            mib_s[e as usize],
            "MiB/s",
        ));
    }
    let us_per_kib = |p| {
        let per_round: Vec<f64> = op_cost.iter().map(|round| percentile(round, p)).collect();
        median(&per_round) * 1e6 * 1024.0
    };
    m.push(Metric::new("op_us_per_kib.p50", us_per_kib(50.0), "us/KiB"));
    m.push(Metric::new("op_us_per_kib.p90", us_per_kib(90.0), "us/KiB"));
    for e in Engine::ALL {
        let name = format!("peak_heap_mib.{}", e.name());
        m.push(Metric::new(name, heap[e as usize] as f64 / MIB, "MiB"));
    }
    m
}

/// One document the per-layer probe pass parses: `text` in events and
/// tree mode, and `resilient` (the same text, or its corrupted variant)
/// resiliently.
pub struct Probe<'a> {
    pub parsers: &'a Parsers,
    pub text: &'a str,
    pub resilient: &'a str,
}

/// Incremental-session counters of the `edit` workload (zero elsewhere).
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionCounts {
    pub reparses: u64,
    pub reused: u64,
    pub invalidated: u64,
    pub shifted: u64,
    pub productions: u64,
}

impl SessionCounts {
    pub fn add(&mut self, s: &Stats) {
        self.reparses += 1;
        self.reused += s.memo_columns_reused;
        self.invalidated += s.memo_columns_invalidated;
        self.shifted += s.memo_entries_shifted;
        self.productions += s.productions_evaluated;
    }
}

#[derive(Default)]
struct EngineProbe {
    events: f64,
    tree: f64,
    resilient: f64,
    stats: Stats,
    /// `(bytes, events seconds)` per document, for `linearity.*`.
    docs: Vec<(usize, f64)>,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    setup: &Setup,
    probes: &[Probe<'_>],
    session: SessionCounts,
    rounds: &Rounds,
    tracer: &Tracer,
) -> Vec<Metric> {
    let st = &setup.stages;
    let sz = &setup.sizes;
    let mut m = vec![
        Metric::new("syntax.ms", st.syntax * 1e3, "ms"),
        Metric::new("syntax.modules", sz.modules as f64, "count"),
        Metric::new("elaborate.ms", st.elaborate * 1e3, "ms"),
        Metric::new("elaborate.productions", sz.productions as f64, "count"),
        Metric::new("transform.ms", st.transform * 1e3, "ms"),
        Metric::new(
            "transform.productions_out",
            sz.productions_out as f64,
            "count",
        ),
        Metric::new("lower.ms", (st.compile - st.transform) * 1e3, "ms"),
        Metric::new("lower.memo_slots", f64::from(sz.memo_slots), "count"),
        Metric::new("assemble.ms", st.assemble * 1e3, "ms"),
        Metric::new("assemble.ops", sz.ops as f64, "count"),
        Metric::new("emit.ms", st.emit * 1e3, "ms"),
        Metric::new("emit.kib", sz.emit_bytes as f64 / 1024.0, "KiB"),
    ];

    // A size-stratified subset of at most about PROBE_BYTES: every k-th
    // document in size order. Each call runs twice and the faster run
    // counts, which keeps one-off interruptions out of the small
    // differences (copy-out, recovery overhead) these metrics take.
    let total: usize = probes.iter().map(|p| p.text.len()).sum();
    let mut order: Vec<&Probe<'_>> = probes.iter().collect();
    order.sort_by_key(|p| p.text.len());
    let probes: Vec<&Probe<'_>> = order
        .into_iter()
        .step_by(total.div_ceil(PROBE_BYTES).max(1))
        .collect();
    let mut per = [
        EngineProbe::default(),
        EngineProbe::default(),
        EngineProbe::default(),
    ];
    let mut errors = 0;
    for (i, p) in probes.iter().enumerate() {
        let req = i as u64;
        for e in Engine::rotated(i) {
            let ep = &mut per[e as usize];
            let (mut events, mut tree, mut resilient) = (f64::MAX, f64::MAX, f64::MAX);
            let (mut stats, mut errs) = (Stats::default(), 0);
            for _ in 0..2 {
                let mut counts = EventCounts::default();
                let (_, t) = tracer.timed(e.events_span(), req, || {
                    black_box(p.parsers.parse_events(e, p.text, &mut counts))
                });
                events = events.min(t);
                let ((_, s), t) = tracer.timed(e.tree_span(), req, || {
                    black_box(p.parsers.parse_with_stats(e, p.text))
                });
                tree = tree.min(t);
                stats = s;
                let (rec, t) = tracer.timed(e.recover_span(), req, || {
                    black_box(p.parsers.parse_resilient(e, p.resilient))
                });
                resilient = resilient.min(t);
                errs = rec.diagnostics.error_count();
            }
            ep.stats.merge(&stats);
            if e == Engine::Interp {
                errors += errs;
            }
            ep.events += events;
            ep.tree += tree;
            ep.resilient += resilient;
            ep.docs.push((p.text.len(), events));
        }
    }
    let bytes: f64 = probes.iter().map(|p| p.text.len() as f64).sum();
    let kib = bytes / 1024.0;
    let largest = probes.iter().map(|p| p.text.len()).max().unwrap_or(0);
    for e in Engine::ALL {
        let ep = &per[e as usize];
        let n = e.name();
        let s = &ep.stats;
        m.extend([
            Metric::new(
                format!("parse.{n}.ns_per_byte"),
                ep.events * 1e9 / bytes,
                "ns/B",
            ),
            Metric::new(
                format!("copy_out.{n}.ns_per_byte"),
                (ep.tree - ep.events) * 1e9 / bytes,
                "ns/B",
            ),
            Metric::new(
                format!("linearity.{n}"),
                linearity(&ep.docs, largest),
                "ratio",
            ),
            Metric::new(
                format!("{n}.memo.probes_per_kib"),
                s.memo_probes as f64 / kib,
                "1/KiB",
            ),
            Metric::new(format!("{n}.memo.hit_rate"), s.memo_hit_rate(), "ratio"),
            Metric::new(
                format!("{n}.memo.bytes_per_byte"),
                s.memo_bytes as f64 / bytes,
                "B/B",
            ),
            Metric::new(
                format!("{n}.eval.productions_per_kib"),
                s.productions_evaluated as f64 / kib,
                "1/KiB",
            ),
            Metric::new(
                format!("{n}.eval.backtracks_per_kib"),
                s.backtracks as f64 / kib,
                "1/KiB",
            ),
            Metric::new(
                format!("{n}.values.nodes_per_kib"),
                s.nodes_built as f64 / kib,
                "1/KiB",
            ),
            Metric::new(
                format!("{n}.scan.comparisons_per_byte"),
                s.terminal_comparisons as f64 / bytes,
                "1/B",
            ),
            Metric::new(
                format!("recover.{n}.overhead_pct"),
                (ep.resilient / ep.tree - 1.0) * 100.0,
                "%",
            ),
        ]);
    }

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (overhead, coverage) = rounds.trace_summary(tracer);
    m.extend([
        Metric::new(
            "recover.errors_per_doc",
            errors as f64 / probes.len().max(1) as f64,
            "count",
        ),
        Metric::new(
            "session.columns_reused_ratio",
            ratio(session.reused, session.reused + session.invalidated),
            "ratio",
        ),
        Metric::new(
            "session.entries_shifted_per_edit",
            ratio(session.shifted, session.reparses),
            "count",
        ),
        Metric::new(
            "session.productions_per_reparse",
            ratio(session.productions, session.reparses),
            "count",
        ),
        Metric::new("trace.overhead_pct", overhead, "%"),
        Metric::new("trace.coverage_pct", coverage, "%"),
    ]);
    m
}

/// Ford's linear-time check: ns/byte on the large documents (at least
/// half the largest) over ns/byte on the small ones (at most an eighth of
/// it, and always the smallest). A flat parser reads 1.
fn linearity(docs: &[(usize, f64)], largest: usize) -> f64 {
    let smallest = docs.iter().map(|d| d.0).min().unwrap_or(0);
    let rate = |keep: &dyn Fn(usize) -> bool| {
        let (b, t) = docs
            .iter()
            .filter(|d| keep(d.0))
            .fold((0.0, 0.0), |(b, t), d| (b + d.0 as f64, t + d.1));
        t / b
    };
    rate(&|len| 2 * len >= largest) / rate(&|len| 8 * len <= largest || len == smallest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearity_is_one_for_a_flat_rate() {
        let docs = [(1000, 1.0), (64_000, 64.0), (8000, 8.0), (40_000, 40.0)];
        assert!((linearity(&docs, 64_000) - 1.0).abs() < 1e-12);
        let docs = [(1000, 1.0), (64_000, 128.0)];
        assert!((linearity(&docs, 64_000) - 2.0).abs() < 1e-12);
    }
}
