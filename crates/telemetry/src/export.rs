//! Renderers over a [`TelemetryReport`]: Chrome `trace_event` JSON,
//! collapsed-stack flamegraph input, an indented text trace, and
//! memo-table heatmaps.
//!
//! All exporters are pure functions of the report — collection and
//! rendering never overlap, so rendering cost is off the parse path.

use std::fmt::Write;

use crate::json::escape_json;
use crate::{EventKind, TelemetryReport};

/// Renders the report as Chrome `trace_event` JSON (the object form,
/// loadable in `chrome://tracing` and Perfetto).
///
/// Production spans become complete (`"ph":"X"`) events paired from the
/// stream with an explicit stack; memo hits, evictions, aborts, and
/// session reuse become instant (`"ph":"i"`) events. Timestamps are
/// microseconds with nanosecond precision, as the format specifies.
pub fn chrome_trace(report: &TelemetryReport) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"modpeg\"}}",
    );
    // Open spans: (prod, start_ns).
    let mut stack: Vec<(u32, u64)> = Vec::new();
    for event in &report.events {
        match event.kind {
            EventKind::Enter { prod, .. } => stack.push((prod, event.at_ns)),
            EventKind::Exit {
                prod,
                pos,
                end,
                matched,
                ..
            } => {
                if stack.last().map(|s| s.0) != Some(prod) {
                    continue; // truncated stream; never mis-pair
                }
                let (_, start) = stack.pop().expect("matched above");
                let _ = write!(
                    out,
                    ",{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\
                     \"cat\":\"production\",\"ts\":{},\"dur\":{},\
                     \"args\":{{\"pos\":{pos},\"end\":{end},\"matched\":{matched}}}}}",
                    escape_json(report.name_of(prod)),
                    us(start),
                    us(event.at_ns.saturating_sub(start)),
                );
            }
            EventKind::MemoHit {
                prod, pos, matched, ..
            } => {
                let _ = write!(
                    out,
                    ",{{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"s\":\"t\",\
                     \"name\":\"memo hit: {}\",\"cat\":\"memo\",\"ts\":{},\
                     \"args\":{{\"pos\":{pos},\"matched\":{matched}}}}}",
                    escape_json(report.name_of(prod)),
                    us(event.at_ns),
                );
            }
            EventKind::MemoEvict { pos, columns } => {
                let _ = write!(
                    out,
                    ",{{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"s\":\"p\",\
                     \"name\":\"memo eviction\",\"cat\":\"governor\",\"ts\":{},\
                     \"args\":{{\"pos\":{pos},\"columns\":{columns}}}}}",
                    us(event.at_ns),
                );
            }
            EventKind::GovAbort { reason } => {
                let _ = write!(
                    out,
                    ",{{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"s\":\"p\",\
                     \"name\":\"abort: {reason}\",\"cat\":\"governor\",\"ts\":{}}}",
                    us(event.at_ns),
                );
            }
            EventKind::SessionReuse {
                reused,
                invalidated,
                shifted,
            } => {
                let _ = write!(
                    out,
                    ",{{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"s\":\"p\",\
                     \"name\":\"session reuse\",\"cat\":\"session\",\"ts\":{},\
                     \"args\":{{\"reused\":{reused},\"invalidated\":{invalidated},\
                     \"shifted\":{shifted}}}}}",
                    us(event.at_ns),
                );
            }
            // Probe/store traffic and tick totals are aggregate-only
            // signals; they would swamp a timeline view.
            EventKind::MemoProbe { .. }
            | EventKind::MemoStore { .. }
            | EventKind::Backtrack { .. }
            | EventKind::GovTicks { .. } => {}
        }
    }
    let _ = write!(
        out,
        "],\"otherData\":{{\"input_len\":{},\"events\":{},\"dropped\":{},\"sample\":{}}}}}",
        report.input_len,
        report.events.len(),
        report.dropped,
        report.sample
    );
    out
}

/// Microseconds with nanosecond precision, as a JSON number.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders the report as collapsed stacks (`a;b;c 1234` lines, one per
/// distinct production stack), value = exclusive nanoseconds — the input
/// format of `flamegraph.pl` and every compatible renderer.
pub fn folded_stacks(report: &TelemetryReport) -> String {
    // (stack path → exclusive ns), deterministic order for stable output.
    let mut weights: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    // Open spans: (prod, start_ns, child_ns).
    let mut stack: Vec<(u32, u64, u64)> = Vec::new();
    let path = |stack: &[(u32, u64, u64)]| -> String {
        let mut s = String::from("modpeg");
        for (prod, _, _) in stack {
            s.push(';');
            // Semicolons and spaces are structural in the folded format.
            s.push_str(&report.name_of(*prod).replace([';', ' '], "_"));
        }
        s
    };
    for event in &report.events {
        match event.kind {
            EventKind::Enter { prod, .. } => stack.push((prod, event.at_ns, 0)),
            EventKind::Exit { prod, .. } => {
                if stack.last().map(|s| s.0) != Some(prod) {
                    continue;
                }
                let key = path(&stack);
                let (_, start, child_ns) = stack.pop().expect("matched above");
                let dur = event.at_ns.saturating_sub(start);
                if let Some((_, _, parent_child)) = stack.last_mut() {
                    *parent_child += dur;
                }
                *weights.entry(key).or_insert(0) += dur.saturating_sub(child_ns);
            }
            _ => {}
        }
    }
    let mut out = String::new();
    for (path, ns) in weights {
        if ns > 0 {
            let _ = writeln!(out, "{path} {ns}");
        }
    }
    out
}

/// Renders the report as an indented chronological trace, one line per
/// production entry (`> Name @pos`), exit (`< Name @pos ok ..end` or
/// `< Name @pos fail`) and memo hit (`= Name @pos memo ok|fail`),
/// indented two spaces per nesting level — the grammar author's view of
/// which productions were tried where (Rats!' verbose mode). Collect
/// under [`mask::TRACE`](crate::mask::TRACE); any engine's report works.
///
/// Repetition-helper memo hits are expression-level detail and are
/// skipped. A report whose collector hit its cap ends with an
/// `… N events dropped` line instead of stopping silently.
pub fn trace_text(report: &TelemetryReport) -> String {
    let head = |depth: u32, marker: char, prod: u32, pos: u32| {
        let indent = "  ".repeat(depth as usize);
        format!("{indent}{marker} {} @{pos}", report.name_of(prod))
    };
    let mut out = String::new();
    for event in &report.events {
        let line = match event.kind {
            EventKind::Enter { prod, pos, depth } => head(depth, '>', prod, pos),
            EventKind::Exit {
                prod,
                pos,
                depth,
                end,
                matched: true,
            } => {
                format!("{} ok ..{end}", head(depth, '<', prod, pos))
            }
            EventKind::Exit {
                prod, pos, depth, ..
            } => {
                format!("{} fail", head(depth, '<', prod, pos))
            }
            EventKind::MemoHit {
                prod,
                pos,
                depth,
                matched,
            } if prod != crate::REP_HELPER => {
                let verdict = if matched { "ok" } else { "fail" };
                format!("{} memo {verdict}", head(depth, '=', prod, pos))
            }
            _ => continue,
        };
        let _ = writeln!(out, "{line}");
    }
    if report.dropped > 0 {
        let _ = writeln!(out, "… {} events dropped", report.dropped);
    }
    out
}

/// One production's row of a memo heatmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatmapRow {
    /// Production name.
    pub name: String,
    /// Memo stores per offset bucket (column occupancy).
    pub stores: Vec<u64>,
    /// Memo hits per offset bucket.
    pub hits: Vec<u64>,
}

/// A memo-table heatmap: store/hit counts per production × input-offset
/// bucket, derived from the memo traffic in a report.
#[derive(Debug, Clone)]
pub struct MemoHeatmap {
    /// Rows, one per production with any memo traffic.
    pub rows: Vec<HeatmapRow>,
    /// Width of each offset bucket in bytes.
    pub bucket_bytes: u32,
    /// Number of offset buckets.
    pub buckets: usize,
}

impl MemoHeatmap {
    /// Builds the heatmap with `buckets` offset buckets (clamped to at
    /// least 1; offsets beyond `input_len` land in the last bucket).
    pub fn from_report(report: &TelemetryReport, buckets: usize) -> Self {
        let buckets = buckets.max(1);
        let bucket_bytes = (report.input_len / buckets as u32).max(1);
        let bucket_of = |pos: u32| -> usize { ((pos / bucket_bytes) as usize).min(buckets - 1) };
        // Dense production index, REP_HELPER mapped to a trailing row.
        let mut rows: Vec<Option<HeatmapRow>> = vec![None; report.names.len() + 1];
        fn touch<'a>(
            rows: &'a mut [Option<HeatmapRow>],
            report: &TelemetryReport,
            buckets: usize,
            prod: u32,
        ) -> &'a mut HeatmapRow {
            let i = if prod == crate::REP_HELPER {
                rows.len() - 1
            } else {
                (prod as usize).min(rows.len() - 1)
            };
            rows[i].get_or_insert_with(|| HeatmapRow {
                name: report.name_of(prod).to_string(),
                stores: vec![0; buckets],
                hits: vec![0; buckets],
            })
        }
        for event in &report.events {
            match event.kind {
                EventKind::MemoStore { prod, pos, .. } => {
                    touch(&mut rows, report, buckets, prod).stores[bucket_of(pos)] += 1;
                }
                EventKind::MemoHit { prod, pos, .. } => {
                    touch(&mut rows, report, buckets, prod).hits[bucket_of(pos)] += 1;
                }
                _ => {}
            }
        }
        MemoHeatmap {
            rows: rows.into_iter().flatten().collect(),
            bucket_bytes,
            buckets,
        }
    }

    /// Text rendering: one density row per production, darkest character
    /// = most memo stores in that offset bucket.
    pub fn to_text(&self) -> String {
        const SCALE: &[u8] = b" .:-=+*#%@";
        let mut out = String::new();
        let max = self
            .rows
            .iter()
            .flat_map(|r| r.stores.iter())
            .copied()
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "memo heatmap: stores per production x input offset \
             ({} buckets x {} bytes, max {max}/cell)",
            self.buckets, self.bucket_bytes
        );
        let _ = writeln!(out, "scale: \"{}\"", String::from_utf8_lossy(SCALE));
        for row in &self.rows {
            let total: u64 = row.stores.iter().sum();
            let hits: u64 = row.hits.iter().sum();
            let mut cells = String::with_capacity(self.buckets);
            for &v in &row.stores {
                let idx = if max == 0 {
                    0
                } else {
                    // Ceiling scaling so any non-zero cell is visible.
                    ((v * (SCALE.len() as u64 - 1)).div_ceil(max)) as usize
                };
                cells.push(SCALE[idx.min(SCALE.len() - 1)] as char);
            }
            let _ = writeln!(
                out,
                "{:<24} |{cells}| {total} stores, {hits} hits",
                truncate_name(&row.name, 24)
            );
        }
        out
    }

    /// CSV rendering: `production,bucket_start,stores,hits` per non-empty
    /// cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("production,bucket_start,stores,hits\n");
        for row in &self.rows {
            for (i, (&stores, &hits)) in row.stores.iter().zip(&row.hits).enumerate() {
                if stores == 0 && hits == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{},{},{stores},{hits}",
                    csv_field(&row.name),
                    i as u32 * self.bucket_bytes
                );
            }
        }
        out
    }
}

fn truncate_name(name: &str, width: usize) -> String {
    if name.chars().count() <= width {
        name.to_string()
    } else {
        let cut: String = name.chars().take(width - 1).collect();
        format!("{cut}…")
    }
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_json, Telemetry, REP_HELPER};

    fn report() -> TelemetryReport {
        let t = Telemetry::collector(1024);
        t.set_names(vec!["Root".into(), "Leaf".into()]);
        t.set_input_len(100);
        let root = t.enter(0, 0, 0);
        let leaf = t.enter(1, 10, 1);
        t.memo_store(1, 10, true);
        t.exit(leaf, 1, 10, 1, 20, true);
        t.memo_hit(1, 90, 1, true);
        t.memo_store(REP_HELPER, 50, true);
        t.memo_evict(60, 4);
        t.gov_abort("fuel-exhausted");
        t.session_reuse(3, 1, 7);
        t.exit(root, 0, 0, 0, 100, true);
        t.take_report()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_spans() {
        let json = chrome_trace(&report());
        validate_json(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"Leaf\""));
        assert!(json.contains("memo hit: Leaf"));
        assert!(json.contains("abort: fuel-exhausted"));
        assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn chrome_trace_tolerates_truncation() {
        let t = Telemetry::collector(1);
        let tok = t.enter(0, 0, 0);
        t.exit(tok, 0, 0, 0, 5, true); // dropped
        let json = chrome_trace(&t.take_report());
        validate_json(&json).expect("truncated trace must still be valid JSON");
    }

    #[test]
    fn folded_stacks_nest_and_weigh() {
        let folded = folded_stacks(&report());
        let lines: Vec<&str> = folded.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            let (path, weight) = line.rsplit_once(' ').expect("path weight");
            assert!(path.starts_with("modpeg"), "{line}");
            weight.parse::<u64>().expect("numeric weight");
        }
        // The nested Leaf span appears under Root.
        assert!(folded.contains("modpeg;Root;Leaf"), "{folded}");
    }

    #[test]
    fn trace_text_renders_spans_and_memo_hits() {
        let t = Telemetry::collector(16).with_mask(crate::mask::TRACE);
        t.set_names(vec!["P".into()]);
        let outer = t.enter(0, 0, 0);
        t.memo_hit(0, 0, 1, false);
        t.exit(outer, 0, 0, 0, 2, true);
        let second = t.enter(0, 2, 0);
        t.exit(second, 0, 2, 0, 2, false);
        // Repetition-helper hits are expression-level noise.
        t.memo_hit(REP_HELPER, 0, 0, true);
        let report = t.take_report();
        assert_eq!(report.events.len(), 6);
        assert_eq!(
            trace_text(&report),
            "> P @0\n  = P @0 memo fail\n< P @0 ok ..2\n> P @2\n< P @2 fail\n"
        );
    }

    #[test]
    fn dropped_events_are_reported_not_silent() {
        let t = Telemetry::collector(2).with_mask(crate::mask::TRACE);
        t.set_names(vec!["P".into()]);
        for i in 0..4 {
            let tok = t.enter(0, i, 0);
            t.exit(tok, 0, i, 0, i, false);
        }
        let report = t.take_report();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.dropped, 6);
        assert_eq!(
            trace_text(&report),
            "> P @0\n< P @0 fail\n… 6 events dropped\n"
        );
    }

    #[test]
    fn heatmap_buckets_and_renders() {
        let hm = MemoHeatmap::from_report(&report(), 10);
        assert_eq!(hm.bucket_bytes, 10);
        let leaf = hm.rows.iter().find(|r| r.name == "Leaf").expect("leaf row");
        assert_eq!(leaf.stores[1], 1); // store at offset 10
        assert_eq!(leaf.hits[9], 1); // hit at offset 90
        let rep = hm
            .rows
            .iter()
            .find(|r| r.name == "(repetition)")
            .expect("helper row");
        assert_eq!(rep.stores[5], 1);
        let text = hm.to_text();
        assert!(text.contains("memo heatmap"), "{text}");
        assert!(text.contains("Leaf"), "{text}");
        let csv = hm.to_csv();
        assert!(csv.starts_with("production,bucket_start,stores,hits\n"));
        assert!(csv.contains("Leaf,10,1,0"), "{csv}");
        assert!(csv.contains("Leaf,90,0,1"), "{csv}");
    }

    #[test]
    fn heatmap_handles_empty_input_and_reports() {
        let t = Telemetry::collector(8);
        let hm = MemoHeatmap::from_report(&t.take_report(), 0);
        assert_eq!(hm.buckets, 1);
        assert!(hm.rows.is_empty());
        assert!(!hm.to_text().is_empty());
    }

    #[test]
    fn microsecond_formatting_keeps_ns_precision() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234), "1.234");
        assert_eq!(us(1_000_007), "1000.007");
    }
}
