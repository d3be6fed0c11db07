//! Parse tracing: a chronological record of production evaluations.
//!
//! The grammar-debugging companion to coverage: when a grammar misparses,
//! the trace shows which productions were tried where, what each
//! returned, and which answers came from the memo table (Rats!' verbose
//! mode). Traces are bounded — a packrat parse of even moderate input
//! evaluates hundreds of thousands of productions.
//!
//! This module is a thin adapter over `modpeg-telemetry`: run any engine
//! with a collector masked to spans + memo hits
//! (`Telemetry::collector(cap).with_mask(mask::TRACE)` in the request),
//! then [`Trace::from_report`] re-shapes the report into the stable
//! [`TraceEvent`] API. The collector is the bounded ring, and a hit cap
//! reports how many events were dropped instead of truncating silently.

use std::fmt;

use modpeg_telemetry::{EventKind, TelemetryReport};

/// What one traced evaluation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Entered the production (matching Exit event follows).
    Enter,
    /// Matched, consuming up to `end`.
    Matched {
        /// End offset of the match.
        end: u32,
    },
    /// Failed.
    Failed,
    /// Answer served from the memo table (`matched` tells which answer).
    MemoHit {
        /// Whether the memoized answer was a match.
        matched: bool,
    },
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nesting depth of the evaluation.
    pub depth: u32,
    /// Index of the production (into the compiled grammar).
    pub production: u32,
    /// Input offset the evaluation started at.
    pub pos: u32,
    /// What happened.
    pub outcome: TraceOutcome,
}

/// A bounded chronological parse trace.
#[derive(Debug, Clone)]
pub struct Trace {
    pub(crate) names: Vec<String>,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) dropped: u64,
}

impl Trace {
    /// Re-shapes a telemetry report (collected under the trace mask,
    /// [`modpeg_telemetry::mask::TRACE`]) into the stable trace API. Any
    /// engine's report works: they all emit the same span events.
    /// Anonymous repetition-helper memo events are expression-level
    /// detail and are skipped.
    pub fn from_report(report: &TelemetryReport) -> Self {
        let mut events = Vec::with_capacity(report.events.len());
        for event in &report.events {
            let mapped = match event.kind {
                EventKind::Enter { prod, pos, depth } => Some((depth, prod, pos, TraceOutcome::Enter)),
                EventKind::Exit {
                    prod,
                    pos,
                    depth,
                    end,
                    matched,
                } => {
                    let outcome = if matched {
                        TraceOutcome::Matched { end }
                    } else {
                        TraceOutcome::Failed
                    };
                    Some((depth, prod, pos, outcome))
                }
                EventKind::MemoHit {
                    prod,
                    pos,
                    depth,
                    matched,
                } if prod != modpeg_telemetry::REP_HELPER => {
                    Some((depth, prod, pos, TraceOutcome::MemoHit { matched }))
                }
                _ => None,
            };
            if let Some((depth, production, pos, outcome)) = mapped {
                events.push(TraceEvent {
                    depth,
                    production,
                    pos,
                    outcome,
                });
            }
        }
        Trace {
            names: report.names.clone(),
            events,
            dropped: report.dropped,
        }
    }

    /// The recorded events, chronologically.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether the event cap was hit (some events were dropped).
    pub fn is_truncated(&self) -> bool {
        self.dropped > 0
    }

    /// How many events the cap discarded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The production name for an event.
    pub fn name_of(&self, event: &TraceEvent) -> &str {
        self.names
            .get(event.production as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            let indent = "  ".repeat(e.depth as usize);
            let name = self.name_of(e);
            match e.outcome {
                TraceOutcome::Enter => writeln!(f, "{indent}> {name} @{}", e.pos)?,
                TraceOutcome::Matched { end } => {
                    writeln!(f, "{indent}< {name} @{} ok ..{end}", e.pos)?
                }
                TraceOutcome::Failed => writeln!(f, "{indent}< {name} @{} fail", e.pos)?,
                TraceOutcome::MemoHit { matched } => writeln!(
                    f,
                    "{indent}= {name} @{} memo {}",
                    e.pos,
                    if matched { "ok" } else { "fail" }
                )?,
            }
        }
        if self.dropped > 0 {
            writeln!(f, "… {} events dropped", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modpeg_telemetry::Telemetry;

    fn collect(f: impl FnOnce(&Telemetry)) -> Trace {
        let t = Telemetry::collector(16).with_mask(modpeg_telemetry::mask::TRACE);
        t.set_names(vec!["P".into()]);
        f(&t);
        Trace::from_report(&t.take_report())
    }

    #[test]
    fn report_events_map_onto_trace_outcomes() {
        let trace = collect(|t| {
            let outer = t.enter(0, 0, 0);
            t.memo_hit(0, 0, 1, false);
            t.exit(outer, 0, 0, 0, 2, true);
            let second = t.enter(0, 2, 0);
            t.exit(second, 0, 2, 0, 2, false);
            // Repetition-helper hits are expression-level noise.
            t.memo_hit(modpeg_telemetry::REP_HELPER, 0, 0, true);
        });
        assert_eq!(trace.events().len(), 5);
        assert!(!trace.is_truncated());
        let s = trace.to_string();
        assert!(s.contains("> P @0"), "{s}");
        assert!(s.contains("  = P @0 memo fail"), "{s}");
        assert!(s.contains("< P @0 ok ..2"), "{s}");
        assert!(s.contains("< P @2 fail"), "{s}");
    }

    #[test]
    fn dropped_events_are_reported_not_silent() {
        let t = Telemetry::collector(2).with_mask(modpeg_telemetry::mask::TRACE);
        t.set_names(vec!["P".into()]);
        for i in 0..4 {
            let tok = t.enter(0, i, 0);
            t.exit(tok, 0, i, 0, i, false);
        }
        let trace = Trace::from_report(&t.take_report());
        assert_eq!(trace.events().len(), 2);
        assert!(trace.is_truncated());
        assert_eq!(trace.dropped(), 6);
        assert!(trace.to_string().contains("… 6 events dropped"));
    }
}
