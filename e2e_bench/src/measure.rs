//! Timing loop, summary statistics, the correctness tally, and the
//! one-line JSON result.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::trace::Tracer;

/// Timed rounds run at least this often, however short `--seconds` is:
/// two recorded and two unrecorded rounds in a traced run.
pub const MIN_ROUNDS: usize = 4;

/// Notes on stderr that `phase` finished, with the seconds since the
/// first call: where a run spends its untimed time.
pub fn progress(phase: &str) {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = START.get_or_init(Instant::now);
    eprintln!("[{:7.2}s] {phase}", start.elapsed().as_secs_f64());
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Operations attempted and failed: every correctness check and every
/// timed operation counts once.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`; the first few failures
    /// are described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0,
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median; the mean of the middle two for an even count, 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100), 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Wall times of the timed rounds, with which of them were traced.
#[derive(Debug, Default)]
pub struct Rounds {
    pub wall: Vec<f64>,
    pub traced: Vec<bool>,
    /// Span indices each traced round recorded.
    pub spans: Vec<std::ops::Range<usize>>,
}

impl Rounds {
    /// `trace.overhead_pct` and `trace.coverage_pct`: how much slower the
    /// median traced round was than the median untraced one, and the share
    /// of traced rounds' wall time that top-level spans cover.
    pub fn trace_summary(&self, tracer: &Tracer) -> (f64, f64) {
        let pick = |t: bool| -> Vec<f64> {
            self.wall
                .iter()
                .zip(&self.traced)
                .filter(|(_, &tr)| tr == t)
                .map(|(w, _)| *w)
                .collect()
        };
        let (on, off) = (pick(true), pick(false));
        let overhead = (median(&on) / median(&off) - 1.0) * 100.0;
        let covered: f64 = self
            .spans
            .iter()
            .map(|r| tracer.top_level_seconds(r.clone()))
            .sum();
        let coverage = covered / on.iter().sum::<f64>() * 100.0;
        (overhead, coverage)
    }
}

/// The closed loop: one caller, each operation starting when the previous
/// one returned. Runs `round(0)` as an unrecorded warmup, then
/// `round(1)`, `round(2)`, … until `seconds` have passed and at least
/// [`MIN_ROUNDS`] rounds ran. With `trace`, even rounds are recorded and
/// odd ones are not, so both halves see the same machine state.
pub fn timed_rounds(
    seconds: f64,
    trace: bool,
    tracer: &Tracer,
    mut round: impl FnMut(usize),
) -> Rounds {
    tracer.set_recording(false);
    round(0);
    let mut rounds = Rounds::default();
    let start = Instant::now();
    for r in 1.. {
        let traced = trace && r % 2 == 0;
        tracer.set_recording(traced);
        let first = tracer.len();
        let t0 = Instant::now();
        round(r);
        rounds.wall.push(t0.elapsed().as_secs_f64());
        tracer.set_recording(false);
        rounds.traced.push(traced);
        if traced {
            rounds.spans.push(first..tracer.len());
        }
        if r >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tracer.set_recording(trace);
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }

    #[test]
    fn result_line_parses_with_the_repo_json_parser() {
        let outcome = Outcome {
            metrics: vec![
                Metric::new("mib_s.vm", 12.5, "MiB/s"),
                Metric::new("setup_s", 0.0123, "s"),
            ],
            tally: Tally {
                attempted: 9,
                failed: 1,
            },
        };
        let line = outcome.json();
        modpeg_telemetry::validate_json(&line).expect("valid JSON");
        let v = modpeg_telemetry::parse_json(&line).expect("parses");
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(9));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("mib_s.vm"))
            .expect("metric present");
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(12.5));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("MiB/s"));
        assert!(line.contains("\"correct\": false"), "{line}");
    }
}
