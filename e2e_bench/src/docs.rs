//! The document workloads — `corpus`, `lexical` and `malformed`: whole
//! documents parsed on every engine, round after round.

use std::hint::black_box;

use modpeg_baseline::BacktrackParser;

use crate::alloc::peak_bytes;
use crate::check;
use crate::families::{self, BuildOptions, Engine, Family, Parsers};
use crate::inputs::{self, Doc};
use crate::layers::{self, Probe, SessionCounts, MIB};
use crate::measure::{median, progress, timed_rounds, Outcome, Tally};
use crate::trace::Tracer;
use crate::Config;

/// Families of `corpus` and `malformed`, indexed by [`Doc::family`].
pub static CORPUS_FAMILIES: [&Family; 3] = [&families::JAVA_EXT, &families::C, &families::JSON];
/// Families of `lexical`.
pub static LEXICAL_FAMILIES: [&Family; 4] = [
    &families::CALC,
    &families::JSON,
    &families::JAVA,
    &families::C,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Corpus,
    Lexical,
    Malformed,
}

/// The workload's documents: for `malformed`, the corrupted documents
/// and, in the same order, the valid texts they came from.
fn inputs(kind: Kind, cfg: &Config, parsers: &[&Parsers]) -> (Vec<Doc>, Vec<String>) {
    match kind {
        Kind::Corpus => (inputs::corpus(cfg.seed, cfg.scale), Vec::new()),
        Kind::Lexical => (inputs::lexical(cfg.seed, cfg.scale), Vec::new()),
        Kind::Malformed => {
            let oracles: Vec<BacktrackParser<'_>> = parsers
                .iter()
                .map(|p| BacktrackParser::new(p.interp.grammar()))
                .collect();
            inputs::malformed(cfg.seed, cfg.scale, &|f, text| {
                oracles[f].recognize(text).is_err()
            })
            .into_iter()
            .map(|m| (m.doc, m.original))
            .unzip()
        }
    }
}

/// One timed operation: a tree-mode parse, or for `malformed` a resilient
/// parse (which must find an error). Returns whether it succeeded.
fn op(kind: Kind, p: &Parsers, e: Engine, text: &str) -> bool {
    if kind == Kind::Malformed {
        black_box(p.parse_resilient(e, text))
            .diagnostics
            .error_count()
            > 0
    } else {
        black_box(p.parse(e, text)).is_ok()
    }
}

pub fn run(kind: Kind, cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let families: &[&'static Family] = match kind {
        Kind::Lexical => &LEXICAL_FAMILIES,
        Kind::Corpus | Kind::Malformed => &CORPUS_FAMILIES,
    };
    let opts = BuildOptions {
        session: None,
        emit: cfg.trace,
        split_compile: cfg.trace,
    };
    tracer.set_recording(cfg.trace);
    let setup = families::setup(families, opts, cfg.scale.setup_reps, tracer)?;
    tracer.set_recording(false);
    let parsers: Vec<&Parsers> = setup.parsers().collect();
    let (docs, originals) = inputs(kind, cfg, &parsers);

    progress("setup and inputs");
    let mut tally = Tally::default();
    if kind == Kind::Malformed {
        for (i, d) in docs.iter().enumerate() {
            check::malformed_doc(&mut tally, &format!("doc {i}"), parsers[d.family], &d.text);
        }
    } else {
        let oracles: Vec<BacktrackParser<'_>> = parsers
            .iter()
            .map(|p| BacktrackParser::new(p.interp.grammar()))
            .collect();
        for (i, d) in docs.iter().enumerate() {
            check::valid_doc(
                &mut tally,
                &format!("doc {i}"),
                parsers[d.family],
                &d.text,
                &oracles[d.family],
            );
        }
    }
    if kind == Kind::Lexical {
        let all: String = docs.iter().map(|d| d.text.as_str()).collect();
        let share = inputs::long_run_share(&all);
        tally.check(share > 1.0 / 3.0, || {
            format!("only {share:.3} of the bytes sit in long runs")
        });
    }

    progress("gate");
    let bytes: usize = docs.iter().map(|d| d.text.len()).sum();
    let mut engine_secs: [Vec<f64>; 3] = Default::default();
    let mut op_cost = Vec::new();
    let mut setup_secs = setup.reps.clone();
    let rounds = timed_rounds(cfg.seconds, cfg.trace, tracer, |r| {
        let mut costs = Vec::with_capacity(3 * docs.len());
        for e in Engine::rotated(r) {
            let span = if kind == Kind::Malformed {
                e.recover_span()
            } else {
                e.tree_span()
            };
            let mut sum = 0.0;
            for (i, d) in docs.iter().enumerate() {
                let (ok, t) =
                    tracer.timed(span, i as u64, || op(kind, parsers[d.family], e, &d.text));
                tally.check(ok, || format!("round {r}: {} failed on doc {i}", e.name()));
                sum += t;
                costs.push(t / d.text.len() as f64);
            }
            if r > 0 {
                engine_secs[e as usize].push(sum);
            }
        }
        if r > 0 {
            op_cost.push(costs);
            let rebuilt = families::rebuild(families, opts, tracer, r as u64);
            tally.check(rebuilt.is_ok(), || {
                format!("rebuild failed: {:?}", rebuilt.as_ref().err())
            });
            setup_secs.extend(rebuilt.ok());
        }
    });

    progress("timed rounds");
    let metrics = if cfg.trace {
        let probes: Vec<Probe<'_>> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| Probe {
                parsers: parsers[d.family],
                text: originals.get(i).unwrap_or(&d.text),
                resilient: &d.text,
            })
            .collect();
        layers::per_layer(&setup, &probes, SessionCounts::default(), &rounds, tracer)
    } else {
        // Peak heap of one document: the mean over a family's documents,
        // for the heaviest family. A mean over the whole size ladder
        // varies far less from seed to seed than any one document does.
        let mut heap = [0; 3];
        for (f, p) in parsers.iter().enumerate() {
            let family: Vec<&Doc> = docs.iter().filter(|d| d.family == f).collect();
            for e in Engine::ALL {
                let mut total = 0;
                for d in &family {
                    let (ok, peak) = peak_bytes(|| op(kind, p, e, &d.text));
                    tally.check(ok, || format!("heap pass: {} failed", e.name()));
                    total += peak;
                }
                heap[e as usize] = heap[e as usize].max(total / family.len().max(1) as u64);
            }
        }
        let mib_s = engine_secs.map(|secs| bytes as f64 / MIB / median(&secs));
        layers::end_to_end(&setup_secs, mib_s, &op_cost, heap)
    };
    progress(if cfg.trace { "probes" } else { "heap" });
    Ok(Outcome { metrics, tally })
}
