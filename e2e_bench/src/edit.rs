//! The `edit` workload: one Java document in an incremental interpreter
//! session, edited and reparsed; the VM and the generated parser, which
//! have no incremental mode, reparse the whole edited text.

use std::hint::black_box;
use std::rc::Rc;

use modpeg_interp::OptConfig;
use modpeg_session::ParseSession;

use crate::alloc::peak_bytes;
use crate::check::same_trees;
use crate::families::{self, BuildOptions, Engine};
use crate::inputs;
use crate::layers::{self, Probe, SessionCounts, MIB};
use crate::measure::{median, progress, timed_rounds, Outcome, Tally};
use crate::trace::Tracer;
use crate::Config;

/// Edits per timed round.
const BLOCK: usize = 100;
/// The VM and the generated parser reparse after every this many edits.
const FULL_EVERY: usize = 50;
/// The gate compares the session's tree with fresh parses this often.
const CHECK_EVERY: usize = 50;

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let opts = BuildOptions {
        session: Some(OptConfig::incremental()),
        emit: cfg.trace,
        split_compile: cfg.trace,
    };
    tracer.set_recording(cfg.trace);
    let setup = families::setup(&[&families::JAVA], opts, cfg.scale.setup_reps, tracer)?;
    tracer.set_recording(false);
    let p = &setup.built[0].parsers;
    let grammar = Rc::clone(p.session.as_ref().expect("built with a session grammar"));
    let doc = inputs::edit_doc(cfg.seed, cfg.scale);
    let script = inputs::edit_script(&doc, cfg.seed, cfg.scale.edits);

    progress("setup and inputs");

    // Gate: every reparse succeeds; every 50th edit and the last, the
    // session's tree equals fresh parses on all engines.
    let mut tally = Tally::default();
    let with_fresh = |tree, text: &str| {
        let mut trees = vec![tree];
        trees.extend(Engine::ALL.map(|e| p.parse(e, text)));
        trees
    };
    {
        let mut session = ParseSession::new(Rc::clone(&grammar), doc.clone());
        let primed = session.parse();
        same_trees(&mut tally, "primed session", &with_fresh(primed, &doc));
        for (i, e) in script.iter().enumerate() {
            session.apply_edit(e.range.clone(), &e.text);
            let tree = session.parse();
            if (i + 1) % CHECK_EVERY == 0 || i + 1 == script.len() {
                same_trees(
                    &mut tally,
                    &format!("edit {i}"),
                    &with_fresh(tree, session.text()),
                );
            } else {
                tally.check(tree.is_ok(), || format!("edit {i}: reparse failed"));
            }
        }
    }
    progress("gate");

    // Timed: the script replays from the original text whenever it runs
    // out, so every timed edit is one the gate checked.
    let mut session = ParseSession::new(Rc::clone(&grammar), doc.clone());
    tally.check(session.parse().is_ok(), || "priming parse failed".into());
    let mut next = 0;
    // Seconds per byte of each reparse, by engine, and the interpreter's
    // by round.
    let mut cost: [Vec<f64>; 3] = Default::default();
    let mut edit_cost = Vec::new();
    let mut setup_secs = setup.reps.clone();
    let mut counts = SessionCounts::default();
    let rounds = timed_rounds(cfg.seconds, cfg.trace, tracer, |r| {
        let first = cost[0].len();
        for _ in 0..BLOCK {
            if next == script.len() {
                let (ok, _) = tracer.timed("session.reset", 0, || {
                    session.set_text(doc.clone());
                    session.parse().is_ok()
                });
                tally.check(ok, || "re-priming parse failed".into());
                next = 0;
            }
            let e = &script[next];
            let req = next as u64;
            let (ok, t) = tracer.timed("edit", req, || {
                tracer.timed("session.apply_edit", req, || {
                    session.apply_edit(e.range.clone(), &e.text)
                });
                tracer
                    .timed("session.parse", req, || black_box(session.parse()).is_ok())
                    .0
            });
            tally.check(ok, || format!("edit {next}: reparse failed"));
            counts.add(session.last_stats());
            let len = session.text().len() as f64;
            if r > 0 {
                cost[0].push(t / len);
            }
            if next % FULL_EVERY == 0 {
                let mut order = [Engine::Vm, Engine::Codegen];
                if (next / FULL_EVERY) % 2 == 1 {
                    order.reverse();
                }
                for engine in order {
                    let (ok, t) = tracer.timed(engine.tree_span(), req, || {
                        black_box(p.parse(engine, session.text())).is_ok()
                    });
                    tally.check(ok, || {
                        format!("edit {next}: {} full reparse failed", engine.name())
                    });
                    if r > 0 {
                        cost[engine as usize].push(t / len);
                    }
                }
            }
            next += 1;
        }
        if r > 0 {
            edit_cost.push(cost[0][first..].to_vec());
            let rebuilt = families::rebuild(&[&families::JAVA], opts, tracer, r as u64);
            tally.check(rebuilt.is_ok(), || {
                format!("rebuild failed: {:?}", rebuilt.as_ref().err())
            });
            setup_secs.extend(rebuilt.ok());
        }
    });

    drop(session);
    progress("timed rounds");
    let metrics = if cfg.trace {
        let small = inputs::edit_probe_docs(cfg.seed, cfg.scale);
        let probes: Vec<Probe<'_>> = std::iter::once(&doc)
            .chain(&small)
            .map(|text| Probe {
                parsers: p,
                text,
                resilient: text,
            })
            .collect();
        layers::per_layer(&setup, &probes, counts, &rounds, tracer)
    } else {
        let mib_s = cost.each_ref().map(|c| 1.0 / median(c) / MIB);
        // The session's peak over priming and the whole script (its
        // region keeps every reparse's nodes until the next reset); one
        // full parse for the others.
        let session_heap = peak_bytes(|| {
            let mut s = ParseSession::new(Rc::clone(&grammar), doc.clone());
            let mut ok = black_box(s.parse()).is_ok();
            for e in &script {
                s.apply_edit(e.range.clone(), &e.text);
                ok &= black_box(s.parse()).is_ok();
            }
            ok
        });
        let full_heap = |e| peak_bytes(|| p.parse(e, &doc).is_ok());
        let peaks = [
            session_heap,
            full_heap(Engine::Vm),
            full_heap(Engine::Codegen),
        ];
        for (e, (ok, _)) in Engine::ALL.iter().zip(&peaks) {
            tally.check(*ok, || format!("heap pass: {} failed", e.name()));
        }
        let heap = peaks.map(|(_, peak)| peak);
        layers::end_to_end(&setup_secs, mib_s, &edit_cost, heap)
    };
    progress(if cfg.trace { "probes" } else { "heap" });
    Ok(Outcome { metrics, tally })
}
