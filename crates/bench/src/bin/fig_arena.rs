//! E13 — arena-backed semantic values: what detaching an owned tree
//! costs over streaming it, in throughput and peak heap per parse, on
//! every grammar and every engine.
//!
//! Two legs per engine: `events` (zero-copy: the tree is streamed
//! straight out of the region) and `tree` (the same arena build plus
//! `copy_out` into a detached owned tree). All six legs of a grammar are
//! the legs of one `modpeg_bench::paired` call (the crate docs describe
//! the runner). Each event stream is verified to rebuild the `tree` leg's
//! tree first.
//!
//! Peak heap is tracked by a counting global allocator: before each
//! measured parse the high-water mark is rewound to the current live
//! bytes, so the reported number is the peak *additional* heap that one
//! parse touched. Two regimes are reported for the 128 KiB Java
//! document:
//!
//! * **one-shot** — a cold parse that must also build its packrat memo
//!   table. The memo dominates this number for both legs; it is reported
//!   for honesty, not as the headline.
//! * **steady-state** — recycled [`SessionPool`] sessions, measured from
//!   the trough (session checked out and reset *before* the measurement
//!   starts). This is the per-parse marginal cost once capacities are
//!   warm, where the detached tree is the whole difference.
//!
//! `fig_arena --smoke` instead runs the recycle-leak check used by
//! `scripts/arena-smoke.sh`: parse/recycle through a [`SessionPool`]
//! until live bytes plateau, then assert further recycling does not grow
//! the heap (a leak would mean reset/recycle drops regions on the floor).
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3),
//! `MODPEG_BENCH_RUNS` (6).

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use modpeg_bench::{middle, ms, paired, pct, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{Engine, EventCounts, EventSink, ParseRequest, SyntaxTree, TreeBuilder};
use modpeg_session::SessionPool;
use modpeg_vm::VmProgram;

/// Live and peak heap bytes, maintained by the wrapping allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; only the
// bookkeeping around it is ours.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let live = LIVE
                .fetch_add(new_size, Relaxed)
                .wrapping_add(new_size)
                .wrapping_sub(layout.size());
            LIVE.fetch_sub(layout.size(), Relaxed);
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Peak additional heap bytes allocated while `f` ran.
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = live_bytes();
    PEAK.store(base, Relaxed);
    let r = f();
    (PEAK.load(Relaxed).saturating_sub(base), r)
}

/// The `events` leg: arena build, events streamed from the region, no tree.
fn events(engine: &dyn Engine, input: &str, sink: &mut dyn EventSink) {
    engine
        .run(input, ParseRequest::events(sink))
        .0
        .expect("parses");
}

fn count_events(engine: &dyn Engine, input: &str) -> EventCounts {
    let mut c = EventCounts::default();
    events(engine, input, &mut c);
    c
}

/// The `tree` leg: arena build, `copy_out` into a detached owned tree.
fn tree(engine: &dyn Engine, input: &str) -> SyntaxTree {
    engine
        .run(input, ParseRequest::tree())
        .0
        .expect("parses")
        .into_tree()
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let knobs = Knobs::from_env(24_000, 3, 6);
    println!(
        "E13 — arena-backed values: events vs detached tree\n\
         ({} inputs x {} bytes per grammar, all engines at full optimization,\n\
         median of {} paired runs; event streams verified to rebuild the tree)\n",
        knobs.seeds, knobs.bytes, knobs.runs
    );

    let mut rows = Vec::new();
    for g in GrammarId::ALL {
        let grammar = g.elaborate().expect("grammar elaborates");
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("bytecode assembles");
        let inputs = knobs.inputs(|seed, bytes| g.workload(seed, bytes));
        let engines: [&dyn Engine; 3] = [&interp, &vm, g.codegen()];

        // Identical trees first; a leaner wrong parser is no parser.
        for engine in engines {
            for input in &inputs {
                let mut builder = TreeBuilder::new();
                events(engine, input, &mut builder);
                let rebuilt = builder.finish().expect("balanced event stream");
                assert_eq!(
                    SyntaxTree::new(input.as_str(), rebuilt).to_sexpr(),
                    tree(engine, input).to_sexpr(),
                    "{}/{}: event stream and copied-out tree diverged",
                    g.name(),
                    engine.name()
                );
            }
        }

        let events_leg = |engine: &dyn Engine| {
            for i in &inputs {
                std::hint::black_box(count_events(engine, i));
            }
        };
        let tree_leg = |engine: &dyn Engine| {
            for i in &inputs {
                std::hint::black_box(tree(engine, i));
            }
        };
        let [e0, e1, e2] = engines;
        let legs = paired(
            knobs.runs,
            1,
            &mut [
                &mut || events_leg(e0),
                &mut || tree_leg(e0),
                &mut || events_leg(e1),
                &mut || tree_leg(e1),
                &mut || events_leg(e2),
                &mut || tree_leg(e2),
            ],
        );
        for (engine, pair) in engines.iter().zip(legs.chunks(2)) {
            let (me, mt) = (pair[0].median, pair[1].median);
            rows.push(vec![
                g.name().to_owned(),
                engine.name().to_owned(),
                ms(me),
                ms(mt),
                pct(mt.as_secs_f64() / me.as_secs_f64().max(1e-9)),
            ]);
        }
    }
    modpeg_bench::print_table(
        &["grammar", "engine", "events ms", "tree ms", "copy-out toll"],
        &rows,
    );
    println!(
        "\n`copy-out toll` is the tree leg relative to the events leg: the cost of\n\
         detaching an owned tree from the region (positive = slower than events)."
    );

    // One grid for the JSON companion: a `section` column distinguishes
    // the throughput table from the two heap tables, with `-` where a
    // column does not apply to a section.
    let mut json_rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|mut r| {
            r.insert(0, "throughput".to_owned());
            r.extend(std::iter::repeat_n("-".to_owned(), 4));
            r
        })
        .collect();
    json_rows.extend(heap_section());
    modpeg_bench::emit_results_json(
        "fig_arena",
        &[
            ("experiment", "E13".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
        ],
        &[
            "section",
            "grammar",
            "engine",
            "events ms",
            "tree ms",
            "copy-out toll",
            "events peak KiB",
            "tree peak KiB",
            "session leg",
            "peak KiB/parse",
        ],
        &json_rows,
    );
}

/// Peak-heap regimes on the 128 KiB Java document. Returns the two heap
/// tables as rows of the unified JSON grid (see `main`).
fn heap_section() -> Vec<Vec<String>> {
    let mut json_rows = Vec::new();
    let java = GrammarId::Java.elaborate().expect("java elaborates");
    let doc = modpeg_workload::java_program(1, 128 * 1024);
    println!(
        "\npeak additional heap per parse, {} KiB java document",
        doc.len() / 1024
    );

    // One-shot: a cold parse pays the packrat memo for both legs, which
    // dominates the number; reported for honesty.
    let interp = CompiledGrammar::compile(&java, OptConfig::all()).expect("compiles");
    let vm = VmProgram::from_compiled(&interp).expect("bytecode assembles");
    println!("\none-shot (cold memo table; memo dominates both legs):");
    let mut rows = Vec::new();
    for engine in [&interp as &dyn Engine, &vm, GrammarId::Java.codegen()] {
        let (peak_events, _) = peak_during(|| std::hint::black_box(count_events(engine, &doc)));
        let (peak_tree, _) = peak_during(|| std::hint::black_box(tree(engine, &doc)));
        rows.push(vec![
            engine.name().to_owned(),
            (peak_events / 1024).to_string(),
            (peak_tree / 1024).to_string(),
        ]);
        let mut jr = vec![
            "one-shot heap".to_owned(),
            "java".to_owned(),
            engine.name().to_owned(),
        ];
        jr.extend(std::iter::repeat_n("-".to_owned(), 3));
        jr.push((peak_events / 1024).to_string());
        jr.push((peak_tree / 1024).to_string());
        jr.extend(std::iter::repeat_n("-".to_owned(), 2));
        json_rows.push(jr);
    }
    modpeg_bench::print_table(&["engine", "events peak KiB", "tree peak KiB"], &rows);

    // Steady-state: recycled sessions, measured from the trough — the
    // session is checked out (and its memo reset) before measurement
    // begins, so the number is what one more parse costs once every
    // capacity is warm. Median of 5 measured cycles.
    println!("\nsteady-state recycled sessions (marginal heap per parse, median of 5 cycles):");
    let mut rows = Vec::new();
    let mut headline = (1usize, 1usize);
    let compiled = Rc::new(CompiledGrammar::compile(&java, OptConfig::all()).expect("compiles"));
    for (label, events) in [("arena tree", false), ("arena events", true)] {
        let mut pool = SessionPool::new(Rc::clone(&compiled));
        let mut cycle = |measure: bool| -> usize {
            let mut s = pool.session(doc.clone());
            let (peak, _) = peak_during(|| {
                if events {
                    let mut c = EventCounts::default();
                    s.run(ParseRequest::events(&mut c)).0.expect("parses");
                    std::hint::black_box(c);
                } else {
                    std::hint::black_box(s.parse().expect("parses"));
                }
            });
            pool.recycle(s);
            if measure {
                peak
            } else {
                0
            }
        };
        for _ in 0..3 {
            cycle(false); // warm capacities to steady state
        }
        let peak = middle((0..5).map(|_| cycle(true)).collect(), usize::cmp);
        if events {
            headline.0 = peak;
        } else {
            headline.1 = peak;
        }
        rows.push(vec![label.to_owned(), (peak / 1024).to_string()]);
        let mut jr = vec!["steady-state heap".to_owned(), "java".to_owned()];
        jr.extend(std::iter::repeat_n("-".to_owned(), 6));
        jr.push(label.to_owned());
        jr.push((peak / 1024).to_string());
        json_rows.push(jr);
    }
    modpeg_bench::print_table(&["session leg", "peak KiB/parse"], &rows);
    println!(
        "\nheadline: zero-copy steady state (arena events) needs {:.1}x less heap\n\
         per parse than detaching the tree ({} KiB vs {} KiB).",
        headline.1 as f64 / (headline.0 as f64).max(1.0),
        headline.0 / 1024,
        headline.1 / 1024,
    );
    json_rows
}

/// The `scripts/arena-smoke.sh` leg: recycled sessions must not leak.
fn smoke() {
    let grammar = modpeg_grammars::calc_grammar().expect("calc elaborates");
    let parser =
        Rc::new(CompiledGrammar::compile(&grammar, OptConfig::incremental()).expect("compiles"));
    let doc = modpeg_workload::calc_expression(3, 8_000);
    let mut pool = SessionPool::new(parser);
    let mut baseline = 0usize;
    for round in 0..24 {
        let mut session = pool.session(doc.clone());
        session.parse().expect("workload parses");
        pool.recycle(session);
        assert_eq!(
            pool.pooled(),
            1,
            "the pool must hold exactly the recycled memo"
        );
        if round == 3 {
            // Vec capacities have reached their high-water mark by now;
            // from here on, recycling must keep live bytes flat.
            baseline = live_bytes();
        }
    }
    let after = live_bytes();
    assert!(
        after <= baseline + baseline / 8 + 64 * 1024,
        "recycled sessions leak: {baseline} live bytes after warmup, {after} after 20 more cycles"
    );
    println!(
        "arena-smoke: recycle-leak check OK ({} KiB live after 24 parse/recycle cycles)",
        after / 1024
    );
}
