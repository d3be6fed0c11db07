//! E13 — arena-backed semantic values versus the legacy `Rc` tree
//! representation: throughput and peak heap per parse, on every grammar
//! and every engine.
//!
//! Methodology: **paired-interleaved rounds** (as in E2/E12). Each timed
//! round runs all three legs back-to-back per engine — `events` (arena,
//! zero-copy: the tree is streamed straight out of the region), `tree`
//! (arena build + `copy_out` into a detached owned tree), and `legacy`
//! (the old per-node `Rc` representation) — so allocator state and
//! frequency scaling bias every leg equally. Trees are verified
//! identical across the tree-producing legs first.
//!
//! Peak heap is tracked by a counting global allocator: before each
//! measured parse the high-water mark is rewound to the current live
//! bytes, so the reported number is the peak *additional* heap that one
//! parse touched. Two regimes are reported for the 128 KiB Java
//! document:
//!
//! * **one-shot** — a cold parse that must also build its packrat memo
//!   table. The memo dominates this number for every leg, so the
//!   representation barely moves it; it is reported for honesty, not as
//!   the headline.
//! * **steady-state** — recycled [`SessionPool`] sessions, measured from
//!   the trough (session checked out and reset *before* the measurement
//!   starts). This is the per-parse marginal cost once capacities are
//!   warm, where the representation is the whole story.
//!
//! `fig_arena --smoke` instead runs the recycle-leak check used by
//! `scripts/arena-smoke.sh`: parse/recycle through a [`SessionPool`]
//! until live bytes plateau, then assert further recycling does not grow
//! the heap (a leak would mean reset/recycle drops regions on the floor).
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3),
//! `MODPEG_BENCH_RUNS` (5).

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

use modpeg_bench::{ms, time_once, Knobs};
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{EventCounts, EventSink, ParseError, ParseRequest, SyntaxTree};
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

type GenParse = fn(&str) -> Result<SyntaxTree, ParseError>;
type GenEvents = fn(&str, &mut dyn EventSink) -> Result<(), ParseError>;

struct Family {
    name: &'static str,
    grammar: fn() -> Result<modpeg_core::Grammar, modpeg_core::Diagnostics>,
    workload: fn(u64, usize) -> String,
    generated: GenParse,
    generated_legacy: GenParse,
    generated_events: GenEvents,
}

const FAMILIES: &[Family] = &[
    Family {
        name: "calc",
        grammar: modpeg_grammars::calc_grammar,
        workload: modpeg_workload::calc_expression,
        generated: modpeg_grammars::generated::calc::parse,
        generated_legacy: modpeg_grammars::generated::calc::parse_legacy,
        generated_events: modpeg_grammars::generated::calc::parse_events,
    },
    Family {
        name: "json",
        grammar: modpeg_grammars::json_grammar,
        workload: modpeg_workload::json_document,
        generated: modpeg_grammars::generated::json::parse,
        generated_legacy: modpeg_grammars::generated::json::parse_legacy,
        generated_events: modpeg_grammars::generated::json::parse_events,
    },
    Family {
        name: "java",
        grammar: modpeg_grammars::java_grammar,
        workload: modpeg_workload::java_program,
        generated: modpeg_grammars::generated::java::parse,
        generated_legacy: modpeg_grammars::generated::java::parse_legacy,
        generated_events: modpeg_grammars::generated::java::parse_events,
    },
    Family {
        name: "c",
        grammar: modpeg_grammars::c_grammar,
        workload: modpeg_workload::c_program,
        generated: modpeg_grammars::generated::c::parse,
        generated_legacy: modpeg_grammars::generated::c::parse_legacy,
        generated_events: modpeg_grammars::generated::c::parse_events,
    },
];

/// The three legs of one engine.
struct Engine<'a> {
    name: &'static str,
    /// Arena build, events streamed from the region, no tree.
    events: Box<dyn Fn(&str) -> EventCounts + 'a>,
    /// Arena build, `copy_out` into a detached owned tree.
    tree: Box<dyn Fn(&str) -> SyntaxTree + 'a>,
    /// The old per-node `Rc` representation.
    legacy: Box<dyn Fn(&str) -> SyntaxTree + 'a>,
}

fn engines<'a>(
    family: &Family,
    interp: &'a CompiledGrammar,
    interp_legacy: &'a CompiledGrammar,
    vm: &'a VmProgram,
    vm_legacy: &'a VmProgram,
) -> Vec<Engine<'a>> {
    let generated = family.generated;
    let generated_legacy = family.generated_legacy;
    let generated_events = family.generated_events;
    vec![
        Engine {
            name: "interp",
            events: Box::new(move |i| {
                let mut c = EventCounts::default();
                interp.parse_events(i, &mut c).expect("parses");
                c
            }),
            tree: Box::new(move |i| interp.parse(i).expect("parses")),
            legacy: Box::new(move |i| interp_legacy.parse(i).expect("parses")),
        },
        Engine {
            name: "vm",
            events: Box::new(move |i| {
                let mut c = EventCounts::default();
                vm.parse_events(i, &mut c).expect("parses");
                c
            }),
            tree: Box::new(move |i| vm.parse(i).expect("parses")),
            legacy: Box::new(move |i| vm_legacy.parse(i).expect("parses")),
        },
        Engine {
            name: "codegen",
            events: Box::new(move |i| {
                let mut c = EventCounts::default();
                generated_events(i, &mut c).expect("parses");
                c
            }),
            tree: Box::new(move |i| generated(i).expect("parses")),
            legacy: Box::new(move |i| generated_legacy(i).expect("parses")),
        },
    ]
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

fn delta(leg: Duration, base: Duration) -> String {
    format!(
        "{:+.1}%",
        (leg.as_secs_f64() / base.as_secs_f64().max(1e-9) - 1.0) * 100.0
    )
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let knobs = Knobs::from_env(24_000, 3, 5);
    println!(
        "E13 — arena-backed values vs legacy representation\n\
         ({} inputs x {} bytes per grammar, all engines at full optimization,\n\
         median of {} paired-interleaved rounds; trees verified identical)\n",
        knobs.seeds, knobs.bytes, knobs.runs
    );

    let mut rows = Vec::new();
    for family in FAMILIES {
        let grammar = (family.grammar)().expect("grammar elaborates");
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let mut interp_legacy = interp.clone();
        interp_legacy.set_arena_enabled(false);
        let vm = VmProgram::from_compiled(&interp).expect("bytecode assembles");
        let mut vm_legacy = VmProgram::from_compiled(&interp).expect("bytecode assembles");
        vm_legacy.set_arena_enabled(false);
        let inputs: Vec<String> = (0..knobs.seeds)
            .map(|s| (family.workload)(s, knobs.bytes))
            .collect();

        for engine in engines(family, &interp, &interp_legacy, &vm, &vm_legacy) {
            // Identical trees first; a leaner wrong parser is no parser.
            for input in &inputs {
                assert_eq!(
                    (engine.tree)(input).to_sexpr(),
                    (engine.legacy)(input).to_sexpr(),
                    "{}/{}: arena and legacy trees diverged",
                    family.name,
                    engine.name
                );
                assert!(
                    (engine.events)(input).nodes > 0,
                    "{}/{}: event stream saw no nodes",
                    family.name,
                    engine.name
                );
            }

            // Paired-interleaved timing: warmup round, then `runs` rounds
            // of events → tree → legacy over the whole input set.
            let mut t_events = Vec::with_capacity(knobs.runs);
            let mut t_tree = Vec::with_capacity(knobs.runs);
            let mut t_legacy = Vec::with_capacity(knobs.runs);
            for round in 0..=knobs.runs {
                let (de, _) = time_once(|| {
                    for i in &inputs {
                        std::hint::black_box((engine.events)(i));
                    }
                });
                let (dt, _) = time_once(|| {
                    for i in &inputs {
                        std::hint::black_box((engine.tree)(i));
                    }
                });
                let (dl, _) = time_once(|| {
                    for i in &inputs {
                        std::hint::black_box((engine.legacy)(i));
                    }
                });
                if round > 0 {
                    t_events.push(de);
                    t_tree.push(dt);
                    t_legacy.push(dl);
                }
            }
            let (me, mt, ml) = (median(t_events), median(t_tree), median(t_legacy));
            rows.push(vec![
                family.name.to_owned(),
                engine.name.to_owned(),
                ms(me),
                ms(mt),
                ms(ml),
                delta(me, ml),
                delta(mt, ml),
            ]);
        }
    }
    modpeg_bench::print_table(
        &[
            "grammar",
            "engine",
            "events ms",
            "tree ms",
            "legacy ms",
            "events delta",
            "tree delta",
        ],
        &rows,
    );
    println!(
        "\ndeltas are relative to the legacy leg (negative = faster than legacy);\n\
         `tree delta` is the copy_out toll paid to detach an owned tree."
    );

    // One grid for the JSON companion: a `section` column distinguishes
    // the throughput table from the two heap tables, with `-` where a
    // column does not apply to a section.
    let mut json_rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|mut r| {
            r.insert(0, "throughput".to_owned());
            r.extend(std::iter::repeat_n("-".to_owned(), 5));
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
            "legacy ms",
            "events delta",
            "tree delta",
            "events peak KiB",
            "tree peak KiB",
            "legacy peak KiB",
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
    let java = modpeg_grammars::java_grammar().expect("java elaborates");
    let doc = modpeg_workload::java_program(1, 128 * 1024);
    println!("\npeak additional heap per parse, {} KiB java document", doc.len() / 1024);

    // One-shot: a cold parse pays the packrat memo for every leg, which
    // dominates the number; reported for honesty.
    let interp = CompiledGrammar::compile(&java, OptConfig::all()).expect("compiles");
    let mut interp_legacy = interp.clone();
    interp_legacy.set_arena_enabled(false);
    let vm = VmProgram::from_compiled(&interp).expect("bytecode assembles");
    let mut vm_legacy = VmProgram::from_compiled(&interp).expect("bytecode assembles");
    vm_legacy.set_arena_enabled(false);
    println!("\none-shot (cold memo table; memo dominates every leg):");
    let mut rows = Vec::new();
    for engine in engines(&FAMILIES[2], &interp, &interp_legacy, &vm, &vm_legacy) {
        let (peak_events, _) = peak_during(|| std::hint::black_box((engine.events)(&doc)));
        let (peak_tree, _) = peak_during(|| std::hint::black_box((engine.tree)(&doc)));
        let (peak_legacy, _) = peak_during(|| std::hint::black_box((engine.legacy)(&doc)));
        rows.push(vec![
            engine.name.to_owned(),
            (peak_events / 1024).to_string(),
            (peak_tree / 1024).to_string(),
            (peak_legacy / 1024).to_string(),
        ]);
        let mut jr = vec!["one-shot heap".to_owned(), "java".to_owned(), engine.name.to_owned()];
        jr.extend(std::iter::repeat_n("-".to_owned(), 5));
        jr.push((peak_events / 1024).to_string());
        jr.push((peak_tree / 1024).to_string());
        jr.push((peak_legacy / 1024).to_string());
        jr.extend(std::iter::repeat_n("-".to_owned(), 2));
        json_rows.push(jr);
    }
    modpeg_bench::print_table(
        &["engine", "events peak KiB", "tree peak KiB", "legacy peak KiB"],
        &rows,
    );

    // Steady-state: recycled sessions, measured from the trough — the
    // session is checked out (and its memo reset) before measurement
    // begins, so the number is what one more parse costs once every
    // capacity is warm. Median of 5 measured cycles.
    println!("\nsteady-state recycled sessions (marginal heap per parse, median of 5 cycles):");
    let mut rows = Vec::new();
    let mut headline = (1usize, 1usize);
    for (label, arena_on, events) in [
        ("legacy tree", false, false),
        ("legacy events", false, true),
        ("arena tree", true, false),
        ("arena events", true, true),
    ] {
        let mut compiled = CompiledGrammar::compile(&java, OptConfig::all()).expect("compiles");
        compiled.set_arena_enabled(arena_on);
        let mut pool = SessionPool::new(Rc::new(compiled));
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
        let mut peaks: Vec<usize> = (0..5).map(|_| cycle(true)).collect();
        peaks.sort_unstable();
        let peak = peaks[peaks.len() / 2];
        if label == "legacy tree" {
            headline.1 = peak;
        }
        if label == "arena events" {
            headline.0 = peak;
        }
        rows.push(vec![label.to_owned(), (peak / 1024).to_string()]);
        let mut jr = vec!["steady-state heap".to_owned(), "java".to_owned()];
        jr.extend(std::iter::repeat_n("-".to_owned(), 9));
        jr.push(label.to_owned());
        jr.push((peak / 1024).to_string());
        json_rows.push(jr);
    }
    modpeg_bench::print_table(&["session leg", "peak KiB/parse"], &rows);
    println!(
        "\nheadline: zero-copy steady state (arena events) needs {:.1}x less heap\n\
         per parse than the legacy representation ({} KiB vs {} KiB).",
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
        assert_eq!(pool.pooled(), 1, "the pool must hold exactly the recycled memo");
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
