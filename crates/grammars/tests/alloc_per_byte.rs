//! Heap allocations per input byte of a warmed generated-parser run.
//!
//! A counting global allocator wraps the system one; each generated parser
//! parses its 64 KiB seed-1 workload once to warm up, then the second
//! `parse` (detached tree) and `parse_events` (events from the region)
//! calls are counted. Allocation counts are deterministic, so the bounds
//! are exact gates, not timing heuristics. This binary holds a single
//! test, so no other test thread allocates while a count is taken; the
//! test waits on one worker thread whose stack is deep enough for the
//! recursive descent of an unoptimized build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use modpeg_grammars::generated::{c, calc, java, json};
use modpeg_runtime::{EventCounts, EventSink, ParseError, SyntaxTree};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BYTES: usize = 64 << 10;

/// Allocations per byte of `text` made by the second of two calls of `f`.
fn warmed_rate(text: &str, mut f: impl FnMut(&str)) -> f64 {
    f(text);
    let before = ALLOCATIONS.load(Relaxed);
    f(text);
    (ALLOCATIONS.load(Relaxed) - before) as f64 / text.len() as f64
}

type TreeFn = fn(&str) -> Result<SyntaxTree, ParseError>;
type EventsFn = fn(&str, &mut dyn EventSink) -> Result<(), ParseError>;

#[test]
fn warmed_generated_parsers_stay_under_their_allocation_bounds() {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(check_bounds)
        .expect("spawns the worker")
        .join()
        .expect("every rate is within its bound");
}

fn check_bounds() {
    // (grammar, input, tree parse, event parse, tree bound, events bound)
    let cases: [(&str, String, TreeFn, EventsFn, f64, f64); 4] = [
        (
            "calc",
            modpeg_workload::calc_expression(1, BYTES),
            calc::parse,
            calc::parse_events,
            1.90,
            1.50,
        ),
        (
            "java",
            modpeg_workload::java_program(1, BYTES),
            java::parse,
            java::parse_events,
            1.60,
            1.30,
        ),
        (
            "c",
            modpeg_workload::c_program(1, BYTES),
            c::parse,
            c::parse_events,
            1.65,
            1.25,
        ),
        (
            "json",
            modpeg_workload::json_document(1, BYTES),
            json::parse,
            json::parse_events,
            1.05,
            0.85,
        ),
    ];
    let mut over = Vec::new();
    for (name, text, tree, events, tree_bound, events_bound) in cases {
        let tree_rate = warmed_rate(&text, |t| {
            tree(t).expect("the workload parses");
        });
        let events_rate = warmed_rate(&text, |t| {
            let mut counts = EventCounts::default();
            events(t, &mut counts).expect("the workload parses");
        });
        println!(
            "{name:>4}: {tree_rate:.2} allocations/byte (tree, bound {tree_bound}), \
             {events_rate:.2} (events, bound {events_bound}) over {} bytes",
            text.len()
        );
        if tree_rate > tree_bound {
            over.push(format!("{name} tree {tree_rate:.2} > {tree_bound}"));
        }
        if events_rate > events_bound {
            over.push(format!("{name} events {events_rate:.2} > {events_bound}"));
        }
    }
    assert!(over.is_empty(), "over the allocation bound: {over:?}");
}
