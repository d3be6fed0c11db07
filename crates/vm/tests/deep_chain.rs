//! Regression: a long left-recursive chain must not overflow the stack
//! after the parse.
//!
//! Left recursion is folded iteratively, so parsing `1+1+…+1` needs no
//! deep recursion. But the fold builds a left-deep tree, one level per
//! operator, and every walk over it — copying the tree out of the parse
//! arena, streaming it as events, rendering it, dropping it — used to
//! recurse once per level and abort the process on a chain of a few tens
//! of thousands of operators. Each walk now keeps an explicit stack, so a
//! 2 MiB thread handles a 256 KiB chain on every engine.

use modpeg_grammars::generated::calc;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{Engine, EventCounts, Governor, ParseRequest};
use modpeg_vm::VmProgram;

/// Operators in the chain: `1` plus this many `+1` is just over 256 KiB.
const LEVELS: usize = 128 * 1024;

#[test]
fn left_deep_trees_are_walked_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(walk_every_engine)
        .expect("spawns the worker")
        .join()
        .expect("every engine parses, streams, renders and drops the chain");
}

fn walk_every_engine() {
    let text = format!("1{}", "+1".repeat(LEVELS));
    let g = modpeg_grammars::calc_grammar().expect("calc elaborates");
    let engines: Vec<(&str, Box<dyn Engine>)> = vec![
        (
            "interp",
            Box::new(CompiledGrammar::compile(&g, OptConfig::all()).unwrap()),
        ),
        (
            "interp without chunks",
            Box::new(
                CompiledGrammar::compile(&g, OptConfig::all_except("chunks").unwrap()).unwrap(),
            ),
        ),
        (
            "vm",
            Box::new(VmProgram::compile(&g, OptConfig::all()).unwrap()),
        ),
        ("generated", Box::new(calc::Generated)),
    ];
    let mut rendered: Option<String> = None;
    for (name, engine) in &engines {
        // Governed, so the parse itself runs under the depth ceiling.
        let gov = Governor::new();
        let tree = engine
            .run(&text, ParseRequest::tree().governed(&gov))
            .0
            .unwrap_or_else(|e| panic!("{name}: {e:?}"))
            .into_tree();
        let sexpr = tree.to_sexpr();
        assert_eq!(sexpr.matches("(Expr.Add ").count(), LEVELS, "{name}");
        match &rendered {
            Some(first) => assert_eq!(&sexpr, first, "{name} disagrees"),
            None => rendered = Some(sexpr),
        }
        drop(tree);

        let mut counts = EventCounts::default();
        engine
            .run(&text, ParseRequest::events(&mut counts))
            .0
            .unwrap_or_else(|e| panic!("{name} events: {e:?}"));
        assert!(counts.nodes > LEVELS as u64, "{name}: {counts:?}");
        assert!(counts.max_depth as usize > LEVELS, "{name}: {counts:?}");
    }
}
