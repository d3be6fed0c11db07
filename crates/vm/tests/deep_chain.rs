//! Regression: a long left-recursive chain must not overflow the stack
//! after the parse.
//!
//! Left recursion is folded iteratively, so parsing `1+1+…+1` needs no
//! deep recursion. But the fold builds a left-deep tree, one level per
//! operator, and every walk over it — copying the tree out of the parse
//! arena, streaming it as events, rendering it, counting, searching and
//! locating its nodes, counting its error regions, dropping it — used to
//! recurse once per level and abort the process on a chain of a few tens
//! of thousands of operators. Each walk now keeps an explicit stack, so a
//! 2 MiB thread handles a 256 KiB chain on every engine.

use modpeg_grammars::generated::calc;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{recover, Engine, EventCounts, Governor, ParseRequest};
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
        .expect("every engine parses, streams, walks, renders and drops the chain");
}

fn walk_every_engine() {
    let text = format!("1{}", "+1".repeat(LEVELS));
    // One corrupt operand near the front: recovery skips it and keeps the
    // rest of the chain as one deep fragment.
    let corrupt = format!("1+?{}", &text[3..]);
    let g = modpeg_grammars::calc_grammar().expect("calc elaborates");
    let mut spanned = OptConfig::all();
    spanned.set("location-elision", false);
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
            "interp with spans",
            Box::new(CompiledGrammar::compile(&g, spanned).unwrap()),
        ),
        (
            "vm",
            Box::new(VmProgram::compile(&g, OptConfig::all()).unwrap()),
        ),
        (
            "vm with spans",
            Box::new(VmProgram::compile(&g, spanned).unwrap()),
        ),
        ("generated", Box::new(calc::Generated)),
    ];
    let mut rendered: Option<String> = None;
    for (name, engine) in &engines {
        let mut counts = EventCounts::default();
        engine
            .run(&text, ParseRequest::events(&mut counts))
            .0
            .unwrap_or_else(|e| panic!("{name} events: {e:?}"));
        assert!(counts.nodes > LEVELS as u64, "{name}: {counts:?}");
        assert!(counts.max_depth as usize > LEVELS, "{name}: {counts:?}");

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
        assert_eq!(tree.root().node_count() as u64, counts.nodes, "{name}");
        assert_eq!(tree.root().find_kind("Expr.Add").len(), LEVELS, "{name}");
        assert_eq!(tree.nodes().len() as u64, counts.nodes, "{name}");
        if name.ends_with("with spans") {
            // Offset 0 lies in every level; the innermost `Add` covers it.
            let at = tree
                .node_at(0)
                .unwrap_or_else(|| panic!("{name}: no node at 0"));
            assert_eq!(at.kind().as_str(), "Expr.Add", "{name}");
            assert!(tree.path_to(0).len() > LEVELS, "{name}");
        }
        drop(tree);

        let policy = engine.recover_policy();
        let recovered = engine
            .run(&corrupt, ParseRequest::resilient(&policy))
            .0
            .unwrap_or_else(|e| panic!("{name} resilient: {e:?}"));
        let root = recovered.tree.as_ref().expect("a recovered tree").root();
        let errors = recover::count_error_nodes(root);
        assert!(errors >= 1, "{name}: {errors} error nodes");
        assert!(root.node_count() > LEVELS / 2, "{name}");
        let mut streamed = EventCounts::default();
        engine
            .run(
                &corrupt,
                ParseRequest::resilient_events(&policy, &mut streamed),
            )
            .0
            .unwrap_or_else(|e| panic!("{name} resilient events: {e:?}"));
        assert_eq!(streamed.errors, errors as u64, "{name}");
        assert_eq!(
            (streamed.nodes + streamed.errors) as usize,
            root.node_count(),
            "{name}"
        );
    }
}
