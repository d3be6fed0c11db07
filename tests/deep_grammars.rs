//! Regression: the front end must survive deep production graphs.
//!
//! A chain `P0 = <A0> P1 ; P1 = <A1> P2 ; …` of 100,000 productions,
//! declared caller first, is as deep as a production graph gets: every
//! reference is a head reference, and each fact an analysis derives has
//! to travel the whole chain. A walk of that graph that recurses once per
//! production overflows a 2 MiB thread, and a fixpoint that sweeps the
//! productions in declaration order needs one sweep per production. The
//! chain must elaborate (which runs the well-formedness checks), lint and
//! compile on a 2 MiB thread.

use modpeg::interp::{CompiledGrammar, OptConfig};

const PRODUCTIONS: usize = 100_000;

fn chain_source(n: usize) -> String {
    let mut text = String::from("module chain;\n");
    for i in 0..n - 1 {
        text.push_str(&format!("public Node P{i} = <A{i}> P{} ;\n", i + 1));
    }
    text.push_str(&format!("public Node P{} = <A{}> \"x\" ;\n", n - 1, n - 1));
    text
}

#[test]
fn caller_first_chain_elaborates_lints_and_compiles_on_a_small_stack() {
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let source = chain_source(PRODUCTIONS);
            let grammar = modpeg::syntax::parse_module_set([source.as_str()])
                .and_then(|set| set.elaborate("chain", Some("P0")))
                .expect("the chain elaborates");
            assert_eq!(grammar.len(), PRODUCTIONS);
            assert!(modpeg::core::analysis::lint(&grammar).is_empty());
            let compiled =
                CompiledGrammar::compile(&grammar, OptConfig::all()).expect("the chain compiles");
            assert_eq!(compiled.production_count(), PRODUCTIONS);
        })
        .expect("spawn the worker thread");
    worker.join().expect("the worker thread finishes");
}
