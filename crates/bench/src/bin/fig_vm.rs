//! E12 — the bytecode machine (`modpeg-vm`) against the tree-walking
//! interpreter and the generated parser, at the same optimization level
//! (`OptConfig::all()`) on the same inputs.
//!
//! The three engines are the legs of one `modpeg_bench::paired` call per
//! grammar (the crate docs describe the runner). Before timing, every
//! engine's tree is checked byte-identical on every input.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3),
//! `MODPEG_BENCH_RUNS` (6).

use modpeg_bench::{assert_same_trees, kib_per_s, ms, paired_trees, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::Engine;
use modpeg_vm::VmProgram;

fn main() {
    let knobs = Knobs::from_env(24_000, 3, 6);
    println!(
        "E12 — bytecode machine vs interpreter vs generated parser\n\
         ({} inputs x {} bytes per grammar, all engines at full optimization,\n\
         median of {} paired runs; trees verified identical)\n",
        knobs.seeds, knobs.bytes, knobs.runs
    );

    let mut rows = Vec::new();
    for g in GrammarId::ALL {
        let grammar = g.elaborate().expect("grammar elaborates");
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("bytecode assembles");
        let inputs = knobs.inputs(|seed, bytes| g.workload(seed, bytes));
        let total_bytes: usize = inputs.iter().map(String::len).sum();
        let engines: [&dyn Engine; 3] = [&interp, &vm, g.codegen()];

        assert_same_trees(g.name(), &engines, &inputs);
        let legs = paired_trees(knobs.runs, &engines, &inputs);
        let [mi, mv, mg] = [0, 1, 2].map(|i| legs[i].median);
        rows.push(vec![
            g.name().to_owned(),
            ms(mi),
            ms(mv),
            ms(mg),
            kib_per_s(total_bytes, mv),
            format!("{:.2}x", mi.as_secs_f64() / mv.as_secs_f64().max(1e-9)),
            format!("{:.2}x", mv.as_secs_f64() / mg.as_secs_f64().max(1e-9)),
        ]);
    }

    let headers = [
        "grammar",
        "interp ms",
        "vm ms",
        "codegen ms",
        "vm KiB/s",
        "vm vs interp",
        "codegen vs vm",
    ];
    modpeg_bench::print_table(&headers, &rows);
    println!(
        "\n`vm vs interp` > 1 means the bytecode machine beats the tree-walking\n\
         interpreter at the same optimization level; `codegen vs vm` > 1 means\n\
         the generated parser is still faster than the machine."
    );
    modpeg_bench::emit_results_json(
        "fig_vm",
        &[
            ("experiment", "E12".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
        ],
        &headers,
        &rows,
    );
}
