//! E16 — bulk (SWAR/SIMD) character-class scanning against the forced
//! scalar reference path, on every engine at full optimization.
//!
//! Inputs are the **lexical-heavy** workload variants
//! (`modpeg_workload::*_lexical`): valid programs for the same four
//! grammars whose bytes are dominated by long terminal runs — wide
//! whitespace gaps, long identifiers and numerals, long line comments —
//! the shapes real corpora (minified payloads, generated code, vendored
//! headers) share and where class loops dominate parse time. The
//! token-dense standard workloads spend most of their time in choice
//! dispatch, not class runs, and sit near 1.0x on every engine.
//!
//! The six (engine, scan mode) cells of a grammar are the legs of one
//! `modpeg_bench::paired` call (the crate docs describe the runner).
//! Before timing, every cell's tree is checked byte-identical on every
//! input — a speedup from a scanner that consumes a different run length
//! would be meaningless.
//!
//! Scan modes are switched with the runtime's thread-local override
//! (`scan::force_scalar`, set at the start of every parse of a cell), the
//! same switch `scripts/simd-smoke.sh` and
//! the conformance scan-parity legs use.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3),
//! `MODPEG_BENCH_RUNS` (6).

use modpeg_bench::{assert_same_trees, kib_per_s, ms, paired_trees, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{scan, Engine, Outcome, ParseRequest, RecoverPolicy};
use modpeg_vm::VmProgram;

/// The lexical-heavy workload of `g`.
fn lexical(g: GrammarId, seed: u64, bytes: usize) -> String {
    match g {
        GrammarId::Calc => modpeg_workload::calc_lexical(seed, bytes),
        GrammarId::Json => modpeg_workload::json_lexical(seed, bytes),
        GrammarId::Java => modpeg_workload::java_lexical(seed, bytes),
        GrammarId::C => modpeg_workload::c_lexical(seed, bytes),
    }
}

/// An engine whose every parse runs in one scan mode.
struct Cell<'a> {
    engine: &'a dyn Engine,
    scalar: bool,
}

impl Engine for Cell<'_> {
    fn run(&self, text: &str, req: ParseRequest<'_>) -> Outcome {
        scan::force_scalar(self.scalar);
        self.engine.run(text, req)
    }

    fn recover_policy(&self) -> RecoverPolicy {
        self.engine.recover_policy()
    }

    fn name(&self) -> &'static str {
        self.engine.name()
    }
}

fn main() {
    let knobs = Knobs::from_env(24_000, 3, 6);
    println!(
        "E16 — bulk class scanning (SWAR/SIMD) vs the scalar reference path\n\
         ({} lexical-heavy inputs x {} bytes per grammar, all engines at full\n\
         optimization, median of {} paired runs; trees verified\n\
         identical between scan modes on every engine)\n",
        knobs.seeds, knobs.bytes, knobs.runs
    );

    let mut rows = Vec::new();
    for g in GrammarId::ALL {
        let grammar = g.elaborate().expect("grammar elaborates");
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("bytecode assembles");
        let inputs = knobs.inputs(|seed, bytes| lexical(g, seed, bytes));
        let total_bytes: usize = inputs.iter().map(String::len).sum();

        // Scalar then vectorized, per engine; scalar interp is the reference.
        let cells: Vec<Cell<'_>> = [&interp as &dyn Engine, &vm, g.codegen()]
            .into_iter()
            .flat_map(|engine| [true, false].map(|scalar| Cell { engine, scalar }))
            .collect();
        let cells: Vec<&dyn Engine> = cells.iter().map(|c| c as &dyn Engine).collect();
        assert_same_trees(g.name(), &cells, &inputs);
        let legs = paired_trees(knobs.runs, &cells, &inputs);
        scan::reset_forced();

        for (cell, pair) in cells.iter().step_by(2).zip(legs.chunks(2)) {
            let (s, v) = (pair[0].median, pair[1].median);
            rows.push(vec![
                g.name().to_owned(),
                cell.name().to_owned(),
                ms(s),
                ms(v),
                kib_per_s(total_bytes, v),
                format!("{:.2}x", s.as_secs_f64() / v.as_secs_f64().max(1e-9)),
            ]);
        }
    }

    let headers = [
        "grammar",
        "engine",
        "scalar ms",
        "vectorized ms",
        "vectorized KiB/s",
        "speedup",
    ];
    modpeg_bench::print_table(&headers, &rows);
    println!(
        "\n`speedup` > 1 means the bulk scanner beats the per-char scalar loop\n\
         on that engine; both paths produce identical trees, comparison\n\
         counts, and failure positions (asserted above and by the\n\
         conformance scan-parity legs)."
    );
    modpeg_bench::emit_results_json(
        "fig_simd",
        &[
            ("experiment", "E16".into()),
            ("workload", "lexical-heavy".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
        ],
        &headers,
        &rows,
    );
}
