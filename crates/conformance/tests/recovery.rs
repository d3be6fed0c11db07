//! The resilient-parsing acceptance suite.
//!
//! Three layers, per grammar:
//!
//! 1. a 100-seed mutated-input fuzz campaign whose oracle includes the
//!    recovery leg — every input (valid, mutated, and the edge corpus)
//!    is parsed resiliently on every engine, and the partial trees,
//!    diagnostics, event streams, `--max-errors` truncation, and
//!    governed-abort behavior must all agree (`Oracle::check_recovery`);
//! 2. the seeded-error contract: corrupt a valid workload document at
//!    `k` spread-out positions and demand at least one `$error` node per
//!    corruption that individually breaks the parse, up to the policy's
//!    error budget;
//! 3. hand-picked hostile inputs (the boundary cases mutation rarely
//!    hits deterministically) run through the full recovery oracle.
//!
//! Everything is seeded; a pass here is a pass forever.

use modpeg_conformance::{
    assert_recovery_agrees, assert_recovery_covers_seeded_errors, fuzz_grammar, FuzzConfig,
    GrammarId,
};

/// One 100-seed mutated-input campaign with the recovery oracle leg
/// active on every input (edit replay is covered by the smoke campaign;
/// disabling it here keeps the run focused on recovery).
fn hundred_seed_recovery_fuzz(id: GrammarId) {
    let cfg = FuzzConfig {
        seeds: 100,
        mutants_per_seed: 1,
        edit_script_stride: 0,
        ..FuzzConfig::default()
    };
    let report = fuzz_grammar(id, &cfg).expect("engines compile");
    assert!(
        report.clean(),
        "recovery fuzz divergences on {}:\n{:#?}",
        id.name(),
        report.divergences
    );
    assert_eq!(
        report.recovery_checks, report.inputs_tested,
        "every input must get a recovery check"
    );
}

#[test]
fn recovery_fuzz_100_seeds_calc() {
    hundred_seed_recovery_fuzz(GrammarId::Calc);
}

#[test]
fn recovery_fuzz_100_seeds_json() {
    hundred_seed_recovery_fuzz(GrammarId::Json);
}

#[test]
fn recovery_fuzz_100_seeds_java() {
    hundred_seed_recovery_fuzz(GrammarId::Java);
}

#[test]
fn recovery_fuzz_100_seeds_c() {
    hundred_seed_recovery_fuzz(GrammarId::C);
}

/// The seeded-error half of the acceptance criterion: ≥1 recovered
/// `$error` node per seeded error up to the `--max-errors` budget.
fn seeded_error_coverage(id: GrammarId) {
    for seed in 0..4 {
        for errors in [1, 3, 10] {
            assert_recovery_covers_seeded_errors(id.name(), seed, errors);
        }
    }
}

#[test]
fn seeded_errors_recovered_calc() {
    seeded_error_coverage(GrammarId::Calc);
}

#[test]
fn seeded_errors_recovered_json() {
    seeded_error_coverage(GrammarId::Json);
}

#[test]
fn seeded_errors_recovered_java() {
    seeded_error_coverage(GrammarId::Java);
}

#[test]
fn seeded_errors_recovered_c() {
    seeded_error_coverage(GrammarId::C);
}

/// Boundary inputs the mutator rarely produces: empty and
/// whitespace-only documents, garbage-only documents, garbage at the
/// very start/end, multibyte scalars inside skipped regions, and
/// unterminated nesting.
#[test]
fn recovery_agrees_on_hostile_boundary_inputs() {
    let per_grammar: &[(&str, &[&str])] = &[
        (
            "calc",
            &[
                "",
                "@",
                "@@@@",
                "1+@",
                "@+1",
                "(1+2",
                "1+(2*α)+β",
                "α",
                "1+2)",
            ],
        ),
        (
            "json",
            &[
                "",
                "{",
                "}",
                "[1,]",
                "{\"a\":}",
                "[1 2]",
                "{\"α\":∞}",
                "[[[",
                "nul",
            ],
        ),
        (
            "java",
            &[
                "",
                "class",
                "class A { void f() { } ",
                "class A { int x = ; }",
                "∂∂∂",
            ],
        ),
        (
            "c",
            &["", "int", "int f( { }", "typedef int t; t x = ;", "→"],
        ),
    ];
    for (grammar, inputs) in per_grammar {
        for input in *inputs {
            assert_recovery_agrees(grammar, input);
        }
    }
}
