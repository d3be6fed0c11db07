//! E14 — error-recovery machinery overhead and malformed-input throughput.
//!
//! The resilient entry points wrap every parse in the restart-based
//! recovery driver: a policy lookup, a closure indirection, and — on the
//! happy path — exactly one driver iteration that accepts the clean tree.
//! This experiment measures what that wrapper costs when the input is
//! *valid* (the acceptance bar is <2% median paired overhead on the
//! 128 KiB Java workload), and how throughput degrades as errors are
//! seeded into the document (1, 10, and 100 corrupted positions), where
//! each error pays a failing prefix parse, a sync-set scan, and a restart.
//!
//! Both parts time through `modpeg_bench::paired` (the crate docs
//! describe the runner). The overhead part makes plain and resilient the
//! two legs of one call per engine over 5 heap-perturbed campaigns; the
//! overhead is the median paired ratio, and the best-ratio column (min
//! resilient / min plain) cross-checks it. The malformed part makes the
//! two engines the legs of one call per error count.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 131072), `MODPEG_BENCH_SEEDS` (1),
//! `MODPEG_BENCH_RUNS` (24 per campaign).

use modpeg_bench::{kib_per_s, ms, paired, parse_all, pct, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{Engine, ParseRequest, RecoverPolicy};

/// Replaces the characters at `k` evenly spaced char positions with
/// `'\u{1}'` — a scalar no grammar in the suite accepts — seeding `k`
/// spread-out syntax errors (same scheme as the conformance suite's
/// seeded-error contract).
fn seed_errors(doc: &str, k: usize) -> String {
    let chars: Vec<char> = doc.chars().collect();
    if chars.is_empty() || k == 0 {
        return doc.to_owned();
    }
    let k = k.min(chars.len());
    let targets: Vec<usize> = (0..k).map(|i| i * chars.len() / k).collect();
    chars
        .iter()
        .enumerate()
        .map(|(i, &c)| if targets.contains(&i) { '\u{1}' } else { c })
        .collect()
}

const CAMPAIGNS: usize = 5;

/// Parses every input resiliently on `engine`; returns the number of
/// errors recovered. The budgets here are large enough that nothing is
/// truncated.
fn parse_resilient(engine: &dyn Engine, inputs: &[String], policy: &RecoverPolicy) -> usize {
    let mut errors = 0;
    for input in inputs {
        let (r, _) = engine.run(input, ParseRequest::resilient(policy));
        let diagnostics = std::hint::black_box(r.expect("resilient parses never fail")).diagnostics;
        assert!(!diagnostics.truncated, "error budget truncated a parse");
        errors += diagnostics.error_count();
    }
    errors
}

fn main() {
    let knobs = Knobs::from_env(131_072, 1, 24);
    let inputs = knobs.inputs(modpeg_workload::java_program);
    let total: usize = inputs.iter().map(String::len).sum();
    println!(
        "[recovery overhead] java x {} inputs, {} bytes total, {} campaigns x {} paired runs",
        inputs.len(),
        total,
        CAMPAIGNS,
        knobs.runs
    );

    let grammar = GrammarId::Java
        .elaborate()
        .expect("java grammar elaborates");
    let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
    let engines: [&dyn Engine; 2] = [&interp, GrammarId::Java.codegen()];

    // Part 1 — valid-input overhead: plain vs resilient parses of the same
    // clean workload. The resilient result must be clean, so any
    // difference is pure machinery.
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, engine) in ["interp (all opts)", "codegen"].into_iter().zip(engines) {
        let policy = engine.recover_policy();
        let legs = paired(
            knobs.runs,
            CAMPAIGNS,
            &mut [&mut || parse_all(engine, &inputs), &mut || {
                let errors = parse_resilient(engine, &inputs, &policy);
                assert_eq!(errors, 0, "valid workload must recover cleanly");
            }],
        );
        rows.push(vec![
            name.to_owned(),
            ms(legs[0].median),
            ms(legs[1].median),
            pct(legs[1].paired),
            pct(legs[1].min.as_secs_f64() / legs[0].min.as_secs_f64()),
        ]);
    }

    println!();
    modpeg_bench::print_table(
        &[
            "engine",
            "plain ms",
            "resilient ms",
            "overhead",
            "best-ratio",
        ],
        &rows,
    );
    // Unified grid for the JSON companion: a `section` column splits the
    // valid-input overhead table from the malformed-throughput table.
    let mut json_rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|mut r| {
            r.insert(0, "overhead".to_owned());
            r.extend(std::iter::repeat_n("-".to_owned(), 6));
            r
        })
        .collect();

    // Part 2 — malformed-input throughput: the same workload with 1, 10,
    // and 100 seeded errors, parsed resiliently under a budget large
    // enough that truncation never kicks in (the default budget of 20
    // would turn the 100-error row into one cheap skip-to-EOF). Reported
    // per engine: median wall time, throughput, and the diagnostic count
    // (a corruption can cascade into several restarts, so the recovered
    // count is what the driver actually reported, not the seed count).
    let deep = engines.map(|engine| engine.recover_policy().with_max_errors(100_000));
    let mut rows: Vec<Vec<String>> = Vec::new();
    for k in [1usize, 10, 100] {
        let corrupted: Vec<String> = inputs.iter().map(|doc| seed_errors(doc, k)).collect();
        let bytes: usize = corrupted.iter().map(String::len).sum();
        let errors = parse_resilient(engines[0], &corrupted, &deep[0]);
        let legs = paired(
            knobs.runs,
            1,
            &mut [
                &mut || {
                    parse_resilient(engines[0], &corrupted, &deep[0]);
                },
                &mut || {
                    parse_resilient(engines[1], &corrupted, &deep[1]);
                },
            ],
        );
        rows.push(vec![
            format!("{k}"),
            format!("{errors}"),
            ms(legs[0].median),
            kib_per_s(bytes, legs[0].median),
            ms(legs[1].median),
            kib_per_s(bytes, legs[1].median),
        ]);
    }

    println!();
    modpeg_bench::print_table(
        &[
            "seeded errors",
            "recovered",
            "interp ms",
            "interp KiB/s",
            "codegen ms",
            "codegen KiB/s",
        ],
        &rows,
    );
    json_rows.extend(rows.into_iter().map(|r| {
        let mut jr = vec!["malformed".to_owned()];
        jr.extend(std::iter::repeat_n("-".to_owned(), 5));
        jr.extend(r);
        jr
    }));
    modpeg_bench::emit_results_json(
        "fig_recovery",
        &[
            ("experiment", "E14".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
            ("campaigns", CAMPAIGNS.to_string()),
        ],
        &[
            "section",
            "engine",
            "plain ms",
            "resilient ms",
            "overhead",
            "best-ratio",
            "seeded errors",
            "recovered",
            "interp ms",
            "interp KiB/s",
            "codegen ms",
            "codegen KiB/s",
        ],
        &json_rows,
    );

    println!();
    println!("acceptance bar: <2% median paired overhead (resilient vs plain, valid input)");
}
