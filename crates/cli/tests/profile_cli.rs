//! End-to-end contract of the `modpeg profile` loop: record a workload
//! profile, merge and diff recordings, derive a tuning plan, and parse
//! under it — each flag combination with its documented exit code
//! (0 ok, 1 check failed, 2 usage, 3 I/O).

use std::path::PathBuf;
use std::process::{Command, Output};

fn grammar(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../grammars/grammars/{name}.mpeg"))
        .to_string_lossy()
        .into_owned()
}

/// Writes `contents` to a per-test temp file and returns its path.
fn temp_file(name: &str, contents: &str) -> String {
    let path = std::env::temp_dir().join(format!("modpeg-prof-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path.to_string_lossy().into_owned()
}

/// A per-test temp path that does not exist yet (for `--record`/`--out`).
fn temp_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("modpeg-prof-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_modpeg"))
        .args(args)
        .output()
        .expect("spawn modpeg")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("process terminated by signal")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The deterministic section of an .mprof: everything except the
/// single-line timing summary (the format's layout contract).
fn strip_timing(mprof: &str) -> String {
    mprof
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"timing\""))
        .collect::<Vec<_>>()
        .join("\n")
}

const CALC_DOC: &str = "1 + 2 * (3 - 4) / 5 + 600 * 70";

#[test]
fn record_writes_a_parseable_deterministic_profile() {
    let input = temp_file("rec.calc", CALC_DOC);
    let (p1, p2) = (temp_path("rec1.mprof"), temp_path("rec2.mprof"));
    let g = grammar("calc");
    for p in [&p1, &p2] {
        let out = run(&["profile", &g, "--input", &input, "--record", p]);
        assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    }
    let a = std::fs::read_to_string(&p1).expect("profile written");
    let b = std::fs::read_to_string(&p2).expect("profile written");
    assert!(a.contains("\"mprof_version\""), "{a}");
    assert!(a.contains("\"engine\": \"interp\""), "{a}");
    assert!(a.contains("calc."), "per-production rows present: {a}");
    // Byte-identical modulo the timing line: the determinism contract.
    assert_eq!(strip_timing(&a), strip_timing(&b));
}

#[test]
fn record_with_vm_engine_works_and_counters_match_interp() {
    let input = temp_file("rec-vm.calc", CALC_DOC);
    let (pi, pv) = (temp_path("rec-i.mprof"), temp_path("rec-v.mprof"));
    let g = grammar("calc");
    let out = run(&["profile", &g, "--input", &input, "--record", &pi]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let out = run(&[
        "profile", &g, "--input", &input, "--record", &pv, "--engine", "vm",
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let interp = std::fs::read_to_string(&pi).unwrap();
    let vm = std::fs::read_to_string(&pv).unwrap();
    assert!(vm.contains("\"engine\": \"vm\""), "{vm}");
    // Same per-production deterministic counters from either engine —
    // only the engine label (and timing) may differ.
    let strip_engine = |s: &str| {
        strip_timing(s)
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"engine\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip_engine(&interp), strip_engine(&vm));
}

#[test]
fn record_then_optimize_then_parse_with_plan() {
    let input = temp_file("loop.calc", CALC_DOC);
    let prof = temp_path("loop.mprof");
    let plan = temp_path("loop.plan.json");
    let g = grammar("calc");
    let out = run(&["profile", &g, "--input", &input, "--record", &prof]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let out = run(&["profile", &g, "--optimize", &prof, "--out", &plan]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let plan_text = std::fs::read_to_string(&plan).unwrap();
    assert!(plan_text.contains("\"plan_version\""), "{plan_text}");

    // The tuned parse must produce the identical tree, on every engine.
    let untuned = run(&["parse", &g, "--input", &input]);
    assert_eq!(exit_code(&untuned), 0, "stderr: {}", stderr(&untuned));
    for engine in [&["--engine", "interp"][..], &["--engine", "vm"][..]] {
        let mut argv = vec!["parse", &g, "--input", &input, "--plan", &plan];
        argv.extend_from_slice(engine);
        let tuned = run(&argv);
        assert_eq!(exit_code(&tuned), 0, "stderr: {}", stderr(&tuned));
        assert_eq!(
            tuned.stdout, untuned.stdout,
            "plan changed the tree ({engine:?})"
        );
    }
}

#[test]
fn optimize_against_the_wrong_grammar_exits_one() {
    let input = temp_file("stale.calc", CALC_DOC);
    let prof = temp_path("stale.mprof");
    let out = run(&[
        "profile",
        &grammar("calc"),
        "--input",
        &input,
        "--record",
        &prof,
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let out = run(&[
        "profile",
        &grammar("json"),
        "--root",
        "json",
        "--optimize",
        &prof,
    ]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("fingerprint"), "{}", stderr(&out));
}

#[test]
fn stale_plan_is_rejected_as_a_failure() {
    let input = temp_file("stale-plan.calc", CALC_DOC);
    let prof = temp_path("stale-plan.mprof");
    let plan = temp_path("stale-plan.json");
    let out = run(&[
        "profile",
        &grammar("calc"),
        "--input",
        &input,
        "--record",
        &prof,
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let out = run(&[
        "profile",
        &grammar("calc"),
        "--optimize",
        &prof,
        "--out",
        &plan,
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    // A calc plan against the json grammar: fingerprint mismatch, exit 1.
    let json_doc = temp_file("stale-plan.json-doc", "[1, 2, 3]");
    let out = run(&[
        "parse",
        &grammar("json"),
        "--root",
        "json",
        "--input",
        &json_doc,
        "--plan",
        &plan,
    ]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    // Malformed plan file: also a failure (1); missing plan file: I/O (3).
    let garbage = temp_file("garbage.plan.json", "{\"plan_version\": 999}");
    let input2 = temp_file("stale2.calc", CALC_DOC);
    let out = run(&[
        "parse",
        &grammar("calc"),
        "--input",
        &input2,
        "--plan",
        &garbage,
    ]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    let out = run(&[
        "parse",
        &grammar("calc"),
        "--input",
        &input2,
        "--plan",
        "/nonexistent.json",
    ]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
}

#[test]
fn diff_clean_exits_zero_and_regression_exits_one() {
    let small = temp_file("diff-small.calc", CALC_DOC);
    let big = temp_file(
        "diff-big.calc",
        &format!("{CALC_DOC} + {CALC_DOC} * {CALC_DOC}"),
    );
    let (pa, pb) = (temp_path("diff-a.mprof"), temp_path("diff-b.mprof"));
    let g = grammar("calc");
    let out = run(&["profile", &g, "--input", &small, "--record", &pa]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let out = run(&["profile", &g, "--input", &big, "--record", &pb]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));

    // Identical recordings: no drift, exit 0.
    let same = run(&["profile", "diff", &pa, &pa]);
    assert_eq!(exit_code(&same), 0, "stderr: {}", stderr(&same));
    assert!(String::from_utf8_lossy(&same.stdout).contains("no counter changes"));

    // The larger workload evaluates far more: counters regress, exit 1.
    let worse = run(&["profile", "diff", &pa, &pb]);
    assert_eq!(exit_code(&worse), 1, "stderr: {}", stderr(&worse));
    assert!(String::from_utf8_lossy(&worse.stdout).contains("REGRESSION"));

    // JSON output carries the same verdict.
    let json = run(&["profile", "diff", &pa, &pb, "--json"]);
    assert_eq!(exit_code(&json), 1);
    let text = String::from_utf8_lossy(&json.stdout).into_owned();
    assert!(text.starts_with('{'), "{text}");
    assert!(text.contains("\"regressions\""), "{text}");

    // A sky-high threshold turns the same pair into a clean diff.
    let lax = run(&["profile", "diff", &pa, &pb, "--threshold", "10.0"]);
    assert_eq!(exit_code(&lax), 0, "stderr: {}", stderr(&lax));
}

#[test]
fn merge_sums_runs_and_diffs_clean_against_itself() {
    let input = temp_file("merge.calc", CALC_DOC);
    let prof = temp_path("merge-one.mprof");
    let merged = temp_path("merge-two.mprof");
    let g = grammar("calc");
    let out = run(&["profile", &g, "--input", &input, "--record", &prof]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let out = run(&["profile", "merge", &prof, &prof, "--out", &merged]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 runs"));
    let text = std::fs::read_to_string(&merged).unwrap();
    assert!(text.contains("\"runs\": 2"), "{text}");
    // Per-run normalization: a doubled recording is the same workload.
    let diff = run(&["profile", "diff", &prof, &merged]);
    assert_eq!(exit_code(&diff), 0, "stderr: {}", stderr(&diff));
}

#[test]
fn sample_and_format_still_compose_with_record() {
    let input = temp_file("fmt.calc", CALC_DOC);
    let prof = temp_path("fmt.mprof");
    let g = grammar("calc");
    // --record plus an explicit --format renders to stdout too.
    let out = run(&[
        "profile", &g, "--input", &input, "--record", &prof, "--format", "summary",
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    assert!(std::fs::metadata(&prof).is_ok(), "profile still written");
    assert!(!out.stdout.is_empty(), "summary rendered");
    // Sampled recording remains a valid profile.
    let sampled = temp_path("fmt-sampled.mprof");
    let out = run(&[
        "profile", &g, "--input", &input, "--record", &sampled, "--sample", "4",
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    assert!(std::fs::read_to_string(&sampled)
        .unwrap()
        .contains("\"mprof_version\""));
}

#[test]
fn profile_usage_and_io_errors_have_distinct_exit_codes() {
    let input = temp_file("usage.calc", CALC_DOC);
    let g = grammar("calc");
    // --sample 0 is a usage error.
    let out = run(&["profile", &g, "--input", &input, "--sample", "0"]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    // diff wants exactly two files; merge wants --out.
    let out = run(&["profile", "diff", "only-one.mprof"]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    let out = run(&["profile", "merge", "a.mprof", "b.mprof"]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    // Missing .mprof files are I/O errors (3); corrupt ones fail (1).
    let out = run(&[
        "profile",
        "diff",
        "/nonexistent/a.mprof",
        "/nonexistent/b.mprof",
    ]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
    let corrupt = temp_file("corrupt.mprof", "not json at all");
    let out = run(&["profile", "diff", &corrupt, &corrupt]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    let out = run(&["profile", &g, "--optimize", "/nonexistent/p.mprof"]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
    // Recording to an unwritable path is an I/O error.
    let out = run(&[
        "profile",
        &g,
        "--input",
        &input,
        "--record",
        "/nonexistent/dir/x.mprof",
    ]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
}
