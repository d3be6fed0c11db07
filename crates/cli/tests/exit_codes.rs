//! End-to-end exit-code contract of the `modpeg` binary.
//!
//! The documented mapping (see `src/main.rs`): 0 success, 1 check failed
//! (parse error, divergence, contract violation), 2 usage, 3 I/O,
//! 4 resource abort, 5 internal. Resource aborts are deliberately distinct
//! from parse failures: an abort is not a verdict on the input.

use std::path::PathBuf;
use std::process::{Command, Output};

fn calc_grammar() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../grammars/grammars/calc.mpeg")
        .to_string_lossy()
        .into_owned()
}

/// Writes `contents` to a per-test temp file and returns its path.
fn temp_input(name: &str, contents: &str) -> String {
    let path = std::env::temp_dir().join(format!("modpeg-exit-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp input");
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

#[test]
fn successful_parse_exits_zero() {
    let input = temp_input("ok.calc", "1 + 2 * 3");
    let out = run(&["parse", &calc_grammar(), "--input", &input]);
    assert_eq!(
        exit_code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Add"));
}

#[test]
fn syntax_error_exits_one() {
    let input = temp_input("bad.calc", "1 + * 2");
    let out = run(&["parse", &calc_grammar(), "--input", &input]);
    assert_eq!(
        exit_code(&out),
        1,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn usage_errors_exit_two() {
    let unknown_flag = run(&["parse", &calc_grammar(), "--frobnicate"]);
    assert_eq!(exit_code(&unknown_flag), 2);
    let unknown_command = run(&["transmogrify", &calc_grammar()]);
    assert_eq!(exit_code(&unknown_command), 2);
    let missing_input_flag = run(&["parse", &calc_grammar()]);
    assert_eq!(exit_code(&missing_input_flag), 2);
    let unknown_fuzz_grammar = run(&["fuzz", "--grammar", "fortran"]);
    assert_eq!(exit_code(&unknown_fuzz_grammar), 2);
}

#[test]
fn missing_files_exit_three() {
    let missing_grammar = run(&["parse", "/nonexistent/g.mpeg", "--input", "/nonexistent/x"]);
    assert_eq!(exit_code(&missing_grammar), 3);
    let input = run(&["parse", &calc_grammar(), "--input", "/nonexistent/x.calc"]);
    assert_eq!(exit_code(&input), 3);
}

#[test]
fn resource_aborts_exit_four() {
    let input = temp_input("fuel.calc", "1 + 2 * (3 - 4) / 5");
    let starved = run(&["parse", &calc_grammar(), "--input", &input, "--fuel", "3"]);
    assert_eq!(
        exit_code(&starved),
        4,
        "stderr: {}",
        String::from_utf8_lossy(&starved.stderr)
    );
    assert!(String::from_utf8_lossy(&starved.stderr).contains("abort"));

    let shallow = run(&[
        "parse",
        &calc_grammar(),
        "--input",
        &input,
        "--max-depth",
        "2",
    ]);
    assert_eq!(exit_code(&shallow), 4);

    // The same input under generous limits parses fine — the abort was a
    // budget verdict, not an input verdict.
    let generous = run(&[
        "parse",
        &calc_grammar(),
        "--input",
        &input,
        "--fuel",
        "1000000",
        "--max-depth",
        "1024",
        "--deadline-ms",
        "10000",
    ]);
    assert_eq!(
        exit_code(&generous),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&generous.stderr)
    );
}

/// Every flag combination is one request on either engine: `--trace`
/// runs on the VM too, and event mode honors the governor flags.
#[test]
fn trace_and_events_compose_with_engine_and_governor_flags() {
    let input = temp_input("compose.calc", "1 + 2 * (3 - 4)");
    let grammar = calc_grammar();
    let parse = |extra: &[&str]| {
        let mut argv = vec!["parse", grammar.as_str(), "--input", &input];
        argv.extend_from_slice(extra);
        run(&argv)
    };
    let traced = parse(&["--engine", "vm", "--trace"]);
    let stderr = String::from_utf8_lossy(&traced.stderr);
    assert_eq!(exit_code(&traced), 0, "stderr: {stderr}");
    assert!(stderr.contains("> calc."), "stderr: {stderr}");

    // The complete `--trace` rendering of a small interpreter parse.
    let small = temp_input("trace.calc", "1+2");
    let traced = run(&["parse", grammar.as_str(), "--input", &small, "--trace"]);
    assert_eq!(exit_code(&traced), 0);
    assert_eq!(
        String::from_utf8_lossy(&traced.stderr),
        "> calc.Program @0
  > calc.Expr @0
    > calc.Term @0
      > calc.Atom @0
        > calc.Number @0
        < calc.Number @0 ok ..1
      < calc.Atom @0 ok ..1
    < calc.Term @0 ok ..1
    > calc.Term @2
      > calc.Atom @2
        > calc.Number @2
        < calc.Number @2 ok ..3
      < calc.Atom @2 ok ..3
    < calc.Term @2 ok ..3
  < calc.Expr @0 ok ..3
< calc.Program @0 ok ..3
"
    );

    let starved = parse(&["--events", "--fuel", "0"]);
    let stderr = String::from_utf8_lossy(&starved.stderr);
    assert_eq!(exit_code(&starved), 4, "stderr: {stderr}");
    assert!(stderr.contains("abort"), "stderr: {stderr}");
}

#[test]
fn fault_smoke_campaign_exits_zero() {
    let out = run(&["fault", "--grammar", "calc", "--smoke"]);
    assert_eq!(
        exit_code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("abort contract holds"));
}

/// Malformed input must exit 1 on every output-mode × engine
/// combination — the error paths of `--events`, `--engine vm`, and
/// `--stats` (alone and combined) share the verdict with the plain
/// parse.
#[test]
fn malformed_input_exits_one_across_modes() {
    let input = temp_input("bad-modes.calc", "1 + * 2");
    let grammar = calc_grammar();
    let combos: &[&[&str]] = &[
        &["--events"],
        &["--engine", "vm"],
        &["--stats"],
        &["--engine", "vm", "--events"],
        &["--engine", "vm", "--stats"],
        &["--events", "--stats"],
        &["--engine", "vm", "--events", "--stats"],
    ];
    for extra in combos {
        let mut argv = vec!["parse", grammar.as_str(), "--input", &input];
        argv.extend_from_slice(extra);
        let out = run(&argv);
        assert_eq!(
            exit_code(&out),
            1,
            "flags {extra:?}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("expected"),
            "flags {extra:?} should report the expected set"
        );
    }
}

/// `modpeg check --input` is the diagnostics front end: exit 0 on a
/// clean parse, exit 1 with one `file:line:col:` line per recovered
/// error, identical output across engines, a `--json` report, and a
/// `--max-errors` budget that truncates loudly.
#[test]
fn check_input_diagnostics_contract() {
    let clean = temp_input("check-ok.calc", "1 + 2 * 3");
    let out = run(&["check", &calc_grammar(), "--input", &clean]);
    assert_eq!(
        exit_code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 error(s)"));

    let bad = temp_input("check-bad.calc", "1 + * 2 + ?");
    let interp = run(&["check", &calc_grammar(), "--input", &bad]);
    assert_eq!(exit_code(&interp), 1);
    let stdout = String::from_utf8_lossy(&interp.stdout);
    assert!(stdout.contains(":1:5: error: expected"), "stdout: {stdout}");
    assert!(stdout.contains("2 error(s)"), "stdout: {stdout}");

    let vm = run(&["check", &calc_grammar(), "--input", &bad, "--engine", "vm"]);
    assert_eq!(exit_code(&vm), 1);
    assert_eq!(
        vm.stdout, interp.stdout,
        "engines must render identical diagnostics"
    );

    let json = run(&["check", &calc_grammar(), "--input", &bad, "--json"]);
    assert_eq!(exit_code(&json), 1);
    let report = String::from_utf8_lossy(&json.stdout);
    assert!(report.starts_with('{'), "stdout: {report}");
    assert!(report.contains("\"error_count\": 2"), "stdout: {report}");
    assert!(report.contains("\"skipped\""), "stdout: {report}");

    let capped = run(&[
        "check",
        &calc_grammar(),
        "--input",
        &bad,
        "--max-errors",
        "1",
    ]);
    assert_eq!(exit_code(&capped), 1);
    let stdout = String::from_utf8_lossy(&capped.stdout);
    assert!(
        stdout.contains("1 error(s) (error budget exhausted"),
        "stdout: {stdout}"
    );

    let starved = run(&["check", &calc_grammar(), "--input", &bad, "--fuel", "3"]);
    assert_eq!(
        exit_code(&starved),
        4,
        "a tripped governor is a resource abort, not a verdict: {}",
        String::from_utf8_lossy(&starved.stderr)
    );
}
