//! Identity snapshot of the whole-grammar analyses.
//!
//! Every library grammar is dumped twice, as elaborated and after the full
//! transform pipeline, one line per production: nullability, shortest
//! derivation height, transitive state access, and the FIRST, FOLLOW and
//! sync byte sets. Each grammar also records its restart and annotated
//! recovery sets and its left-recursion cycles. The dump is compared with
//! `tests/golden/analyses.txt`, so any change in what an analysis computes
//! shows up as a readable diff.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! MODPEG_BLESS=1 cargo test -p modpeg-grammars --test analysis_identity
//! ```

use std::fmt::Write as _;

use modpeg_core::analysis::{
    derivation_heights, first_sets, left_recursion_cycles, nullable, state_access, sync_sets,
    FirstSet, UNBOUNDED_HEIGHT,
};
use modpeg_core::transform::{pipeline, TransformFlags};
use modpeg_core::{Diagnostics, Grammar};

const GOLDEN: &str = "tests/golden/analyses.txt";

/// A byte set as `[a-z0-9]`-style ranges; printable ASCII appears as
/// itself (with `\`, `]` and `-` escaped), every other byte as `\xNN`.
fn bytes(set: &FirstSet) -> String {
    fn byte(out: &mut String, b: u8) {
        match b {
            b'\\' | b']' | b'-' => {
                out.push('\\');
                out.push(b as char);
            }
            b' '..=b'~' => out.push(b as char),
            _ => {
                let _ = write!(out, "\\x{b:02X}");
            }
        }
    }
    let mut out = String::from("[");
    for (lo, hi) in set.byte_ranges() {
        byte(&mut out, lo);
        if hi != lo {
            out.push('-');
            byte(&mut out, hi);
        }
    }
    out.push(']');
    out
}

fn dump(out: &mut String, title: &str, g: &Grammar) {
    let first = first_sets(g);
    let null = nullable(g);
    let heights = derivation_heights(g);
    let access = state_access(g);
    let sync = sync_sets(g);
    let _ = writeln!(out, "== {title} ({} productions)", g.len());
    for (id, p) in g.iter() {
        let i = id.index();
        let f = first[i];
        let h = match heights[i] {
            UNBOUNDED_HEIGHT => "inf".to_owned(),
            h => h.to_string(),
        };
        let _ = writeln!(
            out,
            "{} null={} h={h} state={}{} first={}{} follow={} sync={}",
            p.name,
            u8::from(null[i]),
            if access[i].reads { 'r' } else { '-' },
            if access[i].writes { 'w' } else { '-' },
            bytes(&f),
            if f.matches_empty { "+empty" } else { "" },
            bytes(&sync.follow[i]),
            bytes(&sync.sync[i]),
        );
        assert_eq!(sync.first[i], f, "sync_sets' FIRST of {}", p.name);
    }
    let _ = writeln!(out, "restart={}", bytes(&sync.restart));
    let _ = writeln!(out, "annotated={}", bytes(&sync.annotated));
    let cycles = left_recursion_cycles(g);
    if cycles.is_empty() {
        let _ = writeln!(out, "cycles: none");
    }
    for cycle in cycles {
        let names: Vec<&str> = cycle
            .iter()
            .map(|id| g.production(*id).name.as_str())
            .collect();
        let _ = writeln!(out, "cycle: {}", names.join(" -> "));
    }
}

#[test]
fn analyses_match_the_golden_dump() {
    type Elaborate = fn() -> Result<Grammar, Diagnostics>;
    let grammars: [(&str, Elaborate); 9] = [
        ("calc", modpeg_grammars::calc_grammar),
        ("json", modpeg_grammars::json_grammar),
        ("java", modpeg_grammars::java_grammar),
        ("java_extended", modpeg_grammars::java_extended_grammar),
        ("c", modpeg_grammars::c_grammar),
        ("tiny", modpeg_grammars::tiny_grammar),
        ("sql", modpeg_grammars::sql_grammar),
        ("java_sql", modpeg_grammars::java_sql_grammar),
        ("mpeg", modpeg_grammars::mpeg_grammar),
    ];
    let mut out = String::new();
    for (name, elaborate) in grammars {
        let g = elaborate().expect("library grammar elaborates");
        dump(&mut out, &format!("{name} elaborated"), &g);
        let t = pipeline(g, TransformFlags::all()).expect("pipeline succeeds");
        dump(&mut out, &format!("{name} transformed"), &t);
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("MODPEG_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden has a directory"))
            .expect("create golden directory");
        std::fs::write(&path, &out).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden dump is committed");
    if golden != out {
        let line = golden
            .lines()
            .zip(out.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.lines().count().min(out.lines().count()));
        panic!(
            "analysis dump differs from {GOLDEN} at line {}:\n  golden: {}\n  actual: {}",
            line + 1,
            golden.lines().nth(line).unwrap_or("<end>"),
            out.lines().nth(line).unwrap_or("<end>"),
        );
    }
}
