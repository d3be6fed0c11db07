//! Lexical-heavy workload variants: valid programs for the same four
//! grammars, but with inputs dominated by *long terminal runs* — wide
//! whitespace gaps, multi-line comments, long identifiers, and long
//! numeric literals. These are the shapes where a parser spends nearly
//! all of its time inside `$[...]*` / `$[...]+` class loops, which is
//! exactly what the E16 bulk-scanning benchmark (`fig_simd`) measures.
//!
//! Realistic corpora (minified JSON payloads, generated code, vendored
//! headers, license banners) are dominated by the same shapes; the
//! regular generators instead emit token-dense programs whose class
//! runs are a handful of characters each.

use crate::rng::StdRng;
use crate::rng_for;

/// A long lowercase identifier (with underscores), `min..max` chars.
fn long_ident(rng: &mut StdRng, min: usize, max: usize) -> String {
    const WORDS: &[&str] = &[
        "aggregated",
        "boundary",
        "checkpoint",
        "decoded",
        "envelope",
        "fragment",
        "generation",
        "horizon",
        "interval",
        "jitter",
        "keyspace",
        "latency",
        "manifest",
        "namespace",
        "observer",
        "pipeline",
        "quorum",
        "replica",
        "snapshot",
        "throughput",
    ];
    let target = rng.gen_range(min..max);
    let mut out = String::with_capacity(target + 16);
    while out.len() < target {
        if !out.is_empty() {
            out.push('_');
        }
        out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    out.push('_');
    out.push_str(&rng.gen_range(0u32..100).to_string());
    out
}

/// A run of `n` decimal digits with a non-zero lead.
fn digits(rng: &mut StdRng, n: usize) -> String {
    let mut out = String::with_capacity(n);
    out.push((b'1' + (rng.gen_range(0u32..9) as u8)) as char);
    for _ in 1..n {
        out.push((b'0' + (rng.gen_range(0u32..10) as u8)) as char);
    }
    out
}

/// A wide whitespace gap: spaces, tabs, and newline-plus-indent runs.
fn gap(rng: &mut StdRng, out: &mut String) {
    let n = rng.gen_range(60..220usize);
    match rng.gen_range(0..3u32) {
        0 => out.extend(std::iter::repeat_n(' ', n)),
        1 => {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', n));
        }
        _ => {
            for _ in 0..n / 2 {
                out.push(' ');
                out.push('\t');
            }
        }
    }
}

/// A `// ...` line comment of `min..max` content characters.
fn line_comment(rng: &mut StdRng, min: usize, max: usize) -> String {
    const PHRASES: &[&str] = &[
        "invariant preserved across the retry loop",
        "matches the wire format described in the design notes",
        "bounds were checked by the caller",
        "kept in sync with the generated tables",
        "do not reorder without updating the checksum",
    ];
    let target = rng.gen_range(min..max);
    let mut out = String::from("//");
    while out.len() < target {
        out.push(' ');
        out.push_str(PHRASES[rng.gen_range(0..PHRASES.len())]);
    }
    out.push('\n');
    out
}

/// A calculator expression dominated by long numerals and wide
/// whitespace runs, roughly `target_bytes` long.
pub fn calc_lexical(seed: u64, target_bytes: usize) -> String {
    let mut rng = rng_for(seed, 0x1E81_CA1C);
    let mut out = String::with_capacity(target_bytes + 64);
    let number = |rng: &mut StdRng, out: &mut String| {
        let n = rng.gen_range(200..500usize);
        out.push_str(&digits(rng, n));
        if rng.gen_ratio(1, 3) {
            out.push('.');
            let f = rng.gen_range(60..150usize);
            out.push_str(&digits(rng, f));
        }
    };
    number(&mut rng, &mut out);
    while out.len() < target_bytes {
        gap(&mut rng, &mut out);
        out.push_str(["+", "-", "*", "/"][rng.gen_range(0..4)]);
        gap(&mut rng, &mut out);
        number(&mut rng, &mut out);
    }
    out
}

/// A JSON document of deeply indented arrays of long numerals and long
/// string scalars, roughly `target_bytes` long.
pub fn json_lexical(seed: u64, target_bytes: usize) -> String {
    let mut rng = rng_for(seed, 0x1E81_150A);
    let mut out = String::with_capacity(target_bytes + 64);
    out.push_str("[\n");
    let mut first = true;
    while out.len() < target_bytes {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.extend(std::iter::repeat_n(' ', rng.gen_range(64..160usize)));
        // Long numerals dominate; strings are rare, as in measurement
        // dumps — `JChar*` is a choice loop, not a bare class, so string
        // bytes are per-char in both scan modes and only dilute E16.
        match rng.gen_range(0..8u32) {
            0..=5 => {
                // A long numeral: integer part, fraction, exponent.
                let int_len = rng.gen_range(150..350usize);
                out.push_str(&digits(&mut rng, int_len));
                out.push('.');
                let frac_len = rng.gen_range(50..120usize);
                out.push_str(&digits(&mut rng, frac_len));
                out.push('e');
                out.push_str(&digits(&mut rng, 2));
            }
            6 => {
                out.push('"');
                let ident = long_ident(&mut rng, 90, 200);
                out.push_str(&ident);
                out.push('"');
            }
            _ => {
                // A one-member object with a long key and numeral value.
                out.push_str("{ \"");
                out.push_str(&long_ident(&mut rng, 70, 140));
                out.push_str("\":");
                gap(&mut rng, &mut out);
                let len = rng.gen_range(120..260usize);
                out.push_str(&digits(&mut rng, len));
                out.push_str(" }");
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// A Java class whose fields and methods carry long identifiers, long
/// integer literals, and long line comments, roughly `target_bytes`.
pub fn java_lexical(seed: u64, target_bytes: usize) -> String {
    let mut rng = rng_for(seed, 0x1E81_7AFA);
    let mut out = String::with_capacity(target_bytes + 128);
    out.push_str(&line_comment(&mut rng, 400, 800));
    out.push_str("class ");
    out.push_str(&long_ident(&mut rng, 60, 120));
    out.push_str(" {\n");
    while out.len() < target_bytes {
        out.push_str("    ");
        out.push_str(&line_comment(&mut rng, 400, 900));
        if rng.gen_ratio(1, 3) {
            let name = long_ident(&mut rng, 120, 260);
            let param = long_ident(&mut rng, 100, 220);
            out.push_str(&format!(
                "    int {name}(int {param}) {{\n        \
                 int {local} = {lit};\n        return {param} + {local};\n    }}\n",
                local = long_ident(&mut rng, 120, 260),
                lit = {
                    let len = rng.gen_range(120..280usize);
                    digits(&mut rng, len)
                },
            ));
        } else {
            let name = long_ident(&mut rng, 120, 260);
            let len = rng.gen_range(150..350usize);
            out.push_str(&format!("    int {name} = {};\n", digits(&mut rng, len)));
        }
    }
    out.push_str("}\n");
    out
}

/// A C translation unit with the same lexical profile as
/// [`java_lexical`]: long globals, long literals, long comments.
pub fn c_lexical(seed: u64, target_bytes: usize) -> String {
    let mut rng = rng_for(seed, 0x1E81_C000);
    let mut out = String::with_capacity(target_bytes + 128);
    out.push_str(&line_comment(&mut rng, 400, 800));
    while out.len() < target_bytes {
        out.push_str(&line_comment(&mut rng, 400, 900));
        if rng.gen_ratio(1, 3) {
            let name = long_ident(&mut rng, 120, 260);
            let param = long_ident(&mut rng, 100, 220);
            out.push_str(&format!(
                "int {name}(int {param}) {{\n    \
                 int {local} = {lit};\n    return {param} + {local};\n}}\n",
                local = long_ident(&mut rng, 120, 260),
                lit = {
                    let len = rng.gen_range(120..280usize);
                    digits(&mut rng, len)
                },
            ));
        } else {
            let name = long_ident(&mut rng, 120, 260);
            let len = rng.gen_range(150..350usize);
            out.push_str(&format!("int {name} = {};\n", digits(&mut rng, len)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexical_workloads_are_deterministic_and_sized() {
        for gen in [calc_lexical, json_lexical, java_lexical, c_lexical] {
            let a = gen(11, 2_000);
            assert_eq!(a, gen(11, 2_000));
            assert!(a.len() >= 2_000);
            assert_ne!(a, gen(12, 2_000));
        }
    }

    #[test]
    fn lexical_workloads_have_long_class_runs() {
        // The defining property: a large share of the bytes sit in runs
        // of ≥16 chars drawn from one lexical class (digits, identifier
        // chars, spaces, or comment text).
        let doc = java_lexical(3, 8_000);
        let mut long_run_bytes = 0usize;
        let mut run = 0usize;
        let mut prev_kind = ' ';
        for c in doc.chars() {
            let kind = if c.is_ascii_alphanumeric() || c == '_' {
                'w'
            } else if c == ' ' || c == '\t' {
                's'
            } else {
                'o'
            };
            if kind == prev_kind && kind != 'o' {
                run += 1;
            } else {
                if run >= 16 {
                    long_run_bytes += run;
                }
                run = 1;
                prev_kind = kind;
            }
        }
        assert!(
            long_run_bytes > doc.len() / 3,
            "only {long_run_bytes} of {} bytes in long runs",
            doc.len()
        );
    }
}
