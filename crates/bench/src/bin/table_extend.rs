//! E6 — extensibility case study, quantified.
//!
//! The paper's modularity claims as numbers: composing the base Java
//! subset with the foreach/assert/try extension modules, report (a) the
//! size of each extension, (b) that the base grammar is untouched (zero
//! edited lines — the extensions are separate modules), (c) that extended
//! programs parse under the composed grammar and are rejected by the base,
//! and (d) the throughput cost of carrying the extensions, with both
//! grammars the two legs of one `modpeg_bench::paired` call (the crate
//! docs describe the runner).

use modpeg_bench::{kib_per_s, ms, paired, parse_all};
use modpeg_interp::{CompiledGrammar, OptConfig};

fn main() {
    println!("E6 — extensibility case study\n");

    // (a) extension sizes.
    let ext_stats = modpeg_grammars::module_stats(modpeg_grammars::sources::JAVA_EXT)
        .expect("extension modules parse");
    let rows: Vec<Vec<String>> = ext_stats
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                m.productions.to_string(),
                m.lines.to_string(),
                if m.is_modification {
                    "modification"
                } else {
                    "composition"
                }
                .to_owned(),
            ]
        })
        .collect();
    modpeg_bench::print_table(&["extension module", "clauses", "lines", "kind"], &rows);

    // (b) base untouched.
    let base_stats =
        modpeg_grammars::module_stats(modpeg_grammars::sources::JAVA).expect("base parses");
    let base_lines: usize = base_stats.iter().map(|m| m.lines).sum();
    println!(
        "\nBase grammar: {} modules, {} lines — edited lines to add 3 extensions: 0",
        base_stats.len(),
        base_lines
    );

    // (c) acceptance delta.
    let extended_inputs: Vec<String> = (0..4u64)
        .map(|s| modpeg_workload::java_extended_program(s, 16_000))
        .collect();
    let base_inputs: Vec<String> = (0..4u64)
        .map(|s| modpeg_workload::java_program(s, 16_000))
        .collect();
    let mut base_accepts_ext = 0;
    let mut ext_accepts_ext = 0;
    for i in &extended_inputs {
        if modpeg_grammars::generated::java::parse(i).is_ok() {
            base_accepts_ext += 1;
        }
        if modpeg_grammars::generated::java_extended::parse(i).is_ok() {
            ext_accepts_ext += 1;
        }
    }
    let mut both_accept_base = 0;
    for i in &base_inputs {
        if modpeg_grammars::generated::java::parse(i).is_ok()
            && modpeg_grammars::generated::java_extended::parse(i).is_ok()
        {
            both_accept_base += 1;
        }
    }
    println!(
        "\nExtended workloads ({} inputs): base grammar accepts {}, extended accepts {}",
        extended_inputs.len(),
        base_accepts_ext,
        ext_accepts_ext
    );
    println!(
        "Base workloads ({} inputs): accepted by both grammars: {}",
        base_inputs.len(),
        both_accept_base
    );

    // (d) throughput cost of carrying extensions (on base programs).
    let base_g = modpeg_grammars::java_grammar().expect("elaborates");
    let ext_g = modpeg_grammars::java_extended_grammar().expect("elaborates");
    let base_c = CompiledGrammar::compile(&base_g, OptConfig::all()).expect("compiles");
    let ext_c = CompiledGrammar::compile(&ext_g, OptConfig::all()).expect("compiles");
    let total: usize = base_inputs.iter().map(String::len).sum();
    let legs = paired(
        6,
        1,
        &mut [&mut || parse_all(&base_c, &base_inputs), &mut || {
            parse_all(&ext_c, &base_inputs)
        }],
    );
    let (t_base, t_ext) = (legs[0].median, legs[1].median);
    println!("\nThroughput on base programs:");
    let tp_rows = [
        vec![
            "java (base)".to_owned(),
            ms(t_base),
            kib_per_s(total, t_base),
        ],
        vec![
            "java + 3 extensions".to_owned(),
            ms(t_ext),
            kib_per_s(total, t_ext),
        ],
    ];
    modpeg_bench::print_table(&["grammar", "ms", "KiB/s"], &tp_rows);

    // Unified grid for the JSON companion; the scalar facts (base size,
    // acceptance deltas) travel in `meta`.
    let mut json_rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|mut r| {
            r.insert(0, "extension sizes".to_owned());
            r.extend(std::iter::repeat_n("-".to_owned(), 2));
            r
        })
        .collect();
    json_rows.extend(tp_rows.into_iter().map(|r| {
        let mut jr = vec!["throughput".to_owned(), r[0].clone()];
        jr.extend(std::iter::repeat_n("-".to_owned(), 3));
        jr.extend(r.into_iter().skip(1));
        jr
    }));
    modpeg_bench::emit_results_json(
        "table_extend",
        &[
            ("experiment", "E6".into()),
            ("base modules", base_stats.len().to_string()),
            ("base lines", base_lines.to_string()),
            ("base lines edited", "0".into()),
            (
                "extended inputs accepted by base",
                base_accepts_ext.to_string(),
            ),
            (
                "extended inputs accepted by extended",
                ext_accepts_ext.to_string(),
            ),
            ("base inputs accepted by both", both_accept_base.to_string()),
        ],
        &[
            "section",
            "module/grammar",
            "clauses",
            "lines",
            "kind",
            "ms",
            "KiB/s",
        ],
        &json_rows,
    );
}
