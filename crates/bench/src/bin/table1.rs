//! E1 / Table 1 — grammar-modularity statistics.
//!
//! Regenerates the paper's grammar-statistics table: for every grammar in
//! the library, the modules it consists of, their production counts, and
//! their sizes. The punchline rows are the extension modules: complete
//! language extensions in a handful of lines, with zero edits to the base
//! grammar.

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut totals: Vec<(String, usize, usize)> = Vec::new();
    for entry in modpeg_grammars::inventory() {
        let mut prods = 0;
        let mut lines = 0;
        for src in entry.sources {
            let stats = modpeg_grammars::module_stats(src).expect("library grammars parse");
            for m in stats {
                prods += m.productions;
                lines += m.lines;
                rows.push(vec![
                    entry.name.to_owned(),
                    m.name,
                    m.productions.to_string(),
                    m.declarations.to_string(),
                    m.lines.to_string(),
                    if m.is_modification {
                        "modification"
                    } else {
                        "definition"
                    }
                    .to_owned(),
                ]);
            }
        }
        totals.push((entry.name.to_owned(), prods, lines));
    }
    println!("E1 / Table 1 — grammar module statistics\n");
    modpeg_bench::print_table(
        &["grammar", "module", "prods", "decls", "lines", "kind"],
        &rows,
    );
    println!("\nPer-grammar totals:");
    modpeg_bench::print_table(
        &["grammar", "productions", "lines"],
        &totals
            .iter()
            .map(|(n, p, l)| vec![n.clone(), p.to_string(), l.to_string()])
            .collect::<Vec<_>>(),
    );

    // Elaborated sizes (after composition), for the java vs java+ext delta.
    println!("\nElaborated grammars (flat productions, before/after optimization):");
    let mut flat_rows = Vec::new();
    for (name, g) in [
        ("calc", modpeg_grammars::calc_grammar()),
        ("json", modpeg_grammars::json_grammar()),
        ("java", modpeg_grammars::java_grammar()),
        ("java+extensions", modpeg_grammars::java_extended_grammar()),
        ("c", modpeg_grammars::c_grammar()),
    ] {
        let g = g.expect("elaborates");
        let opt = modpeg_interp::CompiledGrammar::compile(&g, modpeg_interp::OptConfig::all())
            .expect("compiles");
        flat_rows.push(vec![
            name.to_owned(),
            g.len().to_string(),
            opt.production_count().to_string(),
            opt.memoized_production_count().to_string(),
        ]);
    }
    modpeg_bench::print_table(
        &["grammar", "flat prods", "after transforms", "memoized"],
        &flat_rows,
    );

    // Unified grid for the JSON companion: a `section` column splits the
    // three tables, with `-` where a column does not apply.
    let pad = |n: usize| std::iter::repeat_n("-".to_owned(), n);
    let mut json_rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|mut r| {
            r.insert(0, "modules".to_owned());
            r.extend(pad(3));
            r
        })
        .collect();
    json_rows.extend(totals.iter().map(|(n, p, l)| {
        let mut jr = vec![
            "totals".to_owned(),
            n.clone(),
            "-".to_owned(),
            p.to_string(),
        ];
        jr.push("-".to_owned());
        jr.push(l.to_string());
        jr.extend(pad(4));
        jr
    }));
    json_rows.extend(flat_rows.into_iter().map(|r| {
        let mut jr = vec!["elaborated".to_owned(), r[0].clone()];
        jr.extend(pad(5));
        jr.extend(r.into_iter().skip(1));
        jr
    }));
    modpeg_bench::emit_results_json(
        "table1",
        &[("experiment", "E1".into())],
        &[
            "section",
            "grammar",
            "module",
            "prods",
            "decls",
            "lines",
            "kind",
            "flat prods",
            "after transforms",
            "memoized",
        ],
        &json_rows,
    );
}
