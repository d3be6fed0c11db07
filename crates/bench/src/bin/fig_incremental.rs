//! E8 — incremental reparse via `ParseSession`.
//!
//! Two series:
//!
//! 1. **Memo reuse across edits.** A generated Java document (>= 100 KiB)
//!    goes through a deterministic 10-edit script (digit runs replaced by
//!    digit runs of a different length, so every intermediate document
//!    stays valid). After each edit the session reparses incrementally —
//!    reusing memo columns outside the damaged region — and the result is
//!    checked byte-for-byte (`to_sexpr`) against a from-scratch parse of
//!    the same document with the fully optimized configuration. The
//!    headline number is the median-over-edits speedup of incremental
//!    reparse over full reparse.
//!    After the script the figure reports what the session's value region
//!    holds (nodes and retained bytes) and how many compactions ran: a
//!    session compacts its region once it has doubled, so the region is
//!    bounded by the document, not by the number of reparses.
//! 2. **Stateful fallback.** The C grammar threads typedef state, so memo
//!    entries are not position-independent facts and carrying them across
//!    an edit would be unsound. `CompiledGrammar::uses_state()` detects
//!    this and the session silently degrades to full reparses — this
//!    series demonstrates that the fallback stays correct and reuses
//!    nothing.
//!
//! Every number is timed through `modpeg_bench::paired` (the crate docs
//! describe the runner). A reparse mutates the memo it measures, so each
//! call of an incremental leg flips its edit: it applies the edit or
//! undoes it, then reparses. Every call thus reparses after the same
//! one-literal change, and its time includes `apply_edit` (shifting the
//! memo columns), as an editor's edit-to-tree latency does. Per edit,
//! the full and the incremental reparse are the two legs of one call.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 128 KiB), `MODPEG_BENCH_RUNS`
//! (default 5).

use std::hint::black_box;
use std::ops::Range;
use std::rc::Rc;
use std::time::Duration;

use modpeg_bench::{middle, ms, paired, print_table, Knobs};
use modpeg_conformance::GrammarId;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{ParseError, SyntaxTree};
use modpeg_session::ParseSession;

const EDITS: usize = 10;

/// Tiny deterministic generator so the edit script is reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Standalone numeric literals in `doc`, as `(start, len)` pairs. Digit
/// runs embedded in identifiers (`v12`) are excluded: rewriting those
/// renames the identifier, which a typedef-sensitive grammar may reject.
fn digit_runs(doc: &str) -> Vec<(usize, usize)> {
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = doc.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let standalone =
                (start == 0 || !ident(bytes[start - 1])) && (i == bytes.len() || !ident(bytes[i]));
            if standalone {
                runs.push((start, i - start));
            }
        } else {
            i += 1;
        }
    }
    runs
}

/// Picks a digit run in `doc` and a replacement run of a different shape.
fn random_digit_edit(doc: &str, rng: &mut Lcg) -> (Range<usize>, String) {
    let runs = digit_runs(doc);
    assert!(!runs.is_empty(), "workload contains digit runs");
    let (start, len) = runs[rng.below(runs.len())];
    let new_len = 1 + rng.below(6);
    let replacement: String = (0..new_len)
        .map(|_| char::from(b'1' + rng.below(9) as u8))
        .collect();
    (start..start + len, replacement)
}

/// One edit that a session can apply and undo in turn.
struct Flip {
    at: usize,
    old: String,
    new: String,
    applied: bool,
}

impl Flip {
    /// Replaces `range` of `shadow` by `new`; the session still has the
    /// old text.
    fn new(shadow: &mut String, range: Range<usize>, new: String) -> Flip {
        let old = shadow[range.clone()].to_owned();
        shadow.replace_range(range.clone(), &new);
        Flip {
            at: range.start,
            old,
            new,
            applied: false,
        }
    }

    /// Applies the edit to `session` if it is undone there, undoes it
    /// otherwise, and reparses.
    fn flip(&mut self, session: &mut ParseSession) -> Result<SyntaxTree, ParseError> {
        let (from, to) = if self.applied {
            (&self.new, &self.old)
        } else {
            (&self.old, &self.new)
        };
        session.apply_edit(self.at..self.at + from.len(), to);
        self.applied = !self.applied;
        session.parse()
    }

    /// Leaves the edit applied, its reparse the session's last.
    fn settle(&mut self, session: &mut ParseSession) {
        if !self.applied {
            self.flip(session).expect("reparse succeeds");
        }
    }
}

fn main() {
    let knobs = Knobs::from_env(128 * 1024, 1, 5);
    println!("E8 — incremental reparse\n");

    // Series 1: memo reuse across edits on a pure (stateless) grammar.
    let grammar = GrammarId::Java.elaborate().expect("java elaborates");
    let inc =
        Rc::new(CompiledGrammar::compile(&grammar, OptConfig::incremental()).expect("compiles"));
    let full = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
    assert!(!inc.uses_state(), "the Java subset is a pure grammar");

    let doc = modpeg_workload::java_program(11, knobs.bytes.max(100 * 1024));
    println!(
        "document: {} KiB of generated Java, {EDITS}-edit script (digit-run replacements)",
        doc.len() / 1024
    );

    // A fresh session's first parse builds the whole memo table.
    let t_prime = paired(
        knobs.runs,
        1,
        &mut [&mut || {
            let mut fresh = ParseSession::new(Rc::clone(&inc), doc.clone());
            black_box(fresh.parse().expect("priming parse succeeds"));
        }],
    )[0]
    .median;
    let mut session = ParseSession::new(Rc::clone(&inc), doc.clone());
    assert_eq!(
        session.parse().expect("priming parse succeeds").to_sexpr(),
        full.parse(&doc).expect("parses").to_sexpr(),
        "priming parse agrees with the fully optimized configuration"
    );
    println!("priming parse: {} ms\n", ms(t_prime));

    let mut rng = Lcg(0xE7);
    let mut shadow = doc;
    let mut inc_times = Vec::new();
    let mut full_times = Vec::new();
    let mut rows = Vec::new();
    for i in 0..EDITS {
        let (range, replacement) = random_digit_edit(&shadow, &mut rng);
        let mut edit = Flip::new(&mut shadow, range, replacement);
        let legs = paired(
            knobs.runs,
            1,
            &mut [
                &mut || {
                    black_box(full.parse(&shadow).expect("parses"));
                },
                &mut || {
                    black_box(
                        edit.flip(&mut session)
                            .expect("incremental reparse succeeds"),
                    );
                },
            ],
        );
        edit.settle(&mut session);
        let reused = session.last_stats().memo_columns_reused;
        let dropped = session.last_stats().memo_columns_invalidated;
        assert_eq!(
            session.parse().expect("reparse succeeds").to_sexpr(),
            full.parse(&shadow).expect("parses").to_sexpr(),
            "edit {i}: incremental and from-scratch trees diverge"
        );

        let (t_full, t_inc) = (legs[0].median, legs[1].median);
        rows.push(vec![
            format!("{}", i + 1),
            format!("{}", edit.at),
            ms(t_inc),
            ms(t_full),
            format!(
                "{:.1}",
                t_full.as_secs_f64() / t_inc.as_secs_f64().max(1e-9)
            ),
            format!("{reused}"),
            format!("{dropped}"),
        ]);
        inc_times.push(t_inc);
        full_times.push(t_full);
    }
    print_table(
        &[
            "edit",
            "at byte",
            "incr ms",
            "full ms",
            "x",
            "cols reused",
            "cols dropped",
        ],
        &rows,
    );
    let edit_rows = rows;

    let m_inc = middle(inc_times, Duration::cmp);
    let m_full = middle(full_times, Duration::cmp);
    println!("\nmedian incremental reparse: {} ms", ms(m_inc));
    println!("median full reparse:        {} ms", ms(m_full));
    println!(
        "speedup: {:.1}x (trees verified identical on every edit)",
        m_full.as_secs_f64() / m_inc.as_secs_f64().max(1e-9)
    );
    let region = session.memo().arena();
    let totals = session.stats();
    let (region_nodes, region_kib) = (region.len(), region.retained_bytes() / 1024);
    println!(
        "session region after the script: {region_nodes} nodes, {region_kib} KiB retained, \
         {} compactions ({} nodes reclaimed)",
        totals.arena_compactions, totals.arena_nodes_reclaimed
    );

    // Series 2: stateful grammars fall back to full reparses.
    println!("\nstateful fallback (C grammar with typedef state):");
    let cg = GrammarId::C.elaborate().expect("c elaborates");
    let cinc = Rc::new(CompiledGrammar::compile(&cg, OptConfig::incremental()).expect("compiles"));
    assert!(cinc.uses_state(), "the C subset threads typedef state");

    let cdoc = modpeg_workload::c_program(7, 32 * 1024);
    let mut cshadow = cdoc.clone();
    let mut csession = ParseSession::new(Rc::clone(&cinc), cdoc);
    println!(
        "  uses_state = true, session incremental = {}",
        csession.is_incremental()
    );
    csession.parse().expect("C document parses");
    let mut ctimes = Vec::new();
    for i in 0..EDITS {
        let (range, replacement) = random_digit_edit(&cshadow, &mut rng);
        let mut edit = Flip::new(&mut cshadow, range, replacement);
        let leg = paired(
            knobs.runs,
            1,
            &mut [&mut || {
                black_box(edit.flip(&mut csession).expect("C reparse succeeds"));
            }],
        )[0];
        edit.settle(&mut csession);
        assert_eq!(
            csession.parse().expect("C reparse succeeds").to_sexpr(),
            cinc.parse(&cshadow).expect("parses").to_sexpr(),
            "edit {i}: fallback tree diverges from a scratch parse"
        );
        ctimes.push(leg.median);
    }
    assert_eq!(
        csession.stats().memo_columns_reused,
        0,
        "a stateful session must not carry memo entries across edits"
    );
    let median_c = middle(ctimes, Duration::cmp);
    println!(
        "  {EDITS} edits, median full reparse: {} ms, memo columns reused: 0, trees verified \
         identical",
        ms(median_c)
    );
    modpeg_bench::emit_results_json(
        "fig_incremental",
        &[
            ("experiment", "E8".into()),
            ("bytes", knobs.bytes.to_string()),
            ("runs", knobs.runs.to_string()),
            ("priming ms", ms(t_prime)),
            ("median incr ms", ms(m_inc)),
            ("median full ms", ms(m_full)),
            ("stateful fallback median ms", ms(median_c)),
            ("region nodes", region_nodes.to_string()),
            ("region KiB", region_kib.to_string()),
            ("compactions", totals.arena_compactions.to_string()),
            ("nodes reclaimed", totals.arena_nodes_reclaimed.to_string()),
        ],
        &[
            "edit",
            "at byte",
            "incr ms",
            "full ms",
            "x",
            "cols reused",
            "cols dropped",
        ],
        &edit_rows,
    );
}
