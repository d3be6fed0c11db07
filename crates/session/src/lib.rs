//! # modpeg-session
//!
//! Long-lived incremental parse sessions over the modpeg packrat runtime.
//!
//! A packrat parser's memo table is a complete record of every
//! sub-derivation it attempted, keyed by input position. After a small
//! edit, most of that record is still valid: results entirely left of the
//! edit never looked at the changed bytes, and results right of it match
//! the same text at a shifted offset. This crate turns that observation
//! into [`ParseSession`]: it owns a document and a [`ChunkMemo`] that
//! survives across edits. [`ParseSession::apply_edit`] splices the text
//! and translates the memo table (dropping only columns whose recorded
//! lookahead overlapped the edit); the next [`ParseSession::parse`]
//! reuses everything that survived. Callers that parse many documents
//! one after another keep one session and hand it each new document with
//! [`ParseSession::set_text`], which reuses the memo table's allocations.
//!
//! A session's memory is bounded by its document, not by its edit
//! history: edits translate carried values without copying them, and a
//! reparse compacts the memo's value region once it has doubled (see
//! [`ParseSession::memo`]).
//!
//! Reuse is sound only for pure PEGs: a memoized result of a grammar that
//! consults parser state (`^=`, `^?`, `^!`) can depend on text far from
//! the bytes it examined. Sessions detect this via
//! [`CompiledGrammar::uses_state`] and silently fall back to full
//! reparses — same trees, no reuse.
//!
//! ## Example
//!
//! ```
//! use std::rc::Rc;
//! use modpeg_interp::{CompiledGrammar, OptConfig};
//! use modpeg_session::ParseSession;
//!
//! let grammar = modpeg_grammars::calc_grammar()?;
//! let parser = Rc::new(CompiledGrammar::compile(&grammar, OptConfig::incremental())?);
//! let mut session = ParseSession::new(parser, "1 + 2*3");
//! let before = session.parse().expect("parses").to_sexpr();
//!
//! // Replace "2" with "(4 - 5)" and reparse incrementally.
//! session.apply_edit(4..5, "(4 - 5)");
//! assert_eq!(session.text(), "1 + (4 - 5)*3");
//! let after = session.parse().expect("still parses");
//! assert_ne!(after.to_sexpr(), before);
//! # Ok::<(), modpeg_core::Diagnostics>(())
//! ```
//!
//! [`CompiledGrammar::uses_state`]: modpeg_interp::CompiledGrammar::uses_state

#![warn(missing_docs)]

use std::ops::Range;
use std::rc::Rc;

use modpeg_interp::CompiledGrammar;
use modpeg_runtime::{
    engine, ChunkMemo, Outcome, ParseError, ParseFault, ParseRequest, Stats, SyntaxTree,
};

/// An incremental parse session: one document, one memo table, reparsed
/// after each batch of edits with memoized results reused where sound.
///
/// See the [crate docs](crate) for the reuse rules and an example.
#[derive(Debug)]
pub struct ParseSession {
    grammar: Rc<CompiledGrammar>,
    doc: String,
    memo: ChunkMemo,
    /// Whether memo entries may be carried across edits: the grammar is
    /// stateless and compiled with chunked memoization.
    reusable: bool,
    /// Whether `memo` holds entries for the current `doc` (false until the
    /// first parse and after `set_text`).
    primed: bool,
    /// Edit-report counters accumulated since the last parse; folded into
    /// that parse's stats.
    pending: Stats,
    /// Region bytes past which the next parse compacts the memo's region
    /// (twice its size after the last compaction or from-scratch parse).
    compact_at: u64,
    last_stats: Stats,
    total_stats: Stats,
}

impl ParseSession {
    /// Creates a session over `text`.
    ///
    /// For memo reuse across edits, compile the grammar with
    /// [`OptConfig::incremental`] (or at least the `chunks` optimization);
    /// any other configuration — and any grammar that uses parser state —
    /// still works but reparses from scratch after every edit.
    ///
    /// [`OptConfig::incremental`]: modpeg_interp::OptConfig::incremental
    pub fn new(grammar: Rc<CompiledGrammar>, text: impl Into<String>) -> Self {
        let doc = text.into();
        let reusable = grammar.config().chunks && !grammar.uses_state();
        let memo = ChunkMemo::new(grammar.memo_slot_count(), doc.len() as u32);
        ParseSession {
            grammar,
            doc,
            memo,
            reusable,
            primed: false,
            pending: Stats::default(),
            compact_at: 0,
            last_stats: Stats::default(),
            total_stats: Stats::default(),
        }
    }

    /// The current document text.
    pub fn text(&self) -> &str {
        &self.doc
    }

    /// The grammar the session parses with.
    pub fn grammar(&self) -> &CompiledGrammar {
        &self.grammar
    }

    /// Whether this session carries memoized results across edits (pure
    /// grammar compiled with chunked memoization).
    pub fn is_incremental(&self) -> bool {
        self.reusable
    }

    /// Replaces the bytes `range` of the document with `replacement`,
    /// updating the carried memo table: columns whose recorded lookahead
    /// stayed left of the edit are kept, columns right of the removed
    /// window move with their text, everything else is dropped.
    ///
    /// Multiple edits may be applied between parses; later edits use
    /// post-edit coordinates of the earlier ones.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or does not fall on UTF-8
    /// character boundaries (same contract as [`String::replace_range`]).
    pub fn apply_edit(&mut self, range: Range<usize>, replacement: &str) {
        assert!(
            range.start <= range.end && range.end <= self.doc.len(),
            "edit {}..{} out of bounds for a document of {} bytes",
            range.start,
            range.end,
            self.doc.len()
        );
        self.doc.replace_range(range.clone(), replacement);
        if self.reusable && self.primed {
            let report = self.memo.apply_edit(
                range.start as u32,
                (range.end - range.start) as u32,
                replacement.len() as u32,
            );
            self.pending.memo_columns_reused += report.columns_reused;
            self.pending.memo_columns_invalidated += report.columns_invalidated;
        } else {
            self.primed = false;
        }
    }

    /// Replaces the whole document, discarding all carried memo entries
    /// (their allocations are kept): the next parse resets the table and
    /// its value region for the new text. Parsing many documents through
    /// one session this way pays the table's allocations once.
    pub fn set_text(&mut self, text: impl Into<String>) {
        self.doc = text.into();
        self.primed = false;
    }

    /// Parses the current document into a tree, reusing memoized results
    /// that survived the edits since the previous parse (when sound — see
    /// the [crate docs](crate)).
    ///
    /// # Errors
    ///
    /// Returns the same [`ParseError`] a from-scratch parse of the
    /// current text would, except that inside reused regions the "farthest
    /// failure" detail can be coarser (those failures were never
    /// re-explored).
    pub fn parse(&mut self) -> Result<SyntaxTree, ParseError> {
        engine::tree_result(self.run(ParseRequest::tree())).0
    }

    /// Parses the current document as `req` asks — any mode, optionally
    /// governed and with telemetry — on the session's memo table, exactly
    /// as [`ParseSession::parse`] does for trees. The session-reuse
    /// summary (columns reused, invalidated and shifted) goes to the
    /// request's telemetry handle.
    ///
    /// On an abort the session stays fully usable: the document is
    /// untouched, and a later parse (or a governed retry with a fresh or
    /// [reset] governor) picks up where the session left off. Memo entries
    /// stored before the abort are carried into the retry when that is
    /// sound — the grammar must be incremental-reusable *and* compiled
    /// with the `left-recursion` optimization (Warth-style seed growing
    /// parks provisional answers in the table mid-evaluation, so without
    /// it an aborted run's memo is discarded instead).
    ///
    /// Resilient requests read and fill the session's table like any
    /// other: restarts only ever *read* entries, and a later edit
    /// invalidates overlapping columns the usual way. Trees and error
    /// offsets/spans are identical to a from-scratch resilient parse of
    /// the current text; as with [`ParseSession::parse`], the
    /// *expected-set* detail of a diagnostic inside a reused region can be
    /// coarser.
    ///
    /// [reset]: modpeg_runtime::Governor::reset
    pub fn run(&mut self, req: ParseRequest<'_>) -> Outcome {
        let from_scratch = !self.reusable || !self.primed;
        if from_scratch {
            // No sound reuse possible: parse against an empty table
            // (keeping its allocations).
            self.memo
                .reset_for(self.grammar.memo_slot_count(), self.doc.len() as u32);
        }
        let telem = req.telemetry;
        let (result, mut stats) = self.grammar.run_incremental(&self.doc, req, &mut self.memo);
        // An aborted run's table holds only complete answers, but under
        // seed-growing left recursion it may also hold parked provisional
        // seeds — only fold-based left recursion makes retry reuse sound.
        self.primed = match &result {
            Err(ParseFault::Abort(_)) => self.reusable && self.grammar.config().left_recursion_iter,
            _ => true,
        };
        stats.memo_columns_reused += self.pending.memo_columns_reused;
        stats.memo_columns_invalidated += self.pending.memo_columns_invalidated;
        self.pending = Stats::default();
        // The run's trees are copied out and its events emitted, so the
        // memo holds the only region handles left. Compact once the region
        // has doubled since the last compaction or from-scratch parse: a
        // pass scans the table and copies the live values once, so its
        // cost is paid for by the many reparses it takes the region to
        // double, and the region stays within about twice what the
        // document needs.
        let used = self.memo.arena().used_bytes();
        if from_scratch {
            self.compact_at = 2 * used;
        } else if self.primed && used > self.compact_at {
            let report = self.memo.compact();
            stats.arena_compactions += 1;
            stats.arena_nodes_reclaimed += report.reclaimed();
            self.compact_at = 2 * self.memo.arena().used_bytes();
        }
        if let Some(telem) = telem {
            telem.session_reuse(
                stats.memo_columns_reused,
                stats.memo_columns_invalidated,
                stats.memo_entries_shifted,
            );
        }
        self.total_stats.merge(&stats);
        self.last_stats = stats.clone();
        (result, stats)
    }

    /// Statistics of the most recent parse (in any mode), including
    /// the column reuse/invalidation counts of the edits that preceded it.
    pub fn last_stats(&self) -> &Stats {
        &self.last_stats
    }

    /// Statistics accumulated over every parse of this session.
    pub fn stats(&self) -> &Stats {
        &self.total_stats
    }

    /// The session's memo table. The value region lives inside it (see
    /// [`ChunkMemo::arena`]), which is what makes recycling and
    /// compaction sound: entries and the region they point into are
    /// reset together, or moved together to the next generation, so no
    /// entry can hold a stale handle. Between edits the region holds the
    /// values the entries reach plus the garbage of dropped entries; a
    /// reparse compacts it once it has doubled since the last compaction
    /// or from-scratch parse, so it stays within about twice what the
    /// document needs.
    pub fn memo(&self) -> &ChunkMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modpeg_core::{CharClass, Expr as E, Grammar, GrammarBuilder, ProdKind};
    use modpeg_interp::OptConfig;
    use modpeg_runtime::{Governor, ParseAbort, Parsed, RecoverPolicy, Recovered};
    use modpeg_telemetry::Telemetry;
    use modpeg_workload::rng::StdRng;

    fn governed(session: &mut ParseSession, gov: &Governor) -> Result<SyntaxTree, ParseFault> {
        session
            .run(ParseRequest::tree().governed(gov))
            .0
            .map(Parsed::into_tree)
    }

    fn resilient(session: &mut ParseSession, policy: &RecoverPolicy) -> Recovered<SyntaxTree> {
        engine::recovered_result(session.run(ParseRequest::resilient(policy)))
    }

    fn compile(g: &Grammar) -> Rc<CompiledGrammar> {
        Rc::new(CompiledGrammar::compile(g, OptConfig::incremental()).unwrap())
    }

    fn calc() -> Rc<CompiledGrammar> {
        compile(&modpeg_grammars::calc_grammar().unwrap())
    }

    #[test]
    fn edit_then_parse_matches_from_scratch() {
        let parser = calc();
        let mut session = ParseSession::new(parser.clone(), "1+2*3+4");
        assert!(session.parse().is_ok());
        session.apply_edit(2..3, "(5-6)");
        assert_eq!(session.text(), "1+(5-6)*3+4");
        let incremental = session.parse().unwrap().to_sexpr();
        let scratch = parser.parse(session.text()).unwrap().to_sexpr();
        assert_eq!(incremental, scratch);
        let stats = session.last_stats();
        assert!(stats.memo_columns_reused > 0, "{stats:?}");
    }

    #[test]
    fn plan_compiled_grammar_sessions_match_from_scratch() {
        // A profile-guided plan in its incremental projection (transient
        // set cleared — unmemoized results cannot be reused across edits)
        // must leave session reparses tree-identical to from-scratch.
        use modpeg_core::transform::TuningPlan;
        let g = modpeg_grammars::calc_grammar().unwrap();
        let plan = TuningPlan {
            fingerprint: modpeg_core::transform::grammar_fingerprint(&g),
            memoize: ["calc.Expr".to_string(), "calc.Term".to_string()].into(),
            transient: ["calc.Spacing".to_string()].into(),
            ..TuningPlan::default()
        }
        .for_incremental();
        assert!(plan.transient.is_empty());
        let parser = Rc::new(
            CompiledGrammar::compile_with_plan(&g, OptConfig::incremental(), Some(&plan)).unwrap(),
        );
        let mut session = ParseSession::new(parser.clone(), "1+2*3+4");
        assert!(session.parse().is_ok());
        session.apply_edit(2..3, "(5-6)");
        let incremental = session.parse().unwrap().to_sexpr();
        let scratch = parser.parse(session.text()).unwrap().to_sexpr();
        assert_eq!(incremental, scratch);
    }

    #[test]
    fn resilient_reparse_after_edit_matches_from_scratch() {
        let parser = calc();
        let policy = parser.recover_policy();
        // "1+?*3+4" is malformed at the `?`; the resilient session parse
        // must agree with a from-scratch resilient parse, before and
        // after edits (including an edit that repairs the document).
        let mut session = ParseSession::new(parser.clone(), "11+22*33+?4");
        let rec = resilient(&mut session, &policy);
        let scratch = parser.parse_resilient(session.text(), &policy);
        assert_eq!(rec.tree.to_sexpr(), scratch.tree.to_sexpr());
        assert_eq!(rec.diagnostics, scratch.diagnostics);
        assert!(!rec.diagnostics.is_clean());

        session.apply_edit(0..2, "777");
        assert_eq!(session.text(), "777+22*33+?4");
        let rec = resilient(&mut session, &policy);
        let scratch = parser.parse_resilient(session.text(), &policy);
        assert_eq!(rec.tree.to_sexpr(), scratch.tree.to_sexpr());
        // Trees, offsets, and spans match from-scratch; the expected-set
        // detail inside reused regions may be coarser (same caveat as
        // `parse`), so compare everything but that.
        assert_eq!(
            rec.diagnostics.error_count(),
            scratch.diagnostics.error_count()
        );
        for (a, b) in rec
            .diagnostics
            .errors
            .iter()
            .zip(&scratch.diagnostics.errors)
        {
            assert_eq!(a.error.offset(), b.error.offset());
            assert_eq!(a.skipped, b.skipped);
        }
        let stats = session.last_stats();
        assert!(stats.memo_columns_reused > 0, "{stats:?}");

        // Repair the document: the next resilient parse is clean and
        // identical to a plain session parse.
        session.apply_edit(10..11, "");
        assert_eq!(session.text(), "777+22*33+4");
        let rec = resilient(&mut session, &policy);
        assert!(rec.diagnostics.is_clean());
        assert_eq!(
            rec.tree.to_sexpr(),
            parser.parse(session.text()).unwrap().to_sexpr()
        );
    }

    #[test]
    fn reuse_counters_report_shifted_and_reused_columns() {
        // A size-changing edit near the front: columns to the right of the
        // damage survive, but at shifted positions — so the reparse must
        // report both reused columns and shifted entries, and the
        // invalidation of the damaged region itself.
        let parser = calc();
        let mut session = ParseSession::new(parser.clone(), "11+22*33+(44-55)");
        assert!(session.parse().is_ok());
        session.apply_edit(0..2, "777"); // "777+22*33+(44-55)" — delta +1
        let incremental = session.parse().unwrap().to_sexpr();
        assert_eq!(
            incremental,
            parser.parse(session.text()).unwrap().to_sexpr()
        );
        let stats = session.last_stats();
        assert!(
            stats.memo_columns_reused > 0,
            "columns right of the edit must be reused: {stats:?}"
        );
        assert!(
            stats.memo_entries_shifted > 0,
            "a size-changing edit must shift surviving entries: {stats:?}"
        );
        assert!(
            stats.memo_columns_invalidated > 0,
            "the damaged prefix must be invalidated: {stats:?}"
        );
    }

    #[test]
    fn multiple_edits_between_parses_compose() {
        let parser = calc();
        let mut session = ParseSession::new(parser.clone(), "11+22+33+44");
        assert!(session.parse().is_ok());
        session.apply_edit(0..2, "9"); // "9+22+33+44"
        session.apply_edit(2..4, "888"); // "9+888+33+44"
        session.apply_edit(10..11, ""); // "9+888+33+4"
        assert_eq!(session.text(), "9+888+33+4");
        assert_eq!(
            session.parse().unwrap().to_sexpr(),
            parser.parse("9+888+33+4").unwrap().to_sexpr()
        );
    }

    #[test]
    fn parse_errors_agree_on_acceptance_after_edits() {
        let parser = calc();
        let mut session = ParseSession::new(parser.clone(), "1+2");
        assert!(session.parse().is_ok());
        session.apply_edit(1..2, "%"); // "1%2" — no longer a calc expression
        assert!(session.parse().is_err());
        session.apply_edit(1..2, "*");
        assert_eq!(session.text(), "1*2");
        assert!(session.parse().is_ok());
    }

    #[test]
    fn random_edit_scripts_agree_with_scratch_parses() {
        let parser = calc();
        let mut failures_checked = 0u32;
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0xE417 ^ seed);
            let doc = modpeg_workload::calc_expression(seed, 160);
            let mut session = ParseSession::new(parser.clone(), doc);
            session.parse().unwrap();
            for _ in 0..6 {
                let len = session.text().len();
                let lo = rng.gen_range(0..=len);
                let hi = rng.gen_range(lo..=len.min(lo + 8));
                let insert: String = (0..rng.gen_range(0usize..4))
                    .map(|_| {
                        let options = b"0123456789+-*() ";
                        options[rng.gen_range(0..options.len())] as char
                    })
                    .collect();
                session.apply_edit(lo..hi, &insert);
                let incremental = session.parse();
                let scratch = parser.parse(session.text());
                assert_eq!(
                    incremental.is_ok(),
                    scratch.is_ok(),
                    "seed {seed}: acceptance diverged on {:?}",
                    session.text()
                );
                match (incremental, scratch) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        a.to_sexpr(),
                        b.to_sexpr(),
                        "seed {seed}: trees diverged on {:?}",
                        session.text()
                    ),
                    _ => failures_checked += 1,
                }
            }
        }
        // The edit script must exercise both accepted and rejected texts.
        assert!(failures_checked > 0);
    }

    fn typedef_grammar() -> Grammar {
        // Decl defines a name; Use only matches defined names. An edit to
        // a Decl changes the meaning of distant Uses — the session must
        // not reuse memoized results across it.
        let lc = || E::Class(CharClass::from_ranges(vec![('a', 'z')], false));
        let mut b = GrammarBuilder::new("m");
        b.production(
            "Prog",
            ProdKind::Node,
            vec![(Some("P".into()), E::Plus(Box::new(E::Ref("Item".into()))))],
        );
        b.production(
            "Item",
            ProdKind::Node,
            vec![
                (
                    Some("Decl".into()),
                    E::seq(vec![
                        E::literal("def "),
                        E::StateDefine(Box::new(E::Ref("Name".into()))),
                        E::literal(";"),
                    ]),
                ),
                (
                    Some("Use".into()),
                    E::seq(vec![
                        E::StateIsDef(Box::new(E::Ref("Name".into()))),
                        E::literal(";"),
                    ]),
                ),
            ],
        );
        b.production(
            "Name",
            ProdKind::Text,
            vec![(None, E::Capture(Box::new(E::Plus(Box::new(lc())))))],
        );
        b.build("Prog").unwrap()
    }

    #[test]
    fn stateful_grammar_falls_back_to_full_reparses() {
        let parser = compile(&typedef_grammar());
        assert!(parser.uses_state());
        let mut session = ParseSession::new(parser.clone(), "def foo;foo;foo;");
        assert!(!session.is_incremental());
        assert!(session.parse().is_ok());
        // Renaming the declaration invalidates the *distant* uses even
        // though their bytes never changed; a session that reused their
        // memo entries would wrongly accept this text.
        session.apply_edit(4..7, "bar");
        assert_eq!(session.text(), "def bar;foo;foo;");
        assert!(session.parse().is_err());
        assert_eq!(session.last_stats().memo_columns_reused, 0);
        // And an edit that fixes the uses is picked up too.
        session.apply_edit(8..16, "bar;");
        assert_eq!(session.text(), "def bar;bar;");
        assert!(session.parse().is_ok());
    }

    #[test]
    fn non_chunk_config_still_works_without_reuse() {
        let g = modpeg_grammars::calc_grammar().unwrap();
        let cfg = OptConfig::all_except("chunks").unwrap();
        let parser = Rc::new(CompiledGrammar::compile(&g, cfg).unwrap());
        let mut session = ParseSession::new(parser, "1+2");
        assert!(!session.is_incremental());
        assert!(session.parse().is_ok());
        session.apply_edit(0..1, "7");
        assert!(session.parse().is_ok());
        assert_eq!(session.last_stats().memo_columns_reused, 0);
    }

    #[test]
    fn set_text_discards_carried_entries() {
        let parser = calc();
        let mut session = ParseSession::new(parser.clone(), "1+2");
        assert!(session.parse().is_ok());
        session.set_text("((((3))))");
        let t = session.parse().unwrap();
        assert_eq!(t.to_sexpr(), parser.parse("((((3))))").unwrap().to_sexpr());
        assert_eq!(session.last_stats().memo_columns_reused, 0);
    }

    #[test]
    fn session_stays_usable_after_every_abort_variant() {
        use modpeg_runtime::CancelToken;
        use std::time::Duration;
        let parser = calc();
        let doc = modpeg_workload::calc_expression(11, 400);
        let scratch = parser.parse(&doc).unwrap().to_sexpr();
        let aborts: Vec<(ParseAbort, Governor)> = vec![
            (ParseAbort::FuelExhausted, Governor::new().with_fuel(3)),
            (
                ParseAbort::DeadlineExceeded,
                Governor::new().with_deadline(Duration::ZERO),
            ),
            (ParseAbort::Cancelled, {
                let token = CancelToken::new();
                token.cancel();
                Governor::new().with_cancel(token)
            }),
            (ParseAbort::DepthExceeded, Governor::new().with_max_depth(2)),
            (ParseAbort::MemoBudget, Governor::new().with_memo_budget(16)),
        ];
        for (expected, gov) in aborts {
            let mut session = ParseSession::new(parser.clone(), doc.clone());
            let fault = governed(&mut session, &gov).unwrap_err();
            assert_eq!(fault.abort(), Some(expected));
            // The session recovers: an ungoverned parse succeeds...
            assert_eq!(session.parse().unwrap().to_sexpr(), scratch, "{expected:?}");
            // ...and so does editing + reparsing after a second abort
            // (zero fuel trips on the very first tick, memo hits or not).
            let gov2 = Governor::new().with_fuel(0);
            assert!(governed(&mut session, &gov2).is_err());
            session.apply_edit(0..0, "0+");
            let edited = session.parse().unwrap().to_sexpr();
            assert_eq!(
                edited,
                parser.parse(session.text()).unwrap().to_sexpr(),
                "{expected:?}"
            );
        }
    }

    #[test]
    fn governed_retry_reuses_memo_only_under_fold_left_recursion() {
        // Fold-based left recursion (OptConfig::incremental) leaves only
        // complete answers behind an abort: the retry may keep the table,
        // and therefore re-evaluates fewer productions than a scratch
        // parse of the same text.
        let parser = calc();
        let doc = modpeg_workload::calc_expression(3, 400);
        let mut session = ParseSession::new(parser.clone(), doc.clone());
        let probe = Governor::new();
        let reference = governed(&mut session, &probe).unwrap().to_sexpr();
        let total = probe.steps();
        let scratch_evals = session.last_stats().productions_evaluated;
        let mut session = ParseSession::new(parser.clone(), doc.clone());
        let gov = Governor::new().with_fuel(total / 2);
        assert!(governed(&mut session, &gov).is_err());
        let retry = governed(&mut session, &Governor::new()).unwrap();
        assert_eq!(retry.to_sexpr(), reference);
        assert!(
            session.last_stats().productions_evaluated < scratch_evals,
            "retry should reuse pre-abort answers: {} vs scratch {}",
            session.last_stats().productions_evaluated,
            scratch_evals
        );
        // Warth-style seed growing parks provisional seeds mid-evaluation:
        // the session must discard the aborted run's table instead, so the
        // retry re-does the full scratch amount of work.
        let mut cfg = OptConfig::incremental();
        assert!(cfg.set("left-recursion", false));
        let g = modpeg_grammars::calc_grammar().unwrap();
        let seeded = Rc::new(CompiledGrammar::compile(&g, cfg).unwrap());
        let mut session = ParseSession::new(seeded.clone(), doc.clone());
        session.parse().unwrap();
        let scratch_evals = session.last_stats().productions_evaluated;
        let mut session = ParseSession::new(seeded.clone(), doc.clone());
        let gov = Governor::new().with_fuel(total / 2);
        assert!(governed(&mut session, &gov).is_err());
        let retry = governed(&mut session, &Governor::new()).unwrap();
        assert_eq!(retry.to_sexpr(), reference);
        assert_eq!(
            session.last_stats().productions_evaluated,
            scratch_evals,
            "seed-growing retry must start from an empty table"
        );
    }

    #[test]
    fn request_telemetry_reports_session_reuse() {
        use modpeg_telemetry::{mask, EventKind};
        let parser = calc();
        let mut session = ParseSession::new(parser, "11+22*33+44");
        let telem = Telemetry::collector(4096).with_mask(mask::ALL);
        let req = || ParseRequest::tree().with_telemetry(&telem);
        assert!(session.run(req()).0.is_ok());
        session.apply_edit(0..2, "9");
        assert!(session.run(req()).0.is_ok());
        let report = telem.take_report();
        let reuse: Vec<_> = report
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SessionReuse {
                    reused,
                    invalidated,
                    shifted,
                } => Some((reused, invalidated, shifted)),
                _ => None,
            })
            .collect();
        assert_eq!(reuse.len(), 2, "one summary per parse");
        assert_eq!(reuse[0], (0, 0, 0), "priming parse has nothing to reuse");
        assert!(reuse[1].0 > 0, "edit reparse must reuse columns: {reuse:?}");
        // The spans come from the same collector.
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Enter { .. })));
    }
}
