//! A plain backtracking PEG recognizer — no memoization at all.
//!
//! This is the "before" of packrat parsing: the same recursive-descent
//! strategy, but every ordered-choice retry re-parses from scratch. On
//! well-behaved grammars it is merely slower; on backtracking-heavy
//! grammars it is exponential ([`modpeg_workload::pathological_input`]'s
//! pairing demonstrates the blowup in experiment E5).
//!
//! It is deliberately a *recognizer* (no tree construction), which flatters
//! it in throughput comparisons — a conservative choice for the paper's
//! claims, noted in `EXPERIMENTS.md`.

use modpeg_core::{Expr, Grammar, ProdId};
use modpeg_runtime::{Input, ScopedState, DEFAULT_MAX_DEPTH};

/// A recognizer that tries alternatives by brute backtracking.
///
/// # Examples
///
/// ```
/// use modpeg_baseline::BacktrackParser;
///
/// let set = modpeg_syntax::parse_module_set([
///     "module m; public P = \"a\"+ !. ;",
/// ])?;
/// let grammar = set.elaborate("m", None)?;
/// let parser = BacktrackParser::new(&grammar);
/// assert!(parser.recognize("aaa").is_ok());
/// assert!(parser.recognize("aab").is_err());
/// # Ok::<(), modpeg_core::Diagnostics>(())
/// ```
#[derive(Debug)]
pub struct BacktrackParser<'g> {
    grammar: &'g Grammar,
}

/// Everything one [`BacktrackParser::recognize_with_depth`] call learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecognizeOutcome {
    /// The verdict: accepted, or the farthest failure offset.
    ///
    /// Not authoritative when [`RecognizeOutcome::depth_exceeded`] is set —
    /// the guard cut branches off mid-search, so treat the whole attempt
    /// as aborted rather than as a rejection.
    pub result: Result<(), u32>,
    /// Expression evaluations performed (the backtracking work).
    pub steps: u64,
    /// Whether the recursion-depth guard tripped. The recognizer has no
    /// memo table to shrink its recursion, so without the guard deeply
    /// nested input overflows the machine stack and kills the process.
    pub depth_exceeded: bool,
}

struct Run<'g, 'i> {
    grammar: &'g Grammar,
    input: Input<'i>,
    state: ScopedState,
    farthest: u32,
    /// Failure recording is suppressed inside predicates, matching the
    /// interpreter: a predicate's internal failures are speculation, not
    /// expectations at its position (found by the conformance harness).
    suppress: u32,
    /// Expression evaluations — the work counter the experiments report.
    steps: u64,
    /// Expression frames currently on the machine stack.
    depth: u32,
    max_depth: u32,
    /// Latched when the guard trips. From then on every evaluation fails
    /// fast; the final verdict is discarded by the caller, so a guard
    /// failure "inverting" inside a `!p` predicate cannot leak out as a
    /// bogus accept.
    overflowed: bool,
}

impl<'g> BacktrackParser<'g> {
    /// Wraps an elaborated grammar.
    pub fn new(grammar: &'g Grammar) -> Self {
        BacktrackParser { grammar }
    }

    /// Recognizes `input` (full consumption required).
    ///
    /// Recursion is capped at [`DEFAULT_MAX_DEPTH`] expression frames:
    /// input nested deeper than that is rejected conservatively instead of
    /// overflowing the stack. Use [`recognize_with_depth`] to tell the two
    /// apart (or to pick another ceiling).
    ///
    /// [`recognize_with_depth`]: BacktrackParser::recognize_with_depth
    ///
    /// # Errors
    ///
    /// Returns the farthest failure offset on rejection.
    pub fn recognize(&self, input: &str) -> Result<(), u32> {
        self.recognize_counting(input).0
    }

    /// Like [`recognize`], also returning the number of expression
    /// evaluations performed (the backtracking work) — on success *and*
    /// on failure, since the exponential blowup shows up on rejections.
    ///
    /// [`recognize`]: BacktrackParser::recognize
    pub fn recognize_counting(&self, input: &str) -> (Result<(), u32>, u64) {
        let o = self.recognize_with_depth(input, DEFAULT_MAX_DEPTH);
        (o.result, o.steps)
    }

    /// Like [`recognize`], with an explicit recursion ceiling and an
    /// explicit signal when it was hit.
    ///
    /// [`recognize`]: BacktrackParser::recognize
    pub fn recognize_with_depth(&self, input: &str, max_depth: u32) -> RecognizeOutcome {
        let mut run = Run {
            grammar: self.grammar,
            input: Input::new(input),
            state: ScopedState::new(),
            farthest: 0,
            suppress: 0,
            steps: 0,
            depth: 0,
            max_depth,
            overflowed: false,
        };
        let result = match run.eval_prod(self.grammar.root(), 0) {
            Some(end) if end == run.input.len() => Ok(()),
            Some(end) => Err(run.farthest.max(end)),
            None => Err(run.farthest),
        };
        RecognizeOutcome {
            result,
            steps: run.steps,
            depth_exceeded: run.overflowed,
        }
    }
}

impl<'g, 'i> Run<'g, 'i> {
    fn fail(&mut self, pos: u32) -> Option<u32> {
        if self.suppress == 0 && pos > self.farthest {
            self.farthest = pos;
        }
        None
    }

    fn eval_prod(&mut self, id: ProdId, pos: u32) -> Option<u32> {
        let prod = self.grammar.production(id);
        match &prod.lr {
            Some(lr) => {
                // Fold-style left recursion (the only strategy that makes
                // sense without a memo table).
                let mut end = lr.bases.iter().find_map(|alt| {
                    let mark = self.state.mark();
                    match self.eval(&alt.expr, pos) {
                        Some(e) => Some(e),
                        None => {
                            self.state.rollback(mark);
                            None
                        }
                    }
                })?;
                'grow: loop {
                    for tail in &lr.tails {
                        let mark = self.state.mark();
                        match self.eval(&tail.expr, end) {
                            Some(e) => {
                                end = e;
                                continue 'grow;
                            }
                            None => self.state.rollback(mark),
                        }
                    }
                    return Some(end);
                }
            }
            None => {
                for alt in &prod.alts {
                    let mark = self.state.mark();
                    match self.eval(&alt.expr, pos) {
                        Some(e) => return Some(e),
                        None => self.state.rollback(mark),
                    }
                }
                self.fail(pos)
            }
        }
    }

    /// Depth-guarded expression evaluation: counts held expression frames
    /// (the same model the governed engines use) and fails fast once the
    /// ceiling is hit or has been hit anywhere in this run.
    fn eval(&mut self, expr: &Expr<ProdId>, pos: u32) -> Option<u32> {
        if self.overflowed {
            return None;
        }
        if self.depth >= self.max_depth {
            self.overflowed = true;
            return None;
        }
        self.depth += 1;
        let r = self.eval_expr(expr, pos);
        self.depth -= 1;
        r
    }

    fn eval_expr(&mut self, expr: &Expr<ProdId>, pos: u32) -> Option<u32> {
        self.steps += 1;
        match expr {
            Expr::Empty => Some(pos),
            Expr::Any => match self.input.char_at(pos) {
                Some((_, len)) => Some(pos + len),
                None => self.fail(pos),
            },
            Expr::Literal(s) => {
                if self.input.starts_with(pos, s) {
                    Some(pos + s.len() as u32)
                } else {
                    self.fail(pos)
                }
            }
            Expr::Class(c) => match self.input.char_at(pos) {
                Some((ch, len)) if c.matches(ch) => Some(pos + len),
                _ => self.fail(pos),
            },
            Expr::Ref(id) => self.eval_prod(*id, pos),
            Expr::Seq(xs) => {
                let mut p = pos;
                for x in xs {
                    p = self.eval(x, p)?;
                }
                Some(p)
            }
            Expr::Choice(xs) => {
                for x in xs {
                    let mark = self.state.mark();
                    match self.eval(x, pos) {
                        Some(e) => return Some(e),
                        None => self.state.rollback(mark),
                    }
                }
                None
            }
            Expr::Opt(e) => {
                let mark = self.state.mark();
                match self.eval(e, pos) {
                    Some(p) => Some(p),
                    None => {
                        self.state.rollback(mark);
                        Some(pos)
                    }
                }
            }
            Expr::Star(e) => {
                let mut p = pos;
                loop {
                    let mark = self.state.mark();
                    match self.eval(e, p) {
                        Some(np) if np > p => p = np,
                        _ => {
                            self.state.rollback(mark);
                            return Some(p);
                        }
                    }
                }
            }
            Expr::Plus(e) => {
                let mut p = self.eval(e, pos)?;
                loop {
                    let mark = self.state.mark();
                    match self.eval(e, p) {
                        Some(np) if np > p => p = np,
                        _ => {
                            self.state.rollback(mark);
                            return Some(p);
                        }
                    }
                }
            }
            Expr::And(e) => {
                let mark = self.state.mark();
                self.suppress += 1;
                let r = self.eval(e, pos);
                self.suppress -= 1;
                self.state.rollback(mark);
                r.map(|_| pos)
            }
            Expr::Not(e) => {
                let mark = self.state.mark();
                self.suppress += 1;
                let r = self.eval(e, pos);
                self.suppress -= 1;
                self.state.rollback(mark);
                match r {
                    Some(_) => None,
                    None => Some(pos),
                }
            }
            Expr::Capture(e) | Expr::Void(e) => self.eval(e, pos),
            Expr::StateDefine(e) => {
                let end = self.eval(e, pos)?;
                let name = self.input.slice(modpeg_runtime::Span::new(pos, end));
                let name = name.trim_end().to_owned();
                self.state.define(&name);
                Some(end)
            }
            Expr::StateIsDef(e) => {
                let end = self.eval(e, pos)?;
                let name = self.input.slice(modpeg_runtime::Span::new(pos, end));
                if self.state.is_defined(name.trim_end()) {
                    Some(end)
                } else {
                    self.fail(pos)
                }
            }
            Expr::StateIsNotDef(e) => {
                let end = self.eval(e, pos)?;
                let name = self.input.slice(modpeg_runtime::Span::new(pos, end));
                if self.state.is_defined(name.trim_end()) {
                    self.fail(pos)
                } else {
                    Some(end)
                }
            }
            Expr::StateScope(e) => {
                let mark = self.state.mark();
                self.state.push_scope();
                match self.eval(e, pos) {
                    Some(end) => {
                        self.state.pop_scope();
                        Some(end)
                    }
                    None => {
                        self.state.rollback(mark);
                        None
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grammar(src: &str, root: &str) -> Grammar {
        modpeg_syntax::parse_module_set([src])
            .unwrap()
            .elaborate(root, None)
            .unwrap()
    }

    #[test]
    fn recognizes_and_rejects() {
        let g = grammar("module m; public P = (\"ab\" / \"a\")+ !. ;", "m");
        let p = BacktrackParser::new(&g);
        assert!(p.recognize("abab").is_ok());
        assert!(p.recognize("aab").is_ok());
        assert!(p.recognize("abc").is_err());
        assert_eq!(p.recognize("abc").unwrap_err(), 2);
    }

    #[test]
    fn left_recursion_folds() {
        let g = grammar(
            "module m; public E = <Add> E \"+\" N / N ; String N = $[0-9]+ ;",
            "m",
        );
        let p = BacktrackParser::new(&g);
        assert!(p.recognize("1+2+3").is_ok());
        assert!(p.recognize("1+").is_err());
    }

    #[test]
    fn exponential_work_on_pathological_grammar() {
        let g = grammar(modpeg_workload::PATHOLOGICAL_GRAMMAR, "pathological");
        let p = BacktrackParser::new(&g);
        // Even-length inputs are rejected; work roughly doubles per char.
        let (r10, w10) = p.recognize_counting(&"a".repeat(10));
        let (r16, w16) = p.recognize_counting(&"a".repeat(16));
        assert!(r10.is_err() && r16.is_err());
        assert!(w16 > w10 * 8, "w10={w10}, w16={w16}");
    }

    #[test]
    fn predicate_failures_do_not_move_the_farthest_mark() {
        // `ab` matches A, then `!C` peeks `cd` and fails one char in; that
        // speculative progress must not count as the farthest failure.
        let g = grammar("module m; public P = \"ab\" !(\"cd\") \"x\" !. ;", "m");
        let p = BacktrackParser::new(&g);
        assert!(p.recognize("abx").is_ok());
        // `abq`: `!(\"cd\")` passes, then `\"x\"` fails at 2.
        assert_eq!(p.recognize("abq").unwrap_err(), 2);
        // `abcq`: the predicate peek matches `c` before failing on `q`, but
        // the reportable failure is still `\"x\"` at offset 2, not the
        // speculative offset 3 inside the predicate.
        assert_eq!(p.recognize("abcq").unwrap_err(), 2);
    }

    #[test]
    fn depth_guard_survives_pathological_nesting() {
        let g = grammar("module m; public V = \"[\" V \"]\" / $[0-9]+ ;", "m");
        let p = BacktrackParser::new(&g);
        // 100k-deep nesting used to overflow the stack and kill the
        // process; now the guard trips and reports it.
        let deep = format!("{}7{}", "[".repeat(100_000), "]".repeat(100_000));
        let o = p.recognize_with_depth(&deep, DEFAULT_MAX_DEPTH);
        assert!(o.depth_exceeded);
        assert!(p.recognize(&deep).is_err(), "conservative rejection");
        // Modest nesting is untouched by the default ceiling...
        let shallow = format!("{}7{}", "[".repeat(40), "]".repeat(40));
        let o = p.recognize_with_depth(&shallow, DEFAULT_MAX_DEPTH);
        assert_eq!(o.result, Ok(()));
        assert!(!o.depth_exceeded);
        assert!(o.steps > 0);
        // ...and a tight explicit ceiling trips on it.
        let o = p.recognize_with_depth(&shallow, 10);
        assert!(o.depth_exceeded);
    }

    #[test]
    fn state_is_rolled_back_on_backtrack() {
        let g = grammar(
            "module m;\n\
             public P = Def \"!\" / Use ;\n\
             void Def = %define($[a-z]+) ;\n\
             String Use = %isdef($[a-z]+) ;",
            "m",
        );
        let p = BacktrackParser::new(&g);
        // `abc` tries Def (defines abc) then `!` fails, backtracks
        // (undefines), then Use requires abc defined — overall reject.
        assert!(p.recognize("abc").is_err());
    }
}
