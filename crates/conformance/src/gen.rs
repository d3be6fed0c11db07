//! Grammar-aware sentence generation.
//!
//! The generator walks the elaborated grammar's expression tree with a
//! deterministic [`StdRng`], emitting terminals as it goes. Termination is
//! guaranteed by the shortest-derivation-height analysis
//! ([`modpeg_core::analysis::derivation_heights`]): every committed
//! subexpression must fit the remaining depth budget, so once the budget
//! runs low the walk is forced down the cheapest alternatives.
//!
//! Predicates (`&e`, `!e`) emit nothing — a deliberate approximation. A
//! generated sentence is therefore not always a member of the language;
//! that is fine (and useful) for differential testing, where the oracle
//! only demands that every engine returns the *same* verdict.
//!
//! When a [`Coverage`] record is installed, alternative selection is
//! biased toward alternatives the corpus so far has never matched, pushing
//! the fuzzer into the grammar's cold corners.

use modpeg_core::analysis::{derivation_heights, expr_height, UNBOUNDED_HEIGHT};
use modpeg_core::{CharClass, Expr, Grammar, ProdId};
use modpeg_interp::Coverage;
use modpeg_workload::rng::StdRng;

/// Characters used for `.`, negated classes, and other "anything goes"
/// positions: printable ASCII plus the usual whitespace.
const ANY_POOL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ\
                          0123456789 _+-*/(){}[]<>=!&|.,;:'\"\n\t";

/// Tuning knobs for [`Generator::generate`].
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Depth budget for the derivation walk; clamped up to the grammar's
    /// own minimum height when too small.
    pub max_depth: u32,
    /// Soft output-size bound: once reached, the walk switches to minimal
    /// choices and zero repetitions.
    pub max_len: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 26,
            max_len: 240,
        }
    }
}

/// A sentence generator for one elaborated grammar.
#[derive(Debug)]
pub struct Generator<'g> {
    grammar: &'g Grammar,
    heights: Vec<u32>,
    /// Per-production alternative hit counts (aligned with `p.alts`), when
    /// coverage bias is installed and the row shape matches.
    bias: Vec<Option<Vec<u64>>>,
}

impl<'g> Generator<'g> {
    /// Builds a generator (runs the derivation-height analysis once).
    pub fn new(grammar: &'g Grammar) -> Self {
        Generator {
            heights: derivation_heights(grammar),
            bias: vec![None; grammar.len()],
            grammar,
        }
    }

    /// The minimum depth budget that can derive the root at all.
    pub fn min_depth(&self) -> u32 {
        self.heights[self.grammar.root().index()]
    }

    /// Installs coverage-guided bias: alternatives with zero hits are
    /// preferred on subsequent generations. The coverage must come from a
    /// parser compiled with every grammar transform disabled
    /// (`OptConfig::none()`), so production and alternative indices line up
    /// with the elaborated grammar; rows that do not line up are ignored.
    pub fn set_bias(&mut self, coverage: &Coverage) {
        for (id, prod) in self.grammar.iter() {
            self.bias[id.index()] = coverage
                .hits_row(&prod.name)
                .filter(|row| row.len() == prod.alts.len())
                .map(<[u64]>::to_vec);
        }
    }

    /// Generates one sentence.
    pub fn generate(&self, rng: &mut StdRng, cfg: &GenConfig) -> String {
        let root = self.grammar.root();
        let budget = cfg.max_depth.max(self.min_depth().saturating_add(2));
        let mut out = String::new();
        self.gen_prod(root, budget, cfg.max_len, &mut out, rng);
        out
    }

    fn gen_prod(&self, id: ProdId, depth: u32, max_len: usize, out: &mut String, rng: &mut StdRng) {
        let prod = self.grammar.production(id);
        let inner = depth.saturating_sub(1);
        // Alternatives whose minimum height fits the remaining budget.
        let feasible: Vec<usize> = prod
            .alts
            .iter()
            .enumerate()
            .filter(|(_, a)| expr_height(&a.expr, &self.heights) <= inner)
            .map(|(i, _)| i)
            .collect();
        let pick = if feasible.is_empty() {
            // Budget exhausted mid-recursion (or unreachable-height prod):
            // fall back to the globally cheapest alternative.
            prod.alts
                .iter()
                .enumerate()
                .min_by_key(|(_, a)| expr_height(&a.expr, &self.heights))
                .map(|(i, _)| i)
        } else if out.len() >= max_len {
            // Over the size budget: cheapest feasible alternative.
            feasible
                .iter()
                .copied()
                .min_by_key(|&i| expr_height(&prod.alts[i].expr, &self.heights))
        } else {
            // Coverage bias: three times out of four, chase an uncovered
            // feasible alternative when one exists.
            let uncovered: Vec<usize> = match &self.bias[id.index()] {
                Some(hits) => feasible.iter().copied().filter(|&i| hits[i] == 0).collect(),
                None => Vec::new(),
            };
            if !uncovered.is_empty() && rng.gen_ratio(3, 4) {
                Some(uncovered[rng.gen_range(0..uncovered.len())])
            } else {
                Some(feasible[rng.gen_range(0..feasible.len())])
            }
        };
        if let Some(i) = pick {
            self.gen_expr(&prod.alts[i].expr, inner, max_len, out, rng);
        }
    }

    fn gen_expr(
        &self,
        e: &Expr<ProdId>,
        depth: u32,
        max_len: usize,
        out: &mut String,
        rng: &mut StdRng,
    ) {
        match e {
            Expr::Empty => {}
            Expr::Any => out.push(ANY_POOL[rng.gen_range(0..ANY_POOL.len())] as char),
            Expr::Literal(s) => out.push_str(s),
            Expr::Class(c) => out.push(sample_class(c, rng)),
            Expr::Ref(r) => self.gen_prod(*r, depth, max_len, out, rng),
            Expr::Seq(xs) => {
                for x in xs {
                    self.gen_expr(x, depth, max_len, out, rng);
                }
            }
            Expr::Choice(xs) => {
                let feasible: Vec<&Expr<ProdId>> = xs
                    .iter()
                    .filter(|x| expr_height(x, &self.heights) <= depth)
                    .collect();
                match feasible.len() {
                    0 => {
                        if let Some(x) = xs.iter().min_by_key(|x| expr_height(x, &self.heights)) {
                            self.gen_expr(x, depth, max_len, out, rng);
                        }
                    }
                    n => self.gen_expr(feasible[rng.gen_range(0..n)], depth, max_len, out, rng),
                }
            }
            Expr::Opt(inner) => {
                if self.fits(inner, depth) && out.len() < max_len && rng.gen_bool() {
                    self.gen_expr(inner, depth, max_len, out, rng);
                }
            }
            Expr::Star(inner) => {
                if self.fits(inner, depth) {
                    for _ in 0..repetitions(0, out.len(), max_len, rng) {
                        self.gen_expr(inner, depth, max_len, out, rng);
                    }
                }
            }
            Expr::Plus(inner) => {
                // `inner` fits whenever the Plus itself did; emit at least
                // one iteration regardless, since zero would be invalid.
                for _ in 0..repetitions(1, out.len(), max_len, rng) {
                    self.gen_expr(inner, depth, max_len, out, rng);
                }
            }
            // Predicates consume nothing; generating nothing for them is
            // the approximation documented in the module header.
            Expr::And(_) | Expr::Not(_) => {}
            Expr::Capture(inner)
            | Expr::Void(inner)
            | Expr::StateDefine(inner)
            | Expr::StateIsDef(inner)
            | Expr::StateIsNotDef(inner)
            | Expr::StateScope(inner) => self.gen_expr(inner, depth, max_len, out, rng),
        }
    }

    fn fits(&self, e: &Expr<ProdId>, depth: u32) -> bool {
        let h = expr_height(e, &self.heights);
        h != UNBOUNDED_HEIGHT && h <= depth
    }
}

/// Iteration count for `*`/`+`: geometric-ish, collapsing to the minimum
/// once the output is over budget.
fn repetitions(min: u32, len: usize, max_len: usize, rng: &mut StdRng) -> u32 {
    if len >= max_len {
        return min;
    }
    let mut n = min;
    while n < min + 4 && rng.gen_ratio(2, 5) {
        n += 1;
    }
    if n == min && min == 0 && rng.gen_bool() {
        n = 1;
    }
    n
}

/// Samples a character matched by `class`.
///
/// Non-negated classes are sampled structurally from their ranges; negated
/// classes (and structural misses, e.g. a range spanning the surrogate
/// gap) fall back to rejection sampling over [`ANY_POOL`] plus a few
/// non-ASCII candidates. If nothing matches, returns `'\u{1}'` — the
/// sentence becomes invalid, which the differential oracle handles.
fn sample_class(class: &CharClass, rng: &mut StdRng) -> char {
    if !class.is_negated() && !class.ranges().is_empty() {
        let ranges = class.ranges();
        let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
        let c = char::from_u32(rng.gen_range(lo as u32..=hi as u32)).unwrap_or(lo);
        if class.matches(c) {
            return c;
        }
    }
    for _ in 0..16 {
        let c = ANY_POOL[rng.gen_range(0..ANY_POOL.len())] as char;
        if class.matches(c) {
            return c;
        }
    }
    for c in (0x20u8..0x7F)
        .map(char::from)
        .chain(['\n', '\t', 'α', 'ω', 'é'])
    {
        if class.matches(c) {
            return c;
        }
    }
    '\u{1}'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calc_sentences_mostly_parse() {
        let g = modpeg_grammars::calc_grammar().unwrap();
        let parser =
            modpeg_interp::CompiledGrammar::compile(&g, modpeg_interp::OptConfig::all()).unwrap();
        let generator = Generator::new(&g);
        let mut rng = StdRng::seed_from_u64(11);
        let mut accepted = 0;
        for _ in 0..50 {
            let s = generator.generate(&mut rng, &GenConfig::default());
            if parser.parse(&s).is_ok() {
                accepted += 1;
            }
        }
        // The calc grammar has no predicates guarding its alternatives, so
        // the generator should produce valid sentences almost always.
        assert!(accepted >= 40, "only {accepted}/50 sentences parsed");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = modpeg_grammars::json_grammar().unwrap();
        let generator = Generator::new(&g);
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..10)
                .map(|_| generator.generate(&mut rng, &GenConfig::default()))
                .collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..10)
                .map(|_| generator.generate(&mut rng, &GenConfig::default()))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_depth_budget_still_terminates() {
        for g in [
            modpeg_grammars::java_grammar().unwrap(),
            modpeg_grammars::c_grammar().unwrap(),
        ] {
            let generator = Generator::new(&g);
            let mut rng = StdRng::seed_from_u64(3);
            let cfg = GenConfig {
                max_depth: 1,
                max_len: 80,
            };
            for _ in 0..10 {
                // Must not hang or overflow the stack, whatever the budget.
                let _ = generator.generate(&mut rng, &cfg);
            }
        }
    }

    #[test]
    fn class_sampling_respects_negation() {
        let neg = CharClass::from_ranges(vec![('a', 'z')], true);
        let pos = CharClass::from_ranges(vec![('0', '9')], false);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            assert!(neg.matches(sample_class(&neg, &mut rng)));
            assert!(pos.matches(sample_class(&pos, &mut rng)));
        }
    }
}
