//! First-byte sets, feeding the `terminal-dispatch` optimization.
//!
//! For every production the analysis computes a conservative
//! over-approximation of the set of input bytes its match can begin with,
//! plus whether it can match without consuming. A choice evaluator may then
//! skip any alternative whose first set excludes the current byte — sound
//! because the set is a superset of the truth.

use crate::expr::Expr;
use crate::grammar::{Grammar, ProdId};

use super::solve::{solve, update, Flow, Graph};

/// A set of bytes (0–255) plus an "can match empty" flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirstSet {
    bits: [u64; 4],
    /// Whether the expression can succeed without consuming input (in
    /// which case the first byte of the *following* expression matters).
    pub matches_empty: bool,
}

impl FirstSet {
    /// The empty set.
    pub fn none() -> Self {
        FirstSet {
            bits: [0; 4],
            matches_empty: false,
        }
    }

    /// The set containing every byte.
    pub fn all() -> Self {
        FirstSet {
            bits: [!0; 4],
            matches_empty: false,
        }
    }

    /// A singleton set.
    pub fn byte(b: u8) -> Self {
        let mut s = FirstSet::none();
        s.insert(b);
        s
    }

    /// Adds `b` to the set.
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Whether `b` is in the set.
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// Set union; `matches_empty` ors.
    pub fn union(&self, other: &FirstSet) -> FirstSet {
        FirstSet {
            bits: [
                self.bits[0] | other.bits[0],
                self.bits[1] | other.bits[1],
                self.bits[2] | other.bits[2],
                self.bits[3] | other.bits[3],
            ],
            matches_empty: self.matches_empty || other.matches_empty,
        }
    }

    /// Whether an expression with this first set could match input whose
    /// next byte is `b` (or end of input, when `b` is `None`).
    pub fn admits(&self, b: Option<u8>) -> bool {
        match b {
            Some(b) => self.matches_empty || self.contains(b),
            None => self.matches_empty,
        }
    }

    /// The set's contents as maximal inclusive byte ranges (for code
    /// generation of dispatch patterns).
    pub fn byte_ranges(&self) -> Vec<(u8, u8)> {
        let mut out = Vec::new();
        let mut run: Option<(u8, u8)> = None;
        for b in 0..=255u8 {
            if self.contains(b) {
                match &mut run {
                    Some((_, hi)) => *hi = b,
                    None => run = Some((b, b)),
                }
            } else if let Some(r) = run.take() {
                out.push(r);
            }
        }
        if let Some(r) = run {
            out.push(r);
        }
        out
    }

    /// Number of bytes in the set.
    pub fn len(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no byte is in the set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

fn class_first(class: &crate::expr::CharClass) -> FirstSet {
    let mut s = FirstSet::none();
    // ASCII: test each byte directly.
    for b in 0u8..=0x7F {
        if class.matches(b as char) {
            s.insert(b);
        }
    }
    // Non-ASCII characters start with a lead byte 0xC2..=0xF4; be
    // conservative: if the class can match any char above 0x7F, admit all
    // lead bytes.
    let beyond_ascii = if class.is_negated() {
        true
    } else {
        class.ranges().iter().any(|&(_, hi)| hi as u32 > 0x7F)
    };
    if beyond_ascii {
        for b in 0xC2..=0xF4u8 {
            s.insert(b);
        }
    }
    s
}

/// First set of `expr` given per-production sets; its `matches_empty` is
/// the expression's nullability.
pub fn expr_first(expr: &Expr<ProdId>, prods: &[FirstSet]) -> FirstSet {
    match expr {
        Expr::Empty => FirstSet {
            matches_empty: true,
            ..FirstSet::none()
        },
        Expr::Any => FirstSet::all(),
        Expr::Literal(s) => match s.as_bytes().first() {
            Some(&b) => FirstSet::byte(b),
            None => FirstSet {
                matches_empty: true,
                ..FirstSet::none()
            },
        },
        Expr::Class(c) => class_first(c),
        Expr::Ref(r) => prods[r.index()],
        Expr::Seq(xs) => {
            let mut acc = FirstSet::none();
            for x in xs {
                let fx = expr_first(x, prods);
                acc = acc.union(&FirstSet {
                    matches_empty: false,
                    ..fx
                });
                if !fx.matches_empty {
                    return acc;
                }
            }
            FirstSet {
                matches_empty: true,
                ..acc
            }
        }
        Expr::Choice(xs) => xs
            .iter()
            .map(|x| expr_first(x, prods))
            .fold(FirstSet::none(), |a, b| a.union(&b)),
        Expr::Opt(e) | Expr::Star(e) => {
            let mut s = expr_first(e, prods);
            s.matches_empty = true;
            s
        }
        Expr::Plus(e) => expr_first(e, prods),
        // Predicates consume nothing; conservatively "can match empty" and
        // impose no byte constraint of their own.
        Expr::And(_) | Expr::Not(_) => FirstSet {
            matches_empty: true,
            ..FirstSet::none()
        },
        Expr::Capture(e)
        | Expr::Void(e)
        | Expr::StateDefine(e)
        | Expr::StateIsDef(e)
        | Expr::StateIsNotDef(e)
        | Expr::StateScope(e) => expr_first(e, prods),
    }
}

/// Computes per-production first sets, indexed by [`ProdId::index`]. A
/// set's `matches_empty` is the production's nullability: both are least
/// fixpoints of the same equations.
pub fn first_sets(grammar: &Grammar) -> Vec<FirstSet> {
    let mut first = vec![FirstSet::none(); grammar.len()];
    let graph = Graph::references(grammar);
    solve(&graph, Flow::Up, &mut first, |p, first, changed| {
        let alts = &grammar.production(p).alts;
        let s = alts.iter().fold(FirstSet::none(), |s, alt| {
            s.union(&expr_first(&alt.expr, first))
        });
        update(first, p, s, changed);
    });
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::expr::CharClass;
    use crate::grammar::ProdKind;

    #[test]
    fn set_basics() {
        let mut s = FirstSet::none();
        assert!(s.is_empty());
        s.insert(b'a');
        s.insert(0xFF);
        assert!(s.contains(b'a') && s.contains(0xFF) && !s.contains(b'b'));
        assert_eq!(s.len(), 2);
        assert!(FirstSet::all().contains(0));
    }

    #[test]
    fn admits_logic() {
        let s = FirstSet::byte(b'x');
        assert!(s.admits(Some(b'x')));
        assert!(!s.admits(Some(b'y')));
        assert!(!s.admits(None));
        let e = FirstSet {
            matches_empty: true,
            ..FirstSet::byte(b'x')
        };
        assert!(e.admits(Some(b'y')));
        assert!(e.admits(None));
    }

    #[test]
    fn literal_and_class_firsts() {
        let g = grammar(vec![
            ("Kw", ProdKind::Void, vec![Expr::literal("while")]),
            (
                "Digit",
                ProdKind::Void,
                vec![Expr::Class(CharClass::from_ranges(vec![('0', '9')], false))],
            ),
        ]);
        let f = first_sets(&g);
        assert!(f[0].contains(b'w') && !f[0].contains(b'x'));
        assert!(f[1].contains(b'5') && !f[1].contains(b'a'));
        assert!(!f[0].matches_empty);
    }

    #[test]
    fn sequence_skips_over_nullable_prefix() {
        let g = grammar(vec![(
            "P",
            ProdKind::Void,
            vec![Expr::seq(vec![
                Expr::Opt(Box::new(Expr::literal("-"))),
                Expr::literal("1"),
            ])],
        )]);
        let f = first_sets(&g);
        assert!(f[0].contains(b'-') && f[0].contains(b'1'));
        assert!(!f[0].matches_empty);
    }

    #[test]
    fn references_propagate() {
        let g = grammar(vec![
            ("Top", ProdKind::Void, vec![r(1)]),
            ("Leaf", ProdKind::Void, vec![Expr::literal("z")]),
        ]);
        let f = first_sets(&g);
        assert!(f[0].contains(b'z'));
    }

    #[test]
    fn negated_class_admits_high_bytes() {
        let g = grammar(vec![(
            "NotQuote",
            ProdKind::Void,
            vec![Expr::Class(CharClass::from_ranges(vec![('"', '"')], true))],
        )]);
        let f = first_sets(&g);
        assert!(!f[0].contains(b'"'));
        assert!(f[0].contains(b'a'));
        assert!(f[0].contains(0xC3)); // UTF-8 lead byte
    }

    #[test]
    fn predicate_imposes_no_constraint() {
        let g = grammar(vec![(
            "P",
            ProdKind::Void,
            vec![Expr::seq(vec![
                Expr::Not(Box::new(Expr::literal("a"))),
                Expr::literal("b"),
            ])],
        )]);
        let f = first_sets(&g);
        // Conservative: 'a' still admitted via the predicate's empty match
        // union with "b"'s first set — only 'b' and empty-compatible bytes.
        assert!(f[0].contains(b'b'));
        assert!(!f[0].matches_empty);
    }
}
