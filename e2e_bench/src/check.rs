//! Output checks of the correctness gate. Each check counts as one
//! attempted operation; a failed check counts as one failed operation
//! instead of stopping the run.

use modpeg_runtime::{EventCounts, ParseError, Recovered, SyntaxTree};

use crate::families::{Engine, Parsers};
use crate::measure::Tally;

/// All trees parsed, and all print the same S-expression as the first.
pub fn same_trees(tally: &mut Tally, what: &str, trees: &[Result<SyntaxTree, ParseError>]) {
    let sexprs: Vec<Option<String>> = trees
        .iter()
        .map(|t| t.as_ref().ok().map(SyntaxTree::to_sexpr))
        .collect();
    let ok = sexprs.iter().all(|s| s.is_some() && *s == sexprs[0]);
    tally.check(ok, || match trees.iter().find_map(|t| t.as_ref().err()) {
        Some(e) => format!("{what}: parse failed: {e}"),
        None => format!("{what}: trees differ across engines"),
    });
}

/// Every engine parses `text` to the same tree, the independent
/// backtracking recognizer accepts it, and each engine's event stream
/// enters exactly as many nodes as its tree holds.
pub fn valid_doc(
    tally: &mut Tally,
    what: &str,
    p: &Parsers,
    text: &str,
    oracle: &modpeg_baseline::BacktrackParser<'_>,
) {
    let trees: Vec<_> = Engine::ALL.iter().map(|&e| p.parse(e, text)).collect();
    same_trees(tally, what, &trees);
    tally.check(oracle.recognize(text).is_ok(), || {
        format!("{what}: backtracking recognizer rejects it")
    });
    for (e, tree) in Engine::ALL.iter().zip(&trees) {
        let mut counts = EventCounts::default();
        let events = p.parse_events(*e, text, &mut counts);
        let nodes = tree.as_ref().map(|t| t.root().node_count() as u64);
        tally.check(events.is_ok() && nodes == Ok(counts.nodes), || {
            format!("{what}: {} event stream disagrees with its tree", e.name())
        });
    }
}

/// Every engine reports at least one diagnostic for `text`, and all
/// engines agree on the diagnostics and the recovered tree.
pub fn malformed_doc(tally: &mut Tally, what: &str, p: &Parsers, text: &str) {
    let recs: Vec<Recovered<SyntaxTree>> = Engine::ALL
        .iter()
        .map(|&e| p.parse_resilient(e, text))
        .collect();
    for (e, r) in Engine::ALL.iter().zip(&recs) {
        tally.check(r.diagnostics.error_count() > 0, || {
            format!("{what}: {} reports no error", e.name())
        });
    }
    let agree = recs.iter().all(|r| {
        r.diagnostics == recs[0].diagnostics && r.tree.to_sexpr() == recs[0].tree.to_sexpr()
    });
    tally.check(agree, || {
        format!("{what}: engines disagree on the recovered parse")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use modpeg_runtime::{Span, Value};

    #[test]
    fn a_mismatched_tree_counts_as_one_failure() {
        let tree = |hi| Ok(SyntaxTree::new("ab", Value::Text(Span::new(0, hi))));
        let mut tally = Tally::default();
        same_trees(&mut tally, "agreeing", &[tree(2), tree(2), tree(2)]);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
        same_trees(&mut tally, "mismatched", &[tree(2), tree(1), tree(2)]);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }
}
