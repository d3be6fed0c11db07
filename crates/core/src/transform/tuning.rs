//! Profile-guided tuning plans.
//!
//! A [`TuningPlan`] is the artifact `modpeg profile --optimize` emits
//! from a recorded workload profile: explicit per-production decisions
//! that *replace* the paper's fixed heuristics (O8 `transient-auto`'s
//! reference-count rule and O9's hand-written `transient` annotations)
//! with choices derived from observed memo-table behavior, in the spirit
//! of Nez's workload-tuned memoization (Kuramitsu) rather than Ford's
//! memoize-everything packrat default.
//!
//! The plan speaks in *production names* (the full `module.Production`
//! form), not indices, so it survives grammar recompilation and applies
//! uniformly to every engine: the interpreter consumes it when assigning
//! memo slots, and the bytecode machine and the code generator inherit
//! those decisions because both compile through the interpreter's IR.
//!
//! Plans serialize to a small, dependency-free JSON document so they can
//! be versioned next to the grammar and diffed in review. A
//! [`TuningPlan::fingerprint`] ties a plan to the canonical text of the
//! grammar it was derived from; appliers warn-or-refuse on mismatch
//! rather than silently tuning the wrong grammar.

use std::collections::BTreeSet;
use std::fmt;

use modpeg_telemetry::{escape_json, parse_json, JsonValue};

use crate::grammar::Grammar;

/// Version of the plan JSON schema this build reads and writes.
pub const PLAN_VERSION: u32 = 1;

/// Per-production optimization decisions derived from a workload profile.
///
/// Productions not named in any set fall back to the static heuristics of
/// the base configuration (the interpreter's `OptConfig`), so a plan composes
/// with, rather than replaces, the rest of the optimization battery.
/// Structural overrides still win over the plan: left-recursive
/// productions and `memo`-annotated productions are always memoized, and
/// state-writing productions never are.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TuningPlan {
    /// FNV-1a fingerprint of the canonical grammar text the plan was
    /// derived from; `0` means "unchecked" (hand-written plans).
    pub fingerprint: u64,
    /// Productions to memoize even where the static heuristics would
    /// mark them transient (observed memo hit-rate pays for the table).
    pub memoize: BTreeSet<String>,
    /// Productions to skip memoizing (observed probes almost never hit,
    /// so the table is pure overhead on this workload).
    pub transient: BTreeSet<String>,
    /// Additional nonterminal-inlining candidates: hot, call-dominated
    /// productions worth inlining past the static size threshold. The
    /// inline pass still applies every safety check (kind, state,
    /// recursion, value shape); the plan only widens eligibility.
    pub inline: BTreeSet<String>,
    /// Terminal-dispatch table hints: when `Some`, first-set dispatch
    /// tables are built only for the named productions (the ones the
    /// profile saw choosing between alternatives); when `None`, tables
    /// are built wherever `terminal-dispatch` is enabled, as before.
    pub dispatch: Option<BTreeSet<String>>,
}

impl TuningPlan {
    /// An empty plan pinned to `grammar` — every decision falls through
    /// to the static heuristics.
    pub fn for_grammar(grammar: &Grammar) -> TuningPlan {
        TuningPlan {
            fingerprint: grammar_fingerprint(grammar),
            ..TuningPlan::default()
        }
    }

    /// Whether the plan carries no per-production decision at all.
    pub fn is_empty(&self) -> bool {
        self.memoize.is_empty()
            && self.transient.is_empty()
            && self.inline.is_empty()
            && self.dispatch.is_none()
    }

    /// Whether this plan's fingerprint matches `grammar` (an unchecked
    /// plan, fingerprint 0, matches everything).
    pub fn matches(&self, grammar: &Grammar) -> bool {
        self.fingerprint == 0 || self.fingerprint == grammar_fingerprint(grammar)
    }

    /// A copy safe for incremental parse sessions: the transient set is
    /// cleared, because unmemoized results cannot be reused across edits
    /// (the same reasoning as `OptConfig::incremental`).
    pub fn for_incremental(&self) -> TuningPlan {
        TuningPlan {
            transient: BTreeSet::new(),
            ..self.clone()
        }
    }

    /// Serializes the plan as deterministic JSON (sets are ordered, so
    /// equal plans produce byte-identical documents).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"plan_version\": {PLAN_VERSION},\n  \"fingerprint\": {},\n",
            self.fingerprint
        );
        let list = |set: &BTreeSet<String>| -> String {
            let items: Vec<String> = set
                .iter()
                .map(|n| format!("\"{}\"", escape_json(n)))
                .collect();
            format!("[{}]", items.join(", "))
        };
        let _ = writeln!(out, "  \"memoize\": {},", list(&self.memoize));
        let _ = writeln!(out, "  \"transient\": {},", list(&self.transient));
        let _ = write!(out, "  \"inline\": {}", list(&self.inline));
        match &self.dispatch {
            Some(set) => {
                let _ = write!(out, ",\n  \"dispatch\": {}\n}}\n", list(set));
            }
            None => out.push_str("\n}\n"),
        }
        out
    }

    /// Parses a plan from its JSON form.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem
    /// (malformed JSON, wrong version, non-string set member).
    pub fn from_json(text: &str) -> Result<TuningPlan, PlanParseError> {
        let JsonValue::Obj(pairs) = parse_json(text).map_err(PlanParseError)? else {
            return Err(PlanParseError("expected a JSON object".into()));
        };
        let mut plan = TuningPlan::default();
        let mut saw_version = false;
        for (key, value) in &pairs {
            match key.as_str() {
                "plan_version" => {
                    let v = plan_number(key, value)?;
                    if v != u64::from(PLAN_VERSION) {
                        return Err(PlanParseError(format!(
                            "unsupported plan_version {v} (this build reads {PLAN_VERSION})"
                        )));
                    }
                    saw_version = true;
                }
                "fingerprint" => plan.fingerprint = plan_number(key, value)?,
                "memoize" => plan.memoize = string_set(key, value)?,
                "transient" => plan.transient = string_set(key, value)?,
                "inline" => plan.inline = string_set(key, value)?,
                "dispatch" => plan.dispatch = Some(string_set(key, value)?),
                other => return Err(PlanParseError(format!("unknown plan key {other:?}"))),
            }
        }
        if !saw_version {
            return Err(PlanParseError("missing plan_version".into()));
        }
        if let Some(overlap) = plan.memoize.intersection(&plan.transient).next() {
            return Err(PlanParseError(format!(
                "production {overlap:?} is in both memoize and transient"
            )));
        }
        Ok(plan)
    }
}

/// A plan field that must be a non-negative integer.
fn plan_number(key: &str, value: &JsonValue) -> Result<u64, PlanParseError> {
    value
        .as_u64()
        .ok_or_else(|| PlanParseError(format!("{key:?} is not a non-negative integer")))
}

/// A plan field that must be an array of production names.
fn string_set(key: &str, value: &JsonValue) -> Result<BTreeSet<String>, PlanParseError> {
    let not_names = || PlanParseError(format!("{key:?} is not an array of strings"));
    value
        .as_arr()
        .ok_or_else(not_names)?
        .iter()
        .map(|item| item.as_str().map(str::to_owned).ok_or_else(not_names))
        .collect()
}

/// Why a plan document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError(
    /// Human-readable description of the first structural problem.
    pub String,
);

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid tuning plan: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

/// FNV-1a over the canonical pretty-printed grammar text — a stable,
/// dependency-free fingerprint tying profiles and plans to the grammar
/// they were derived from. Transform-insensitive by construction: it is
/// computed on the *source* grammar, before any optimization pass.
pub fn grammar_fingerprint(grammar: &Grammar) -> u64 {
    let text = crate::pretty::grammar_to_string(grammar);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{grammar, r};
    use crate::expr::Expr;
    use crate::grammar::ProdKind;

    fn sample_plan() -> TuningPlan {
        TuningPlan {
            fingerprint: 42,
            memoize: ["m.Expr".to_string(), "m.Term".to_string()].into(),
            transient: ["m.Space".to_string()].into(),
            inline: ["m.Digit".to_string()].into(),
            dispatch: Some(["m.Expr".to_string()].into()),
        }
    }

    #[test]
    fn json_round_trips() {
        let odd = TuningPlan {
            memoize: [
                "m.tab\t".to_string(),
                "m.cr\r".to_string(),
                "m.ctl\u{1}".to_string(),
            ]
            .into(),
            transient: ["m.quote\"".to_string(), "m.back\\slash".to_string()].into(),
            inline: ["m.Größe".to_string()].into(),
            ..sample_plan()
        };
        for plan in [sample_plan(), odd] {
            let json = plan.to_json();
            let back = TuningPlan::from_json(&json).unwrap();
            assert_eq!(back, plan);
            // Determinism: equal plans serialize byte-identically.
            assert_eq!(json, back.to_json());
        }
    }

    #[test]
    fn omitted_dispatch_round_trips_as_none() {
        let plan = TuningPlan {
            dispatch: None,
            ..sample_plan()
        };
        let json = plan.to_json();
        assert!(!json.contains("dispatch"));
        assert_eq!(TuningPlan::from_json(&json).unwrap().dispatch, None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "{\"plan_version\": 1",
            "{\"plan_version\": 99}",
            "{\"fingerprint\": 1}",
            "{\"plan_version\": 1, \"bogus\": []}",
            "{\"plan_version\": 1, \"memoize\": [1]}",
            "{\"plan_version\": 1} trailing",
        ] {
            assert!(TuningPlan::from_json(doc).is_err(), "{doc:?}");
        }
    }

    #[test]
    fn rejects_contradictory_sets() {
        let doc = "{\"plan_version\": 1, \"memoize\": [\"m.A\"], \"transient\": [\"m.A\"]}";
        let err = TuningPlan::from_json(doc).unwrap_err();
        assert!(err.to_string().contains("m.A"), "{err}");
    }

    #[test]
    fn fingerprint_is_stable_and_grammar_sensitive() {
        let g1 = grammar(vec![
            ("A", ProdKind::Void, vec![r(1)]),
            ("B", ProdKind::Void, vec![Expr::literal("b")]),
        ]);
        let g2 = grammar(vec![
            ("A", ProdKind::Void, vec![r(1)]),
            ("B", ProdKind::Void, vec![Expr::literal("c")]),
        ]);
        assert_eq!(grammar_fingerprint(&g1), grammar_fingerprint(&g1));
        assert_ne!(grammar_fingerprint(&g1), grammar_fingerprint(&g2));
        let plan = TuningPlan::for_grammar(&g1);
        assert!(plan.matches(&g1));
        assert!(!plan.matches(&g2));
        assert!(
            TuningPlan::default().matches(&g2),
            "unchecked plans apply anywhere"
        );
    }

    #[test]
    fn incremental_projection_clears_transient() {
        let plan = sample_plan();
        let inc = plan.for_incremental();
        assert!(inc.transient.is_empty());
        assert_eq!(inc.memoize, plan.memoize);
        assert!(!plan.is_empty());
        assert!(TuningPlan::default().is_empty());
    }
}
