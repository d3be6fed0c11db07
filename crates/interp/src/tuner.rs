//! Deriving a [`TuningPlan`] from a recorded workload profile.
//!
//! This is the "optimize" leg of the profile loop: per-production
//! memoization policy chosen from observed memo-table behavior (the Nez
//! approach) instead of the fixed reference-count and annotation
//! heuristics (O8/O9), plus data-driven inlining candidates and
//! terminal-dispatch table hints.
//!
//! Decision rules, applied only where the profile has enough signal
//! (probe/eval floors) so noise never flips a policy:
//!
//! * a production whose memo probes almost never hit pays for its table
//!   (store + probe on every application) without the payoff → transient;
//! * a production the static heuristics would mark transient but whose
//!   probes hit often → memoize;
//! * a hot, low-hit-rate, small-bodied production is a call-elimination
//!   candidate → inline (the transform still applies every safety check);
//! * first-set dispatch tables are kept everywhere — per-production
//!   counters cannot attribute a match to the alternative a table
//!   selected, so there is never profile evidence that removing one is
//!   safe for throughput (see the note at the `dispatch` assignment).

use modpeg_core::transform::{grammar_fingerprint, pipeline, TuningPlan};
use modpeg_core::{Grammar, ProdKind};
use modpeg_telemetry::WorkloadProfile;

use crate::config::OptConfig;

/// Minimum memo probes before the tuner trusts a hit rate.
const MIN_PROBES: u64 = 64;

/// Hit rate below which a memo table is considered pure overhead. The
/// cut is deliberately deep: at 0.1% the saved re-evaluations cannot
/// repay a store-plus-probe on every application, whereas a more eager
/// cut (say 0.5%) starts trading real hits away on expensive bodies.
const LOW_HIT_RATE: f64 = 0.001;

/// Hit rate above which memoization is forced on.
const HIGH_HIT_RATE: f64 = 0.05;

/// Minimum evaluations before a production counts as hot.
const MIN_HOT_EVALS: u64 = 1_000;

/// Body-size ceiling (expression nodes) for profile-driven inlining —
/// looser than the static pass's limit of 8, but still bounded so a hot
/// grammar cannot be inflated arbitrarily.
const MAX_PLAN_INLINE_SIZE: usize = 24;

/// Derives a tuning plan for `grammar` from `profile`.
///
/// The profile must have been recorded against the same grammar (it
/// carries the grammar fingerprint); production names are matched on the
/// post-transform grammar, which is why recording uses a configuration
/// with the same grammar transforms as the one the plan will be applied
/// under.
///
/// # Errors
///
/// Returns a message when the profile's fingerprint does not match
/// `grammar` (stale profile), or when the profile recorded no memo
/// traffic at all (nothing to tune from).
pub fn derive_plan(profile: &WorkloadProfile, grammar: &Grammar) -> Result<TuningPlan, String> {
    let fingerprint = grammar_fingerprint(grammar);
    if profile.fingerprint != 0 && profile.fingerprint != fingerprint {
        return Err(format!(
            "profile fingerprint {} does not match this grammar ({}); re-record",
            profile.fingerprint, fingerprint
        ));
    }
    let total_probes: u64 = profile.prods.values().map(|p| p.memo_probes).sum();
    if total_probes == 0 {
        return Err("profile recorded no memo traffic; record with memo events enabled".into());
    }

    // Post-transform view: plan names must match what the tuned compile
    // will see after the grammar-rewriting passes run.
    let transformed = pipeline(grammar.clone(), OptConfig::all().transform_flags())
        .map_err(|d| format!("grammar transforms failed: {d}"))?;
    let info: std::collections::BTreeMap<&str, (ProdKind, usize, bool)> = transformed
        .iter()
        .map(|(id, p)| {
            let body_size: usize = p.alts.iter().map(|a| a.expr.size()).sum();
            (
                p.name.as_str(),
                (p.kind, body_size, id == transformed.root()),
            )
        })
        .collect();

    let mut plan = TuningPlan {
        fingerprint,
        ..TuningPlan::default()
    };

    for (name, p) in &profile.prods {
        // The anonymous repetition-helper row aggregates expression-level
        // slots, not a production the plan could name.
        let Some(&(kind, body_size, is_root)) = info.get(name.as_str()) else {
            continue;
        };
        let hit_rate = p.memo_hit_rate();
        if p.memo_probes >= MIN_PROBES {
            if hit_rate < LOW_HIT_RATE {
                plan.transient.insert(name.clone());
            } else if hit_rate >= HIGH_HIT_RATE {
                plan.memoize.insert(name.clone());
            }
        }
        if !is_root
            && kind != ProdKind::Node
            && p.evals >= MIN_HOT_EVALS
            && hit_rate < LOW_HIT_RATE
            && body_size <= MAX_PLAN_INLINE_SIZE
        {
            plan.inline.insert(name.clone());
        }
    }
    // Dispatch hints stay unset: tables everywhere, the static default.
    // Per-production counters cannot see *which* alternative a table
    // routed to — a production that always matched may still owe that
    // speed to its inner choice table, so "never failed" is not evidence
    // the table is dead weight (measured: removing tables on such
    // productions costs up to 15% on the Java workload). The hint field
    // exists for callers with finer-grained evidence.
    plan.dispatch = None;
    // A production both transient-by-data and inlined disappears anyway;
    // keep the sets disjoint with memoize for coherent serialization.
    plan.transient = &plan.transient - &plan.memoize;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modpeg_telemetry::ProdProfile;

    fn grammar() -> Grammar {
        let set = modpeg_syntax::parse_module_set(["module m;\n\
             public Top = Word (\" \" Word)* ;\n\
             String Word = $[a-z]+ / $[0-9]+ ;\n"])
        .unwrap();
        set.elaborate("m", None).unwrap()
    }

    fn profile_for(g: &Grammar, rows: Vec<(&str, ProdProfile)>) -> WorkloadProfile {
        WorkloadProfile {
            fingerprint: grammar_fingerprint(g),
            grammar: "m".into(),
            engine: "interp".into(),
            runs: 1,
            input_bytes: 1,
            dropped: 0,
            wall_ns: 0,
            prods: rows.into_iter().map(|(n, p)| (n.to_string(), p)).collect(),
        }
    }

    #[test]
    fn low_hit_rate_goes_transient_high_goes_memoize() {
        let g = grammar();
        let profile = profile_for(
            &g,
            vec![
                (
                    "m.Word",
                    ProdProfile {
                        evals: 100,
                        memo_probes: 1000,
                        memo_hits: 0, // below the 0.1% cut — table is overhead
                        ..ProdProfile::default()
                    },
                ),
                (
                    "m.Top",
                    ProdProfile {
                        evals: 100,
                        memo_probes: 1000,
                        memo_hits: 500, // 50% — force memoization
                        ..ProdProfile::default()
                    },
                ),
            ],
        );
        let plan = derive_plan(&profile, &g).unwrap();
        assert!(plan.transient.contains("m.Word"), "{plan:?}");
        assert!(plan.memoize.contains("m.Top"), "{plan:?}");
        assert!(plan.matches(&g));
    }

    #[test]
    fn thin_evidence_changes_nothing() {
        let g = grammar();
        let profile = profile_for(
            &g,
            vec![(
                "m.Word",
                ProdProfile {
                    evals: 5,
                    memo_probes: 10, // below MIN_PROBES
                    memo_hits: 0,
                    ..ProdProfile::default()
                },
            )],
        );
        let plan = derive_plan(&profile, &g).unwrap();
        assert!(plan.transient.is_empty());
        assert!(plan.memoize.is_empty());
    }

    #[test]
    fn hot_low_hit_nonnode_production_is_inline_candidate() {
        let g = grammar();
        let profile = profile_for(
            &g,
            vec![(
                "m.Word",
                ProdProfile {
                    evals: 10_000,
                    failed: 1,
                    memo_probes: 10_000,
                    memo_hits: 0,
                    ..ProdProfile::default()
                },
            )],
        );
        let plan = derive_plan(&profile, &g).unwrap();
        assert!(plan.inline.contains("m.Word"), "{plan:?}");
        // Dispatch hints are never derived from profiles: tables stay
        // everywhere (the static default).
        assert!(plan.dispatch.is_none(), "{plan:?}");
    }

    #[test]
    fn stale_or_empty_profiles_are_rejected() {
        let g = grammar();
        let mut profile = profile_for(&g, vec![]);
        assert!(derive_plan(&profile, &g).is_err(), "no memo traffic");
        profile.fingerprint = 999;
        profile.prods.insert(
            "m.Word".into(),
            ProdProfile {
                memo_probes: 100,
                ..ProdProfile::default()
            },
        );
        assert!(derive_plan(&profile, &g).is_err(), "fingerprint mismatch");
    }

    #[test]
    fn derived_plan_compiles_and_parses_identically() {
        let g = grammar();
        let profile = profile_for(
            &g,
            vec![
                (
                    "m.Word",
                    ProdProfile {
                        evals: 10_000,
                        failed: 50,
                        memo_probes: 10_000,
                        memo_hits: 2, // transient + inline candidate
                        ..ProdProfile::default()
                    },
                ),
                (
                    "m.Top",
                    ProdProfile {
                        evals: 2_000,
                        memo_probes: 1_000,
                        memo_hits: 500,
                        ..ProdProfile::default()
                    },
                ),
            ],
        );
        let plan = derive_plan(&profile, &g).unwrap();
        let untuned = crate::CompiledGrammar::compile(&g, OptConfig::all()).unwrap();
        let tuned =
            crate::CompiledGrammar::compile_with_plan(&g, OptConfig::all(), Some(&plan)).unwrap();
        // Trees must be identical; on failures the offset must agree
        // (expected-set wording legitimately varies across configs, as
        // it already does between opt levels).
        for input in ["abc", "abc def", "a 1 b2", "", "UPPER"] {
            assert_eq!(
                untuned
                    .parse(input)
                    .map(|t| t.to_sexpr())
                    .map_err(|e| e.offset()),
                tuned
                    .parse(input)
                    .map(|t| t.to_sexpr())
                    .map_err(|e| e.offset()),
                "tuned parse must be tree-identical on {input:?}"
            );
        }
    }
}
