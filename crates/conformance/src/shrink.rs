//! DDmin-style input minimization.
//!
//! When the differential oracle finds a diverging input, the raw sentence
//! is usually dozens to hundreds of characters of generated noise. The
//! shrinker reduces it to a (locally) minimal reproduction with Zeller's
//! delta-debugging algorithm over `char` chunks: try dropping ever-finer
//! subsets while the divergence persists.

/// Minimizes `input` while `diverges` keeps returning `true` for it.
///
/// `diverges(input)` must be `true` on entry (otherwise `input` is
/// returned unchanged). The predicate is invoked at most `budget` times,
/// bounding shrink cost on expensive oracles; the result is then
/// 1-minimal *up to* that budget.
pub fn ddmin(input: &str, mut diverges: impl FnMut(&str) -> bool, budget: usize) -> String {
    if !diverges(input) {
        return input.to_owned();
    }
    let mut current: Vec<char> = input.chars().collect();
    let mut calls = 0usize;
    let mut granularity = 2usize;
    while current.len() >= 2 && calls < budget {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() && calls < budget {
            // Candidate: current with [start, start+chunk) removed.
            let candidate: String = current[..start]
                .iter()
                .chain(&current[(start + chunk).min(current.len())..])
                .collect();
            calls += 1;
            if !candidate.is_empty() && diverges(&candidate) {
                current = candidate.chars().collect();
                granularity = granularity.max(2).min(current.len());
                reduced = true;
                // Restart the sweep at the same granularity.
                start = 0;
            } else {
                start += chunk;
            }
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    // Final pass: try the empty input too (some divergences live there).
    if calls < budget && diverges("") {
        return String::new();
    }
    current.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_to_the_failing_core() {
        // Divergence: input contains both 'x' and 'y'.
        let shrunk = ddmin(
            "aaaaxbbbbbbyccccc",
            |s| s.contains('x') && s.contains('y'),
            10_000,
        );
        assert!(shrunk.contains('x') && shrunk.contains('y'));
        assert!(shrunk.len() <= 2, "not minimal: {shrunk:?}");
    }

    #[test]
    fn single_char_core() {
        let shrunk = ddmin("the quick brown fox %", |s| s.contains('%'), 10_000);
        assert_eq!(shrunk, "%");
    }

    #[test]
    fn non_diverging_input_is_returned_verbatim() {
        assert_eq!(ddmin("abc", |_| false, 100), "abc");
    }

    #[test]
    fn respects_char_boundaries() {
        let shrunk = ddmin("ααααβcollege", |s| s.contains('β'), 10_000);
        assert_eq!(shrunk, "β");
    }

    #[test]
    fn budget_caps_predicate_calls() {
        let mut calls = 0;
        let _ = ddmin(
            "aaaaaaaaaaaaaaaaaaaaaaaa",
            |s| {
                calls += 1;
                s.contains('a')
            },
            7,
        );
        assert!(calls <= 8, "{calls}"); // entry check + budget
    }
}
