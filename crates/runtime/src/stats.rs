//! Parse-time accounting used by the performance and heap experiments.

use std::fmt;

/// Counters a parser updates as it runs.
///
/// Two families:
///
/// * **work counters** — expression evaluations, memo probes/hits, terminal
///   comparisons — used to explain *why* an optimization helps;
/// * **allocation counters** — nodes, lists, owned strings, memo entries,
///   and their estimated bytes — the basis of the heap-utilization figure
///   (the paper measured JVM heap; we count the same structures directly).
///
/// # Examples
///
/// ```
/// use modpeg_runtime::Stats;
///
/// let mut stats = Stats::default();
/// stats.memo_probes += 10;
/// stats.memo_hits += 4;
/// assert_eq!(stats.memo_hit_rate(), 0.4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Production applications actually evaluated (memo misses + unmemoized).
    pub productions_evaluated: u64,
    /// Memo-table lookups performed.
    pub memo_probes: u64,
    /// Memo-table lookups that found a stored answer.
    pub memo_hits: u64,
    /// Lookups that found an answer from a stale state epoch (treated as
    /// misses; the lazy form of Rats!' flush-on-state-change).
    pub memo_stale: u64,
    /// Memo entries written.
    pub memo_stores: u64,
    /// Estimated bytes held by the memo table at end of parse.
    pub memo_bytes: u64,
    /// Syntax-tree nodes constructed.
    pub nodes_built: u64,
    /// List values constructed.
    pub lists_built: u64,
    /// Owned strings materialized (`text-only` optimization disabled).
    pub strings_built: u64,
    /// Estimated bytes of semantic values constructed (including
    /// intermediate values later discarded by backtracking).
    pub value_bytes: u64,
    /// Individual failure records allocated (`errors` optimization disabled).
    pub failure_records: u64,
    /// Estimated bytes of failure records.
    pub failure_bytes: u64,
    /// Characters/bytes compared while matching terminals.
    pub terminal_comparisons: u64,
    /// Backtracking events: an alternative failed after consuming input.
    pub backtracks: u64,
    /// Incremental reparse: memo columns carried over from the previous
    /// parse (kept in place or relocated with the text).
    pub memo_columns_reused: u64,
    /// Incremental reparse: memo columns discarded because their recorded
    /// lookahead overlapped the edited window.
    pub memo_columns_invalidated: u64,
    /// Incremental reparse: carried-over memo entries whose spans were
    /// translated to post-edit coordinates.
    pub memo_entries_shifted: u64,
    /// Incremental session: passes that compacted the memo's value region
    /// after a reparse (always 0 on fresh parses).
    pub arena_compactions: u64,
    /// Incremental session: region nodes those passes dropped, garbage and
    /// merged duplicates together.
    pub arena_nodes_reclaimed: u64,
    /// Governed parse: eviction passes run because the memo-byte budget
    /// was exceeded (first rung of the degradation ladder).
    pub gov_evictions: u64,
    /// Governed parse: memo columns freed by those eviction passes.
    pub gov_columns_evicted: u64,
    /// Governed parse: times the parse fell back to transient-only
    /// memoization (second rung — no further memo stores).
    pub gov_transient_fallbacks: u64,
    /// Governed parse: evaluation steps ticked against the governor.
    pub gov_ticks: u64,
    /// Governed parse: stride-boundary refills (each one is a batched
    /// budget poll — deadline/cancellation checks amortized over
    /// `POLL_STRIDE` ticks).
    pub gov_stride_refills: u64,
}

impl Stats {
    /// Fraction of memo probes that hit, or 0.0 with no probes.
    pub fn memo_hit_rate(&self) -> f64 {
        if self.memo_probes == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.memo_probes as f64
        }
    }

    /// Total estimated heap bytes attributable to the parse: memo table,
    /// semantic values, and failure records.
    pub fn total_bytes(&self) -> u64 {
        self.memo_bytes + self.value_bytes + self.failure_bytes
    }

    /// Adds every counter of `other` into `self` — the aggregation
    /// primitive sessions and fuzz campaigns use to report totals across
    /// parses.
    pub fn merge(&mut self, other: &Stats) {
        self.productions_evaluated += other.productions_evaluated;
        self.memo_probes += other.memo_probes;
        self.memo_hits += other.memo_hits;
        self.memo_stale += other.memo_stale;
        self.memo_stores += other.memo_stores;
        self.memo_bytes += other.memo_bytes;
        self.nodes_built += other.nodes_built;
        self.lists_built += other.lists_built;
        self.strings_built += other.strings_built;
        self.value_bytes += other.value_bytes;
        self.failure_records += other.failure_records;
        self.failure_bytes += other.failure_bytes;
        self.terminal_comparisons += other.terminal_comparisons;
        self.backtracks += other.backtracks;
        self.memo_columns_reused += other.memo_columns_reused;
        self.memo_columns_invalidated += other.memo_columns_invalidated;
        self.memo_entries_shifted += other.memo_entries_shifted;
        self.arena_compactions += other.arena_compactions;
        self.arena_nodes_reclaimed += other.arena_nodes_reclaimed;
        self.gov_evictions += other.gov_evictions;
        self.gov_columns_evicted += other.gov_columns_evicted;
        self.gov_transient_fallbacks += other.gov_transient_fallbacks;
        self.gov_ticks += other.gov_ticks;
        self.gov_stride_refills += other.gov_stride_refills;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Labels padded to a common column so multi-run aggregates line
        // up when printed next to each other.
        const LABEL: usize = 13;
        writeln!(
            f,
            "{:<LABEL$}{} evaluated",
            "productions:", self.productions_evaluated
        )?;
        writeln!(
            f,
            "{:<LABEL$}{} probes, {} hits ({:.1}%), {} stale, {} stores, {} bytes",
            "memo:",
            self.memo_probes,
            self.memo_hits,
            self.memo_hit_rate() * 100.0,
            self.memo_stale,
            self.memo_stores,
            self.memo_bytes
        )?;
        writeln!(
            f,
            "{:<LABEL$}{} nodes, {} lists, {} strings, {} bytes",
            "values:", self.nodes_built, self.lists_built, self.strings_built, self.value_bytes
        )?;
        writeln!(
            f,
            "{:<LABEL$}{} records, {} bytes",
            "failures:", self.failure_records, self.failure_bytes
        )?;
        write!(
            f,
            "{:<LABEL$}{} terminal comparisons, {} backtracks",
            "work:", self.terminal_comparisons, self.backtracks
        )?;
        if self.memo_columns_reused > 0
            || self.memo_columns_invalidated > 0
            || self.memo_entries_shifted > 0
            || self.arena_compactions > 0
        {
            write!(
                f,
                "\n{:<LABEL$}{} columns reused, {} invalidated, {} entries shifted, \
                 {} compactions ({} nodes reclaimed)",
                "incremental:",
                self.memo_columns_reused,
                self.memo_columns_invalidated,
                self.memo_entries_shifted,
                self.arena_compactions,
                self.arena_nodes_reclaimed
            )?;
        }
        if self.gov_ticks > 0 || self.gov_evictions > 0 || self.gov_transient_fallbacks > 0 {
            write!(
                f,
                "\n{:<LABEL$}{} ticks, {} stride refills, {} evictions ({} columns), {} transient fallbacks",
                "governor:",
                self.gov_ticks,
                self.gov_stride_refills,
                self.gov_evictions,
                self.gov_columns_evicted,
                self.gov_transient_fallbacks
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_probes() {
        assert_eq!(Stats::default().memo_hit_rate(), 0.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = Stats {
            memo_probes: 2,
            nodes_built: 1,
            ..Stats::default()
        };
        let b = Stats {
            memo_probes: 3,
            nodes_built: 4,
            backtracks: 7,
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.memo_probes, 5);
        assert_eq!(a.nodes_built, 5);
        assert_eq!(a.backtracks, 7);
    }

    #[test]
    fn total_bytes_sums_three_pools() {
        let s = Stats {
            memo_bytes: 10,
            value_bytes: 20,
            failure_bytes: 5,
            ..Stats::default()
        };
        assert_eq!(s.total_bytes(), 35);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Stats::default();
        assert!(s.to_string().contains("memo"));
    }

    #[test]
    fn merge_sums_governor_counters() {
        let mut a = Stats {
            gov_ticks: 10,
            gov_stride_refills: 1,
            ..Stats::default()
        };
        let b = Stats {
            gov_ticks: 5,
            gov_stride_refills: 2,
            gov_evictions: 1,
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.gov_ticks, 15);
        assert_eq!(a.gov_stride_refills, 3);
        assert_eq!(a.gov_evictions, 1);
    }

    #[test]
    fn merge_sums_and_display_prints_compaction_counters() {
        let mut a = Stats {
            arena_compactions: 1,
            arena_nodes_reclaimed: 40,
            ..Stats::default()
        };
        a.merge(&Stats {
            arena_compactions: 2,
            arena_nodes_reclaimed: 60,
            ..Stats::default()
        });
        assert_eq!((a.arena_compactions, a.arena_nodes_reclaimed), (3, 100));
        let text = a.to_string();
        let line = text
            .lines()
            .find(|l| l.starts_with("incremental:"))
            .unwrap_or_else(|| panic!("no incremental line in {text}"));
        assert!(
            line.ends_with("3 compactions (100 nodes reclaimed)"),
            "{line}"
        );
        assert!(!Stats::default().to_string().contains("incremental:"));
    }

    #[test]
    fn display_aligns_labels_and_surfaces_governor() {
        let s = Stats {
            gov_ticks: 1000,
            gov_stride_refills: 2,
            ..Stats::default()
        };
        let text = s.to_string();
        assert!(text.contains("governor:"), "{text}");
        assert!(text.contains("1000 ticks, 2 stride refills"), "{text}");
        // Every label is padded to the same value column.
        let columns: Vec<usize> = text
            .lines()
            .filter_map(|l| l.find(|c: char| c.is_ascii_digit()))
            .collect();
        assert!(columns.windows(2).all(|w| w[0] == w[1]), "{text}");
    }
}
