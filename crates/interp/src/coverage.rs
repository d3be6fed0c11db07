//! Grammar coverage: which productions and alternatives a corpus
//! exercises.
//!
//! Grammar developers need the same feedback code developers get from
//! test coverage: after running the test corpus, which alternatives were
//! never matched? [`CompiledGrammar::parse_with_coverage`] records a hit
//! per successfully matched alternative; [`Coverage`] aggregates across
//! inputs and reports the holes.
//!
//! [`CompiledGrammar::parse_with_coverage`]: crate::CompiledGrammar::parse_with_coverage

use std::fmt;

/// Alternative-level hit counts for one grammar.
///
/// Indices follow the compiled grammar's productions; within a
/// production, alternatives are indexed in source order (for directly
/// left-recursive productions: base alternatives first, then tail
/// alternatives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    names: Vec<String>,
    /// `hits[p][a]` = successful matches of alternative `a` of production `p`.
    hits: Vec<Vec<u64>>,
    /// Labels per alternative (None = positional).
    labels: Vec<Vec<Option<String>>>,
}

impl Coverage {
    pub(crate) fn new(names: Vec<String>, labels: Vec<Vec<Option<String>>>) -> Self {
        let hits = labels.iter().map(|l| vec![0; l.len()]).collect();
        Coverage {
            names,
            hits,
            labels,
        }
    }

    pub(crate) fn hit(&mut self, prod: usize, alt: usize) {
        if let Some(row) = self.hits.get_mut(prod) {
            if let Some(cell) = row.get_mut(alt) {
                *cell += 1;
            }
        }
    }

    /// Merges another coverage record (e.g. from another input) into this
    /// one. Both must come from the same compiled grammar.
    pub fn absorb(&mut self, other: &Coverage) {
        for (mine, theirs) in self.hits.iter_mut().zip(other.hits.iter()) {
            for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                *a += b;
            }
        }
    }

    /// Total number of alternatives in the grammar.
    pub fn alternative_count(&self) -> usize {
        self.hits.iter().map(Vec::len).sum()
    }

    /// Number of alternatives matched at least once.
    pub fn covered_count(&self) -> usize {
        self.hits
            .iter()
            .flat_map(|row| row.iter())
            .filter(|h| **h > 0)
            .count()
    }

    /// Covered fraction in `[0, 1]` (1.0 for an empty grammar).
    pub fn ratio(&self) -> f64 {
        let total = self.alternative_count();
        if total == 0 {
            1.0
        } else {
            self.covered_count() as f64 / total as f64
        }
    }

    /// The alternatives never matched, as `(production, alternative)`
    /// descriptions.
    pub fn uncovered(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for ((name, row), labels) in self.names.iter().zip(&self.hits).zip(&self.labels) {
            for (i, h) in row.iter().enumerate() {
                if *h == 0 {
                    let alt = match &labels[i] {
                        Some(l) => format!("<{l}>"),
                        None => format!("#{}", i + 1),
                    };
                    out.push((name.clone(), alt));
                }
            }
        }
        out
    }

    /// Hit count for a production's alternative (by production name and
    /// alternative index), if present.
    pub fn hits_for(&self, production: &str, alt: usize) -> Option<u64> {
        let p = self.names.iter().position(|n| n == production)?;
        self.hits.get(p)?.get(alt).copied()
    }

    /// All per-alternative hit counts of one production, by name.
    ///
    /// Alternative indices follow the same order as [`Coverage::hits_for`];
    /// coverage-guided generation uses this row to bias alternative
    /// selection toward uncovered entries.
    pub fn hits_row(&self, production: &str) -> Option<&[u64]> {
        let p = self.names.iter().position(|n| n == production)?;
        self.hits.get(p).map(Vec::as_slice)
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "alternative coverage: {}/{} ({:.1}%)",
            self.covered_count(),
            self.alternative_count(),
            self.ratio() * 100.0
        )?;
        for (prod, alt) in self.uncovered() {
            writeln!(f, "  never matched: {prod} {alt}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coverage {
        Coverage::new(
            vec!["A".into(), "B".into()],
            vec![vec![Some("X".into()), None], vec![None]],
        )
    }

    #[test]
    fn counting_and_ratio() {
        let mut c = sample();
        assert_eq!(c.alternative_count(), 3);
        assert_eq!(c.covered_count(), 0);
        c.hit(0, 0);
        c.hit(0, 0);
        c.hit(1, 0);
        assert_eq!(c.covered_count(), 2);
        assert!((c.ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(c.hits_for("A", 0), Some(2));
        assert_eq!(c.hits_for("A", 1), Some(0));
        assert_eq!(c.hits_for("Zzz", 0), None);
        assert_eq!(c.hits_row("A"), Some(&[2, 0][..]));
        assert_eq!(c.hits_row("Zzz"), None);
    }

    #[test]
    fn uncovered_reports_labels_and_positions() {
        let mut c = sample();
        c.hit(0, 0);
        let un = c.uncovered();
        assert_eq!(
            un,
            vec![
                ("A".to_owned(), "#2".to_owned()),
                ("B".to_owned(), "#1".to_owned())
            ]
        );
        let text = c.to_string();
        assert!(text.contains("1/3"));
        assert!(text.contains("never matched: A #2"));
    }

    #[test]
    fn absorb_merges() {
        let mut a = sample();
        let mut b = sample();
        a.hit(0, 0);
        b.hit(0, 1);
        b.hit(1, 0);
        a.absorb(&b);
        assert_eq!(a.covered_count(), 3);
    }

    #[test]
    fn out_of_range_hits_are_ignored() {
        let mut c = sample();
        c.hit(9, 9);
        assert_eq!(c.covered_count(), 0);
    }
}
