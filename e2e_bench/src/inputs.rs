//! Seeded workload inputs. The same seed always gives byte-identical
//! inputs; the program under test only ever sees the generated text.

use std::ops::Range;

use modpeg_workload::rng::StdRng;

/// Input sizes. [`FULL`] is what the benchmark measures; [`TINY`] keeps
/// the unit tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub corpus: usize,
    pub lexical: usize,
    pub malformed: usize,
    pub min_doc: usize,
    pub max_doc: usize,
    pub edit_doc: usize,
    pub edits: usize,
    /// Builds of the workload's parsers before the gate (one more follows
    /// each timed round); `setup_s` is the median of all of them.
    pub setup_reps: usize,
}

pub const FULL: Scale = Scale {
    corpus: 1 << 20,
    lexical: 4 << 20,
    malformed: 1 << 20,
    min_doc: 2 << 10,
    max_doc: 64 << 10,
    edit_doc: 64 << 10,
    edits: 500,
    setup_reps: 5,
};

#[cfg(test)]
pub const TINY: Scale = Scale {
    corpus: 12 << 10,
    lexical: 12 << 10,
    malformed: 6 << 10,
    min_doc: 512,
    max_doc: 4 << 10,
    edit_doc: 6 << 10,
    edits: 60,
    setup_reps: 3,
};

/// A document and the index of the family (in the workload's family
/// list) whose grammar parses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    pub family: usize,
    pub text: String,
}

type Generator = fn(u64, usize) -> String;

fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Document sizes adding up to about `total`: a stratified draw from the
/// log-uniform distribution on `[min, max]`, the i-th of n sizes at
/// quantile (i + ½)/n. Every seed gets the same size mix, so seeds differ
/// only in content and their timings stay comparable.
fn ladder(total: usize, min: usize, max: usize) -> Vec<usize> {
    let ratio = max as f64 / min as f64;
    let mean = (max - min) as f64 / ratio.ln();
    let n = ((total as f64 / mean).round() as usize).max(1);
    (0..n)
        .map(|i| (min as f64 * ratio.powf((i as f64 + 0.5) / n as f64)) as usize)
        .collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Documents from `mix` (family index, generator, share of `total`
/// bytes), sized by [`ladder`] on `[min, max]`, in seeded order, each with
/// its index in its family's ladder.
fn mixed(
    seed: u64,
    salt: u64,
    total: usize,
    (min, max): (usize, usize),
    mix: &[(usize, Generator, f64)],
) -> Vec<(usize, Doc)> {
    let mut r = rng(seed, salt);
    let mut docs = Vec::new();
    for &(family, gen, share) in mix {
        for (rank, size) in ladder((total as f64 * share) as usize, min, max)
            .into_iter()
            .enumerate()
        {
            let text = gen(r.next_u64(), size);
            docs.push((rank, Doc { family, text }));
        }
    }
    shuffle(&mut docs, &mut r);
    docs
}

fn unranked(docs: Vec<(usize, Doc)>) -> Vec<Doc> {
    docs.into_iter().map(|(_, d)| d).collect()
}

/// `corpus`: by bytes 40% extended Java, 35% C, 25% JSON; families are
/// [`CORPUS_FAMILIES`](crate::docs::CORPUS_FAMILIES).
pub fn corpus(seed: u64, scale: Scale) -> Vec<Doc> {
    unranked(mixed(
        seed,
        0xC0,
        scale.corpus,
        (scale.min_doc, scale.max_doc),
        &CORPUS_MIX,
    ))
}

const CORPUS_MIX: [(usize, Generator, f64); 3] = [
    (0, modpeg_workload::java_extended_program, 0.40),
    (1, modpeg_workload::c_program, 0.35),
    (2, modpeg_workload::json_document, 0.25),
];

/// `lexical`: a quarter each of calc, JSON, Java and C lexical-heavy
/// documents; families are [`LEXICAL_FAMILIES`](crate::docs::LEXICAL_FAMILIES).
pub fn lexical(seed: u64, scale: Scale) -> Vec<Doc> {
    unranked(mixed(
        seed,
        0x1E,
        scale.lexical,
        (scale.min_doc, scale.max_doc),
        &[
            (0, modpeg_workload::calc_lexical, 0.25),
            (1, modpeg_workload::json_lexical, 0.25),
            (2, modpeg_workload::java_lexical, 0.25),
            (3, modpeg_workload::c_lexical, 0.25),
        ],
    ))
}

/// Share of `text`'s bytes that sit in runs of 16 or more bytes of one
/// class (digits, letters/underscore, or blanks).
pub fn long_run_share(text: &str) -> f64 {
    fn class(b: u8) -> u8 {
        match b {
            b'0'..=b'9' => 1,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => 2,
            b' ' | b'\t' | b'\n' | b'\r' => 3,
            _ => 0,
        }
    }
    let bytes = text.as_bytes();
    let mut in_runs = 0;
    let mut i = 0;
    while i < bytes.len() {
        let c = class(bytes[i]);
        let start = i;
        while i < bytes.len() && class(bytes[i]) == c {
            i += 1;
        }
        if c != 0 && i - start >= 16 {
            in_runs += i - start;
        }
    }
    in_runs as f64 / bytes.len().max(1) as f64
}

/// A malformed document and the valid document it was corrupted from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed {
    pub doc: Doc,
    pub original: String,
}

/// `malformed`: corpus-style documents (about `scale.malformed` bytes,
/// sizes from half the smallest to a quarter of the largest corpus
/// size), each with 1–8 seeded corruptions. A corruption is kept only if
/// `rejects(family, text)` (the independent backtracking recognizer)
/// rejects the result; otherwise the document is corrupted afresh.
///
/// Recovery gives up after the default error budget, so how much of a
/// document parses normally depends on where its first corruption sits.
/// That offset is therefore stratified like the sizes: the document at
/// ladder index i gets its first corruption at fraction frac((i + ½)·φ)
/// of its length, the same on every seed.
pub fn malformed(seed: u64, scale: Scale, rejects: &dyn Fn(usize, &str) -> bool) -> Vec<Malformed> {
    let sizes = (scale.min_doc / 4, scale.max_doc / 8);
    let mut r = rng(seed, 0xBAD1);
    mixed(seed, 0xBAD, scale.malformed, sizes, &CORPUS_MIX)
        .into_iter()
        .map(|(rank, o)| {
            let at = ((rank as f64 + 0.5) * 0.618_033_988_749_895).fract();
            let first = (at * o.text.len() as f64) as usize;
            let count = 1 + rank * 3 % 8;
            let text = (0..64)
                .map(|tries| corrupt(&o.text, first + 16 * tries, count, &mut r))
                .find(|text| rejects(o.family, text))
                // Never needed in practice: a stray `)` after the last
                // top-level item is invalid in all three grammars.
                .unwrap_or_else(|| format!("{})", o.text));
            Malformed {
                doc: Doc {
                    family: o.family,
                    text,
                },
                original: o.text,
            }
        })
        .collect()
}

/// Applies `count` random single-byte deletions, insertions or
/// replacements of ASCII bytes (so the text stays UTF-8): the first at
/// byte `first` (or the next ASCII byte after it), the rest after that.
fn corrupt(text: &str, first: usize, count: usize, r: &mut StdRng) -> String {
    const JUNK: &[u8] = b";{}()[]=,@#";
    let mut bytes = text.as_bytes().to_vec();
    let mut pos = first.min(bytes.len() - 1);
    for _ in 0..count {
        while pos < bytes.len() && !bytes[pos].is_ascii() {
            pos += 1;
        }
        if pos == bytes.len() {
            break;
        }
        let junk = JUNK[r.gen_range(0..JUNK.len())];
        match r.gen_range(0..3) {
            0 if bytes.len() > 1 => {
                bytes.remove(pos);
            }
            1 => bytes.insert(pos, junk),
            _ => bytes[pos] = junk,
        }
        pos = r.gen_range(pos..bytes.len().max(pos + 1));
    }
    String::from_utf8(bytes).expect("only ASCII bytes were touched")
}

/// The `edit` document: generated base-subset Java.
pub fn edit_doc(seed: u64, scale: Scale) -> String {
    modpeg_workload::java_program(rng(seed, 0xED).next_u64(), scale.edit_doc)
}

/// Small Java documents for the `edit` workload's per-layer probes (the
/// small side of `linearity.*`).
pub fn edit_probe_docs(seed: u64, scale: Scale) -> Vec<String> {
    let mut r = rng(seed, 0xED2);
    (1..=4)
        .map(|k| modpeg_workload::java_program(r.next_u64(), scale.min_doc * k / 2))
        .collect()
}

/// One edit: replace `range` of the current text with `text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    pub range: Range<usize>,
    pub text: String,
}

const JAVA_KEYWORDS: &[&str] = &[
    "boolean", "break", "char", "class", "continue", "do", "else", "false", "for", "if", "int",
    "new", "null", "return", "true", "void", "while",
];

/// `n` edits, each applied to the result of the ones before: at a seeded
/// position, the next number literal or identifier is replaced by one of a
/// different length. Keywords and tokens right after `'` or `\` (inside
/// char literals and escapes) are skipped, so every intermediate text
/// stays valid Java; replacement identifiers start with `q`, which no
/// keyword does.
pub fn edit_script(doc: &str, seed: u64, n: usize) -> Vec<Edit> {
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut r = rng(seed, 0xED1);
    let mut text = doc.to_owned();
    let mut edits = Vec::with_capacity(n);
    while edits.len() < n {
        let b = text.as_bytes();
        let mut i = r.gen_range(0..b.len());
        let token = loop {
            if i >= b.len() {
                break None;
            }
            if ident(b[i]) && (i == 0 || !ident(b[i - 1])) {
                let mut end = i;
                while end < b.len() && ident(b[end]) {
                    end += 1;
                }
                let word = &text[i..end];
                let after_quote = i > 0 && matches!(b[i - 1], b'\'' | b'\\');
                if !after_quote && !JAVA_KEYWORDS.contains(&word) {
                    break Some(i..end);
                }
                i = end;
            } else {
                i += 1;
            }
        };
        let Some(range) = token else { continue };
        let old = range.len();
        let mut len = r.gen_range(1..=8usize);
        if len == old {
            len += 1;
        }
        let number = b[range.start].is_ascii_digit();
        let replacement: String = (0..len)
            .map(|k| match (number, k) {
                (true, 0) => char::from(b'1' + r.gen_range(0..9u8)),
                (true, _) => char::from(b'0' + r.gen_range(0..10u8)),
                (false, 0) => 'q',
                (false, _) => char::from(b'a' + r.gen_range(0..26u8)),
            })
            .collect();
        text.replace_range(range.clone(), &replacement);
        edits.push(Edit {
            range,
            text: replacement,
        });
    }
    edits
}

/// Sample documents for the `build` workload, by index into
/// [`COMPOSITIONS`](crate::families::COMPOSITIONS): a small and a large
/// generated document for every composition with a generator (Java
/// documents for java.WithSql, which extends Java), and the shipped module
/// texts for the self-hosting `mpeg` grammar.
pub fn build_samples(seed: u64, scale: Scale) -> Vec<Doc> {
    use modpeg_grammars::sources;
    let gens: [Option<Generator>; 7] = [
        Some(modpeg_workload::calc_expression),
        Some(modpeg_workload::json_document),
        Some(modpeg_workload::java_program),
        Some(modpeg_workload::java_extended_program),
        Some(modpeg_workload::c_program),
        Some(modpeg_workload::java_program),
        None,
    ];
    let mut r = rng(seed, 0xB1);
    let mut docs = Vec::new();
    for (family, gen) in gens.iter().enumerate() {
        match gen {
            Some(gen) => {
                for size in [scale.min_doc * 2, scale.max_doc * 3 / 4] {
                    docs.push(Doc {
                        family,
                        text: gen(r.next_u64(), size),
                    });
                }
            }
            None => {
                for text in [
                    sources::CALC,
                    sources::JSON,
                    sources::JAVA,
                    sources::C,
                    sources::MPEG,
                ] {
                    docs.push(Doc {
                        family,
                        text: text.to_owned(),
                    });
                }
            }
        }
    }
    docs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_log_spaced_and_sums_to_about_the_total() {
        let sizes = ladder(1 << 20, 2 << 10, 64 << 10);
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert!(sizes[0] >= 2 << 10 && *sizes.last().unwrap() <= 64 << 10);
        let sum: usize = sizes.iter().sum();
        assert!((sum as f64 / f64::from(1 << 20) - 1.0).abs() < 0.1, "{sum}");
    }

    #[test]
    fn edit_script_changes_lengths_and_avoids_keywords() {
        let doc = edit_doc(3, TINY);
        let edits = edit_script(&doc, 3, 200);
        let mut text = doc.clone();
        for e in &edits {
            let old = &text[e.range.clone()];
            assert_ne!(old.len(), e.text.len());
            assert!(!JAVA_KEYWORDS.contains(&old), "{old}");
            text.replace_range(e.range.clone(), &e.text);
        }
        assert_ne!(text, doc);
    }

    #[test]
    fn corruption_keeps_utf8_and_changes_the_text() {
        let mut r = rng(1, 2);
        let src = "{\"é\": [1, 2, 3], \"k\": \"ü\"}";
        // `corrupt` returns a `String`, so UTF-8 is checked on every call.
        let changed = (0..100)
            .filter(|i| corrupt(src, i % src.len(), 1 + i % 8, &mut r) != src)
            .count();
        assert!(changed >= 90, "{changed}");
    }
}
