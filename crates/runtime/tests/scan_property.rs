//! Property tests for the bulk class scanner: `ClassTable` membership
//! is definitionally equal to `CharClass::matches`, and
//! `scan_class_run` consumes exactly the prefix the scalar definition
//! admits — for randomized classes (ASCII, wide, negated) over
//! randomized mixed ASCII/multibyte inputs.
//!
//! The RNG is the repo's vendored `StdRng`; every failure reprints the
//! class and input, so a seed pins a reproduction.

use modpeg_core::CharClass;
use modpeg_runtime::scan::{self, ClassTable};
use modpeg_workload::rng::StdRng;

/// Multibyte scalars at every UTF-8 encoding-length boundary (2-, 3-,
/// and 4-byte forms), plus interior samples.
const WIDE_SAMPLE: &[char] = &[
    '\u{80}',
    '\u{e9}',
    '\u{3b1}',
    '\u{7ff}',
    '\u{800}',
    '\u{4e2d}',
    '\u{ffff}',
    '\u{10000}',
    '\u{1f600}',
    '\u{10ffff}',
];

/// The scalar pool generators draw from: every ASCII character plus the
/// wide sample.
fn sample_chars() -> Vec<char> {
    let mut v: Vec<char> = (0u32..128).map(|b| char::from_u32(b).unwrap()).collect();
    v.extend(WIDE_SAMPLE);
    v
}

/// A random class: 1–4 ranges with endpoints drawn from the sample pool
/// (so ASCII-only, wide-only, and straddling ranges all occur), negated
/// half the time.
fn random_class(rng: &mut StdRng) -> CharClass {
    let pool = sample_chars();
    let n = rng.gen_range(1..5usize);
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        ranges.push(if a <= b { (a, b) } else { (b, a) });
    }
    CharClass::from_ranges(ranges, rng.gen_range(0..2u32) == 0)
}

#[test]
fn table_membership_equals_class_matches() {
    let mut rng = StdRng::seed_from_u64(0x5CA7_AB1E);
    let samples = sample_chars();
    for round in 0..300 {
        let class = random_class(&mut rng);
        let table = ClassTable::from_ranges(class.ranges(), class.is_negated());
        for &c in &samples {
            assert_eq!(
                table.matches_char(c),
                class.matches(c),
                "round {round}: char {c:?} in class {:?} (negated: {})",
                class.ranges(),
                class.is_negated()
            );
        }
        // The ASCII bitmap answers byte probes identically.
        for b in 0u8..128 {
            assert_eq!(
                table.matches_ascii(b),
                class.matches(b as char),
                "round {round}: byte {b:#04x} in class {:?} (negated: {})",
                class.ranges(),
                class.is_negated()
            );
        }
    }
}

#[test]
fn negated_wide_classes_match_complement() {
    // Deterministic spot checks on the shapes the generator may hit
    // rarely: a negated class whose ranges are entirely non-ASCII must
    // accept all of ASCII, and a negated straddling class must reject
    // exactly its interior.
    let class = CharClass::from_ranges(vec![('\u{100}', '\u{10FFFF}')], true);
    let table = ClassTable::from_ranges(class.ranges(), class.is_negated());
    for b in 0u8..128 {
        assert!(table.matches_ascii(b));
        assert!(table.matches_char(b as char));
    }
    assert!(table.matches_char('\u{ff}'));
    assert!(!table.matches_char('\u{100}'));
    assert!(!table.matches_char('\u{1f600}'));

    let class = CharClass::from_ranges(vec![('z', '\u{3b1}')], true);
    let table = ClassTable::from_ranges(class.ranges(), class.is_negated());
    for c in ['a', 'y', '\u{3b2}', '\u{10000}'] {
        assert!(
            table.matches_char(c),
            "{c:?} lies outside the negated range"
        );
        assert!(class.matches(c));
    }
    for c in ['z', '\u{7f}', '\u{80}', '\u{3b1}'] {
        assert!(
            !table.matches_char(c),
            "{c:?} lies inside the negated range"
        );
        assert!(!class.matches(c));
    }
}

#[test]
fn bulk_scan_consumes_exactly_the_scalar_prefix() {
    let mut rng = StdRng::seed_from_u64(0xB01D_FACE);
    let pool = sample_chars();
    for round in 0..200 {
        let class = random_class(&mut rng);
        let table = ClassTable::from_ranges(class.ranges(), class.is_negated());
        let text: String = (0..rng.gen_range(0..80usize))
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();

        // From every char boundary: the bulk scanner stops exactly where
        // a char-at-a-time walk of `CharClass::matches` stops, and
        // reports exactly that many characters.
        let mut pos = 0usize;
        loop {
            let run = scan::scan_class_run(&text, pos as u32, &table);
            let mut end = pos;
            let mut chars = 0u32;
            for c in text[pos..].chars() {
                if !class.matches(c) {
                    break;
                }
                end += c.len_utf8();
                chars += 1;
            }
            assert_eq!(
                (run.end, run.chars),
                (end as u32, chars),
                "round {round}: scan from {pos} of {text:?} with class {:?} (negated: {})",
                class.ranges(),
                class.is_negated()
            );
            match text[pos..].chars().next() {
                Some(c) => pos += c.len_utf8(),
                None => break,
            }
        }
    }
}
