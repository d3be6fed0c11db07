//! Bulk character-class scanning: the vectorized lexical hot path.
//!
//! Every grammar in the repo spends most of its terminal time in
//! `$[...]*` / `$[...]+` loops, and the per-iteration cost of the scalar
//! path — a `char_at` decode plus a binary search over class ranges — is
//! what this module removes. A character class is compiled **once** into
//! a [`ClassTable`]:
//!
//! * a 128-bit ASCII membership bitmap (stored as `[u64; 4]` so codegen
//!   can bake it as a `const`; the upper two words are always zero and
//!   exist so the table is literally the 256-bit array the bitmap
//!   indexes with a byte), with the class's negation already folded in:
//!   bit `b` is set iff the class matches byte `b`; and
//! * a non-ASCII [`WideVerdict`] — all-match, none-match, or
//!   fall-back-to-ranges — derived from the normalized ranges and the
//!   negation flag, so the scanner only decodes UTF-8 when a non-ASCII
//!   lead byte is actually present **and** the verdict requires a range
//!   check.
//!
//! [`scan_class_run`] then consumes the maximal run of matching
//! characters in bulk: ASCII bytes in 16-byte SIMD chunks
//! (SSE2 / NEON behind `#[cfg(target_arch)]`) or 8-byte SWAR words on
//! other targets, falling back to per-`char` decode only at non-ASCII
//! lead bytes. SWAR is plain Rust, so every target gets a bulk path.
//!
//! [`RunCtx::class_run`](crate::RunCtx::class_run) owns the
//! *observable* contract every engine shares (governor ticks per
//! consumed character, `terminal_comparisons`, farthest-failure notes);
//! this module only reports how far a run extends and how many
//! characters it covers, plus [`advance_chars`] to recover the exact
//! character boundary a partially-charged (aborted) run stopped at.
//!
//! [`force_scalar`] flips the calling thread onto the per-character
//! reference loops — `class_run`'s scalar path, and the interpreter's
//! generic repetition loop — which are the differential reference for
//! the conformance oracle and the `fig_simd` baseline. It is the only
//! switch: every thread starts on the bulk scanner.

use std::borrow::Cow;
use std::cell::Cell;

/// Non-ASCII membership verdict of a class, derived once from its
/// normalized ranges and negation flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WideVerdict {
    /// No character ≥ U+0080 matches (plain class whose ranges all end
    /// below U+0080).
    MatchNone,
    /// Every character ≥ U+0080 matches (negated class whose ranges all
    /// end below U+0080).
    MatchAll,
    /// Membership depends on the ranges: binary-search the ranges
    /// (clipped to ≥ U+0080, still sorted and disjoint) and XOR with the
    /// negation flag. `Cow` so codegen can bake the ranges as a
    /// `'static` slice while runtime construction owns them.
    Check {
        /// Class ranges clipped to the non-ASCII plane, as inclusive
        /// `(lo, hi)` scalar-value pairs.
        ranges: Cow<'static, [(u32, u32)]>,
        /// Whether the class is negated (`[^...]`).
        negated: bool,
    },
}

/// Sentinel for "ASCII membership has more runs than the SIMD
/// range-comparison path can encode": the scanner uses SWAR instead.
const SIMD_RUNS_OVERFLOW: u8 = u8::MAX;

/// How many contiguous ASCII match-runs the SIMD path compares per
/// 16-byte chunk. Real grammar classes (`[a-z]`, `[0-9a-fA-F]`,
/// `[^"\\]`, ...) have far fewer; classes beyond the cap fall back to
/// SWAR, which handles arbitrary bitmaps.
const MAX_SIMD_RUNS: usize = 8;

/// A character class compiled for bulk scanning: ASCII bitmap +
/// non-ASCII verdict + the bitmap's match-runs for the SIMD path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassTable {
    /// 256-bit membership bitmap indexed by byte value; only bits 0–127
    /// can be set (non-ASCII bytes are never matched bytewise — they are
    /// UTF-8 lead/continuation bytes and go through [`WideVerdict`]).
    bits: [u64; 4],
    /// Membership of characters ≥ U+0080.
    wide: WideVerdict,
    /// Maximal runs of consecutive matching bytes in `bits`, inclusive,
    /// for the SIMD range-comparison scanner. Only the first
    /// `simd_runs` entries are meaningful.
    runs: [(u8, u8); MAX_SIMD_RUNS],
    /// Number of valid entries in `runs`, or [`SIMD_RUNS_OVERFLOW`] when
    /// the bitmap has too many runs for the SIMD path.
    simd_runs: u8,
}

impl ClassTable {
    /// Builds a table from an ASCII membership bitmap and a non-ASCII
    /// verdict. `const` so codegen can bake tables as `static`s; the
    /// bitmap's match-runs for the SIMD path are derived here.
    pub const fn from_bitmap(bits: [u64; 4], wide: WideVerdict) -> ClassTable {
        let mut runs = [(0u8, 0u8); MAX_SIMD_RUNS];
        let mut n = 0usize;
        let mut overflow = false;
        let mut b = 0usize;
        while b < 128 {
            if (bits[b >> 6] >> (b & 63)) & 1 == 0 {
                b += 1;
                continue;
            }
            let start = b;
            while b < 128 && (bits[b >> 6] >> (b & 63)) & 1 != 0 {
                b += 1;
            }
            if n == MAX_SIMD_RUNS {
                overflow = true;
                break;
            }
            runs[n] = (start as u8, (b - 1) as u8);
            n += 1;
        }
        ClassTable {
            bits,
            wide,
            runs,
            simd_runs: if overflow {
                SIMD_RUNS_OVERFLOW
            } else {
                n as u8
            },
        }
    }

    /// Compiles a class's normalized ranges (sorted, disjoint, as
    /// produced by `CharClass::from_ranges`) and negation flag into a
    /// table. Membership is *defined* by `inside(ranges) != negated`,
    /// exactly mirroring `CharClass::matches`.
    pub fn from_ranges(ranges: &[(char, char)], negated: bool) -> ClassTable {
        let mut bits = [0u64; 4];
        for b in 0..128u32 {
            let c = char::from_u32(b).expect("ASCII is always a char");
            let inside = ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
            if inside != negated {
                bits[(b >> 6) as usize] |= 1 << (b & 63);
            }
        }
        let clipped: Vec<(u32, u32)> = ranges
            .iter()
            .map(|&(lo, hi)| (lo as u32, hi as u32))
            .filter(|&(_, hi)| hi >= 0x80)
            .map(|(lo, hi)| (lo.max(0x80), hi))
            .collect();
        let wide = if clipped.is_empty() {
            if negated {
                WideVerdict::MatchAll
            } else {
                WideVerdict::MatchNone
            }
        } else {
            WideVerdict::Check {
                ranges: Cow::Owned(clipped),
                negated,
            }
        };
        ClassTable::from_bitmap(bits, wide)
    }

    /// The ASCII membership bitmap (for codegen to serialize).
    pub fn bits(&self) -> &[u64; 4] {
        &self.bits
    }

    /// The non-ASCII verdict (for codegen to serialize).
    pub fn wide(&self) -> &WideVerdict {
        &self.wide
    }

    /// Whether the class matches an ASCII byte. O(1) bit test.
    #[inline]
    pub fn matches_ascii(&self, b: u8) -> bool {
        debug_assert!(b < 0x80);
        (self.bits[(b >> 6) as usize] >> (b & 63)) & 1 != 0
    }

    /// Whether the class matches a character — the table-backed
    /// equivalent of `CharClass::matches`.
    #[inline]
    pub fn matches_char(&self, c: char) -> bool {
        let u = c as u32;
        if u < 0x80 {
            return (self.bits[(u >> 6) as usize] >> (u & 63)) & 1 != 0;
        }
        match &self.wide {
            WideVerdict::MatchNone => false,
            WideVerdict::MatchAll => true,
            WideVerdict::Check { ranges, negated } => {
                use std::cmp::Ordering;
                let inside = ranges
                    .binary_search_by(|&(lo, hi)| {
                        if u < lo {
                            Ordering::Greater
                        } else if u > hi {
                            Ordering::Less
                        } else {
                            Ordering::Equal
                        }
                    })
                    .is_ok();
                inside != *negated
            }
        }
    }
}

/// The extent of a maximal class run found by [`scan_class_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassRun {
    /// Byte offset just past the last matching character — always a
    /// character boundary.
    pub end: u32,
    /// Number of characters consumed. The engines charge one governor
    /// tick and one terminal comparison per character (plus one for the
    /// final failing probe), exactly as their scalar loops do.
    pub chars: u32,
}

/// Consumes the maximal run of characters matching `table` starting at
/// `pos` (a character boundary) in `text`. ASCII bytes are classified in
/// bulk; UTF-8 decoding happens only at non-ASCII lead bytes.
pub fn scan_class_run(text: &str, pos: u32, table: &ClassTable) -> ClassRun {
    let bytes = text.as_bytes();
    let len = bytes.len();
    let mut i = (pos as usize).min(len);
    let mut chars = 0u32;
    loop {
        let stop = scan_ascii(bytes, i, table);
        chars += (stop - i) as u32;
        i = stop;
        if i >= len || bytes[i] < 0x80 {
            break; // end of input, or an ASCII byte the class rejects
        }
        // Non-ASCII lead byte: decode one char and consult the verdict.
        let Some(c) = text[i..].chars().next() else {
            break;
        };
        if !table.matches_char(c) {
            break;
        }
        i += c.len_utf8();
        chars += 1;
    }
    ClassRun {
        end: i as u32,
        chars,
    }
}

/// The byte offset after advancing `n` characters from `pos` — the exact
/// boundary a scalar loop would sit at after `n` successful probes. Used
/// to place the machine's position when a governor abort lands inside a
/// bulk-scanned run.
pub fn advance_chars(text: &str, pos: u32, n: u32) -> u32 {
    let mut i = pos as usize;
    let mut left = n;
    while left > 0 {
        match text.get(i..).and_then(|s| s.chars().next()) {
            Some(c) => {
                i += c.len_utf8();
                left -= 1;
            }
            None => break,
        }
    }
    i as u32
}

/// Extends the ASCII prefix: returns the first index `>= i` where either
/// the byte is non-ASCII or the class rejects it (or `bytes.len()`).
#[inline]
fn scan_ascii(bytes: &[u8], i: usize, table: &ClassTable) -> usize {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if table.simd_runs != SIMD_RUNS_OVERFLOW {
        // SAFETY: SSE2 is baseline on x86_64 and NEON on aarch64; no
        // runtime feature detection is needed.
        return unsafe { scan_ascii_simd(bytes, i, table) };
    }
    scan_ascii_swar(bytes, i, table)
}

/// SWAR scanner: classifies 8 bytes per `u64` word. A high-bit mask
/// rejects chunks containing non-ASCII bytes cheaply; member bytes are
/// then confirmed with unrolled bitmap tests.
fn scan_ascii_swar(bytes: &[u8], mut i: usize, table: &ClassTable) -> usize {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    while i + 8 <= bytes.len() {
        let word = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte chunk"));
        if word & HIGH != 0 {
            break; // a non-ASCII byte somewhere in the chunk
        }
        let mut k = 0;
        while k < 8 && table.matches_ascii(bytes[i + k]) {
            k += 1;
        }
        i += k;
        if k < 8 {
            return i;
        }
    }
    scan_ascii_tail(bytes, i, table)
}

/// Scalar tail shared by the bulk scanners.
#[inline]
fn scan_ascii_tail(bytes: &[u8], mut i: usize, table: &ClassTable) -> usize {
    while i < bytes.len() && bytes[i] < 0x80 && table.matches_ascii(bytes[i]) {
        i += 1;
    }
    i
}

/// SSE2 scanner: 16 bytes per chunk. Each of the class's ASCII
/// match-runs `[lo, hi]` is tested with the classic unsigned-≤ trick
/// (`min(x - lo, hi - lo) == x - lo` via wrapping subtraction); bytes
/// ≥ 0x80 never satisfy any run (run bounds are ≤ 0x7F) so they stop the
/// scan exactly like a rejected ASCII byte, handing over to the per-char
/// decoder.
#[cfg(target_arch = "x86_64")]
unsafe fn scan_ascii_simd(bytes: &[u8], mut i: usize, table: &ClassTable) -> usize {
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_min_epu8, _mm_movemask_epi8, _mm_or_si128,
        _mm_set1_epi8, _mm_setzero_si128, _mm_sub_epi8,
    };
    let n = table.simd_runs as usize;
    while i + 16 <= bytes.len() {
        let chunk = _mm_loadu_si128(bytes.as_ptr().add(i).cast::<__m128i>());
        let mut member = _mm_setzero_si128();
        let mut r = 0;
        while r < n {
            let (lo, hi) = table.runs[r];
            let shifted = _mm_sub_epi8(chunk, _mm_set1_epi8(lo as i8));
            let width = _mm_set1_epi8((hi - lo) as i8);
            // shifted <=(unsigned) width  ⇔  min(shifted, width) == shifted
            let in_run = _mm_cmpeq_epi8(_mm_min_epu8(shifted, width), shifted);
            member = _mm_or_si128(member, in_run);
            r += 1;
        }
        let stop = !_mm_movemask_epi8(member) & 0xFFFF;
        if stop != 0 {
            return i + stop.trailing_zeros() as usize;
        }
        i += 16;
    }
    scan_ascii_tail(bytes, i, table)
}

/// NEON scanner: 16 bytes per chunk, same run comparisons as SSE2, with
/// the `vshrn` narrowing trick standing in for `movemask` (4 bits per
/// lane in a `u64`).
#[cfg(target_arch = "aarch64")]
unsafe fn scan_ascii_simd(bytes: &[u8], mut i: usize, table: &ClassTable) -> usize {
    use std::arch::aarch64::{
        vandq_u8, vcgeq_u8, vcleq_u8, vdupq_n_u8, vget_lane_u64, vld1q_u8, vmvnq_u8, vorrq_u8,
        vreinterpret_u64_u8, vreinterpretq_u16_u8, vshrn_n_u16,
    };
    let n = table.simd_runs as usize;
    while i + 16 <= bytes.len() {
        let chunk = vld1q_u8(bytes.as_ptr().add(i));
        let mut member = vdupq_n_u8(0);
        let mut r = 0;
        while r < n {
            let (lo, hi) = table.runs[r];
            let in_run = vandq_u8(
                vcgeq_u8(chunk, vdupq_n_u8(lo)),
                vcleq_u8(chunk, vdupq_n_u8(hi)),
            );
            member = vorrq_u8(member, in_run);
            r += 1;
        }
        let stop_lanes = vmvnq_u8(member);
        let nibble_mask = vget_lane_u64::<0>(vreinterpret_u64_u8(vshrn_n_u16::<4>(
            vreinterpretq_u16_u8(stop_lanes),
        )));
        if nibble_mask != 0 {
            return i + (nibble_mask.trailing_zeros() / 4) as usize;
        }
        i += 16;
    }
    scan_ascii_tail(bytes, i, table)
}

thread_local! {
    /// Whether the calling thread takes the scalar loops.
    static FORCED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread should take the engines' original
/// per-character scalar loops instead of the bulk scanner. The
/// conformance oracle flips this to run its scalar-vs-vectorized leg.
#[inline]
pub fn scalar_forced() -> bool {
    FORCED.with(Cell::get)
}

/// Forces (`true`) or un-forces (`false`) the scalar path on the calling
/// thread.
pub fn force_scalar(on: bool) {
    FORCED.with(|c| c.set(on));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time reference scanner: the semantics the bulk paths
    /// must reproduce.
    fn scan_ascii_scalar(bytes: &[u8], mut i: usize, table: &ClassTable) -> usize {
        while i < bytes.len() && bytes[i] < 0x80 && table.matches_ascii(bytes[i]) {
            i += 1;
        }
        i
    }

    fn table(ranges: &[(char, char)], negated: bool) -> ClassTable {
        ClassTable::from_ranges(ranges, negated)
    }

    #[test]
    fn bitmap_matches_definition() {
        let t = table(&[('a', 'z'), ('0', '9')], false);
        for b in 0u8..128 {
            let c = b as char;
            assert_eq!(
                t.matches_ascii(b),
                c.is_ascii_lowercase() || c.is_ascii_digit(),
                "byte {b:#x}"
            );
        }
        assert!(!t.matches_char('é'));
        assert!(!t.matches_char('\u{1F600}'));
    }

    #[test]
    fn negated_bitmap_and_wide_all() {
        let t = table(&[('"', '"'), ('\\', '\\')], true);
        assert!(!t.matches_ascii(b'"'));
        assert!(!t.matches_ascii(b'\\'));
        assert!(t.matches_ascii(b'x'));
        // Negated class whose ranges are all ASCII: every wide char matches.
        assert_eq!(*t.wide(), WideVerdict::MatchAll);
        assert!(t.matches_char('é'));
        assert!(t.matches_char('\u{10FFFF}'));
    }

    #[test]
    fn wide_check_clips_and_searches() {
        // Range straddling the ASCII boundary: [p, é] = [0x70, 0xE9].
        let t = table(&[('\u{70}', '\u{E9}')], false);
        assert!(t.matches_ascii(b'p'));
        assert!(!t.matches_ascii(b'o'));
        assert!(t.matches_char('\u{80}'));
        assert!(t.matches_char('\u{E9}'));
        assert!(!t.matches_char('\u{EA}'));

        let neg = table(&[('\u{300}', '\u{36F}')], true);
        assert!(!neg.matches_char('\u{310}'));
        assert!(neg.matches_char('\u{200}'));
        assert!(neg.matches_char('A'));
    }

    #[test]
    fn const_bitmap_construction() {
        // The codegen shape: a table baked at compile time.
        static T: ClassTable = ClassTable::from_bitmap(
            [0x03FF_0000_0000_0000, 0, 0, 0], // '0'..='9' = bits 48..=57
            WideVerdict::MatchNone,
        );
        assert!(T.matches_ascii(b'0'));
        assert!(T.matches_ascii(b'9'));
        assert!(!T.matches_ascii(b'a'));
        assert_eq!(T.simd_runs, 1);
        assert_eq!(T.runs[0], (b'0', b'9'));
    }

    #[test]
    fn run_derivation_overflows_to_swar() {
        // Alternating bytes: 64 runs — far beyond the SIMD cap.
        let mut bits = [0u64; 4];
        bits[0] = 0x5555_5555_5555_5555;
        bits[1] = 0x5555_5555_5555_5555;
        let t = ClassTable::from_bitmap(bits, WideVerdict::MatchNone);
        assert_eq!(t.simd_runs, SIMD_RUNS_OVERFLOW);
        // The scanner still works (SWAR path): even bytes match, odd stop.
        let text = "\u{0}\u{2}\u{4}\u{1}\u{6}";
        let run = scan_class_run(text, 0, &t);
        assert_eq!(run, ClassRun { end: 3, chars: 3 });
    }

    #[test]
    fn scan_stops_at_rejected_ascii() {
        let t = table(&[('a', 'z')], false);
        let text = "abcdefghijklmnopqrstuvwxyz0rest";
        let run = scan_class_run(text, 0, &t);
        assert_eq!(run, ClassRun { end: 26, chars: 26 });
    }

    #[test]
    fn scan_crosses_non_ascii_when_verdict_allows() {
        let t = table(&[('"', '"'), ('\\', '\\')], true); // [^"\\]
        let text = "héllo wörld\"tail";
        let run = scan_class_run(text, 0, &t);
        assert_eq!(run.end, "héllo wörld".len() as u32);
        assert_eq!(run.chars, 11);
    }

    #[test]
    fn scan_stops_at_rejected_non_ascii() {
        let t = table(&[('a', 'z')], false);
        let text = "abcé";
        let run = scan_class_run(text, 0, &t);
        assert_eq!(run, ClassRun { end: 3, chars: 3 });
    }

    #[test]
    fn scan_runs_to_end_of_input() {
        let t = table(&[('a', 'z')], false);
        // 40 bytes: exercises both the 16-byte SIMD loop and the tail.
        let text = "a".repeat(40);
        let run = scan_class_run(&text, 0, &t);
        assert_eq!(run, ClassRun { end: 40, chars: 40 });
        // And from an interior position.
        let run = scan_class_run(&text, 39, &t);
        assert_eq!(run, ClassRun { end: 40, chars: 1 });
        let run = scan_class_run(&text, 40, &t);
        assert_eq!(run, ClassRun { end: 40, chars: 0 });
    }

    #[test]
    fn scanners_agree_on_dense_mixed_input() {
        let t = table(&[('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')], false);
        let text = "Abc_09 XyZ".repeat(7);
        for pos in 0..text.len() as u32 {
            if !text.is_char_boundary(pos as usize) {
                continue;
            }
            let bulk = scan_class_run(&text, pos, &t);
            // Reference: scalar walk.
            let mut i = pos as usize;
            let mut chars = 0;
            while let Some(c) = text[i..].chars().next() {
                if !t.matches_char(c) {
                    break;
                }
                i += c.len_utf8();
                chars += 1;
            }
            assert_eq!(
                bulk,
                ClassRun {
                    end: i as u32,
                    chars
                },
                "pos {pos}"
            );
        }
    }

    #[test]
    fn bulk_ascii_scanner_agrees_with_scalar_reference() {
        let tables = [
            table(&[('a', 'z')], false),
            table(&[('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')], false),
            table(&[('"', '"'), ('\\', '\\')], true),
            table(
                &[(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
                false,
            ),
        ];
        let text = "while (x_0 <= 99) { s = \"a\\nb\"; }\t\n ".repeat(5);
        let bytes = text.as_bytes();
        for t in &tables {
            for i in 0..bytes.len() {
                assert_eq!(
                    scan_ascii(bytes, i, t),
                    scan_ascii_scalar(bytes, i, t),
                    "offset {i}"
                );
            }
        }
    }

    #[test]
    fn advance_chars_lands_on_boundaries() {
        let text = "aéb\u{1F600}c";
        assert_eq!(advance_chars(text, 0, 0), 0);
        assert_eq!(advance_chars(text, 0, 1), 1);
        assert_eq!(advance_chars(text, 0, 2), 3); // past 'é'
        assert_eq!(advance_chars(text, 0, 3), 4);
        assert_eq!(advance_chars(text, 0, 4), 8); // past the emoji
        assert_eq!(advance_chars(text, 0, 5), 9);
        assert_eq!(advance_chars(text, 0, 99), 9); // clamped at EOF
    }

    #[test]
    fn force_scalar_is_per_thread_and_resettable() {
        assert!(!scalar_forced(), "a thread starts on the bulk scanner");
        force_scalar(true);
        assert!(scalar_forced());
        let other = std::thread::spawn(scalar_forced);
        assert!(!other.join().expect("thread"), "the switch is per thread");
        force_scalar(false);
        assert!(!scalar_forced());
        let handle = std::thread::spawn(|| {
            force_scalar(true);
            scalar_forced()
        });
        assert!(handle.join().expect("thread"));
    }
}
