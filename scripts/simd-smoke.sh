#!/usr/bin/env sh
# Bulk-scanning (SWAR/SIMD) smoke run (~15 s budget).
#
# Three checks on the vectorized character-class scanner:
#
#  1. The conformance fuzz smoke runs with the vectorized scanner (the
#     default) and its scan-parity legs actually execute: every input is
#     re-parsed with the scalar reference path forced and trees, stats,
#     and governor step totals are compared per engine. The report line
#     is checked for a nonzero leg count.
#  2. The same smoke re-runs in a fresh process with `MODPEG_SCAN=scalar`
#     forcing the byte-at-a-time reference loop everywhere; apart from
#     wall-clock timings the two reports must be byte-identical —
#     acceptance counts, coverage, divergences, everything.
#  3. A profile recording is byte-identical in both scan modes, modulo
#     its one-line timing section.
#
# Usage: scripts/simd-smoke.sh
set -eu

cd "$(dirname "$0")/.."

MODPEG=target/release/modpeg
if [ ! -x "$MODPEG" ]; then
    echo "== simd-smoke: building modpeg =="
    cargo build --release -p modpeg-cli
fi

# Drop wall-clock timings ("[0.28 s, engines: ...]" -> "[engines: ...]")
# so the two reports can be compared byte-for-byte.
strip_timing() {
    sed -E 's/\[[0-9]+\.[0-9]+ s, /[/'
}

echo "== simd-smoke: modpeg fuzz --smoke (vectorized) =="
VEC=$("$MODPEG" fuzz --smoke | strip_timing)
printf '%s\n' "$VEC"
printf '%s\n' "$VEC" | grep -q '[1-9][0-9]* scan-parity legs' || {
    echo "simd-smoke: the scan-parity legs did not run"
    exit 1
}

echo "== simd-smoke: modpeg fuzz --smoke (MODPEG_SCAN=scalar) =="
SCALAR=$(MODPEG_SCAN=scalar "$MODPEG" fuzz --smoke | strip_timing)
if [ "$VEC" != "$SCALAR" ]; then
    echo "simd-smoke: scalar-forced report differs from vectorized report"
    printf '%s\n' "$SCALAR"
    exit 1
fi
echo "scalar-forced report identical"

echo "== simd-smoke: profile counters identical in both scan modes =="
# The committed golden (tests/data/profile.java.mprof) is checked by
# pgo-smoke; here the vectorized and scalar-forced recordings of the
# same input must be byte-identical modulo the one-line timing section —
# bulk scanning may not change a single memo or comparison counter.
JAVA_ARGS="crates/grammars/grammars/java.mpeg --root java.Program --start Program"
OUT_DIR="${TMPDIR:-/tmp}/modpeg-simd-smoke"
mkdir -p "$OUT_DIR"
# shellcheck disable=SC2086 # JAVA_ARGS is a deliberate word list
"$MODPEG" profile $JAVA_ARGS --input tests/data/profile.java \
    --record "$OUT_DIR/vec.mprof" > /dev/null
# shellcheck disable=SC2086
MODPEG_SCAN=scalar "$MODPEG" profile $JAVA_ARGS --input tests/data/profile.java \
    --record "$OUT_DIR/scalar.mprof" > /dev/null
grep -v '"timing"' "$OUT_DIR/vec.mprof" > "$OUT_DIR/vec.stripped"
grep -v '"timing"' "$OUT_DIR/scalar.mprof" > "$OUT_DIR/scalar.stripped"
cmp "$OUT_DIR/vec.stripped" "$OUT_DIR/scalar.stripped" || {
    echo "simd-smoke: scan mode changed the recorded profile counters" >&2
    exit 1
}

echo "== simd-smoke: OK =="
