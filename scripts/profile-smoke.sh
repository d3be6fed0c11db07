#!/usr/bin/env sh
# Telemetry/profiling smoke run (~5 s budget).
#
# Profiles the committed Java sample (tests/data/profile.java) with
# `modpeg profile` in every exposition format and checks each output is
# produced and non-empty. The Chrome-trace and JSON-metrics outputs are
# additionally validated by parsing them with the repo's own JSON grammar
# — the profiler's output must satisfy the parser it profiles. Finally,
# `parse --telemetry` is exercised to confirm the metrics summary reaches
# stderr on an ordinary governed parse.
#
# Usage: scripts/profile-smoke.sh
set -eu

cd "$(dirname "$0")/.."

MODPEG=target/release/modpeg
if [ ! -x "$MODPEG" ]; then
    echo "== profile-smoke: building modpeg =="
    cargo build --release -p modpeg-cli
fi

JAVA_ARGS="crates/grammars/grammars/java.mpeg --root java.Program --start Program"
INPUT=tests/data/profile.java
OUT_DIR="${TMPDIR:-/tmp}/modpeg-profile-smoke"
mkdir -p "$OUT_DIR"

for fmt in summary chrome folded heatmap heatmap-csv json; do
    out="$OUT_DIR/profile.$fmt"
    echo "== profile-smoke: modpeg profile --format $fmt =="
    # shellcheck disable=SC2086 # JAVA_ARGS is a deliberate word list
    "$MODPEG" profile $JAVA_ARGS --input "$INPUT" --format "$fmt" --out "$out"
    [ -s "$out" ] || { echo "profile-smoke: empty $fmt output" >&2; exit 1; }
done

echo "== profile-smoke: chrome + json outputs parse with the repo JSON grammar =="
for fmt in chrome json; do
    "$MODPEG" parse crates/grammars/grammars/json.mpeg --root json --start Document \
        --input "$OUT_DIR/profile.$fmt" > /dev/null
done

echo "== profile-smoke: sampled profile =="
# shellcheck disable=SC2086
"$MODPEG" profile $JAVA_ARGS --input "$INPUT" --format chrome --sample 16 \
    --out "$OUT_DIR/profile.sampled"
[ -s "$OUT_DIR/profile.sampled" ] || { echo "profile-smoke: empty sampled output" >&2; exit 1; }

echo "== profile-smoke: parse --telemetry reports metrics =="
# shellcheck disable=SC2086
"$MODPEG" parse $JAVA_ARGS --input "$INPUT" --telemetry --fuel 50000000 \
    > /dev/null 2> "$OUT_DIR/telemetry.stderr"
grep -q "production" "$OUT_DIR/telemetry.stderr" || {
    echo "profile-smoke: no metrics summary on stderr" >&2
    exit 1
}

echo "== profile-smoke: OK =="
