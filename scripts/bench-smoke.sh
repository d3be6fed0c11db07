#!/usr/bin/env sh
# Bench smoke run (~10 s budget).
#
# Runs every figure binary of `modpeg-bench` once at toy sizes, so a
# change that breaks a figure fails here instead of at the next
# re-recording, and re-parses every JSON companion they write with the
# repo's own JSON grammar. The companions go to a temporary directory
# (`MODPEG_RESULTS_DIR`), never to the committed `results/`.
#
# `fig_scaling` is left out: its blowup series runs the naive recognizer
# at fixed sizes up to n = 26 whatever the size knobs say, which takes
# about a minute on its own.
#
# Uses the release binaries as built by `cargo build --release`.
#
# Usage: scripts/bench-smoke.sh
set -eu

cd "$(dirname "$0")/.."

BIN=target/release
OUT_DIR=$(mktemp -d "${TMPDIR:-/tmp}/modpeg-bench-smoke.XXXXXX")
trap 'rm -rf "$OUT_DIR"' EXIT

export MODPEG_BENCH_BYTES=2000 MODPEG_BENCH_SEEDS=1 MODPEG_BENCH_RUNS=2
export MODPEG_RESULTS_DIR="$OUT_DIR"

for fig in table1 fig_opts fig_heap table_compare table_extend fig_incremental \
    fig_governor_overhead fig_telemetry_overhead fig_vm fig_arena fig_recovery \
    fig_pgo fig_simd; do
    echo "== bench-smoke: $fig =="
    "$BIN/$fig" > "$OUT_DIR/$fig.txt" 2>&1 || {
        cat "$OUT_DIR/$fig.txt" >&2
        echo "bench-smoke: $fig failed" >&2
        exit 1
    }
done

echo "== bench-smoke: every JSON companion parses with the repo JSON grammar =="
count=0
for json in "$OUT_DIR"/*.json; do
    "$BIN/modpeg" parse crates/grammars/grammars/json.mpeg --root json --start Document \
        --input "$json" > /dev/null
    count=$((count + 1))
done
[ "$count" -eq 13 ] || { echo "bench-smoke: expected 13 JSON companions, found $count" >&2; exit 1; }

echo "== bench-smoke: OK =="
