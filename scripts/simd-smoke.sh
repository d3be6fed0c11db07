#!/usr/bin/env sh
# Bulk-scanning (SWAR/SIMD) smoke run (~5 s budget).
#
# The conformance fuzz smoke runs with the vectorized scanner (the
# default) and its scan-parity legs actually execute: every input is
# re-parsed with the scalar reference path forced and trees, stats, and
# governor step totals are compared per engine. The report line is
# checked for a nonzero leg count.
#
# That the fuzz reports and a recorded profile are identical in both scan
# modes is checked in-process by `crates/conformance/tests/scan_modes.rs`.
#
# Usage: scripts/simd-smoke.sh
set -eu

cd "$(dirname "$0")/.."

MODPEG=target/release/modpeg
if [ ! -x "$MODPEG" ]; then
    echo "== simd-smoke: building modpeg =="
    cargo build --release -p modpeg-cli
fi

echo "== simd-smoke: modpeg fuzz --smoke (vectorized) =="
VEC=$("$MODPEG" fuzz --smoke)
printf '%s\n' "$VEC"
printf '%s\n' "$VEC" | grep -q '[1-9][0-9]* scan-parity legs' || {
    echo "simd-smoke: the scan-parity legs did not run"
    exit 1
}

echo "== simd-smoke: OK =="
