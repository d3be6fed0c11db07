#!/usr/bin/env sh
# Arena / zero-copy smoke run (~5 s budget).
#
# Three checks:
#   1. `modpeg parse --events` — the SAX event mode runs on both CLI
#      engines and reports identical event counts (the stream is the
#      same tree, so the counts must match exactly);
#   2. double-parse determinism — parsing the same document twice emits
#      byte-identical trees (a dirty recycled region would show up as a
#      diverging second parse);
#   3. `fig_arena --smoke` — one session parsing document after
#      document (`ParseSession::set_text`) holds live heap flat once
#      capacities warm up (allocation counters
#      catch regions leaked by reset/recycle), and 200 edits of a warmed
#      Java session keep live heap within 1.5x (a session whose region
#      grew with its edit history would fail).
#
# Usage: scripts/arena-smoke.sh
set -eu

cd "$(dirname "$0")/.."

MODPEG=target/release/modpeg
FIG_ARENA=target/release/fig_arena
if [ ! -x "$MODPEG" ]; then
    echo "== arena-smoke: building modpeg =="
    cargo build --release -p modpeg-cli
fi
if [ ! -x "$FIG_ARENA" ]; then
    echo "== arena-smoke: building fig_arena =="
    cargo build --release -p modpeg-bench --bin fig_arena
fi

TMPDIR="${TMPDIR:-/tmp}"
IN="$TMPDIR/modpeg-arena-smoke-in.$$"
A="$TMPDIR/modpeg-arena-smoke-a.$$"
B="$TMPDIR/modpeg-arena-smoke-b.$$"
trap 'rm -f "$IN" "$A" "$B" "$A.events" "$B.events"' EXIT

printf '(1+2)*(3+4)-(5+6)*(7+8)' >"$IN"

echo "== arena-smoke: modpeg parse --events (interp vs vm) =="
# The second output line names the engine, so compare the event-count
# lines only.
"$MODPEG" parse crates/grammars/grammars/calc.mpeg --input "$IN" --events >"$A"
"$MODPEG" parse crates/grammars/grammars/calc.mpeg --input "$IN" --events --engine vm >"$B"
grep '^events:' "$A" >"$A.events"
grep '^events:' "$B" >"$B.events"
cmp "$A.events" "$B.events" || { echo "arena-smoke: interp and vm event streams disagree"; exit 1; }
grep -q 'node(s)' "$A.events" || { echo "arena-smoke: event summary missing"; exit 1; }

echo "== arena-smoke: double-parse determinism =="
"$MODPEG" parse crates/grammars/grammars/calc.mpeg --input "$IN" >"$A"
"$MODPEG" parse crates/grammars/grammars/calc.mpeg --input "$IN" >"$B"
cmp "$A" "$B" || { echo "arena-smoke: repeated parses emit different trees"; exit 1; }

echo "== arena-smoke: recycle-leak check =="
"$FIG_ARENA" --smoke

echo "== arena-smoke: OK =="
