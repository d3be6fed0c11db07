#!/usr/bin/env sh
# Front-end smoke on huge generated grammars (~2 s budget).
#
# Generates two grammars with awk and runs release `modpeg check` and
# `modpeg lint` on each under `timeout 20`:
#   - a 100,000-production reference chain `P0 = <A0> P1 ; P1 = <A1> P2 ;
#     …`, declared caller first (the deepest production graph: every
#     reference is a head reference);
#   - one choice of 100,000 literal alternatives `"k0x" / "k1x" / …`, no
#     one a prefix of another (the widest choice lint has to compare).
# A non-zero exit (a stack overflow aborts the process) or a timeout
# fails the run.
#
# Usage: scripts/frontend-smoke.sh
set -eu

cd "$(dirname "$0")/.."

MODPEG=target/release/modpeg
if [ ! -x "$MODPEG" ]; then
    echo "== frontend-smoke: building modpeg =="
    cargo build --release -p modpeg-cli
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

awk -v n=100000 'BEGIN {
    print "module chain;"
    for (i = 0; i < n - 1; i++) printf "public Node P%d = <A%d> P%d ;\n", i, i, i + 1
    printf "public Node P%d = <A%d> \"x\" ;\n", n - 1, n - 1
}' > "$DIR/chain.mpeg"

awk -v n=100000 'BEGIN {
    print "module choice;"
    printf "public void Root = \"k0x\""
    for (i = 1; i < n; i++) printf " / \"k%dx\"", i
    print " ;"
}' > "$DIR/choice.mpeg"

for grammar in chain choice; do
    for cmd in check lint; do
        echo "== frontend-smoke: modpeg $cmd $grammar.mpeg =="
        if ! timeout 20 "$MODPEG" "$cmd" "$DIR/$grammar.mpeg" > "$DIR/out.txt" 2>&1; then
            tail -n 5 "$DIR/out.txt"
            echo "frontend-smoke: modpeg $cmd $grammar.mpeg failed or timed out" >&2
            exit 1
        fi
        tail -n 1 "$DIR/out.txt"
    done
done

echo "== frontend-smoke: OK =="
