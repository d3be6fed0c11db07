#!/usr/bin/env sh
# Tier-1 verification (see ROADMAP.md): release build + full test suite.
# Fully offline — the workspace has no external dependencies, so this
# works without network access or a pre-populated cargo registry.
#
# Usage: scripts/tier1.sh
set -eu

cd "$(dirname "$0")/.."

# The root manifest's `default-members` already makes bare `cargo build`
# and `cargo test` cover every crate; `--workspace` keeps that explicit
# (and the release CLI binary fresh for the smoke runs below).
echo "== tier-1: cargo build --release --workspace =="
cargo build --release --workspace

echo "== tier-1: cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo test -q --workspace =="
cargo test -q --workspace

# The end-to-end benchmark is a workspace of its own, so nothing above
# compiles it; its tests pin the API it drives.
echo "== tier-1: cargo test --release (e2e_bench) =="
cargo test --release --manifest-path e2e_bench/Cargo.toml

echo "== tier-1: conformance fuzz smoke =="
sh scripts/fuzz-smoke.sh

echo "== tier-1: fault-injection smoke =="
sh scripts/fault-smoke.sh

echo "== tier-1: bytecode-machine smoke =="
sh scripts/vm-smoke.sh

echo "== tier-1: telemetry/profiling smoke =="
sh scripts/profile-smoke.sh

echo "== tier-1: arena/zero-copy smoke =="
sh scripts/arena-smoke.sh

echo "== tier-1: error-recovery smoke =="
sh scripts/recovery-smoke.sh

echo "== tier-1: profile-guided-optimization smoke =="
sh scripts/pgo-smoke.sh

echo "== tier-1: bulk-scanning smoke =="
sh scripts/simd-smoke.sh

echo "== tier-1: OK =="
