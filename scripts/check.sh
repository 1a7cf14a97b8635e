#!/usr/bin/env bash
# The full local gate: formatting, lints, a build of the criterion
# benches, every workspace test, and the benchmark package's build and
# tests.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace -- -D warnings

echo "== cargo check (bench crate's criterion benches) =="
cargo check -p bench --benches

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== cargo test (benchmark package, hostbench/) =="
cargo test --release --offline --manifest-path hostbench/Cargo.toml

echo "All checks passed."
