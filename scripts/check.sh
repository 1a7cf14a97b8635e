#!/usr/bin/env bash
# The full local gate: formatting, lints, every workspace test, and the
# benchmark package's build and tests.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace -- -D warnings

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== cargo test (benchmark package, hostbench/) =="
cargo test --release --offline --manifest-path hostbench/Cargo.toml

echo "All checks passed."
