#!/usr/bin/env bash
# Regenerates the golden-figure regression fixtures under tests/golden/.
#
# The golden tests themselves do the work: with GOLDEN_BLESS=1 they
# write the per-experiment stdout files, the metrics snapshot and the
# streaming telemetry block instead of diffing them, while still
# asserting that every thread count in GOLDEN_THREADS (default 1,2,8)
# produces byte-identical output.
#
# Run after an intentional output change, then review `git diff
# tests/golden/` before committing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== blessing goldens (GOLDEN_THREADS=${GOLDEN_THREADS:-1,2,8}) =="
GOLDEN_BLESS=1 cargo test --release -q -p bench --test golden
GOLDEN_BLESS=1 cargo test --release -q -p bench --test streaming_equiv \
    streaming_telemetry_matches_golden

echo "goldens written to tests/golden/ — review the diff before committing."
