#!/usr/bin/env bash
# Builds the benchmark and the `serve` daemon from this checkout, then runs
# the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload suite-mnist --seed 1 --seconds 20 --trace 0
# Run from the root of the checkout. Build output goes to stderr; the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p abonn-bench --bin serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work"
