#!/usr/bin/env bash
# Repository CI: a rustfmt check, tier-1 build + tests, lints and rustdoc
# with warnings denied, a 2-thread smoke run of every experiment binary,
# and two byte-for-byte checks of its RQ1 records: against the committed
# golden, and against a fresh 1-thread run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format: rustfmt must leave the root workspace unchanged =="
# Covers every root workspace member (crates/*, compat/*, the umbrella
# package); perfbench/ is a workspace of its own and is not checked.
cargo fmt --check

echo "== tier 1: release build =="
cargo build --release

echo "== tier 1: tests (every workspace crate, oracle suites included) =="
cargo test -q --workspace

echo "== benchmark: perfbench's own checks against the current crates =="
# Timing-wrapper transparency (it forwards analyze_cached), seeded
# workload generators, and metric tables that match BENCHMARK.json.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== lints: abonn-lint determinism & soundness gate =="
# Hard gate: exits non-zero on any finding not suppressed by an inline
# `lint: allow` marker. The rule roster is pinned by a committed golden,
# so adding/renaming a rule (or changing a severity) is a deliberate,
# reviewed act.
cargo run --release -q -p abonn-bench --bin lint
cargo run --release -q -p abonn-bench --bin lint -- --list-rules \
    | diff scripts/lint-rules.golden -

echo "== lints: clippy with warnings denied =="
# Also enforces the determinism rules clippy can express: clippy.toml's
# disallowed methods/types and [workspace.lints] (unsafe, reasons on
# every suppression), plus the wire-path panic deny lists. An unfulfilled
# #[expect] fails here too, so stale suppressions cannot linger.
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== docs: rustdoc with warnings denied =="
# Broken, private and ambiguous intra-doc links fail here, so a doc link
# to a deleted or private item cannot dangle.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== smoke: experiment binaries on a 2-lane pool =="
out2=$(mktemp -d)
for exp in table1 table2 fig3 fig4 fig5 fig6; do
    echo "-- $exp --scale smoke --threads 2"
    cargo run --release -q -p abonn-bench --bin "$exp" -- \
        --scale smoke --seed 2025 --threads 2 --out-dir "$out2" >/dev/null
done

echo "== cost unit: the 2-thread smoke must reproduce the committed RQ1 records =="
# The golden pins every verdict and AppVer-call count of the smoke suite.
# A change that moves a verdict or a call count must regenerate
# scripts/rq1-smoke.golden.json (table2 --scale smoke --seed 2025
# --threads 2) and explain the move in CHANGES.md.
diff scripts/rq1-smoke.golden.json "$out2/rq1-smoke-2025.json"

echo "== determinism: 1-thread fresh rerun must reproduce the records =="
out1=$(mktemp -d)
cargo run --release -q -p abonn-bench --bin table2 -- \
    --scale smoke --seed 2025 --threads 1 --fresh --out-dir "$out1" >/dev/null
diff "$out2/rq1-smoke-2025.json" "$out1/rq1-smoke-2025.json"

echo "== benches: micro-benchmarks, roster pinned by scripts/bench-roster.golden =="
# Fresh timings go to target/experiments/BENCH_*.json only; CHANGES.md
# records the historical speedups. The golden pins the bench-name roster,
# so adding, dropping or renaming a bench is a deliberate, reviewed act.
mkdir -p target/experiments
rm -f target/experiments/BENCH_lp.json target/experiments/BENCH_tensor.json \
    target/experiments/BENCH_backsub.json
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_lp.json" \
    cargo bench -q -p abonn-lp --bench revised
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_tensor.json" \
    cargo bench -q -p abonn-tensor --bench blocked
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_backsub.json" \
    cargo bench -q -p abonn-bound --bench backsub_sparse
for trajectory in lp tensor backsub; do
    test -s "target/experiments/BENCH_$trajectory.json"
done
cat target/experiments/BENCH_lp.json target/experiments/BENCH_tensor.json \
    target/experiments/BENCH_backsub.json \
    | sed -n 's/.*"bench":"\([^"]*\)".*/\1/p' | LC_ALL=C sort -u \
    | diff scripts/bench-roster.golden -

echo "== soundness: fixed-seed differential fuzz smoke =="
outfz=$(mktemp -d)
cargo run --release -q -p abonn-bench --bin fuzz -- \
    --seed 2025 --count 25 --out-dir "$outfz"

echo "== soundness: served-vs-batch differential fuzz smoke =="
cargo run --release -q -p abonn-bench --bin fuzz -- --served --seed 2025 --count 12

echo "== serve: committed session must reproduce the golden transcript byte-for-byte =="
outsv=$(mktemp -d)
cargo run --release -q -p abonn-bench --bin serve -- \
    --threads 2 --store-stats target/experiments/serve-store.json \
    < scripts/serve-session.jsonl > "$outsv/serve-session.out" 2>/dev/null
diff scripts/serve-session.golden "$outsv/serve-session.out"
test -s target/experiments/serve-store.json

echo "== serve: wave batching (--batch 8) must reproduce the same golden =="
./target/release/serve --threads 2 --batch 8 \
    < scripts/serve-session.jsonl > "$outsv/serve-session-batch.out" 2>/dev/null
diff scripts/serve-session.golden "$outsv/serve-session-batch.out"

echo "== serve: two concurrent TCP clients must match their solo goldens =="
cargo build --release -q -p abonn-bench --bin serve_client
./target/release/serve --threads 2 --batch 4 --tcp 127.0.0.1:0 \
    2> "$outsv/daemon.log" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$outsv/daemon.log" | head -n1)
    [ -n "$addr" ] && break
    sleep 0.1
done
test -n "$addr"
./target/release/serve_client --addr "$addr" scripts/serve-client-a.jsonl \
    > "$outsv/client-a.out" &
client_a=$!
./target/release/serve_client --addr "$addr" scripts/serve-client-b.jsonl \
    > "$outsv/client-b.out" &
client_b=$!
wait "$client_a" "$client_b"
kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
diff scripts/serve-client-a.golden "$outsv/client-a.out"
diff scripts/serve-client-b.golden "$outsv/client-b.out"

echo "== serve: a restarted daemon must answer the session from the persisted store =="
./target/release/serve --threads 2 --store-path "$outsv/store.json" \
    < scripts/serve-session.jsonl > /dev/null 2>/dev/null
test -s "$outsv/store.json"
./target/release/serve --threads 2 --batch 8 --store-path "$outsv/store.json" \
    --store-stats "$outsv/warm-stats.json" \
    < scripts/serve-session.jsonl > /dev/null 2>/dev/null
grep -Eq '"appver_calls_total": *0' "$outsv/warm-stats.json"
rm -rf "$outsv"

echo "== soundness: certificate audit over the tier-1 suite =="
cargo run --release -q -p abonn-bench --bin check -- \
    --scale smoke --seed 2025 --out-dir "$out2" 2>/dev/null

rm -rf "$out1" "$out2" "$outfz"
echo "ci: ok"
