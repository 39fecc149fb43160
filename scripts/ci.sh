#!/usr/bin/env bash
# Repository CI: tier-1 build + tests, a 2-thread smoke run of every
# experiment binary, and a determinism spot-check (reports produced with
# 2 threads must be byte-identical to a fresh 1-thread run).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: release build =="
cargo build --release

echo "== tier 1: tests (every workspace crate, oracle suites included) =="
cargo test -q --workspace

echo "== lints: abonn-lint determinism & soundness gate (baseline-aware) =="
# Hard gate: exits non-zero on any finding not grandfathered by the
# committed lint-baseline.json. The JSON and SARIF reports are kept as
# build artefacts for trend tracking and code-scanning upload; the rule
# roster is pinned by a committed golden so adding/renaming a rule (or
# changing a severity) is a deliberate, reviewed act.
cargo run --release -q -p abonn-bench --bin lint
mkdir -p target/experiments
cargo run --release -q -p abonn-bench --bin lint -- --json \
    > target/experiments/lint-findings.json
cargo run --release -q -p abonn-bench --bin lint -- --sarif \
    > target/experiments/lint-findings.sarif
cargo run --release -q -p abonn-bench --bin lint -- --list-rules \
    | diff scripts/lint-rules.golden -

echo "== lints: clippy with warnings denied =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== smoke: experiment binaries on a 2-lane pool =="
out2=$(mktemp -d)
for exp in table1 table2 fig3 fig4 fig5 fig6; do
    echo "-- $exp --scale smoke --threads 2"
    cargo run --release -q -p abonn-bench --bin "$exp" -- \
        --scale smoke --seed 2025 --threads 2 --out-dir "$out2" >/dev/null
done

echo "== determinism: 1-thread fresh rerun must reproduce the records =="
out1=$(mktemp -d)
cargo run --release -q -p abonn-bench --bin table2 -- \
    --scale smoke --seed 2025 --threads 1 --fresh --out-dir "$out1" >/dev/null
diff "$out2/rq1-smoke-2025.json" "$out1/rq1-smoke-2025.json"

echo "== benches: micro-benchmarks, roster pinned by scripts/bench-roster.golden =="
# Fresh timings go to target/experiments/BENCH_*.json only; the committed
# perf/BENCH_*.jsonl trajectories are history, never appended to here.
# The golden pins the bench-name roster, so adding, dropping or renaming
# a bench is a deliberate, reviewed act.
rm -f target/experiments/BENCH_lp.json target/experiments/BENCH_tensor.json \
    target/experiments/BENCH_backsub.json
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_lp.json" \
    cargo bench -q -p abonn-lp --bench simplex_warm
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_lp.json" \
    cargo bench -q -p abonn-lp --bench revised
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_lp.json" \
    cargo bench -q -p abonn-bound --bench triangle_lp
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

# The LP replay over the 3072-input conv models costs minutes per
# certificate, so CI audits the MNIST models; drop --models for the rest.
echo "== soundness: certificate audit over the MNIST tier-1 suite =="
cargo run --release -q -p abonn-bench --bin check -- \
    --scale smoke --seed 2025 --out-dir "$out2" --models mnist 2>/dev/null

rm -rf "$out1" "$out2" "$outfz"
echo "ci: ok"
