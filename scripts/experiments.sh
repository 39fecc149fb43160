#!/usr/bin/env bash
# Runs the paper's experiments and splices their reports into EXPERIMENTS.md.
#
#   bash scripts/experiments.sh [--scale smoke|default|full] [--splice-only]
#
# Builds the experiment binaries, runs table1, table2 (fresh), fig3, fig4,
# fig6 and export_suite at --scale (default: full), and the two
# hyperparameter sweeps, fig5 and ablation, at default scale (at smoke
# scale when --scale smoke). Each report goes to
# target/experiments/logs/<name>.txt; run caches and the exported suite go
# to target/experiments/, the binaries' default --out-dir.
#
# Splicing replaces each `<!-- NAME -->` marker line of EXPERIMENTS.md, or
# the block it opened on an earlier run (up to `<!-- /NAME -->`), with
# the matching report fenced as text, without its progress lines; reruns
# are idempotent. A marker whose report is missing is left alone.
# --splice-only skips the runs and splices the existing reports.
set -euo pipefail
cd "$(dirname "$0")/.."

scale=full
splice_only=0
while [ $# -gt 0 ]; do
    case "$1" in
        --scale) scale="${2:?--scale needs a value}"; shift 2 ;;
        --splice-only) splice_only=1; shift ;;
        *)
            echo "usage: bash scripts/experiments.sh [--scale smoke|default|full] [--splice-only]" >&2
            exit 2
            ;;
    esac
done

logs=target/experiments/logs
mkdir -p "$logs"

if [ "$splice_only" = 0 ]; then
    cargo build --release -q -p abonn-bench
    sweep_scale=default
    [ "$scale" = smoke ] && sweep_scale=smoke
    run() {
        local name=$1
        shift
        echo "-- $name $*"
        "target/release/$name" "$@" > "$logs/$name.txt" 2>&1
    }
    run table1 --scale "$scale"
    run table2 --scale "$scale" --fresh
    run fig3 --scale "$scale"
    run fig4 --scale "$scale"
    run fig6 --scale "$scale"
    run fig5 --scale "$sweep_scale"
    run ablation --scale "$sweep_scale"
    run export_suite --scale "$scale"
fi

splice() {
    local marker=$1 log=$2 doc=EXPERIMENTS.md closed=0
    if [ ! -f "$log" ]; then
        echo "skip $marker: $log missing"
        return
    fi
    grep -qxF "<!-- /$marker -->" "$doc" && closed=1
    awk -v opening="<!-- $marker -->" -v closing="<!-- /$marker -->" \
        -v report="$log" -v closed="$closed" '
        $0 == opening {
            print opening
            print "```text"
            n = 0
            while ((getline line < report) > 0) {
                if (line ~ /^  (running |preparing |using cached)/) continue
                body[++n] = line
            }
            first = 1
            while (first <= n && body[first] ~ /^[[:space:]]*$/) first++
            while (n >= first && body[n] ~ /^[[:space:]]*$/) n--
            for (i = first; i <= n; i++) print body[i]
            print "```"
            print closing
            skipping = closed
            next
        }
        skipping { if ($0 == closing) skipping = 0; next }
        { print }
    ' "$doc" > "$doc.tmp"
    mv "$doc.tmp" "$doc"
    echo "spliced $marker"
}

splice TABLE1 "$logs/table1.txt"
splice TABLE2 "$logs/table2.txt"
splice FIG3 "$logs/fig3.txt"
splice FIG4 "$logs/fig4.txt"
splice FIG5 "$logs/fig5.txt"
splice FIG6 "$logs/fig6.txt"
splice ABLATION "$logs/ablation.txt"
