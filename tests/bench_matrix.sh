#!/bin/sh
# Matrix-bench contract for bench_fig12_performance: one run of the
# 14-benchmark x 4-architecture matrix writes Fig. 12 to --out and
# Figs. 3, 4, 9, 10 and 11 to sibling "<figure-id>.json" files. Each
# file must be one JSON object with a row per benchmark, and each must
# be byte-identical at --sweep-jobs 1 and 4.
#
# Usage: bench_matrix.sh <path-to-bench_fig12_performance> <python3>
set -eu

bench=$1
python=$2

work=$(mktemp -d "${TMPDIR:-/tmp}/famsim_bench_matrix.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

for jobs in 1 4; do
    mkdir "$work/j$jobs"
    "$bench" --instr 2000 --json --sweep-jobs "$jobs" \
        --out "$work/j$jobs/bench_fig12_performance.json" ||
        fail "--sweep-jobs $jobs exited $?"
done

for figure in bench_fig12_performance fig03_motivation \
    fig04_at_breakdown fig09_acm_hit_rate fig10_at_hit_rate \
    fig11_at_requests; do
    for jobs in 1 4; do
        file=$work/j$jobs/$figure.json
        [ -f "$file" ] || fail "--sweep-jobs $jobs wrote no $figure.json"
        rows=$("$python" -c \
            'import json, sys; print(len(json.load(open(sys.argv[1]))["rows"]))' \
            "$file") || fail "$figure.json (--sweep-jobs $jobs) is not JSON"
        [ "$rows" -eq 14 ] ||
            fail "$figure.json has $rows rows, expected 14"
    done
    cmp -s "$work/j1/$figure.json" "$work/j4/$figure.json" ||
        fail "$figure.json differs between --sweep-jobs 1 and 4"
done
