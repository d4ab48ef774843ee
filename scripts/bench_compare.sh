#!/bin/sh
# bench_compare.sh — the perf-regression gate (`make bench-check`).
#
# Runs the benchmark suite through kodan-bench, records the per-figure
# BENCH_*.json artifacts and the BENCH_timings.json timing report into
# bench/ (the committed performance trajectory), and compares the fresh
# timings against the committed baseline, exiting nonzero when any
# figure's wall time regressed beyond the threshold.
#
# First run (no committed baseline yet): records the baseline and passes —
# commit bench/ to start the trajectory.
#
# Environment overrides:
#   BENCH_SIZE       experiment scale: quick (default) or full
#   BENCH_PARALLEL   worker pool size (default 0 = GOMAXPROCS)
#   BENCH_ONLY       comma-separated figure subset (default: suite below)
#   BENCH_BASELINE   baseline timing report (default bench/BENCH_timings.json)
#   BENCH_THRESHOLD  allowed slowdown fraction (default 0.5 = +50%);
#                    a negative value fails every figure — the synthetic
#                    regression switch the gate's own test flips
set -eu

cd "$(dirname "$0")/.."

SIZE=${BENCH_SIZE:-quick}
PARALLEL=${BENCH_PARALLEL:-0}
ONLY=${BENCH_ONLY:-table1,fig2,fig8,fig8q,hybridplan}
BASELINE=${BENCH_BASELINE:-bench/BENCH_timings.json}
THRESHOLD=${BENCH_THRESHOLD:-0.5}

mkdir -p bench
current=$(mktemp)
trap 'rm -f "$current"' EXIT

if [ ! -f "$BASELINE" ]; then
    echo "bench-check: no baseline at $BASELINE — recording one (commit bench/ to start the trajectory)"
    go run ./cmd/kodan-bench -size "$SIZE" -parallel "$PARALLEL" -only "$ONLY" \
        -json bench -timings "$BASELINE" > /dev/null
    echo "bench-check: baseline recorded, nothing to compare"
    exit 0
fi

echo "bench-check: size=$SIZE parallel=$PARALLEL only=$ONLY threshold=$THRESHOLD"
go run ./cmd/kodan-bench -size "$SIZE" -parallel "$PARALLEL" -only "$ONLY" \
    -json bench -timings "$current" \
    -baseline "$BASELINE" -regress-threshold "$THRESHOLD" > /dev/null
# Comparison passed: the fresh timings become the new committed point on
# the trajectory. On failure (kodan-bench exited nonzero above, aborting
# under set -e) the baseline is left untouched.
cp "$current" "$BASELINE"
echo "bench-check: OK ($BASELINE updated)"
