#!/bin/sh
# verify.sh — the repository's full verification gate:
# formatting, vet, build, and the test suite under the race detector.
# Run from the repo root (or via `make verify`).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# Shuffled run: catches inter-test ordering dependencies that a fixed
# order hides. A fixed seed keeps failures reproducible.
echo "==> go test -shuffle=1 ./..."
go test -shuffle=1 ./...

smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT

# Coverage gate: aggregate statement coverage must stay at or above the
# checked-in threshold (scripts/coverage_threshold.txt). The threshold is
# set below the current figure with margin — it catches large untested
# additions, not noise.
echo "==> go test -cover (aggregate threshold)"
threshold=$(cat scripts/coverage_threshold.txt)
go test -coverprofile="$smokedir/cover.out" ./... > /dev/null
total=$(go tool cover -func="$smokedir/cover.out" | awk '/^total:/ { gsub(/%/, "", $NF); print $NF }')
if ! awk -v t="$threshold" -v c="$total" 'BEGIN { exit !(c+0 >= t+0) }'; then
    echo "verify: total coverage ${total}% below threshold ${threshold}%" >&2
    exit 1
fi
echo "    total coverage ${total}% (threshold ${threshold}%)"

# Fuzz smoke: a bounded run of each native fuzz target over its committed
# seed corpus plus fresh mutations. Catches quantization/inference
# robustness regressions (panics, non-finite probabilities) without the
# open-ended cost of a real fuzzing campaign. Mirrored in
# .github/workflows/ci.yml.
echo "==> go test -fuzz smoke (nn)"
go test ./internal/nn -run '^$' -fuzz '^FuzzPredict$' -fuzztime 10s > /dev/null
go test ./internal/nn -run '^$' -fuzz '^FuzzQuantize$' -fuzztime 10s > /dev/null

# Trace-analysis smoke: record span traces of the same short mission at
# two worker counts, run every kodan-trace subcommand over them, and
# assert the analyzer sees the identical span forest — summary -shape
# (phase names and span counts, no timings) must be byte-identical across
# -parallel 1 and -parallel 4, and analyzing the same trace twice must be
# byte-identical. Mirrored in .github/workflows/ci.yml.
echo "==> kodan-trace smoke"
go run ./cmd/kodan-sim -hours 2 -sats 2 -parallel 1 \
    -trace "$smokedir/sim.p1.jsonl" > /dev/null 2> /dev/null
go run ./cmd/kodan-sim -hours 2 -sats 2 -parallel 4 \
    -trace "$smokedir/sim.p4.jsonl" > /dev/null 2> /dev/null
go run ./cmd/kodan-trace summary "$smokedir/sim.p1.jsonl" > /dev/null
go run ./cmd/kodan-trace critical "$smokedir/sim.p1.jsonl" > /dev/null
go run ./cmd/kodan-trace folded "$smokedir/sim.p1.jsonl" > /dev/null
go run ./cmd/kodan-trace diff "$smokedir/sim.p1.jsonl" "$smokedir/sim.p4.jsonl" > /dev/null
go run ./cmd/kodan-trace summary -shape "$smokedir/sim.p1.jsonl" > "$smokedir/shape.p1"
go run ./cmd/kodan-trace summary -shape "$smokedir/sim.p4.jsonl" > "$smokedir/shape.p4"
if ! cmp -s "$smokedir/shape.p1" "$smokedir/shape.p4"; then
    echo "verify: trace shape differs across -parallel 1 vs 4" >&2
    diff "$smokedir/shape.p1" "$smokedir/shape.p4" >&2 || true
    exit 1
fi
go run ./cmd/kodan-trace summary "$smokedir/sim.p1.jsonl" > "$smokedir/sum.a"
go run ./cmd/kodan-trace summary "$smokedir/sim.p1.jsonl" > "$smokedir/sum.b"
if ! cmp -s "$smokedir/sum.a" "$smokedir/sum.b"; then
    echo "verify: kodan-trace summary is not deterministic for the same trace" >&2
    exit 1
fi

# Mission-event smoke: journal the same mission at two worker counts and
# require byte-identical JSONL; run every kodan-events subcommand; and
# check the anomaly gate's exit-code contract — 0 on a clean run, 2 on a
# seeded-fault run. Mirrored in .github/workflows/ci.yml.
echo "==> kodan-events smoke"
go run ./cmd/kodan-sim -hours 6 -sats 4 -parallel 1 \
    -events "$smokedir/ev.p1.jsonl" > /dev/null 2> /dev/null
go run ./cmd/kodan-sim -hours 6 -sats 4 -parallel 4 \
    -events "$smokedir/ev.p4.jsonl" > /dev/null 2> /dev/null
if ! cmp -s "$smokedir/ev.p1.jsonl" "$smokedir/ev.p4.jsonl"; then
    echo "verify: event journal differs across -parallel 1 vs 4" >&2
    exit 1
fi
go run ./cmd/kodan-sim -hours 6 -sats 4 -parallel 4 \
    -fault-intensity 1 -fault-seed 7 \
    -events "$smokedir/ev.fault.jsonl" > /dev/null 2> /dev/null
go run ./cmd/kodan-events summary "$smokedir/ev.p1.jsonl" > /dev/null
go run ./cmd/kodan-events timeline "$smokedir/ev.fault.jsonl" > /dev/null
go run ./cmd/kodan-events diff "$smokedir/ev.p1.jsonl" "$smokedir/ev.fault.jsonl" > /dev/null
if ! go run ./cmd/kodan-events anomalies "$smokedir/ev.p1.jsonl" > /dev/null; then
    echo "verify: anomalies flagged a clean journal" >&2
    exit 1
fi
if go run ./cmd/kodan-events anomalies "$smokedir/ev.fault.jsonl" > /dev/null; then
    echo "verify: anomalies missed the seeded-fault journal" >&2
    exit 1
fi

# Perf-harness smoke: record a baseline from a tiny subset (including the
# fault-injection resilience sweep and the quantized figure-8 variant),
# compare a second run against it (generous threshold — this verifies the
# machinery, not runner speed), and prove the synthetic-regression switch
# exits nonzero. Mirrored in .github/workflows/ci.yml.
echo "==> kodan-bench baseline smoke"
go run ./cmd/kodan-bench -size quick -only table1,fig2,resilience,fig8q,hybridplan \
    -json "$smokedir" -timings "$smokedir/baseline.json" > /dev/null
go run ./cmd/kodan-bench -size quick -only table1,fig2,resilience,fig8q,hybridplan \
    -baseline "$smokedir/baseline.json" -regress-threshold 4 > /dev/null
if go run ./cmd/kodan-bench -size quick -only table1 \
    -baseline "$smokedir/baseline.json" -regress-threshold -1 > /dev/null 2>&1; then
    echo "verify: synthetic regression did not fail the bench gate" >&2
    exit 1
fi

# Serving smoke: drive the self-hosted serving plane with the
# deterministic multi-tenant stream, twice, against two fresh servers of
# the same configuration. kodan-loadgen exits nonzero when the error-rate
# or fairness gate fails or when the two servers' responses diverge.
# Mirrored in .github/workflows/ci.yml.
echo "==> kodan-loadgen smoke"
go run ./cmd/kodan-loadgen -requests 120 -concurrency 16 \
    -seed-pool 1,2,3,4 -apps 1,2,3,4,5,6,7 -tenants ops:3,science:1 \
    -work 16ms -compare > /dev/null

echo "verify: OK"
