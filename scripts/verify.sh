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

# The race detector slows internal/experiments to ~6 min on a 2-CPU
# host (TestFiguresDeterministicAcrossWorkers alone ~4 min), over half of
# go test's 10-minute per-binary default, so the step gets 20 minutes.
# Mirrored in .github/workflows/ci.yml and the Makefile's race target.
echo "==> go test -race -timeout 20m ./..."
go test -race -timeout 20m ./...

# FMA build: the Go spec lets a compiler fuse x*y+z into one FMA that
# rounds once, and GOAMD64=v3 makes FMA instructions available on amd64.
# The selection-logic sweep and evaluator, the placement search, the
# drain and the mission loop are pinned bit for bit to reference oracles
# in their tests; running those packages under this code generation too
# keeps the equivalence from depending on how float expressions compile.
# Mirrored in .github/workflows/ci.yml.
echo "==> GOAMD64=v3 go test (search, policy, planner, sim, mission)"
GOAMD64=v3 go test -count=1 ./internal/search ./internal/policy ./internal/planner ./internal/sim ./internal/mission

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
# robustness regressions (panics, non-finite probabilities) and parser
# regressions on outside input (panics, broken trace/journal/bundle/fault
# schedule/request round trips, non-uniform HTTP errors) without the
# open-ended cost of a real fuzzing campaign. Mirrored in
# .github/workflows/ci.yml.
echo "==> go test -fuzz smoke (nn, trace, journal, bundle, fault-schedule and request parsers)"
go test ./internal/nn -run '^$' -fuzz '^FuzzPredict$' -fuzztime 10s > /dev/null
go test ./internal/nn -run '^$' -fuzz '^FuzzQuantize$' -fuzztime 10s > /dev/null
go test ./internal/telemetry/analyze -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s > /dev/null
go test ./internal/telemetry/events -run '^$' -fuzz '^FuzzReadJournal$' -fuzztime 10s > /dev/null
go test ./internal/bundle -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s > /dev/null
go test ./internal/fault -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 10s > /dev/null
go test ./internal/server -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s > /dev/null

# Benchmark smoke: one iteration of every Go benchmark, so the layer
# micro-benchmarks next to their code keep compiling and running.
# Mirrored in .github/workflows/ci.yml.
echo "==> go test -bench smoke (one iteration each)"
go test -run '^$' -bench . -benchtime 1x ./... > /dev/null

# Benchmark module: perfbench has its own go.mod, so the root ./... never
# compiles it. Vet and test it here so a change to an API it calls fails
# this gate instead of the benchmark. Mirrored in .github/workflows/ci.yml.
echo "==> perfbench: go vet + go test"
(cd perfbench && go vet ./... && go test ./...)

# Inspection CLI: built once, run by the trace and event smokes below.
inspect="$smokedir/kodan-inspect"
go build -o "$inspect" ./cmd/kodan-inspect

# Trace-analysis smoke: record span traces of the same short mission at
# two worker counts, run every kodan-inspect trace subcommand over them,
# and assert the analyzer sees the identical span forest — summary -shape
# (phase names and span counts, no timings) must be byte-identical across
# -parallel 1 and -parallel 4, and analyzing the same trace twice must be
# byte-identical. Mirrored in .github/workflows/ci.yml.
echo "==> kodan-inspect trace smoke"
go run ./cmd/kodan-sim -hours 2 -sats 2 -parallel 1 \
    -trace "$smokedir/sim.p1.jsonl" > /dev/null 2> /dev/null
go run ./cmd/kodan-sim -hours 2 -sats 2 -parallel 4 \
    -trace "$smokedir/sim.p4.jsonl" > /dev/null 2> /dev/null
"$inspect" trace summary "$smokedir/sim.p1.jsonl" > /dev/null
"$inspect" trace critical "$smokedir/sim.p1.jsonl" > /dev/null
"$inspect" trace folded "$smokedir/sim.p1.jsonl" > /dev/null
"$inspect" trace diff "$smokedir/sim.p1.jsonl" "$smokedir/sim.p4.jsonl" > /dev/null
"$inspect" trace summary -shape "$smokedir/sim.p1.jsonl" > "$smokedir/shape.p1"
"$inspect" trace summary -shape "$smokedir/sim.p4.jsonl" > "$smokedir/shape.p4"
if ! cmp -s "$smokedir/shape.p1" "$smokedir/shape.p4"; then
    echo "verify: trace shape differs across -parallel 1 vs 4" >&2
    diff "$smokedir/shape.p1" "$smokedir/shape.p4" >&2 || true
    exit 1
fi
"$inspect" trace summary "$smokedir/sim.p1.jsonl" > "$smokedir/sum.a"
"$inspect" trace summary "$smokedir/sim.p1.jsonl" > "$smokedir/sum.b"
if ! cmp -s "$smokedir/sum.a" "$smokedir/sum.b"; then
    echo "verify: kodan-inspect trace summary is not deterministic for the same trace" >&2
    exit 1
fi

# Mission-event smoke: journal the same mission at two worker counts and
# require byte-identical JSONL; run every kodan-inspect events subcommand;
# and check the anomaly gate's exit-code contract exactly — 0 on a clean
# run, 2 on a seeded-fault run (1, an error, fails both checks).
# Mirrored in .github/workflows/ci.yml.
echo "==> kodan-inspect events smoke"
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
"$inspect" events summary "$smokedir/ev.p1.jsonl" > /dev/null
"$inspect" events timeline "$smokedir/ev.fault.jsonl" > /dev/null
"$inspect" events diff "$smokedir/ev.p1.jsonl" "$smokedir/ev.fault.jsonl" > /dev/null
code=0
"$inspect" events anomalies "$smokedir/ev.p1.jsonl" > /dev/null || code=$?
if [ "$code" -ne 0 ]; then
    echo "verify: anomalies exited $code on a clean journal, want 0" >&2
    exit 1
fi
code=0
"$inspect" events anomalies "$smokedir/ev.fault.jsonl" > /dev/null || code=$?
if [ "$code" -ne 2 ]; then
    echo "verify: anomalies exited $code on the seeded-fault journal, want 2" >&2
    exit 1
fi

# Figure-export smoke: regenerate every figure with a committed
# bench/BENCH_<key>.json, sequentially and at the default worker count
# (0 = GOMAXPROCS), and require each export to match the committed copy
# byte for byte. Mirrored in .github/workflows/ci.yml.
echo "==> kodan-bench figure-export smoke"
figures=$(for f in bench/BENCH_*.json; do key=${f#bench/BENCH_}; echo "${key%.json}"; done)
only=$(echo $figures | tr ' ' ',')
for parallel in 1 0; do
    out="$smokedir/bench.p$parallel"
    if ! go run ./cmd/kodan-bench -size quick -only "$only" -parallel "$parallel" \
        -json "$out" > /dev/null 2> "$out.log"; then
        cat "$out.log" >&2
        exit 1
    fi
    for key in $figures; do
        if ! cmp -s "$out/BENCH_$key.json" "bench/BENCH_$key.json"; then
            echo "verify: BENCH_$key.json at -parallel $parallel differs from bench/" >&2
            exit 1
        fi
    done
done

# Examples smoke: run each example (deterministic, a few seconds each)
# and require its stdout to match the committed
# examples/<name>/testdata/stdout.golden byte for byte. Mirrored in
# .github/workflows/ci.yml.
echo "==> examples smoke"
for ex in quickstart cloudfilter constellation hardware mission; do
    go run "./examples/$ex" > "$smokedir/$ex.out"
    if ! cmp -s "$smokedir/$ex.out" "examples/$ex/testdata/stdout.golden"; then
        echo "verify: examples/$ex stdout differs from examples/$ex/testdata/stdout.golden" >&2
        diff "$smokedir/$ex.out" "examples/$ex/testdata/stdout.golden" >&2 || true
        exit 1
    fi
done

# Serving smoke: drive the self-hosted serving plane with the
# deterministic multi-tenant stream, twice, against two fresh servers of
# the same configuration. kodan-loadgen exits nonzero when the error-rate
# or fairness gate fails or when the two servers' responses diverge.
# Mirrored in .github/workflows/ci.yml.
echo "==> kodan-loadgen smoke"
go run ./cmd/kodan-loadgen -requests 120 -concurrency 16 \
    -seed-pool 1,2,3,4 -apps 1,2,3,4,5,6,7 -tenants ops:3,science:1 \
    -work 16ms -compare > /dev/null

# Server smoke: run the kodan-server binary with its debug listener,
# check /readyz, /debug/slo and /debug/recorder, and require a clean exit
# on SIGTERM. Mirrored in .github/workflows/ci.yml.
echo "==> kodan-server smoke"
sh scripts/server-smoke.sh > /dev/null

echo "verify: OK"
