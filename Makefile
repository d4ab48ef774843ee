GO ?= go
SIZE ?= full
PARALLEL ?= 0
APP ?= 4

.PHONY: build test race verify bench fmt fmtcheck vet trace trace-diff events

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmtcheck and vet are the static halves of the verify gate, runnable
# standalone (CI can fail fast on them before spending time on -race).
fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# verify is the full gate: gofmt, vet, build, and tests under -race.
verify:
	sh scripts/verify.sh

# trace runs the quick benchmark suite with span tracing and drops the
# JSONL trace plus pprof profiles in ./trace-out.
trace:
	mkdir -p trace-out
	$(GO) run ./cmd/kodan-bench -size quick -parallel $(PARALLEL) \
		-trace trace-out/bench.trace.jsonl \
		-cpuprofile trace-out/bench.cpu.pprof \
		-memprofile trace-out/bench.mem.pprof

# trace-diff transforms App $(APP) twice — float and int8 quantized —
# with span tracing and prints the per-phase attribution table: which
# phase gained or lost time, and which variant attributes changed. The
# traces land in ./trace-out for further kodan-inspect trace analysis.
trace-diff:
	mkdir -p trace-out
	$(GO) run ./cmd/kodan-transform -app $(APP) \
		-trace trace-out/transform.float.jsonl > /dev/null
	$(GO) run ./cmd/kodan-transform -app $(APP) -quantized \
		-trace trace-out/transform.quant.jsonl > /dev/null
	$(GO) run ./cmd/kodan-inspect trace diff \
		trace-out/transform.float.jsonl trace-out/transform.quant.jsonl

# events journals a clean and a seeded-fault mission, prints the faulted
# timeline and its anomaly findings, and diffs the two journals. The
# JSONL journals land in ./events-out for further kodan-inspect events
# analysis.
# The anomalies step exits 2 by design (findings found), so exit 2 is
# accepted; an error (exit 1) still fails. The binary is built once
# because go run reports every non-zero exit as 1.
events:
	mkdir -p events-out
	$(GO) run ./cmd/kodan-sim -hours 6 -sats 4 -parallel $(PARALLEL) \
		-events events-out/mission.jsonl > /dev/null
	$(GO) run ./cmd/kodan-sim -hours 6 -sats 4 -parallel $(PARALLEL) \
		-fault-intensity 1 -fault-seed 7 \
		-events events-out/mission.faulted.jsonl > /dev/null
	$(GO) build -o events-out/kodan-inspect ./cmd/kodan-inspect
	events-out/kodan-inspect events timeline events-out/mission.faulted.jsonl
	events-out/kodan-inspect events anomalies events-out/mission.faulted.jsonl || test $$? -eq 2
	events-out/kodan-inspect events diff \
		events-out/mission.jsonl events-out/mission.faulted.jsonl

# bench runs every Go benchmark (the layer micro-benchmarks sit next to
# their code), then regenerates every BENCH_*.json figure export by
# running the full figure suite through kodan-bench. SIZE=quick
# PARALLEL=4 make bench for a faster pass. Speed claims come from the
# repository benchmark instead: bash perfbench/run.sh.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...
	$(GO) run ./cmd/kodan-bench -size $(SIZE) -parallel $(PARALLEL) -json .

fmt:
	gofmt -w .
