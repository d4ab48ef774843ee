// Command kodan-server runs the ground-segment mission-planning service:
// an HTTP JSON API over the one-time transformation pipeline, the
// selection-logic generator, and the orbital simulator, with a
// single-flight LRU result cache, a bounded transform worker pool, and an
// ops surface (/healthz, /readyz, /metrics).
//
// Usage:
//
//	kodan-server [-addr :8080] [-seed 2023] [-frames 120] [-workers 2] [-queue 8] [-timeout 120s]
//	             [-cache-entries 1024] [-tenant-rate 0] [-tenant-burst 0] [-retry-jitter 2]
//	             [-debug-addr :6060] [-sample 1s] [-slo-latency 30s] [-trace FILE] [-log text|json]
//
// The serving plane is multi-tenant: requests carry their tenant in the
// X-Kodan-Tenant header (anonymous traffic shares a default tenant),
// worker slots are granted by weighted fair queueing with a per-tenant
// wait-queue bound, -tenant-rate adds per-tenant token-bucket admission
// (rejections get 429 with a deterministically jittered Retry-After), and
// the plan/transform cache keeps at most -cache-entries completed results
// (least recently used evicted first).
//
// Endpoints:
//
//	POST /v1/transform  {"app":4}                          run/reuse a transformation
//	POST /v1/plan       {"app":4,"target":"orin"}          selection logic as a deployment bundle
//	POST /v1/simulate   {"app":4,"target":"orin","days":1} deployment simulation (kodan|bentpipe|direct)
//	GET  /v1/catalog                                       targets, apps, tilings, contexts
//	GET  /healthz | /readyz | /metrics                     ops
//
// -debug-addr serves the Go diagnostics surface on a second listener —
// /debug/pprof/* (CPU, heap, goroutine, block profiles), /debug/vars
// (expvar, including the server's full metrics snapshot under
// "kodan.metrics"), and the flight-recorder surface: /debug/dash (live
// ops dashboard, self-contained HTML over SSE), /debug/dash/stream (the
// SSE sample feed), /debug/recorder (JSON export of the retained
// time-series window), and /debug/slo (the SLO engine's burn-rate report:
// per-objective ok/warn/page with fast/slow-window evidence). The debug
// port binds synchronously at startup and
// a bind failure is a fatal, clearly logged error — not a background
// goroutine loss. All of it is kept off the public address so profiling
// endpoints are never exposed to API clients.
//
// Every request is issued a request ID (X-Request-ID, reused from a
// well-formed inbound header), stamped on the structured logs and on the
// spans recorded under -trace, so one /plan request correlates across its
// log lines and its pool-wait/transform/sim spans.
//
// SIGINT/SIGTERM triggers a graceful shutdown that drains in-flight
// requests (bounded by -drain). With -trace, the JSONL span trace is
// written at exit.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on http.DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"kodan"
	"kodan/internal/server"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/recorder"
	"kodan/internal/telemetry/slo"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Uint64("seed", 2023, "default transformation seed")
	frames := flag.Int("frames", 120, "representative dataset size in frames")
	workers := flag.Int("workers", 2, "concurrent transform workers")
	queue := flag.Int("queue", 8, "per-tenant transform wait-queue depth (beyond this: 429)")
	timeout := flag.Duration("timeout", 120*time.Second, "per-request processing ceiling")
	cacheEntries := flag.Int("cache-entries", 1024, "completed cache entries retained (LRU beyond this; -1 = unbounded)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate in req/s (0 = no per-tenant rate limit)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant admission burst (0 = 2x rate)")
	retryJitter := flag.Int("retry-jitter", 2, "max seconds of deterministic jitter added to Retry-After (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars, and /debug/dash on this address (empty = disabled)")
	sample := flag.Duration("sample", time.Second, "flight-recorder sampling interval")
	sloLatency := flag.Duration("slo-latency", 30*time.Second, "transform-latency SLO threshold (90% of transforms within this)")
	traceFile := flag.String("trace", "", "write a JSONL span trace to this file at shutdown")
	logFormat := flag.String("log", "text", "log output format: text or json")
	verbose := flag.Bool("v", true, "log one line per request")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		slog.Error("unknown -log format", "format", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler).With("component", "kodan-server")

	var tracer *telemetry.Tracer
	if *traceFile != "" {
		tracer = telemetry.NewTracer(0)
	}

	cfg := server.Config{
		Seed:                *seed,
		Workers:             *workers,
		QueueDepth:          *queue,
		Timeout:             *timeout,
		CacheEntries:        *cacheEntries,
		TenantRate:          *tenantRate,
		TenantBurst:         *tenantBurst,
		RetryAfterJitterMax: *retryJitter,
		TransformConfig: func(seed uint64) kodan.TransformConfig {
			c := kodan.DefaultTransformConfig(seed)
			c.Frames = *frames
			return c
		},
		Tracer: tracer,
	}
	if *verbose {
		cfg.Logger = logger
	}
	srv := server.New(cfg)

	// The flight recorder samples the server's shared registry for the
	// whole process lifetime; the dashboard and JSON export read it.
	rec := recorder.New(srv.Registry(), recorder.Options{Interval: *sample})
	rec.Start()
	defer rec.Stop()

	// The SLO engine re-evaluates the serving objectives on every recorder
	// sample, publishing state under server.slo.* (so the dashboard's SLO
	// panel and /metrics see it) and answering /debug/slo on demand.
	eng, err := slo.NewEngine(rec, srv.Registry().Scope("server.slo"),
		slo.DefaultServerObjectives(*sloLatency), slo.Config{})
	if err != nil {
		logger.Error("slo engine failed to build", "err", err)
		os.Exit(1)
	}
	eng.Start()
	defer eng.Stop()

	if *debugAddr != "" {
		// Bind synchronously so a taken port is a clear startup failure
		// instead of a background goroutine's log line (or silence).
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listener failed to bind", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		// net/http/pprof and expvar both register on DefaultServeMux;
		// publishing the snapshot here folds the full /metrics document
		// (request counters, cache, pool, telemetry registry) into
		// /debug/vars. The flight-recorder surface rides the same mux.
		expvar.Publish("kodan.metrics", expvar.Func(func() interface{} { return srv.Metrics() }))
		http.Handle("/debug/dash", rec.PageHandler("kodan-server ops", "/debug/dash/stream"))
		http.Handle("/debug/dash/stream", rec.StreamHandler())
		http.HandleFunc("/debug/recorder", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			rec.WriteJSON(w, time.Time{}) //nolint:errcheck // connection owns delivery
		})
		http.Handle("/debug/slo", eng.Handler())
		logger.Info("debug listener started", "addr", dl.Addr().String())
		go func() {
			if err := http.Serve(dl, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Error("debug listener stopped", "err", err)
			}
		}()
		defer dl.Close()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()
	m := srv.Metrics()
	logger.Info("started",
		"addr", *addr, "seed", *seed, "workers", *workers, "queue", *queue,
		"timeout", timeout.String(), "cache_entries", m.Cache.Entries,
		"cache_capacity", m.Cache.Capacity, "tenant_rate", *tenantRate,
		"debug_addr", *debugAddr, "sample", sample.String())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	exitCode := 0
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			exitCode = 1
		}
	case sig := <-sigCh:
		logger.Info("stopping", "signal", sig.String(), "drain_budget", drain.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		drainStart := time.Now()
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			logger.Error("stopped", "drained", false, "drainMs", time.Since(drainStart).Milliseconds(), "err", err)
			exitCode = 1
		} else {
			logger.Info("stopped", "drained", true, "drainMs", time.Since(drainStart).Milliseconds())
		}
	}

	rec.Stop()
	if tracer != nil {
		if werr := telemetry.WriteTraceFile(tracer, *traceFile); werr != nil {
			logger.Error("trace write failed", "err", werr)
			if exitCode == 0 {
				exitCode = 1
			}
		} else {
			logger.Info("trace written", "file", *traceFile, "dropped", tracer.Dropped())
		}
	}
	os.Exit(exitCode)
}
