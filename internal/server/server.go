// Package server is the ground-segment mission-planning service: a
// stdlib-only net/http JSON front end over the one-time transformation
// pipeline (kodan.System), the selection-logic generator, and the orbital
// simulator. It is the serving layer the paper's workflow implies — the
// transformation runs on the ground, and many consumers (operators,
// uplink schedulers, capacity planners) query its outputs.
//
// Because a transformation is seconds-expensive and fully deterministic
// (seeded SplitMix64), the server is built around three production
// mechanisms:
//
//   - one single-flight LRU result cache keyed by (seed, app) for
//     transforms and (seed, app, target, deployment) for plans, so N
//     identical concurrent requests trigger exactly one computation and
//     repeat requests are served from memory (at most CacheEntries
//     completed results are retained);
//   - a bounded worker pool with a bounded wait queue for the expensive
//     computations, returning 429 + Retry-After under saturation instead
//     of unbounded latency;
//   - per-request context cancellation: a client that disconnects or
//     times out propagates — via reference-counted cache entries — into
//     the training loops, which check their context between epochs.
//
// Ops surface: GET /healthz (liveness), GET /readyz (serving/draining),
// GET /metrics (JSON counters: request counts, latency percentiles, cache
// hits/misses, pool gauges, transform lifecycle). Shutdown drains
// in-flight requests before closing the listener. Request bodies, header
// size and header read time are bounded against slow or hostile clients.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"kodan"
	"kodan/internal/admission"
	"kodan/internal/telemetry"
	"kodan/internal/xrand"
)

// TransformFunc runs the one-time transformation of one application on a
// built system; quantized selects the int8 inference variant. The default
// is (*kodan.System).TransformVariantCtx; tests substitute counting or
// blocking implementations.
type TransformFunc func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error)

// NewSystemFunc builds the transformation workspace for a seed. The
// default wires Config.TransformConfig into kodan.NewSystemCtx.
type NewSystemFunc func(ctx context.Context, cfg kodan.TransformConfig) (*kodan.System, error)

// Config sizes the server.
type Config struct {
	// Seed is the default transformation seed when a request omits one.
	Seed uint64
	// Workers bounds concurrently running transforms (default 2).
	Workers int
	// QueueDepth bounds transforms waiting for a worker (default 8).
	QueueDepth int
	// Timeout is the per-request ceiling for the expensive endpoints
	// (default 120s). A request's own timeoutMs may shorten it.
	Timeout time.Duration
	// TransformConfig maps a seed to the transformation sizing (default
	// kodan.DefaultTransformConfig).
	TransformConfig func(seed uint64) kodan.TransformConfig
	// NewSystem and Transform override the underlying pipeline (tests).
	NewSystem NewSystemFunc
	Transform TransformFunc
	// Logger, when set, receives structured request logs (one record per
	// served request, carrying the request ID) and lifecycle events, and
	// is threaded through request contexts so the layers below can log
	// with the same correlation fields.
	Logger *slog.Logger
	// Tracer, when set, records a span per request plus the pool-wait,
	// transform, and simulation spans underneath, each annotated with the
	// request ID that triggered the work.
	Tracer *telemetry.Tracer
	// CacheEntries bounds completed cache entries, evicting the
	// least-recently-used beyond it (default 1024; negative means
	// unbounded). In-flight computations never count against it.
	CacheEntries int
	// TenantRate enables per-tenant token-bucket admission on the expensive
	// POST endpoints at this many requests/second per tenant (0 disables —
	// the default, so library users opt in).
	TenantRate float64
	// TenantBurst is the token-bucket depth (default max(1, 2*TenantRate)).
	TenantBurst float64
	// TenantWeights maps tenant names to fair-queueing weights (default 1
	// each): a weight-3 tenant gets 3x the grants of a weight-1 tenant when
	// both queue, and neither can starve the other.
	TenantWeights map[string]float64
	// RetryAfterJitterMax adds a seeded random 0..N seconds to every
	// Retry-After header, desynchronizing client retry herds (default 0:
	// no jitter, exact headers — tests rely on that). The jitter stream
	// is seeded from Seed, so a seeded server emits a reproducible
	// sequence.
	RetryAfterJitterMax int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	if c.TransformConfig == nil {
		c.TransformConfig = kodan.DefaultTransformConfig
	}
	if c.NewSystem == nil {
		c.NewSystem = kodan.NewSystemCtx
	}
	if c.Transform == nil {
		c.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
			return sys.TransformVariantCtx(ctx, appIndex, quantized)
		}
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 1024
	case c.CacheEntries < 0:
		c.CacheEntries = 0 // unbounded
	}
	if c.RetryAfterJitterMax < 0 {
		c.RetryAfterJitterMax = 0
	}
	return c
}

// Server is the mission-planning service. Create with New, serve with
// ListenAndServe or Serve, stop with Shutdown (graceful) or Close.
type Server struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	cache   *Cache
	pool    *admission.FairPool
	limiter *admission.Limiter
	tenants *admission.TenantMetrics
	jitter  *jitterSource
	metrics *Metrics
	probe   telemetry.Probe
	logger  *slog.Logger
	breaker *Breaker

	handler http.Handler
	httpSrv *http.Server

	draining atomic.Bool
}

// jitterSource is a mutex-wrapped seeded stream for Retry-After jitter:
// deterministic for a seeded server, shared across handlers.
type jitterSource struct {
	mu  sync.Mutex
	rng *xrand.Rand
	max int // inclusive upper bound in seconds; 0 disables
}

// seconds returns the next jitter amount in [0, max] seconds.
func (j *jitterSource) seconds() int {
	if j == nil || j.max == 0 {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rng.Intn(j.max + 1)
}

// Connection limits for the HTTP server, bounding what a slow or hostile
// client can hold open. There is deliberately no ReadTimeout or
// WriteTimeout: a cache-miss transform legitimately runs for seconds, and
// Config.Timeout already bounds request processing.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers.
	readHeaderTimeout = 5 * time.Second
	// idleTimeout closes keep-alive connections idle this long.
	idleTimeout = 120 * time.Second
	// maxHeaderBytes bounds request header size; larger headers get 431.
	maxHeaderBytes = 64 << 10
)

// Fixed serving parameters: no binary sizes these, so they are constants
// rather than Config fields.
const (
	// metricsWindow is the per-route latency reservoir size.
	metricsWindow = 512
	// breakerThreshold consecutive transform failures open the circuit
	// breaker; an open breaker rejects requests for breakerCooldown
	// before admitting a half-open probe.
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second
)

// New builds a server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	metrics := NewMetrics()
	probe := telemetry.Probe{Metrics: metrics.Registry(), Trace: cfg.Tracer}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	base, cancel := context.WithCancel(context.Background())
	// Cached computations derive their contexts from base, so the probe
	// installed here makes every transform, simulation, and policy sweep
	// record into the server's registry — their per-stage counters and
	// histograms surface in /metrics alongside the serving counters.
	base = telemetry.WithProbe(base, probe)
	base = telemetry.WithLogger(base, logger)
	s := &Server{
		cfg:        cfg,
		baseCtx:    base,
		baseCancel: cancel,
		cache:      newCache(base, cfg.CacheEntries, metrics.Registry().Scope("server.cache")),
		pool: admission.NewFairPool(admission.FairPoolOptions{
			Workers:    cfg.Workers,
			QueueDepth: cfg.QueueDepth,
			Weights:    cfg.TenantWeights,
		}),
		limiter: admission.NewLimiter(admission.LimiterOptions{
			Rate:  cfg.TenantRate,
			Burst: cfg.TenantBurst,
		}),
		tenants: admission.NewTenantMetrics(metrics.Registry().Scope("server.tenant")),
		jitter:  &jitterSource{rng: xrand.New(cfg.Seed), max: cfg.RetryAfterJitterMax},
		metrics: metrics,
		probe:   probe,
		logger:  logger,
		breaker: NewBreaker(breakerThreshold, breakerCooldown),
	}
	// Every transform goes through the circuit breaker, which is
	// pass-through while the pipeline is healthy.
	s.cfg.Transform = s.resilientTransform(cfg.Transform)
	s.handler = s.routes()
	s.httpSrv = NewHTTPServer(s.handler)
	return s
}

// NewHTTPServer returns an http.Server for h with the package's connection
// limits: header read timeout, idle timeout, and header size cap. The API
// server built by New and kodan-server's debug listener both use it.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// Registry exposes the server's shared telemetry registry, so callers
// (the flight recorder, the debug listener) can sample or export the same
// collector /metrics serves.
func (s *Server) Registry() *telemetry.Registry { return s.metrics.Registry() }

// Handler returns the server's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the collector (read-only use).
func (s *Server) Metrics() Snapshot { return s.metrics.Snapshot(s.cache, s.pool) }

// ListenAndServe binds addr and serves until Shutdown or a listener
// error. It returns http.ErrServerClosed after a clean shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on an existing listener (the listener is closed on
// shutdown).
func (s *Server) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// Shutdown gracefully stops the server: /readyz starts failing, the
// listener closes to new connections, and in-flight requests are given
// until ctx expires to complete. Any computation still running after the
// drain (e.g. a cached transform with no remaining waiter) is cancelled.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.logger.Info("drain started")
	start := time.Now()
	err := s.httpSrv.Shutdown(ctx)
	s.baseCancel()
	s.logger.Info("drain finished", "drainMs", time.Since(start).Milliseconds(), "clean", err == nil)
	return err
}

// Close stops immediately without draining.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.baseCancel()
	return s.httpSrv.Close()
}

// routes assembles the mux with the metrics/logging middleware on every
// route; the expensive POST endpoints additionally pass the per-tenant
// token-bucket admission gate.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("GET /v1/catalog", s.instrument("/v1/catalog", s.handleCatalog))
	mux.Handle("POST /v1/transform", s.instrument("/v1/transform", s.admitted(s.handleTransform)))
	mux.Handle("POST /v1/plan", s.instrument("/v1/plan", s.admitted(s.handlePlan)))
	mux.Handle("POST /v1/simulate", s.instrument("/v1/simulate", s.admitted(s.handleSimulate)))
	return mux
}

// DefaultTenant is the identity assigned to requests without a
// well-formed X-Kodan-Tenant header.
const DefaultTenant = "anon"

// TenantHeader carries the caller's tenant identity.
const TenantHeader = "X-Kodan-Tenant"

// tenantPattern is what an inbound tenant name must match to be used;
// anything else (or nothing) becomes DefaultTenant, so header junk cannot
// mint unbounded metric names or queues.
var tenantPattern = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,32}$`)

// tenantKey carries the resolved tenant through request contexts.
type tenantKey struct{}

// tenantOf returns the tenant resolved by instrument (DefaultTenant when
// the context never passed through it, e.g. direct handler tests).
func tenantOf(ctx context.Context) string {
	if t, ok := ctx.Value(tenantKey{}).(string); ok {
		return t
	}
	return DefaultTenant
}

// admitted wraps an expensive handler with the per-tenant token bucket.
// With no TenantRate configured the limiter is nil and every request
// passes. Rejections are 429s whose Retry-After covers the bucket refill
// (plus jitter, when configured).
//
// Each request's admission outcome is counted once, here, from the
// response status: a 429 — from the token bucket or from fair-pool
// saturation, cache joiners of a saturated build included — counts as
// rejected, anything else as admitted.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := tenantOf(r.Context())
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if sw.status == http.StatusTooManyRequests {
				s.tenants.Rejected(tenant)
			} else {
				s.tenants.Admitted(tenant)
			}
		}()
		if ok, retryAfter := s.limiter.Allow(tenant); !ok {
			sw.Header().Set("Retry-After", s.retryAfter(retryAfter))
			writeJSONError(sw, http.StatusTooManyRequests,
				fmt.Sprintf("tenant %q over admission rate", tenant))
			return
		}
		h(sw, r)
	}
}

// requestIDPattern is what an inbound X-Request-ID must match to be
// reused; anything else (or nothing) gets a freshly minted ID, so log
// injection via the header is impossible and IDs stay greppable.
var requestIDPattern = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

// instrument wraps a handler with panic recovery, latency/status
// accounting, request-ID issuance, span tracing, and structured logging.
// The request ID — reused from a well-formed inbound X-Request-ID or
// minted here — is echoed in the X-Request-ID response header, stamped on
// the request's slog records, and carried by the context so every span
// started beneath (pool wait, transform, simulation) annotates itself
// with it. The request's tenant identity is resolved here too, once, and
// carried by the context the same way (tenantOf).
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if !requestIDPattern.MatchString(reqID) {
			reqID = telemetry.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		tenant := r.Header.Get(TenantHeader)
		if !tenantPattern.MatchString(tenant) {
			tenant = DefaultTenant
		}
		// The one place tenant identity is decided: past the cardinality
		// bound a new name becomes the shared overflow identity, and the
		// limiter, the fair pool and every count key on what this returns.
		tenant = s.tenants.Request(tenant)

		ctx := telemetry.WithProbe(r.Context(), s.probe)
		ctx = context.WithValue(ctx, tenantKey{}, tenant)
		ctx = telemetry.WithRequestID(ctx, reqID)
		ctx = telemetry.WithLogger(ctx, s.logger)
		ctx, span := telemetry.StartSpan(ctx, "http."+route)
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				if !sw.wrote {
					writeJSONError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
				}
			}
			d := time.Since(start)
			s.metrics.Observe(route, sw.status, d)
			span.Set("status", fmt.Sprint(sw.status))
			span.End()
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String(telemetry.RequestIDAttr, reqID),
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("tenant", tenant),
				slog.Int("status", sw.status),
				slog.Int64("durMs", d.Milliseconds()),
			)
		}()
		h(sw, r)
	})
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}
