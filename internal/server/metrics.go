package server

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"kodan/internal/admission"
	"kodan/internal/telemetry"
)

// Metrics collects the server's ops counters: per-route request counts and
// latency percentiles, cache hit/miss/join counts, transform lifecycle
// counts, and worker-pool gauges. It is exported as JSON by GET /metrics.
//
// Everything except the per-route latency reservoirs lives in a shared
// telemetry.Registry — the same registry the instrumented pipeline layers
// (sim, transform, nn, parallel) record into via the server's base
// context — so /metrics exports the server's own counters and the
// pipeline's per-stage histograms from one collector instead of two
// bookkeeping systems.
type Metrics struct {
	start time.Time
	reg   *telemetry.Registry

	mu     sync.Mutex
	routes map[string]*routeStats

	transformsStarted   *telemetry.Counter
	transformsCompleted *telemetry.Counter
	transformsCancelled *telemetry.Counter
	transformsFailed    *telemetry.Counter
	transformSeconds    *telemetry.Histogram
	poolWaitSeconds     *telemetry.Histogram
	poolOccupancy       *telemetry.Gauge
	plannerPlans        *telemetry.Counter
	plannerDeferFrac    *telemetry.Histogram
	httpRequests        *telemetry.Counter
	httpErrors          *telemetry.Counter
}

// routeStats accumulates one route's counters and a bounded latency
// reservoir (the most recent metricsWindow observations).
type routeStats struct {
	count    int64
	byStatus map[int]int64
	lat      []float64 // ring buffer, milliseconds
	n        int       // total observations ever
}

// NewMetrics returns a collector keeping metricsWindow latency samples per
// route, backed by a fresh private registry.
func NewMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	scope := reg.Scope("server")
	return &Metrics{
		start:               time.Now(),
		reg:                 reg,
		routes:              make(map[string]*routeStats),
		transformsStarted:   scope.Counter("transforms.started"),
		transformsCompleted: scope.Counter("transforms.completed"),
		transformsCancelled: scope.Counter("transforms.cancelled"),
		transformsFailed:    scope.Counter("transforms.failed"),
		transformSeconds:    scope.Histogram("transform_seconds"),
		poolWaitSeconds:     scope.Histogram("pool_wait_seconds"),
		poolOccupancy:       scope.Gauge("pool_occupancy"),
		plannerPlans:        scope.Counter("planner.plans"),
		plannerDeferFrac:    scope.Histogram("planner.defer_frac"),
		httpRequests:        scope.Counter("http.requests_total"),
		httpErrors:          scope.Counter("http.errors"),
	}
}

// Registry exposes the shared registry so the server can thread it (as a
// telemetry probe) into the computation contexts.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// Observe records one served request.
func (m *Metrics) Observe(route string, status int, d time.Duration) {
	// Registry-side counters so the flight recorder sees request rate as a
	// time series (the reservoir below only answers point-in-time). The
	// route-agnostic total and the 5xx counter feed the http-errors SLO.
	m.reg.Counter("server.http.requests" + route).Inc()
	m.httpRequests.Inc()
	if status >= 500 {
		m.httpErrors.Inc()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{byStatus: make(map[int]int64), lat: make([]float64, 0, metricsWindow)}
		m.routes[route] = rs
	}
	rs.count++
	rs.byStatus[status]++
	ms := float64(d) / float64(time.Millisecond)
	if len(rs.lat) < metricsWindow {
		rs.lat = append(rs.lat, ms)
	} else {
		rs.lat[rs.n%metricsWindow] = ms
	}
	rs.n++
}

// Transform lifecycle hooks, called by the server around each underlying
// transformation run. TransformDone folds the outcome counters and the
// stage-duration histogram into one call.
func (m *Metrics) TransformStarted() { m.transformsStarted.Inc() }

// TransformDone records one finished transform: its wall time and the
// outcome (nil = completed, context errors = cancelled, rest = failed).
func (m *Metrics) TransformDone(d time.Duration, outcome error, cancelled bool) {
	m.transformSeconds.Observe(d.Seconds())
	switch {
	case outcome == nil:
		m.transformsCompleted.Inc()
	case cancelled:
		m.transformsCancelled.Inc()
	default:
		m.transformsFailed.Inc()
	}
}

// PlannerPlanned records one served hybrid plan and the deferred fraction
// it chose. Both land in the shared registry, so /metrics and the flight
// recorder see hybrid-planning load and placement mix as time series.
func (m *Metrics) PlannerPlanned(deferFrac float64) {
	m.plannerPlans.Inc()
	m.plannerDeferFrac.Observe(deferFrac)
}

// PoolAcquired records a successful worker-slot acquisition: how long the
// caller waited and the pool occupancy it observed after acquiring.
func (m *Metrics) PoolAcquired(wait time.Duration, inFlight int) {
	m.poolWaitSeconds.Observe(wait.Seconds())
	m.poolOccupancy.Set(int64(inFlight))
}

// LatencySnapshot holds nearest-rank percentiles in milliseconds over the
// route's reservoir, plus how much evidence backs them: Samples is the
// number of observations currently in the reservoir and Window its
// capacity. On a tiny reservoir p99 silently equals the max — readers
// should treat percentiles from a few samples as anecdotes, not tails.
type LatencySnapshot struct {
	P50 float64 `json:"p50Ms"`
	P90 float64 `json:"p90Ms"`
	P99 float64 `json:"p99Ms"`
	Max float64 `json:"maxMs"`
	// Samples is the reservoir's current fill (percentiles are computed
	// over exactly these many recent requests).
	Samples int `json:"samples"`
	// Window is the reservoir capacity (the most recent Window requests
	// are retained).
	Window int `json:"window"`
}

// RouteSnapshot is one route's exported counters.
type RouteSnapshot struct {
	Count    int64            `json:"count"`
	ByStatus map[string]int64 `json:"byStatus"`
	Latency  LatencySnapshot  `json:"latency"`
}

// CacheSnapshot is the cache's exported counters.
type CacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Joins     int64 `json:"singleFlightJoins"`
	Entries   int   `json:"entries"`
	Evictions int64 `json:"evictions"`
	// Capacity is the completed-entry bound (0 = unbounded).
	Capacity int `json:"capacity"`
}

// TransformSnapshot is the transform lifecycle counters.
type TransformSnapshot struct {
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Cancelled int64 `json:"cancelled"`
	Failed    int64 `json:"failed"`
}

// Snapshot is the full /metrics document. Telemetry carries the shared
// registry: the server scope (pool occupancy/wait, transform-stage
// histograms) plus per-stage instrumentation from the pipeline layers
// that ran under this server (sim spans' counters, nn fit histograms,
// parallel worker occupancy).
type Snapshot struct {
	UptimeSeconds float64                    `json:"uptimeSeconds"`
	Requests      map[string]RouteSnapshot   `json:"requests"`
	Cache         CacheSnapshot              `json:"cache"`
	Pool          admission.PoolStats        `json:"pool"`
	Transforms    TransformSnapshot          `json:"transforms"`
	Telemetry     telemetry.RegistrySnapshot `json:"telemetry"`
}

// Snapshot assembles the exported document from the collector plus the
// cache and pool gauges.
func (m *Metrics) Snapshot(cache *Cache, pool *admission.FairPool) Snapshot {
	snap := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      make(map[string]RouteSnapshot),
		Transforms: TransformSnapshot{
			Started:   m.transformsStarted.Load(),
			Completed: m.transformsCompleted.Load(),
			Cancelled: m.transformsCancelled.Load(),
			Failed:    m.transformsFailed.Load(),
		},
		Telemetry: m.reg.Snapshot(),
	}
	if cache != nil {
		h, mi, j, ev := cache.Stats()
		snap.Cache = CacheSnapshot{
			Hits: h, Misses: mi, Joins: j, Entries: cache.Len(),
			Evictions: ev, Capacity: cache.Capacity(),
		}
	}
	if pool != nil {
		snap.Pool = pool.Stats()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for route, rs := range m.routes {
		out := RouteSnapshot{Count: rs.count, ByStatus: make(map[string]int64)}
		for code, n := range rs.byStatus {
			out.ByStatus[strconv.Itoa(code)] = n
		}
		out.Latency.Window = metricsWindow
		if len(rs.lat) > 0 {
			sorted := append([]float64(nil), rs.lat...)
			sort.Float64s(sorted)
			out.Latency = LatencySnapshot{
				P50:     percentile(sorted, 50),
				P90:     percentile(sorted, 90),
				P99:     percentile(sorted, 99),
				Max:     sorted[len(sorted)-1],
				Samples: len(sorted),
				Window:  metricsWindow,
			}
		}
		snap.Requests[route] = out
	}
	return snap
}

// percentile returns the nearest-rank p-th percentile of sorted data.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
