// Package admission is the serving plane's multi-tenant admission layer:
// per-tenant token-bucket rate limiting at the front door and weighted
// fair queueing over the bounded transform worker pool. It layers on top
// of the server's existing 429/Retry-After backpressure — the token
// bucket decides whether a tenant's request may enter at all, and the
// fair pool decides which queued tenant runs next once a worker frees,
// so a heavy tenant can saturate its own share without starving a light
// one ("Lightspeed Data Compute for the Space Era" frames exactly this
// constellation-as-shared-compute-fabric contention).
//
// Tenant identity is a short string (the server takes it from the
// X-Kodan-Tenant request header, with a default tenant for anonymous
// traffic). Distinct-tenant cardinality is bounded: beyond
// DefaultMaxTenants the surplus share one "overflow" bucket/queue, so a
// tenant-id flood cannot grow server state without bound.
//
// The package is stdlib-only and fully deterministic under an injected
// clock, like the rest of the reproduction.
package admission

import (
	"math"
	"sync"
	"time"

	"kodan/internal/telemetry"
)

// OverflowTenant is the shared identity assigned once DefaultMaxTenants
// distinct tenants have been seen.
const OverflowTenant = "overflow"

// DefaultMaxTenants bounds distinct tenant state: limiter buckets, fair-pool
// queues and per-tenant metrics.
const DefaultMaxTenants = 64

// LimiterOptions sizes a Limiter.
type LimiterOptions struct {
	// Rate is the per-tenant token refill rate in requests per second
	// (<= 0 disables the limiter: every Allow admits).
	Rate float64
	// Burst is the bucket depth — how many requests a tenant may issue
	// back-to-back after an idle period (default max(1, 2*Rate)).
	Burst float64
	// Now overrides the clock (tests); default time.Now.
	Now func() time.Time
}

// Limiter is a per-tenant token-bucket admission controller. Each tenant
// owns an independent bucket refilled at Rate tokens/second up to Burst;
// Allow consumes one token or reports how long until one is available.
type Limiter struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter builds a limiter; nil when opts.Rate <= 0 (a nil Limiter
// admits everything).
func NewLimiter(opts LimiterOptions) *Limiter {
	if opts.Rate <= 0 {
		return nil
	}
	if opts.Burst <= 0 {
		opts.Burst = math.Max(1, 2*opts.Rate)
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Limiter{
		rate:    opts.Rate,
		burst:   opts.Burst,
		now:     opts.Now,
		buckets: make(map[string]*bucket),
	}
}

// Allow consumes one token from tenant's bucket. When the bucket is empty
// it reports false plus how long until one token refills — the server
// folds that into the 429's Retry-After.
func (l *Limiter) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, exists := l.buckets[tenant]
	if !exists {
		if len(l.buckets) >= DefaultMaxTenants {
			tenant = OverflowTenant
			b = l.buckets[tenant]
		}
		if b == nil {
			b = &bucket{tokens: l.burst, last: now}
			l.buckets[tenant] = b
		}
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / l.rate
	return false, time.Duration(need * float64(time.Second))
}

// Tenants returns the number of distinct buckets currently tracked.
func (l *Limiter) Tenants() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// TenantMetrics is the per-tenant ops surface: admitted/rejected counters
// and a live queue-depth gauge per tenant, registered in the shared
// telemetry registry (scope "<scope>.<tenant>") with the same bounded
// cardinality as the limiter.
type TenantMetrics struct {
	scope *telemetry.Scope

	mu      sync.Mutex
	tenants map[string]*tenantCounters
}

type tenantCounters struct {
	requests, admitted, rejected *telemetry.Counter
	queueDepth                   *telemetry.Gauge
}

// NewTenantMetrics builds the per-tenant metric table in scope (nil scope
// means every metric is a no-op).
func NewTenantMetrics(scope *telemetry.Scope) *TenantMetrics {
	return &TenantMetrics{scope: scope, tenants: make(map[string]*tenantCounters)}
}

// forTenant returns (creating under the cardinality bound) the tenant's
// counters.
func (m *TenantMetrics) forTenant(tenant string) *tenantCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc, ok := m.tenants[tenant]
	if !ok {
		if len(m.tenants) >= DefaultMaxTenants {
			tenant = OverflowTenant
			tc = m.tenants[tenant]
		}
		if tc == nil {
			ts := m.scope.Scope(tenant)
			tc = &tenantCounters{
				requests:   ts.Counter("requests"),
				admitted:   ts.Counter("admitted"),
				rejected:   ts.Counter("rejected"),
				queueDepth: ts.Gauge("queue_depth"),
			}
			m.tenants[tenant] = tc
		}
	}
	return tc
}

// Request counts one inbound request from tenant.
func (m *TenantMetrics) Request(tenant string) {
	if m == nil {
		return
	}
	m.forTenant(tenant).requests.Inc()
}

// Admitted counts one admitted expensive request from tenant.
func (m *TenantMetrics) Admitted(tenant string) {
	if m == nil {
		return
	}
	m.forTenant(tenant).admitted.Inc()
}

// Rejected counts one admission rejection (token bucket or fair-queue
// saturation) for tenant. A request counts as either Admitted or Rejected,
// never both.
func (m *TenantMetrics) Rejected(tenant string) {
	if m == nil {
		return
	}
	m.forTenant(tenant).rejected.Inc()
}

// QueueDepth publishes tenant's current fair-pool queue depth.
func (m *TenantMetrics) QueueDepth(tenant string, depth int) {
	if m == nil {
		return
	}
	m.forTenant(tenant).queueDepth.Set(int64(depth))
}
