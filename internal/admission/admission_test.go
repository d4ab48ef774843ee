package admission

import (
	"fmt"
	"testing"
	"time"

	"kodan/internal/telemetry"
)

// fakeClock is an injectable clock for deterministic bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func TestLimiterDisabled(t *testing.T) {
	if l := NewLimiter(LimiterOptions{Rate: 0}); l != nil {
		t.Fatal("Rate 0 should yield a nil limiter")
	}
	var l *Limiter
	ok, ra := l.Allow("anyone")
	if !ok || ra != 0 {
		t.Fatalf("nil limiter Allow = (%v, %v), want admit", ok, ra)
	}
}

func TestLimiterBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterOptions{Rate: 2, Burst: 3, Now: clk.now})
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, ra := l.Allow("a")
	if ok {
		t.Fatal("fourth immediate request should be rejected")
	}
	// Empty bucket at 2 tokens/s: one token in 500ms.
	if ra != 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 500ms", ra)
	}
	clk.advance(500 * time.Millisecond)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("request after refill interval rejected")
	}
	// Refill caps at Burst.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("post-idle burst request %d rejected", i)
		}
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("burst cap not enforced after long idle")
	}
}

func TestLimiterTenantsIndependent(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterOptions{Rate: 1, Burst: 1, Now: clk.now})
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("a's first request rejected")
	}
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("b's bucket should be independent of a's")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("a's second request should be rejected")
	}
}

func TestLimiterTenantCardinalityBound(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterOptions{Rate: 1, Burst: 1, Now: clk.now})
	for i := 0; i < DefaultMaxTenants+6; i++ {
		l.Allow(fmt.Sprintf("tenant-%d", i))
	}
	// DefaultMaxTenants named buckets, plus one shared overflow bucket.
	if n := l.Tenants(); n != DefaultMaxTenants+1 {
		t.Fatalf("tracked %d buckets, want %d", n, DefaultMaxTenants+1)
	}
	// Overflow tenants share one bucket: the first of them drained it.
	if ok, _ := l.Allow("tenant-999"); ok {
		t.Fatal("overflow bucket should be empty")
	}
}

func TestTenantMetricsBoundedAndCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewTenantMetrics(reg.Scope("server.tenant"))
	m.Request("a")
	m.Request("a")
	m.Admitted("a")
	m.Rejected("b")
	m.QueueDepth("b", 3)
	for i := 2; i < DefaultMaxTenants; i++ {
		m.Request(fmt.Sprintf("t%d", i))
	}
	m.Request("c") // over the bound: lands on overflow
	if got := reg.Counter("server.tenant.a.requests").Load(); got != 2 {
		t.Fatalf("a.requests = %d, want 2", got)
	}
	if got := reg.Counter("server.tenant.a.admitted").Load(); got != 1 {
		t.Fatalf("a.admitted = %d, want 1", got)
	}
	if got := reg.Counter("server.tenant.b.rejected").Load(); got != 1 {
		t.Fatalf("b.rejected = %d, want 1", got)
	}
	if got := reg.Gauge("server.tenant.b.queue_depth").Load(); got != 3 {
		t.Fatalf("b.queue_depth = %d, want 3", got)
	}
	if got := reg.Counter("server.tenant.overflow.requests").Load(); got != 1 {
		t.Fatalf("overflow.requests = %d, want 1", got)
	}
	// Nil receiver and nil scope are no-ops.
	var nilM *TenantMetrics
	nilM.Request("x")
	NewTenantMetrics(nil).Admitted("x")
}
