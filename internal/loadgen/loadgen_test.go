package loadgen

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"kodan/internal/server"
)

// startStub boots a stub-pipeline server with the given serving knobs.
func startStub(t *testing.T, mutate func(*server.Config)) *httptest.Server {
	t.Helper()
	cfg, err := StubConfig(3*time.Millisecond, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	cfg.QueueDepth = 64
	if mutate != nil {
		mutate(&cfg)
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// TestStreamDeterministic pins that the request stream is a pure function
// of the options: same seed, same stream; different seed, different
// stream; tenants drawn and named from the spec.
func TestStreamDeterministic(t *testing.T) {
	opts := Options{
		Seed:     42,
		Requests: 40,
		Tenants:  []TenantSpec{{Name: "heavy", Share: 3}, {Name: "light", Share: 1}},
		SeedPool: []uint64{1, 2},
	}
	a, b := Stream(opts), Stream(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same options produced different streams")
	}
	opts2 := opts
	opts2.Seed = 43
	if reflect.DeepEqual(a, Stream(opts2)) {
		t.Fatal("different seeds produced identical streams")
	}
	counts := map[string]int{}
	for _, r := range a {
		counts[r.Tenant]++
		if r.Seed != 1 && r.Seed != 2 {
			t.Fatalf("seed %d outside pool", r.Seed)
		}
		if r.App < 1 || r.App > 3 {
			t.Fatalf("app %d outside default pool", r.App)
		}
	}
	if counts["heavy"] == 0 || counts["light"] == 0 {
		t.Fatalf("tenant draw ignored a tenant: %v", counts)
	}
	if counts["heavy"] <= counts["light"] {
		t.Fatalf("3:1 share should favor heavy: %v", counts)
	}
}

// TestRunClosedLoop drives a stub server closed-loop and checks the
// report's accounting: everything completes, latency and throughput are
// populated, and a single tenant is perfectly fair.
func TestRunClosedLoop(t *testing.T) {
	ts := startStub(t, nil)
	rep, err := Run(context.Background(), Options{
		Seed:        1,
		Requests:    24,
		Concurrency: 4,
		BaseURL:     ts.URL,
		Client:      ts.Client(),
		SeedPool:    []uint64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 24 || rep.Rejected != 0 || rep.Errors != 0 {
		t.Fatalf("completed=%d rejected=%d errors=%d, want 24/0/0", rep.Completed, rep.Rejected, rep.Errors)
	}
	if rep.ThroughputRPS <= 0 || rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("implausible timing: rps=%v p50=%v p99=%v", rep.ThroughputRPS, rep.P50Ms, rep.P99Ms)
	}
	if rep.Fairness != 1 {
		t.Fatalf("single tenant must be perfectly fair, got %v", rep.Fairness)
	}
	if len(rep.Digests) == 0 || len(rep.Digests) > 6 {
		t.Fatalf("want 1..6 distinct request bodies digested (2 seeds x 3 apps), got %d", len(rep.Digests))
	}
	ts2 := startStub(t, nil)
	rep2, err := Run(context.Background(), Options{
		Seed:        1,
		Requests:    24,
		Concurrency: 4,
		BaseURL:     ts2.URL,
		Client:      ts2.Client(),
		SeedPool:    []uint64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareDigests(rep, rep2); err != nil {
		t.Fatalf("a fresh server's responses diverged from the first's: %v", err)
	}
}

// TestRunCountsRejections checks that admission 429s land in Rejected
// (backpressure, not errors) and per-tenant stats.
func TestRunCountsRejections(t *testing.T) {
	ts := startStub(t, func(c *server.Config) {
		c.TenantRate = 0.0001 // effectively refill-free: burst only
		c.TenantBurst = 2
	})
	rep, err := Run(context.Background(), Options{
		Seed:        1,
		Requests:    10,
		Concurrency: 1, // sequential so the burst accounting is exact
		Tenants:     []TenantSpec{{Name: "alpha", Weight: 1, Share: 1}},
		BaseURL:     ts.URL,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.Rejected != 8 || rep.Errors != 0 {
		t.Fatalf("completed=%d rejected=%d errors=%d, want 2/8/0", rep.Completed, rep.Rejected, rep.Errors)
	}
	ts1 := rep.Tenants["alpha"]
	if ts1 == nil || ts1.Requests != 10 || ts1.Completed != 2 || ts1.Rejected != 8 {
		t.Fatalf("tenant stats wrong: %+v", ts1)
	}
	if rep.ErrorRate != 0 {
		t.Fatalf("429s must not count as errors, got rate %v", rep.ErrorRate)
	}
}

// TestRunOpenLoop exercises the open loop: the arrival schedule comes
// from the stream, and the run still completes and accounts everything.
func TestRunOpenLoop(t *testing.T) {
	ts := startStub(t, nil)
	rep, err := Run(context.Background(), Options{
		Seed:       1,
		Requests:   12,
		RatePerSec: 400,
		BaseURL:    ts.URL,
		Client:     ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Completed + rep.Rejected + rep.Errors; got != 12 {
		t.Fatalf("accounted %d of 12 requests", got)
	}
	if rep.Completed == 0 {
		t.Fatal("open loop completed nothing")
	}
}

func TestJainFairness(t *testing.T) {
	perfect := map[string]*TenantStats{
		"a": {Weight: 2, Requests: 10, Completed: 10},
		"b": {Weight: 1, Requests: 5, Completed: 5},
	}
	if f := jain(perfect); f < 0.999 {
		t.Fatalf("weighted-proportional split should be fair, got %v", f)
	}
	starved := map[string]*TenantStats{
		"a": {Weight: 1, Requests: 10, Completed: 10},
		"b": {Weight: 1, Requests: 10, Completed: 0},
	}
	if f := jain(starved); f > 0.51 {
		t.Fatalf("total starvation should score ~0.5, got %v", f)
	}
	idle := map[string]*TenantStats{
		"a": {Weight: 1, Requests: 10, Completed: 10},
		"b": {Weight: 1}, // never offered load: excluded
	}
	if f := jain(idle); f != 1 {
		t.Fatalf("idle tenants must not count against fairness, got %v", f)
	}
}
