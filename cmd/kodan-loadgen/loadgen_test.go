package main

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"kodan/internal/server"
)

// anon is the tenant mix an empty -tenants parses to.
var anon = []tenantSpec{{name: "", weight: 1, share: 1}}

// startStub boots a stub-pipeline server over apps 1..3 with the given
// serving knobs.
func startStub(t *testing.T, mutate func(*server.Config)) *httptest.Server {
	t.Helper()
	cfg, err := stubConfig(3*time.Millisecond, []int{1, 2, 3})
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
	opts := options{
		seed:     42,
		requests: 40,
		tenants:  []tenantSpec{{name: "heavy", weight: 1, share: 3}, {name: "light", weight: 1, share: 1}},
		apps:     []int{1, 2, 3},
		seedPool: []uint64{1, 2},
	}
	a, b := stream(opts), stream(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same options produced different streams")
	}
	opts2 := opts
	opts2.seed = 43
	if reflect.DeepEqual(a, stream(opts2)) {
		t.Fatal("different seeds produced identical streams")
	}
	counts := map[string]int{}
	for _, r := range a {
		counts[r.tenant]++
		if r.seed != 1 && r.seed != 2 {
			t.Fatalf("seed %d outside pool", r.seed)
		}
		if r.app < 1 || r.app > 3 {
			t.Fatalf("app %d outside pool", r.app)
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
// populated, a single tenant is perfectly fair, and a fresh server
// answers the same stream byte-identically.
func TestRunClosedLoop(t *testing.T) {
	opts := options{
		seed:        1,
		requests:    24,
		concurrency: 4,
		tenants:     anon,
		apps:        []int{1, 2, 3},
		seedPool:    []uint64{1, 2},
	}
	rep, err := run(context.Background(), startStub(t, nil).URL, opts)
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
	rep2, err := run(context.Background(), startStub(t, nil).URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareDigests(rep, rep2); err != nil {
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
	rep, err := run(context.Background(), ts.URL, options{
		seed:        1,
		requests:    10,
		concurrency: 1, // sequential so the burst accounting is exact
		tenants:     []tenantSpec{{name: "alpha", weight: 1, share: 1}},
		apps:        []int{1, 2, 3},
		seedPool:    []uint64{1},
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

// TestStubServesOnlyPrebuilt: the stub answers only the float
// applications it prebuilt; a request for any other is a server error.
func TestStubServesOnlyPrebuilt(t *testing.T) {
	rep, err := run(context.Background(), startStub(t, nil).URL, options{
		seed:        1,
		requests:    3,
		concurrency: 1,
		tenants:     anon,
		apps:        []int{4},
		seedPool:    []uint64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 0 || rep.Errors != 3 {
		t.Fatalf("completed=%d errors=%d, want 0/3 for an app the stub never built", rep.Completed, rep.Errors)
	}
}

// TestRunCountsUnsendableRequests: a request that cannot be built (a
// malformed base URL) counts as an error and its worker goes on, so a run
// with more requests than workers still finishes.
func TestRunCountsUnsendableRequests(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := run(ctx, "http://bad host", options{
		seed:        1,
		requests:    6,
		concurrency: 2,
		tenants:     anon,
		apps:        []int{1},
		seedPool:    []uint64{1},
	})
	if err != nil {
		t.Fatalf("run did not finish: %v", err)
	}
	if rep.Errors != 6 || rep.ErrorRate != 1 {
		t.Fatalf("errors=%d rate=%v, want 6 and 1", rep.Errors, rep.ErrorRate)
	}
}

func TestJainFairness(t *testing.T) {
	perfect := map[string]*tenantStats{
		"a": {Weight: 2, Requests: 10, Completed: 10},
		"b": {Weight: 1, Requests: 5, Completed: 5},
	}
	if f := jain(perfect); f < 0.999 {
		t.Fatalf("weighted-proportional split should be fair, got %v", f)
	}
	starved := map[string]*tenantStats{
		"a": {Weight: 1, Requests: 10, Completed: 10},
		"b": {Weight: 1, Requests: 10, Completed: 0},
	}
	if f := jain(starved); f > 0.51 {
		t.Fatalf("total starvation should score ~0.5, got %v", f)
	}
	idle := map[string]*tenantStats{
		"a": {Weight: 1, Requests: 10, Completed: 10},
		"b": {Weight: 1}, // never offered load: excluded
	}
	if f := jain(idle); f != 1 {
		t.Fatalf("idle tenants must not count against fairness, got %v", f)
	}
}
