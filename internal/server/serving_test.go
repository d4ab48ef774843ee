package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kodan"
)

// stubPipeline returns NewSystem/Transform overrides that serve one
// prebuilt tiny system and application regardless of seed, so tests can
// mint distinct cache keys (distinct seeds) without paying a real
// transformation per key. onNewSystem, when set, observes each workspace
// build (which runs while holding a worker slot) with the request's seed.
func stubPipeline(t *testing.T, onNewSystem func(seed uint64)) (NewSystemFunc, TransformFunc) {
	t.Helper()
	sys, err := newTestSystem(tinyTransformConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	app, err := sys.TransformVariantCtx(context.Background(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	newSystem := func(ctx context.Context, c kodan.TransformConfig) (*kodan.System, error) {
		if onNewSystem != nil {
			onNewSystem(c.Seed)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return sys, nil
	}
	transform := func(ctx context.Context, _ *kodan.System, _ int, _ bool) (*kodan.Application, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return app, nil
	}
	return newSystem, transform
}

func transformBody(seed uint64, app int) string {
	return fmt.Sprintf(`{"seed":%d,"app":%d}`, seed, app)
}

// postTenant posts body with an explicit tenant identity.
func postTenant(t *testing.T, ts *httptest.Server, path, tenant, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp, buf.Bytes()
}

// TestCacheEvictionBound pins the LRU satellite: with CacheEntries set,
// completed entries stay bounded, evictions are counted, and an evicted
// key recomputes correctly on the next request.
func TestCacheEvictionBound(t *testing.T) {
	var builds atomic.Int64
	cfg := testConfig()
	cfg.CacheEntries = 2
	cfg.NewSystem, cfg.Transform = stubPipeline(t, func(uint64) { builds.Add(1) })
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Each distinct seed creates two entries (workspace + application), so
	// three seeds churn a 2-entry cache hard.
	for _, seed := range []uint64{101, 102, 103} {
		resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(seed, 1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", seed, resp.StatusCode, data)
		}
	}
	m := s.Metrics()
	if m.Cache.Capacity != 2 {
		t.Fatalf("cache capacity = %d, want 2", m.Cache.Capacity)
	}
	if m.Cache.Entries > 2 {
		t.Fatalf("cache holds %d completed entries, over the bound of 2", m.Cache.Entries)
	}
	if m.Cache.Evictions == 0 {
		t.Fatal("no evictions counted after churning a bounded cache")
	}
	// Seed 101's entries are long evicted: the request must recompute (a
	// fresh workspace build), not fail.
	before := builds.Load()
	resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(101, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted replay: status %d (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Kodan-Cache") != "miss" {
		t.Errorf("evicted replay cache source %q, want miss", resp.Header.Get("X-Kodan-Cache"))
	}
	if builds.Load() == before {
		t.Error("evicted key served without recomputation")
	}
}

// TestWeightedFairServingNoStarvation floods the pool from a heavy tenant
// and checks the fair queue's grant order: a light tenant's requests are
// interleaved by virtual finish time instead of waiting behind the whole
// heavy backlog.
func TestWeightedFairServingNoStarvation(t *testing.T) {
	var mu sync.Mutex
	var order []uint64
	gate := make(chan struct{})
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 8
	newSystem, transform := stubPipeline(t, nil)
	cfg.Transform = transform
	cfg.NewSystem = func(ctx context.Context, c kodan.TransformConfig) (*kodan.System, error) {
		mu.Lock()
		order = append(order, c.Seed)
		n := len(order)
		mu.Unlock()
		if n == 1 {
			<-gate // hold the only worker until the full backlog is queued
		}
		return newSystem(ctx, c)
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	send := func(tenant string, seed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postTenant(t, ts, "/v1/transform", tenant, transformBody(seed, 1))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("tenant %s seed %d: status %d (%s)", tenant, seed, resp.StatusCode, data)
			}
		}()
	}
	// The gate holder occupies the worker; then heavy enqueues five
	// waiters before light's two, each arrival confirmed so enqueue order
	// (and therefore the virtual-time grant order) is deterministic.
	send("heavy", 100)
	waitForCond(t, func() bool {
		mu.Lock()
		holderIn := len(order) == 1
		mu.Unlock()
		return holderIn && s.Metrics().Pool.InFlight == 1
	})
	queued := 0
	for _, w := range []struct {
		tenant string
		seed   uint64
	}{{"heavy", 101}, {"heavy", 102}, {"heavy", 103}, {"heavy", 104}, {"heavy", 105}, {"light", 201}, {"light", 202}} {
		send(w.tenant, w.seed)
		queued++
		q := queued
		waitForCond(t, func() bool { return s.Metrics().Pool.Queued == q })
	}
	close(gate)
	wg.Wait()

	mu.Lock()
	got := append([]uint64(nil), order...)
	mu.Unlock()
	// Equal weights, ties to the lexicographically smaller tenant: grants
	// interleave heavy/light by finish tag 1h 1l 2h 2l 3h 4h 5h.
	want := []uint64{100, 101, 201, 102, 202, 103, 104, 105}
	if len(got) != len(want) {
		t.Fatalf("served %d transforms, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v (light tenant starved or fair order broken)", got, want)
		}
	}
}

// waitForCond polls cond for up to 5 seconds.
func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestTenantAdmissionTokenBucket pins the front-door limiter: a tenant
// over its rate gets 429 + Retry-After without touching the pipeline,
// while other tenants are unaffected, and the per-tenant counters land in
// the registry.
func TestTenantAdmissionTokenBucket(t *testing.T) {
	cfg := testConfig()
	cfg.TenantRate = 0.001 // trickle refill: effectively burst-only
	cfg.TenantBurst = 2
	cfg.NewSystem, cfg.Transform = stubPipeline(t, nil)
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, data := postTenant(t, ts, "/v1/transform", "alpha", transformBody(1, 1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alpha burst request %d: status %d (%s)", i, resp.StatusCode, data)
		}
	}
	resp, data := postTenant(t, ts, "/v1/transform", "alpha", transformBody(1, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alpha over-rate: status %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("admission 429 without Retry-After")
	}
	if !strings.Contains(string(data), "alpha") {
		t.Errorf("rejection body %q does not name the tenant", data)
	}
	// A different tenant has its own bucket.
	resp, data = postTenant(t, ts, "/v1/transform", "beta", transformBody(1, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta: status %d (%s)", resp.StatusCode, data)
	}
	reg := s.Registry()
	if got := reg.Counter("server.tenant.alpha.rejected").Load(); got != 1 {
		t.Errorf("alpha rejected counter = %d, want 1", got)
	}
	if got := reg.Counter("server.tenant.alpha.admitted").Load(); got != 2 {
		t.Errorf("alpha admitted counter = %d, want 2", got)
	}
	if got := reg.Counter("server.tenant.beta.admitted").Load(); got != 1 {
		t.Errorf("beta admitted counter = %d, want 1", got)
	}
}

// TestRetryAfterJitterDeterministic pins the jitter satellite: two
// servers with the same JitterSeed emit the same Retry-After sequence
// under sequential saturation rejections, values within [1, 1+max].
func TestRetryAfterJitterDeterministic(t *testing.T) {
	sequence := func() []string {
		gate := make(chan struct{})
		started := make(chan struct{}, 1)
		cfg := testConfig()
		cfg.Workers = 1
		cfg.QueueDepth = 1
		cfg.RetryAfterJitterMax = 3
		cfg.JitterSeed = 42
		newSystem, transform := stubPipeline(t, nil)
		cfg.Transform = transform
		cfg.NewSystem = func(ctx context.Context, c kodan.TransformConfig) (*kodan.System, error) {
			if c.Seed == 1 {
				started <- struct{}{}
				<-gate
			}
			return newSystem(ctx, c)
		}
		s := New(cfg)
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		// One request holds the worker, one fills the depth-1 queue; every
		// later arrival is rejected immediately with a jittered Retry-After.
		var done sync.WaitGroup
		for _, seed := range []uint64{1, 2} {
			done.Add(1)
			go func(seed uint64) {
				defer done.Done()
				post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(seed, 1))
			}(seed)
			if seed == 1 {
				<-started
			} else {
				waitForCond(t, func() bool { return s.Metrics().Pool.Queued == 1 })
			}
		}
		var got []string
		for i := 0; i < 6; i++ {
			resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(uint64(100+i), 1))
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("saturated request %d: status %d (%s)", i, resp.StatusCode, data)
			}
			ra := resp.Header.Get("Retry-After")
			var secs int
			fmt.Sscanf(ra, "%d", &secs) //nolint:errcheck
			if secs < 1 || secs > 4 {
				t.Fatalf("Retry-After %q outside [1, 4]", ra)
			}
			got = append(got, ra)
		}
		close(gate)
		done.Wait()
		return got
	}
	a, b := sequence(), sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter sequences diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// TestMetricsExposesServingFields pins the /metrics serving fields: cache
// capacity and evictions, and the pool's JSON shape.
func TestMetricsExposesServingFields(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 100
	cfg.NewSystem, cfg.Transform = stubPipeline(t, nil)
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(1, 1))
	var doc struct {
		Cache struct {
			Capacity  int   `json:"capacity"`
			Evictions int64 `json:"evictions"`
			Hits      int64 `json:"hits"`
		} `json:"cache"`
		Pool struct {
			Workers    int `json:"workers"`
			QueueDepth int `json:"queueDepth"`
		} `json:"pool"`
	}
	resp := getJSON(t, ts.URL+"/metrics", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if doc.Cache.Capacity != 100 {
		t.Errorf("cache capacity = %d, want 100", doc.Cache.Capacity)
	}
	if doc.Pool.Workers != 2 {
		t.Errorf("pool workers = %d, want 2", doc.Pool.Workers)
	}
}
