package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kodan"
	"kodan/internal/admission"
)

// stubPipeline returns NewSystem/Transform overrides that serve one
// prebuilt tiny system and application regardless of seed, so tests can
// mint distinct cache keys (distinct seeds) without paying a real
// transformation per key. onNewSystem, when set, observes each workspace
// build (which runs while holding a worker slot) with the request's seed.
func stubPipeline(t *testing.T, onNewSystem func(seed uint64)) (NewSystemFunc, TransformFunc) {
	t.Helper()
	sys, err := kodan.NewSystemCtx(t.Context(), tinyTransformConfig(7))
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

// TestAdmissionBalancesPerTenant: every admission-gated request a tenant
// sends is counted exactly once, as admitted or rejected. First under
// concurrent streams from several tenants — within-burst requests that
// succeed or fail decoding (oversized and trailing-data bodies), then
// token-bucket rejections — and then against a saturated fair pool, whose
// 429s count as rejected and whose queued builds and their cache joiners
// count as admitted.
func TestAdmissionBalancesPerTenant(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 32
	cfg.TenantRate = 0.001 // trickle refill: effectively burst-only
	cfg.TenantBurst = 6
	cfg.NewSystem, cfg.Transform = stubPipeline(t, nil)
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The first six requests spend the burst, so each passes the gate and
	// meets the handler's decoder; the rest are token-bucket rejections.
	type call struct {
		path, body string
		want       int
	}
	stream := []call{
		{"/v1/transform", transformBody(7, 1), http.StatusOK},
		{"/v1/plan", planBody(1), http.StatusOK},
		{"/v1/transform", `{"app":1} {"app":2}`, http.StatusBadRequest},
		{"/v1/plan", `{"app":1}}`, http.StatusBadRequest},
		{"/v1/simulate", `{"app":1,"mode":"warp"}`, http.StatusBadRequest},
		{"/v1/transform", `{"app":1,"target":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
	}
	burst := len(stream)
	for i := 0; i < 7; i++ {
		// Cycle the small bodies only: a rejected request's body is never
		// read, so an oversized one could break the client's write.
		c := stream[i%(burst-1)]
		stream = append(stream, call{c.path, c.body, http.StatusTooManyRequests})
	}

	tenants := []string{"alpha", "beta", "gamma", ""} // "" sends no header: anon
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i, c := range stream {
				req, err := http.NewRequest(http.MethodPost, ts.URL+c.path, strings.NewReader(c.body))
				if err != nil {
					t.Error(err)
					return
				}
				if tenant != "" {
					req.Header.Set(TenantHeader, tenant)
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Errorf("tenant %q request %d: %v", tenant, i, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != c.want {
					t.Errorf("tenant %q request %d (%s): status %d, want %d", tenant, i, c.path, resp.StatusCode, c.want)
				}
			}
		}(tenant)
	}
	wg.Wait()

	// balanced checks one tenant's counters on server srv.
	balanced := func(srv *Server, tenant string, wantAdmitted, wantRejected int64) {
		t.Helper()
		if tenant == "" {
			tenant = DefaultTenant
		}
		prefix := "server.tenant." + tenant + "."
		reg := srv.Registry()
		requests := reg.Counter(prefix + "requests").Load()
		admitted := reg.Counter(prefix + "admitted").Load()
		rejected := reg.Counter(prefix + "rejected").Load()
		if requests != wantAdmitted+wantRejected {
			t.Errorf("%s: requests = %d, want %d", tenant, requests, wantAdmitted+wantRejected)
		}
		if admitted+rejected != requests {
			t.Errorf("%s: admitted %d + rejected %d != requests %d", tenant, admitted, rejected, requests)
		}
		if admitted != wantAdmitted || rejected != wantRejected {
			t.Errorf("%s: admitted/rejected = %d/%d, want %d/%d", tenant, admitted, rejected, wantAdmitted, wantRejected)
		}
	}
	for _, tenant := range tenants {
		balanced(s, tenant, int64(burst), int64(len(stream)-burst))
	}

	// Saturated pool: a held transform occupies the only worker and each
	// tenant's depth-1 queue holds one waiting build, so every further new
	// build is a saturation 429.
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg = testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	newSystem, transform := stubPipeline(t, nil)
	cfg.Transform = transform
	cfg.NewSystem = func(ctx context.Context, c kodan.TransformConfig) (*kodan.System, error) {
		if c.Seed == 1 {
			started <- struct{}{}
			<-gate
		}
		return newSystem(ctx, c)
	}
	sat := New(cfg)
	defer sat.Close()
	sts := httptest.NewServer(sat.Handler())
	defer sts.Close()

	send := func(tenant, body string, want int) {
		req, err := http.NewRequest(http.MethodPost, sts.URL+"/v1/transform", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		resp, err := sts.Client().Do(req)
		if err != nil {
			t.Errorf("tenant %q %s: %v", tenant, body, err)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("tenant %q %s: status %d, want %d", tenant, body, resp.StatusCode, want)
		}
	}
	var held sync.WaitGroup
	held.Add(1)
	go func() { defer held.Done(); send(tenants[0], transformBody(1, 1), http.StatusOK) }()
	<-started
	for i, tenant := range tenants {
		held.Add(1)
		go func() { defer held.Done(); send(tenant, transformBody(uint64(10+i), 1), http.StatusOK) }()
		waitForCond(t, func() bool { return sat.Metrics().Pool.Queued == i+1 })
	}
	const saturated = 2
	for i, tenant := range tenants {
		// A joiner of the tenant's queued build shares its result.
		held.Add(1)
		go func() { defer held.Done(); send(tenant, transformBody(uint64(10+i), 1), http.StatusOK) }()
		for j := 0; j < saturated; j++ {
			send(tenant, transformBody(uint64(100+10*i+j), 1), http.StatusTooManyRequests)
		}
	}
	close(gate)
	held.Wait()
	for i, tenant := range tenants {
		admitted := int64(2) // the queued build and its joiner
		if i == 0 {
			admitted++ // the held build
		}
		balanced(sat, tenant, admitted, saturated)
	}
}

// TestSimulateMissWaitsForPool: a /v1/simulate span not yet cached
// simulates on a worker slot claimed for the caller's tenant, so against a
// saturated pool it is rejected with 429 like a new transform, while a
// cached span is still served. Every request balances as admitted or
// rejected on the tenant's counters.
func TestSimulateMissWaitsForPool(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
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

	const tenant = "ops"
	send := func(path, body string, want int) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", path, body, err)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s %s: status %d, want %d", path, body, resp.StatusCode, want)
		}
	}
	cachedSpan := `{"app":1,"days":1,"sats":1}`
	send("/v1/simulate", cachedSpan, http.StatusOK)

	// A held build occupies the only worker and a second one fills the
	// tenant's depth-1 queue.
	var held sync.WaitGroup
	held.Add(2)
	go func() { defer held.Done(); send("/v1/transform", transformBody(1, 1), http.StatusOK) }()
	<-started
	go func() { defer held.Done(); send("/v1/transform", transformBody(2, 1), http.StatusOK) }()
	waitForCond(t, func() bool { return s.Metrics().Pool.Queued == 1 })

	send("/v1/simulate", `{"app":1,"days":1,"sats":2}`, http.StatusTooManyRequests)
	send("/v1/simulate", cachedSpan, http.StatusOK)
	close(gate)
	held.Wait()

	if got := s.Metrics().Pool.Rejected; got != 1 {
		t.Errorf("pool rejected = %d, want 1", got)
	}
	prefix := "server.tenant." + tenant + "."
	reg := s.Registry()
	requests := reg.Counter(prefix + "requests").Load()
	admitted := reg.Counter(prefix + "admitted").Load()
	rejected := reg.Counter(prefix + "rejected").Load()
	if requests != 5 || admitted != 4 || rejected != 1 {
		t.Errorf("requests/admitted/rejected = %d/%d/%d, want 5/4/1", requests, admitted, rejected)
	}
}

// TestRetryAfterJitterDeterministic pins the jitter satellite: two
// servers with the same Seed (which seeds the jitter stream) emit the same Retry-After sequence
// under sequential saturation rejections, values within [1, 1+max].
func TestRetryAfterJitterDeterministic(t *testing.T) {
	sequence := func() []string {
		gate := make(chan struct{})
		started := make(chan struct{}, 1)
		cfg := testConfig()
		cfg.Workers = 1
		cfg.QueueDepth = 1
		cfg.RetryAfterJitterMax = 3
		cfg.Seed = 42
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

// TestTenantIdentityResolvedOnce: a request's tenant identity is decided
// once, at the door, and the limiter, the fair pool and the per-tenant
// metrics all key on it. Seventy tenants hit the cheap /healthz route
// first, so only the metrics see them; past the bound of DefaultMaxTenants
// names, every later tenant then shares the overflow identity's token
// bucket and fair queue, and is counted under the same scope.
func TestTenantIdentityResolvedOnce(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.TenantRate = 0.001 // trickle refill: effectively burst-only
	cfg.TenantBurst = 2
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

	const tenants = 70
	name := func(i int) string { return fmt.Sprintf("t%d", i) }
	for i := 0; i < tenants; i++ {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, name(i))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}

	// t0 holds the only worker; the first late tenant's build queues.
	var held sync.WaitGroup
	held.Add(2)
	go func() {
		defer held.Done()
		if resp, data := postTenant(t, ts, "/v1/transform", name(0), transformBody(1, 1)); resp.StatusCode != http.StatusOK {
			t.Errorf("held build: status %d (%s)", resp.StatusCode, data)
		}
	}()
	<-started
	late := admission.DefaultMaxTenants
	go func() {
		defer held.Done()
		if resp, data := postTenant(t, ts, "/v1/transform", name(late), transformBody(2, 1)); resp.StatusCode != http.StatusOK {
			t.Errorf("queued late build: status %d (%s)", resp.StatusCode, data)
		}
	}()
	waitForCond(t, func() bool { return s.Metrics().Pool.Queued == 1 })
	if got := s.pool.QueueDepthOf(admission.OverflowTenant); got != 1 {
		t.Errorf("overflow queue depth = %d, want 1: the pool queued %s under another name than the metrics count", got, name(late))
	}
	if got := s.pool.QueueDepthOf(name(late)); got != 0 {
		t.Errorf("%s has a queue of its own (depth %d)", name(late), got)
	}

	// A bounded timeout keeps a request that wrongly queues from hanging
	// the test. The second late tenant spends the overflow bucket's last
	// token and meets the overflow queue, full with the first's build; the
	// third finds the shared bucket empty.
	timed := func(seed uint64) string { return fmt.Sprintf(`{"seed":%d,"app":1,"timeoutMs":2000}`, seed) }
	for i, want := range []string{"saturated", "over admission rate"} {
		resp, data := postTenant(t, ts, "/v1/transform", name(late+1+i), timed(uint64(3+i)))
		if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(data), want) {
			t.Errorf("late tenant %s: status %d (%s), want 429 %q", name(late+1+i), resp.StatusCode, data, want)
		}
	}
	close(gate)
	held.Wait()

	scopes := map[string]bool{}
	const prefix = "server.tenant."
	for metric := range s.Registry().Snapshot().Counters {
		if rest, ok := strings.CutPrefix(metric, prefix); ok {
			scopes[rest[:strings.LastIndex(rest, ".")]] = true
		}
	}
	if len(scopes) > admission.DefaultMaxTenants+1 {
		t.Errorf("%d tenant scopes, want at most %d", len(scopes), admission.DefaultMaxTenants+1)
	}
	for i := late; i < tenants; i++ {
		if scopes[name(i)] {
			t.Errorf("late tenant %s has a scope of its own", name(i))
		}
	}
	reg := s.Registry()
	overflow := prefix + admission.OverflowTenant + "."
	requests := reg.Counter(overflow + "requests").Load()
	admitted := reg.Counter(overflow + "admitted").Load()
	rejected := reg.Counter(overflow + "rejected").Load()
	// The six late /healthz probes plus the three late builds.
	wantRequests := int64(tenants - late + 3)
	if requests != wantRequests || admitted != 1 || rejected != 2 {
		t.Errorf("overflow requests/admitted/rejected = %d/%d/%d, want %d/1/2", requests, admitted, rejected, wantRequests)
	}
}

// TestCatalogWaitsForPool: GET /v1/catalog parses its seed strictly,
// resolves it like the POST routes, and builds an uncached seed's
// document on a worker slot, so against a saturated pool an unseen seed
// is rejected with 429 and builds nothing, while a cached seed is served.
func TestCatalogWaitsForPool(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var mu sync.Mutex
	builds := map[uint64]int{}
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	newSystem, transform := stubPipeline(t, func(seed uint64) {
		mu.Lock()
		builds[seed]++
		mu.Unlock()
	})
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

	get := func(query string, want int) catalogResponse {
		t.Helper()
		var cat catalogResponse
		resp, err := ts.Client().Get(ts.URL + "/v1/catalog" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body) //nolint:errcheck
		if resp.StatusCode != want {
			t.Errorf("catalog%s: status %d (%s), want %d", query, resp.StatusCode, data, want)
		} else if want == http.StatusOK {
			if err := json.Unmarshal(data, &cat); err != nil {
				t.Errorf("catalog%s: %v", query, err)
			}
		}
		return cat
	}
	buildsOf := func(seed uint64) int {
		mu.Lock()
		defer mu.Unlock()
		return builds[seed]
	}
	get("?seed=5", http.StatusOK)

	// A held build occupies the only worker and a second one fills the
	// tenant's depth-1 queue.
	var held sync.WaitGroup
	held.Add(2)
	go func() { defer held.Done(); post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(1, 1)) }()
	<-started
	go func() { defer held.Done(); post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(2, 1)) }()
	waitForCond(t, func() bool { return s.Metrics().Pool.Queued == 1 })

	get("?seed=6", http.StatusTooManyRequests)
	if cat := get("?seed=5", http.StatusOK); cat.Seed != 5 {
		t.Errorf("cached catalog seed = %d, want 5", cat.Seed)
	}
	for _, bad := range []string{"12abc", "0x10", "-1", "banana"} {
		get("?seed="+bad, http.StatusBadRequest)
	}
	close(gate)
	held.Wait()

	// Seed 0 is the server default, as on the POST routes.
	if cat := get("?seed=0", http.StatusOK); cat.Seed != cfg.Seed {
		t.Errorf("?seed=0 catalog seed = %d, want the default %d", cat.Seed, cfg.Seed)
	}
	for _, seed := range []uint64{0, 6, 12, 16} {
		if n := buildsOf(seed); n != 0 {
			t.Errorf("seed %d: %d workspace builds, want none", seed, n)
		}
	}
	if n := buildsOf(5); n != 1 {
		t.Errorf("seed 5: %d workspace builds, want 1", n)
	}
}
