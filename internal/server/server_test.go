package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kodan"
	"kodan/internal/cluster"
	"kodan/internal/ctxengine"
)

// tinyTransformConfig is a transformation sized for sub-second unit
// tests: one tiling, few frames, a fixed k=3 context sweep.
func tinyTransformConfig(seed uint64) kodan.TransformConfig {
	cfg := kodan.DefaultTransformConfig(seed)
	cfg.Frames = 24
	cfg.TileRes = 8
	cfg.Tilings = []kodan.Tiling{{PerSide: 3}}
	cfg.PixelsPerFrame = 90
	cfg.EvalPixelsPerFrame = 90
	cfg.Context.Ks = []int{3}
	cfg.Context.Metrics = []cluster.Metric{cluster.Euclidean}
	cfg.Context.Transforms = []ctxengine.Transform{ctxengine.Standardized}
	cfg.Context.EngineTrain.Epochs = 8
	return cfg
}

// testConfig returns a server config over the tiny pipeline.
func testConfig() Config {
	return Config{
		Seed:            7,
		Workers:         2,
		QueueDepth:      2,
		Timeout:         30 * time.Second,
		TransformConfig: tinyTransformConfig,
	}
}

// planBody is the canonical plan request used across tests: explicit
// deadline/capacity so no orbital simulation is needed.
func planBody(app int) string {
	return fmt.Sprintf(`{"app":%d,"target":"orin","deadlineMs":24000,"capacityFrac":0.21}`, app)
}

func post(t *testing.T, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitFor polls cond until true or the deadline elapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPlanSingleFlight is acceptance (a): two concurrent identical
// /v1/plan requests trigger exactly one underlying Transform call and
// return byte-identical bundles.
func TestPlanSingleFlight(t *testing.T) {
	var calls atomic.Int64
	cfg := testConfig()
	cfg.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		calls.Add(1)
		return sys.TransformVariantCtx(ctx, appIndex, quantized)
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 4
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(4))
			codes[i] = resp.StatusCode
			bodies[i] = data
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: bundle differs from request 0", i)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("Transform ran %d times for %d identical requests, want 1", got, n)
	}

	// The bundle must round-trip through the existing importer.
	if _, err := kodan.ImportSelection(bytes.NewReader(bodies[0])); err != nil {
		t.Fatalf("served bundle does not import: %v", err)
	}

	// A repeat request is a pure cache hit: no new transform.
	resp, data := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(4))
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, bodies[0]) {
		t.Fatalf("repeat request: status %d, identical=%v", resp.StatusCode, bytes.Equal(data, bodies[0]))
	}
	if resp.Header.Get("X-Kodan-Cache") != "hit" {
		t.Fatalf("repeat request cache source = %q, want hit", resp.Header.Get("X-Kodan-Cache"))
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("Transform ran %d times after cache hit, want 1", got)
	}
}

// TestClientTimeoutCancelsWorker is acceptance (b): a request with a
// short timeout returns promptly and the in-flight worker observes
// cancellation.
func TestClientTimeoutCancelsWorker(t *testing.T) {
	observed := make(chan struct{})
	cfg := testConfig()
	// Build the workspace before the request starts, so the 150ms budget
	// covers only the stubbed transform: a system built inside the
	// budget can outlast it under -race, and the transform never runs.
	sys, err := kodan.NewSystemCtx(t.Context(), tinyTransformConfig(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg.NewSystem = func(context.Context, kodan.TransformConfig) (*kodan.System, error) {
		return sys, nil
	}
	cfg.Transform = func(ctx context.Context, _ *kodan.System, _ int, _ bool) (*kodan.Application, error) {
		<-ctx.Done() // simulate a long training loop hitting its ctx check
		close(observed)
		return nil, ctx.Err()
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, body := post(t, ts.Client(), ts.URL+"/v1/plan",
		`{"app":4,"target":"orin","deadlineMs":24000,"capacityFrac":0.21,"timeoutMs":150}`)
	elapsed := time.Since(start)

	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out request took %v, want prompt return", elapsed)
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never observed cancellation")
	}
	waitFor(t, 5*time.Second, "cancelled transform metric", func() bool {
		return s.Metrics().Transforms.Cancelled == 1
	})
}

// TestPoolSaturation is acceptance (c): when every worker is busy and the
// queue is full, new work is rejected with 429 and a Retry-After header.
func TestPoolSaturation(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.Transform = func(ctx context.Context, _ *kodan.System, _ int, _ bool) (*kodan.Application, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct apps so each request is its own cache key. The first two
	// occupy the worker and the queue slot until their 1.5s timeouts.
	blocker := func(app int) string {
		return fmt.Sprintf(`{"app":%d,"target":"orin","deadlineMs":24000,"capacityFrac":0.21,"timeoutMs":1500}`, app)
	}
	var wg sync.WaitGroup
	for _, app := range []int{1, 2} {
		wg.Add(1)
		go func(app int) {
			defer wg.Done()
			post(t, ts.Client(), ts.URL+"/v1/plan", blocker(app))
		}(app)
	}
	waitFor(t, 5*time.Second, "pool to fill", func() bool {
		snap := s.Metrics()
		return snap.Pool.InFlight == 1 && snap.Pool.Queued == 1
	})

	resp, body := post(t, ts.Client(), ts.URL+"/v1/plan", blocker(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	wg.Wait()
	if got := s.Metrics().Pool.Rejected; got != 1 {
		t.Fatalf("pool rejected = %d, want 1", got)
	}
}

// TestMetricsConsistent is acceptance (d): /metrics reports cache hits,
// misses, and latency percentiles consistent with the traffic generated.
func TestMetricsConsistent(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Traffic: two identical plans (miss+compute, then hit) and one
	// transform for the same app (hit on the transform cache).
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(2))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, ts.Client(), ts.URL+"/v1/transform", `{"app":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transform: status %d (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Kodan-Cache"); got != "hit" {
		t.Fatalf("transform after plan: cache %q, want hit", got)
	}

	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)

	// Keys populated: sys|7, app|7|2|false, plan|... => first plan is 3 misses
	// (plan, app, sys), the repeat plan is 1 hit, the transform is 1 hit.
	if snap.Cache.Misses != 3 {
		t.Errorf("cache misses = %d, want 3", snap.Cache.Misses)
	}
	if snap.Cache.Hits != 2 {
		t.Errorf("cache hits = %d, want 2", snap.Cache.Hits)
	}
	plan := snap.Requests["/v1/plan"]
	if plan.Count != 2 || plan.ByStatus["200"] != 2 {
		t.Errorf("plan route: count=%d byStatus=%v, want 2 x 200", plan.Count, plan.ByStatus)
	}
	if plan.Latency.P50 <= 0 || plan.Latency.P99 < plan.Latency.P50 {
		t.Errorf("plan latency percentiles inconsistent: %+v", plan.Latency)
	}
	tr := snap.Requests["/v1/transform"]
	if tr.Count != 1 || tr.ByStatus["200"] != 1 {
		t.Errorf("transform route: count=%d byStatus=%v, want 1 x 200", tr.Count, tr.ByStatus)
	}
	if snap.Transforms.Started != 1 || snap.Transforms.Completed != 1 {
		t.Errorf("transform lifecycle = %+v, want exactly one started+completed", snap.Transforms)
	}
	if snap.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v", snap.UptimeSeconds)
	}
}

// TestGracefulShutdownDrains is acceptance (e): shutdown lets an
// in-flight request complete before the listener closes.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	var computeDone atomic.Value // time.Time of Transform completion
	cfg := testConfig()
	cfg.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		app, err := sys.TransformVariantCtx(ctx, appIndex, quantized)
		computeDone.Store(time.Now())
		return app, err
	}
	s := New(cfg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	type result struct {
		code int
		body []byte
		at   time.Time
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(planBody(5)))
		if err != nil {
			resCh <- result{code: -1, body: []byte(err.Error()), at: time.Now()}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		resCh <- result{code: resp.StatusCode, body: data, at: time.Now()}
	}()

	// Wait until the request is genuinely in flight, then shut down.
	waitFor(t, 5*time.Second, "request in flight", func() bool {
		return s.Metrics().Pool.InFlight == 1
	})
	shutdownDone := make(chan time.Time, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		shutdownDone <- time.Now()
	}()

	// New connections must be refused once the listener is down, while
	// the in-flight request keeps computing.
	waitFor(t, 5*time.Second, "listener to close", func() bool {
		_, err := net.DialTimeout("tcp", l.Addr().String(), 50*time.Millisecond)
		return err != nil
	})
	close(release)

	res := <-resCh
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d (%s)", res.code, res.body)
	}
	doneAt := <-shutdownDone
	// Shutdown must not have returned before the in-flight computation
	// finished server-side. (Client-side timestamps race with Shutdown's
	// return — the response is complete once written, possibly before the
	// client reads it — so the anchor is the Transform completion stamp.)
	finished, ok := computeDone.Load().(time.Time)
	if !ok {
		t.Fatal("transform never completed")
	}
	if doneAt.Before(finished) {
		t.Fatal("shutdown returned before the in-flight computation completed")
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
	if _, err := kodan.ImportSelection(bytes.NewReader(res.body)); err != nil {
		t.Fatalf("drained response is not a valid bundle: %v", err)
	}
}

// TestOpsEndpoints covers /healthz, /readyz (serving and draining), and
// input validation paths.
func TestOpsEndpoints(t *testing.T) {
	s := New(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}

	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"bad app", "/v1/plan", `{"app":0,"target":"orin"}`, http.StatusBadRequest},
		{"app out of range", "/v1/transform", `{"app":9}`, http.StatusBadRequest},
		{"bad target", "/v1/plan", `{"app":1,"target":"tpu"}`, http.StatusBadRequest},
		{"unknown field", "/v1/plan", `{"app":1,"target":"orin","nope":1}`, http.StatusBadRequest},
		{"bad mode", "/v1/simulate", `{"app":1,"target":"orin","mode":"warp"}`, http.StatusBadRequest},
		{"garbage body", "/v1/plan", `{`, http.StatusBadRequest},
	} {
		resp, body := post(t, ts.Client(), ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}

	// Method guard from the mux patterns.
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}

	// Draining flips readiness.
	s.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestCatalog exercises GET /v1/catalog with a lazily built workspace.
func TestCatalog(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var cat catalogResponse
	resp := getJSON(t, ts.URL+"/v1/catalog", &cat)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cat.Seed != 7 || len(cat.Targets) != 3 || len(cat.Apps) != 7 {
		t.Fatalf("catalog shape: seed=%d targets=%d apps=%d", cat.Seed, len(cat.Targets), len(cat.Apps))
	}
	if len(cat.Ctx) < 2 {
		t.Fatalf("catalog has %d contexts, want >= 2", len(cat.Ctx))
	}
	if len(cat.Tilings) != 1 || cat.Tilings[0] != 3 {
		t.Fatalf("catalog tilings = %v", cat.Tilings)
	}
}

// TestSimulate exercises /v1/simulate across modes; the day-long orbital
// simulation runs once and is cached across the three requests.
func TestSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("orbital simulation is slow")
	}
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dvd := make(map[string]float64)
	for _, mode := range []string{"kodan", "bentpipe", "direct"} {
		body := fmt.Sprintf(`{"app":4,"target":"orin","mode":%q}`, mode)
		resp, data := post(t, ts.Client(), ts.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", mode, resp.StatusCode, data)
		}
		var out simulateResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if out.DVD <= 0 || out.DeadlineMs <= 0 || out.CapacityFrac <= 0 {
			t.Fatalf("%s: degenerate response %+v", mode, out)
		}
		dvd[mode] = out.DVD
	}
	if dvd["kodan"] <= dvd["bentpipe"] {
		t.Errorf("kodan DVD %.3f not above bent pipe %.3f", dvd["kodan"], dvd["bentpipe"])
	}
}

// TestTransformQuantizedVariant pins the int8-variant plumbing: quantized
// requests are transformed and cached independently of float ones (same
// seed and app, two cache entries), the response echoes the variant, and
// repeating either variant is a pure cache hit.
func TestTransformQuantizedVariant(t *testing.T) {
	var calls, quantCalls atomic.Int64
	cfg := testConfig()
	cfg.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		calls.Add(1)
		if quantized {
			quantCalls.Add(1)
		}
		return sys.TransformVariantCtx(ctx, appIndex, quantized)
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := func(body, wantCache string, wantQuantized bool) {
		t.Helper()
		resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (%s)", resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Kodan-Cache"); got != wantCache {
			t.Fatalf("cache %q, want %q", got, wantCache)
		}
		var out transformResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Quantized != wantQuantized {
			t.Fatalf("response quantized=%v, want %v", out.Quantized, wantQuantized)
		}
	}

	req(`{"app":2}`, "miss", false)
	req(`{"app":2,"quantized":true}`, "miss", true)
	req(`{"app":2}`, "hit", false)
	req(`{"app":2,"quantized":true}`, "hit", true)

	if got := calls.Load(); got != 2 {
		t.Errorf("transform calls = %d, want 2 (one per variant)", got)
	}
	if got := quantCalls.Load(); got != 1 {
		t.Errorf("quantized transform calls = %d, want 1", got)
	}

	// The plan cache keys the variant too: a quantized plan for the same
	// deployment is a distinct (cached) artifact, not the float bundle.
	planQ := `{"app":2,"target":"orin","deadlineMs":24000,"capacityFrac":0.21,"quantized":true}`
	respF, bundleF := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(2))
	respQ, bundleQ := post(t, ts.Client(), ts.URL+"/v1/plan", planQ)
	if respF.StatusCode != http.StatusOK || respQ.StatusCode != http.StatusOK {
		t.Fatalf("plan statuses %d/%d", respF.StatusCode, respQ.StatusCode)
	}
	if respQ.Header.Get("X-Kodan-Cache") != "miss" {
		t.Errorf("quantized plan served from %q, want its own miss", respQ.Header.Get("X-Kodan-Cache"))
	}
	if len(bundleF) == 0 || len(bundleQ) == 0 {
		t.Fatalf("empty bundle: float=%d quantized=%d bytes", len(bundleF), len(bundleQ))
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("plans re-transformed: calls = %d, want still 2", got)
	}
}
