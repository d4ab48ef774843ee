package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"kodan"
	"kodan/internal/telemetry"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes slog
// performs from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDCorrelation is the cross-stream acceptance check: one
// /v1/plan request's ID — minted by the middleware and echoed in
// X-Request-ID — appears in both the structured request log and the JSONL
// span trace, on the spans of the work the request triggered (pool wait,
// transform), not just the HTTP span.
func TestRequestIDCorrelation(t *testing.T) {
	logBuf := &syncBuffer{}
	tracer := telemetry.NewTracer(0)
	cfg := testConfig()
	cfg.Logger = newJSONLogger(logBuf)
	cfg.Tracer = tracer

	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d (%s)", resp.StatusCode, body)
	}
	reqID := resp.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(reqID) {
		t.Fatalf("X-Request-ID = %q, want a minted 16-hex-char ID", reqID)
	}

	// The request log record is written in a deferred block that races
	// with the response reaching the client; poll for it.
	waitFor(t, 5*time.Second, "request slog record", func() bool {
		return findLogRecord(logBuf.String(), reqID, "/v1/plan")
	})

	// The trace must carry the same ID on the spans of the triggered work.
	var traceBuf bytes.Buffer
	if err := tracer.WriteJSONL(&traceBuf); err != nil {
		t.Fatal(err)
	}
	spans := spansWithRequestID(t, traceBuf.Bytes(), reqID)
	for _, want := range []string{"http./v1/plan", "server.pool_wait", "server.transform"} {
		if !spans[want] {
			t.Errorf("span %q does not carry %s=%s (got %v)", want, telemetry.RequestIDAttr, reqID, spans)
		}
	}
}

// TestRequestIDClientSupplied: a well-formed inbound X-Request-ID is
// reused and echoed; a malformed one (log-injection shaped) is replaced
// with a freshly minted ID.
func TestRequestIDClientSupplied(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func(id string) string {
		req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-ID")
	}

	if got := do("trace-me_42.a"); got != "trace-me_42.a" {
		t.Errorf("well-formed client ID not echoed: got %q", got)
	}
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)
	// (Newlines never reach the pattern — net/http rejects them client- and
	// server-side — so the malformed cases are printable-but-unsafe shapes.)
	for _, bad := range []string{"has spaces", "semi;colon", strings.Repeat("x", 65), "héllo"} {
		if got := do(bad); !minted.MatchString(got) {
			t.Errorf("malformed ID %q was not replaced with a minted one (got %q)", bad, got)
		}
	}
	if got := do(""); !minted.MatchString(got) {
		t.Errorf("absent ID not minted: got %q", got)
	}
}

// TestHealthzLiveDuringDrain is the drain-semantics satellite: while a
// graceful shutdown drains an in-flight /v1/plan, /healthz (liveness)
// keeps answering 200 and /readyz (readiness) flips to 503 — probed over
// a second listener, mirroring production's separate debug/ops listener —
// and the in-flight request still completes with its request ID echoed.
func TestHealthzLiveDuringDrain(t *testing.T) {
	release := make(chan struct{})
	cfg := testConfig()
	cfg.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return sys.TransformVariantCtx(ctx, appIndex, quantized)
	}
	s := New(cfg)

	// Main listener: drained by Shutdown.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	mainURL := "http://" + l.Addr().String()

	// Ops listener: same handler, not shut down, so probes stay reachable
	// while the main listener refuses new connections.
	opsListener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opsSrv := &http.Server{Handler: s.Handler()}
	go opsSrv.Serve(opsListener)
	defer opsSrv.Close()
	opsURL := "http://" + opsListener.Addr().String()

	probe := func(path string) int {
		resp, err := http.Get(opsURL + path)
		if err != nil {
			return -1
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := probe("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, want 200", got)
	}

	// In-flight plan with a client-chosen request ID.
	const clientID = "drain-test-1"
	type result struct {
		code  int
		reqID string
	}
	resCh := make(chan result, 1)
	go func() {
		req, err := http.NewRequest("POST", mainURL+"/v1/plan", strings.NewReader(planBody(5)))
		if err != nil {
			resCh <- result{code: -1}
			return
		}
		req.Header.Set("X-Request-ID", clientID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resCh <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		resCh <- result{code: resp.StatusCode, reqID: resp.Header.Get("X-Request-ID")}
	}()
	waitFor(t, 10*time.Second, "request in flight", func() bool {
		return s.Metrics().Pool.InFlight == 1
	})

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// During the drain: readiness down, liveness up — several probes, not
	// one, so a flapping implementation fails.
	waitFor(t, 5*time.Second, "readyz to flip 503", func() bool {
		return probe("/readyz") == http.StatusServiceUnavailable
	})
	for i := 0; i < 3; i++ {
		if got := probe("/healthz"); got != http.StatusOK {
			t.Fatalf("/healthz during drain: %d, want 200", got)
		}
		if got := probe("/readyz"); got != http.StatusServiceUnavailable {
			t.Fatalf("/readyz during drain: %d, want 503", got)
		}
	}

	close(release)
	res := <-resCh
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", res.code)
	}
	if res.reqID != clientID {
		t.Fatalf("in-flight request X-Request-ID = %q, want %q echoed", res.reqID, clientID)
	}
	<-shutdownDone
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
}

// TestLatencyReservoirPastWindow pins the per-route reservoir's behavior
// past its window: it holds exactly the most recent metricsWindow
// observations (oldest overwritten in ring order), while the request
// count keeps the full total.
func TestLatencyReservoirPastWindow(t *testing.T) {
	m := NewMetrics()
	// Six slow observations, then a full window of 1..metricsWindow ms
	// that must push all six out.
	const slow = 6
	for i := 0; i < slow; i++ {
		m.Observe("/x", 200, 10*time.Second)
	}
	for i := 1; i <= metricsWindow; i++ {
		m.Observe("/x", 200, time.Duration(i)*time.Millisecond)
	}
	snap := m.Snapshot(nil, nil)
	rs := snap.Requests["/x"]
	if rs.Count != slow+metricsWindow {
		t.Errorf("count = %d, want %d (reservoir must not cap the counter)", rs.Count, slow+metricsWindow)
	}
	lat := rs.Latency
	if lat.Samples != metricsWindow || lat.Window != metricsWindow {
		t.Errorf("samples/window = %d/%d, want %d/%d", lat.Samples, lat.Window, metricsWindow, metricsWindow)
	}
	// The retained set is {1..metricsWindow} ms: the slow observations
	// fell out.
	if lat.Max != metricsWindow {
		t.Errorf("max = %v, want %d (old slow samples must be evicted)", lat.Max, metricsWindow)
	}
	if lat.P50 < metricsWindow/2-1 || lat.P50 > metricsWindow/2+1 {
		t.Errorf("p50 = %v, want ~%d", lat.P50, metricsWindow/2)
	}
}

// findLogRecord reports whether the JSON slog stream contains a "request"
// record for route carrying the request ID.
func findLogRecord(logs, reqID, route string) bool {
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec map[string]interface{}
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		if rec["msg"] == "request" && rec[telemetry.RequestIDAttr] == reqID && rec["route"] == route {
			return true
		}
	}
	return false
}

// spansWithRequestID joins begin events (names) to end events (attrs) and
// returns the set of span names annotated with reqID.
func spansWithRequestID(t *testing.T, jsonl []byte, reqID string) map[string]bool {
	t.Helper()
	names := make(map[int64]string)
	out := make(map[string]bool)
	for _, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var ev struct {
			Ev    string            `json:"ev"`
			ID    int64             `json:"id"`
			Name  string            `json:"name"`
			Attrs map[string]string `json:"attrs"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		switch ev.Ev {
		case "b":
			names[ev.ID] = ev.Name
		case "e":
			if ev.Attrs[telemetry.RequestIDAttr] == reqID {
				out[names[ev.ID]] = true
			}
		}
	}
	return out
}

// newJSONLogger builds a JSON slog.Logger writing to w.
func newJSONLogger(w *syncBuffer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}
