package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kodan"
)

// errPipeline is the plain pipeline failure the breaker tests inject.
var errPipeline = errors.New("pipeline failed")

// flakyTransform fails with errPipeline for the first failures calls,
// then delegates to the real pipeline.
func flakyTransform(failures int64) (TransformFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		if calls.Add(1) <= failures {
			return nil, errPipeline
		}
		return sys.TransformVariantCtx(ctx, appIndex, quantized)
	}, &calls
}

// decodeError asserts the uniform JSON error body and returns its message.
func decodeError(t *testing.T, resp *http.Response, body []byte) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error content type %q, want application/json", ct)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	if eb.Error == "" {
		t.Errorf("error body has empty message: %s", body)
	}
	return eb.Error
}

func TestSustainedFaultsTripBreaker(t *testing.T) {
	cfg := testConfig()
	cfg.Transform = func(context.Context, *kodan.System, int, bool) (*kodan.Application, error) {
		return nil, errPipeline
	}
	s := New(cfg)
	defer s.Close()
	s.breaker = NewBreaker(3, time.Minute)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three failures open the breaker (distinct apps: errors are never
	// cached, but distinct keys keep the single-flight out of the way).
	// Each is a plain pipeline failure: 500, carrying the error.
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(1+i))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d (%s), want 500", i, resp.StatusCode, body)
		}
		if msg := decodeError(t, resp, body); !strings.Contains(msg, errPipeline.Error()) {
			t.Errorf("failure %d: message %q, want the pipeline error", i, msg)
		}
	}
	if got := s.breaker.State(); got != "open" {
		t.Fatalf("breaker state %q after %d failures, want open", got, 3)
	}

	resp, body := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503 from the open breaker", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "60" {
		t.Errorf("Retry-After %q, want %q (the cooldown)", resp.Header.Get("Retry-After"), "60")
	}
	if msg := decodeError(t, resp, body); !strings.Contains(msg, "circuit breaker open") {
		t.Errorf("breaker rejection message %q", msg)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["server.resilience.breaker_tripped"] != 1 {
		t.Errorf("breaker_tripped = %d, want 1", snap.Counters["server.resilience.breaker_tripped"])
	}
	if snap.Counters["server.resilience.breaker_rejected"] == 0 {
		t.Error("breaker_rejected not counted")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	cfg := testConfig()
	tf, _ := flakyTransform(2)
	cfg.Transform = tf
	s := New(cfg)
	defer s.Close()
	s.breaker = NewBreaker(2, 30*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(1+i))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	if got := s.breaker.State(); got != "open" {
		t.Fatalf("breaker state %q, want open", got)
	}

	// After the cooldown the next request is the half-open probe; the
	// transform is healthy again, so it closes the breaker.
	time.Sleep(40 * time.Millisecond)
	resp, body := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe: status %d (%s), want 200", resp.StatusCode, body)
	}
	if got := s.breaker.State(); got != "closed" {
		t.Fatalf("breaker state %q after successful probe, want closed", got)
	}
	resp, body = post(t, ts.Client(), ts.URL+"/v1/plan", planBody(5))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery: status %d (%s), want 200", resp.StatusCode, body)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["server.resilience.breaker_recovered"] != 1 {
		t.Errorf("breaker_recovered = %d, want 1", snap.Counters["server.resilience.breaker_recovered"])
	}
}

func TestBreakerUnit(t *testing.T) {
	b := NewBreaker(2, time.Hour)
	clock := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	b.now = func() time.Time { return clock }

	if !b.Allow() {
		t.Fatal("closed breaker rejected")
	}
	b.Record(false)
	if tripped, _ := b.Record(false); !tripped {
		t.Fatal("second failure did not trip")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted before cooldown")
	}
	clock = clock.Add(2 * time.Hour)
	if !b.Allow() {
		t.Fatal("breaker did not admit the half-open probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: full cooldown again.
	b.Record(false)
	if b.Allow() {
		t.Fatal("breaker admitted right after a failed probe")
	}
	clock = clock.Add(2 * time.Hour)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	if _, recovered := b.Record(true); !recovered {
		t.Fatal("successful probe did not report recovery")
	}
	if got := b.State(); got != "closed" {
		t.Fatalf("state %q after recovery, want closed", got)
	}
}

func TestErrorBodiesAreJSON(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		do   func() (*http.Response, []byte)
		want int
	}{
		{"bad body", func() (*http.Response, []byte) {
			return post(t, ts.Client(), ts.URL+"/v1/plan", `{"nope":1}`)
		}, http.StatusBadRequest},
		{"bad app", func() (*http.Response, []byte) {
			return post(t, ts.Client(), ts.URL+"/v1/plan", planBody(99))
		}, http.StatusBadRequest},
		{"bad target", func() (*http.Response, []byte) {
			return post(t, ts.Client(), ts.URL+"/v1/plan", `{"app":1,"target":"abacus"}`)
		}, http.StatusBadRequest},
		{"bad mode", func() (*http.Response, []byte) {
			return post(t, ts.Client(), ts.URL+"/v1/simulate", `{"app":1,"mode":"warp"}`)
		}, http.StatusBadRequest},
		{"bad seed", func() (*http.Response, []byte) {
			resp, err := ts.Client().Get(ts.URL + "/v1/catalog?seed=banana")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body []byte
			body, err = readAll(resp)
			if err != nil {
				t.Fatal(err)
			}
			return resp, body
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := tc.do()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
			continue
		}
		decodeError(t, resp, body)
	}
}

func TestReadyzDrainingBodyIsJSON(t *testing.T) {
	s := New(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d, want 503", resp.StatusCode)
	}
	if msg := decodeError(t, resp, body); msg != "draining" {
		t.Errorf("draining message %q", msg)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	return io.ReadAll(resp.Body)
}
