package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"kodan"
	"kodan/internal/sim"
	"kodan/internal/telemetry"
)

// serveLoopback serves s (a *Server, or an *http.Server from
// NewHTTPServer) on a loopback listener, so tests see its connection
// limits, and returns the address.
func serveLoopback(t *testing.T, s interface {
	Serve(net.Listener) error
	Close() error
}) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(l) //nolint:errcheck // Close below ends Serve
	}()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return l.Addr().String()
}

// TestOversizedBodyRejected posts a body over maxBodyBytes to /v1/plan:
// the server answers 413 in the uniform JSON error body without reading
// the rest.
func TestOversizedBodyRejected(t *testing.T) {
	s := New(testConfig())
	base := "http://" + serveLoopback(t, s)

	// A valid JSON prefix that never closes, so the decoder reads until
	// the limit trips.
	body := `{"app":1,"target":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	resp, data := post(t, http.DefaultClient, base+"/v1/plan", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%.200s), want 413", resp.StatusCode, data)
	}
	decodeError(t, resp, data)
	if got := s.Metrics().Cache.Misses; got != 0 {
		t.Errorf("oversized request reached the cache (%d misses)", got)
	}
}

// TestTrailingDataRejected posts bodies with something after the first
// JSON value: a second value, a stray closing brace, or garbage. Each is a
// 400 in the uniform JSON error body that never reaches the cache, while
// trailing whitespace stays acceptable. A body whose trailing data pushes
// it over maxBodyBytes is still a 413.
func TestTrailingDataRejected(t *testing.T) {
	s := New(testConfig())
	base := "http://" + serveLoopback(t, s)
	for _, body := range []string{
		`{"app":4} {"app":5}`,
		`{"app":4}}`,
		`{"app":4}]`,
		`{"app":4} x`,
		`{"app":4} ` + strings.Repeat(" ", 16) + `0`,
	} {
		resp, data := post(t, http.DefaultClient, base+"/v1/plan", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d (%s), want 400", body, resp.StatusCode, data)
		}
		if msg := decodeError(t, resp, data); !strings.Contains(msg, "trailing data") {
			t.Errorf("%q: error %q does not name the trailing data", body, msg)
		}
	}
	if got := s.Metrics().Cache.Misses; got != 0 {
		t.Errorf("a request with trailing data reached the cache (%d misses)", got)
	}
	resp, data := post(t, http.DefaultClient, base+"/v1/plan", `{"app":4} `+strings.Repeat(" ", maxBodyBytes))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized trailing whitespace: status %d (%.200s), want 413", resp.StatusCode, data)
	}
	resp, data = post(t, http.DefaultClient, base+"/v1/plan", planBody(4)+" \r\n\t")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d (%s), want 200", resp.StatusCode, data)
	}
}

// TestSlowHeaderClientDisconnected opens a connection that never finishes
// its request headers. The server drops it after readHeaderTimeout, keeps
// serving other clients meanwhile, and answers an oversized header block
// with 431. It covers the API server built by New and the debug listener,
// which serves its mux through NewHTTPServer.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	okHandler := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	cases := []struct {
		name  string
		serve func(t *testing.T) string
	}{
		{"api", func(t *testing.T) string { return serveLoopback(t, New(testConfig())) }},
		{"debug", func(t *testing.T) string { return serveLoopback(t, NewHTTPServer(okHandler)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			addr := tc.serve(t)

			slow, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer slow.Close()
			start := time.Now()
			if _, err := io.WriteString(slow, "POST /v1/plan HTTP/1.1\r\nHost: kodan\r\nX-Slow: "); err != nil {
				t.Fatal(err)
			}

			// Other clients are served while the slow one holds its connection.
			resp, err := http.Get("http://" + addr + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz beside a slow client: status %d", resp.StatusCode)
			}

			slow.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)) //nolint:errcheck
			n, err := slow.Read(make([]byte, 1))
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("slow-header connection still open after %v", time.Since(start))
			}
			if n != 0 || err == nil {
				t.Fatalf("slow-header connection got a response (n=%d, err=%v), want it closed", n, err)
			}
			if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
				t.Errorf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
			}

			// Headers beyond maxHeaderBytes (plus net/http's 4 KiB slack) get 431.
			big, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer big.Close()
			req := "GET /healthz HTTP/1.1\r\nHost: kodan\r\nX-Big: " + strings.Repeat("b", 2*maxHeaderBytes) + "\r\n\r\n"
			if _, err := io.WriteString(big, req); err != nil {
				t.Fatal(err)
			}
			big.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			bigResp, err := http.ReadResponse(bufio.NewReader(big), nil)
			if err != nil {
				t.Fatal(err)
			}
			bigResp.Body.Close()
			if bigResp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
				t.Fatalf("oversized headers: status %d, want 431", bigResp.StatusCode)
			}
		})
	}
}

// TestSimulateSpanBounds resolves /v1/simulate's mission span at and one
// past each bound, then posts the over-bound requests: each is a 400 that
// names the bound and never reaches the cache or the simulator.
func TestSimulateSpanBounds(t *testing.T) {
	for _, c := range []struct {
		days, sats, wantDays, wantSats int
		ok                             bool
	}{
		{0, -3, 1, 1, true},
		{maxSimulateDays, maxSimulateSats, maxSimulateDays, maxSimulateSats, true},
		{maxSimulateDays + 1, 1, 0, 0, false},
		{1, maxSimulateSats + 1, 0, 0, false},
	} {
		days, sats, err := simulateSpan(c.days, c.sats)
		if (err == nil) != c.ok || days != c.wantDays || sats != c.wantSats {
			t.Errorf("simulateSpan(%d, %d) = %d, %d, %v", c.days, c.sats, days, sats, err)
		}
	}

	s := New(testConfig())
	base := "http://" + serveLoopback(t, s)
	for field, n := range map[string]int{"days": maxSimulateDays + 1, "sats": maxSimulateSats + 1} {
		body := fmt.Sprintf(`{"app":4,"target":"orin",%q:%d}`, field, n)
		resp, data := post(t, http.DefaultClient, base+"/v1/simulate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", body, resp.StatusCode, data)
		}
		if msg := decodeError(t, resp, data); !strings.Contains(msg, field+" must be at most") {
			t.Errorf("%s: error %q does not name the bound", body, msg)
		}
	}
	if got := s.Metrics().Cache.Misses; got != 0 {
		t.Errorf("over-bound simulations reached the cache (%d misses)", got)
	}
}

// TestSimulateCapCancelsMidCapture pins how a simulation at the
// /v1/simulate cap stops when its request is cancelled. The simulator
// checks the context between satellites, so a cancel that lands while the
// captures are built returns context.Canceled once the satellites already
// running finish, without building the rest. The cancel time and the
// bound are fractions of an uncancelled run timed on the same host, so
// they scale with the host and the race detector.
func TestSimulateCapCancelsMidCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("two simulations at the cap")
	}
	cfg := sim.Landsat8Config(kodan.ReferenceEpoch, maxSimulateDays*24*time.Hour, maxSimulateSats)
	start := time.Now()
	full, err := sim.RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncancelled := time.Since(start)

	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(telemetry.WithProbe(t.Context(), telemetry.Probe{Metrics: reg}))
	defer cancel()
	timer := time.AfterFunc(uncancelled/10, cancel)
	defer timer.Stop()
	start = time.Now()
	_, err = sim.RunCtx(ctx, cfg)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if frames := reg.Counter("sim.frames_captured").Load(); frames >= int64(full.FramesObserved()) {
		t.Errorf("cancelled run captured all %d frames: the cancel did not land mid-capture", frames)
	}
	t.Logf("uncancelled %v cancelled %v frames %d/%d", uncancelled, took, reg.Counter("sim.frames_captured").Load(), full.FramesObserved())
	if took > uncancelled/2 {
		t.Errorf("cancelled run returned after %v, want within half the uncancelled %v", took, uncancelled)
	}
}

// TestFieldsOfOtherRoutesRejected posts each field an endpoint does not
// read: the strict decoder answers 400 before any work starts.
func TestFieldsOfOtherRoutesRejected(t *testing.T) {
	s := New(testConfig())
	base := "http://" + serveLoopback(t, s)
	hybrid := []string{`"groundCost":0`, `"bufferFrames":16`, `"contactGapFrames":10`}
	foreign := map[string][]string{
		"/v1/simulate":  append([]string{`"deadlineMs":24000`, `"capacityFrac":0.21`}, hybrid...),
		"/v1/transform": append([]string{`"target":"orin"`, `"deadlineMs":24000`, `"capacityFrac":0.21`, `"noFill":true`, `"mode":"hybrid"`, `"days":1`}, hybrid...),
	}
	for route, fields := range foreign {
		for _, field := range fields {
			body := `{"app":4,` + field + `}`
			resp, data := post(t, http.DefaultClient, base+route, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d (%s), want 400", route, body, resp.StatusCode, data)
			}
			if msg := decodeError(t, resp, data); !strings.Contains(msg, "unknown field") {
				t.Errorf("%s %s: error %q", route, body, msg)
			}
		}
	}
	if got := s.Metrics().Cache.Misses; got != 0 {
		t.Errorf("rejected requests reached the cache (%d misses)", got)
	}
}
