package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// schedule returns n POSTs due every gap.
func schedule(n int, gap time.Duration) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{at: time.Duration(i) * gap, method: http.MethodPost, path: "/", body: []byte("{}"), tenant: "ops"}
	}
	return reqs
}

// A handler that stalls once must raise the measured latency of the
// requests queued behind the stall, not only of the stalled request: the
// generator times from the due time, not from the actual send.
func TestOpenLoopStallDelaysQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Request-ID") == "s5" {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	reqs := schedule(30, 10*time.Millisecond)
	client := newClient(1, 10*time.Second)
	defer client.CloseIdleConnections()
	outs := openLoop(context.Background(), client, srv.URL, reqs, 1, "s")

	for i, o := range outs {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, o.status)
		}
	}
	if outs[5].latency < stall {
		t.Errorf("stalled request latency %v < stall %v", outs[5].latency, stall)
	}
	// Request 6 was due 10ms after the stalled one and waited for the only
	// connection: its latency must carry most of the stall even though its
	// own service time is short.
	if outs[6].latency < stall-50*time.Millisecond {
		t.Errorf("queued request latency %v, want >= %v", outs[6].latency, stall-50*time.Millisecond)
	}
	if outs[6].service > 100*time.Millisecond {
		t.Errorf("queued request service time %v, want a fast response", outs[6].service)
	}
	if outs[4].latency > 100*time.Millisecond {
		t.Errorf("request before the stall latency %v, want unaffected", outs[4].latency)
	}
}

// The generator never opens more connections than it is given.
func TestOpenLoopConnectionBound(t *testing.T) {
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("ok"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	client := newClient(workers, 10*time.Second)
	defer client.CloseIdleConnections()
	outs := openLoop(context.Background(), client, srv.URL, schedule(200, 0), workers, "c")
	for i, o := range outs {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, o.status)
		}
	}
	if n := opened.Load(); n > workers {
		t.Errorf("opened %d connections, bound is %d", n, workers)
	}
}

// The lateness the generator reports is its own scheduling delay: with
// requests far apart and a fast handler it stays small.
func TestOpenLoopLatenessIsGeneratorDelay(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) }))
	defer srv.Close()
	client := newClient(workers, 10*time.Second)
	defer client.CloseIdleConnections()
	outs := openLoop(context.Background(), client, srv.URL, schedule(20, 5*time.Millisecond), workers, "l")
	for i, o := range outs {
		if o.late < 0 || o.late > 50*time.Millisecond {
			t.Errorf("request %d lateness %v outside [0, 50ms]", i, o.late)
		}
	}
}
