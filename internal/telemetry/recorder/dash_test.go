package recorder

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kodan/internal/telemetry"
)

// TestStreamDeliversLiveSamples is the SSE integration gate: a client of
// /debug/dash/stream receives at least two samples from a live recorder,
// each a valid JSON Sample, over one long-lived response.
func TestStreamDeliversLiveSamples(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("traffic")
	r := New(reg, 10*time.Millisecond)
	r.Start()
	defer r.Stop()

	// Background traffic so samples carry nonzero deltas.
	stopTraffic := make(chan struct{})
	defer close(stopTraffic)
	go func() {
		for {
			select {
			case <-stopTraffic:
				return
			case <-time.After(2 * time.Millisecond):
				c.Inc()
			}
		}
	}()

	ts := httptest.NewServer(r.StreamHandler())
	defer ts.Close()

	req, err := http.NewRequest("GET", ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var got []Sample
	sawEventLine := false
	for sc.Scan() && len(got) < 2 {
		line := sc.Text()
		if line == "event: sample" {
			sawEventLine = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var s Sample
			if err := json.Unmarshal([]byte(data), &s); err != nil {
				t.Fatalf("SSE data is not a valid Sample: %v\n%s", err, data)
			}
			got = append(got, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v (received %d samples)", err, len(got))
	}
	if len(got) < 2 {
		t.Fatalf("received %d SSE samples, want >= 2", len(got))
	}
	if !sawEventLine {
		t.Error("no 'event: sample' line preceded the data")
	}
	for i, s := range got {
		if s.WallMs == 0 {
			t.Errorf("sample %d has zero timestamp", i)
		}
	}
}

// TestStreamReplaysHistoryFirst: a client connecting after samples were
// recorded receives the retained history immediately, before any new
// sample is recorded.
func TestStreamReplaysHistoryFirst(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("n").Add(2)
	r := New(reg, time.Hour) // background sampler never fires
	r.Record()               // prime
	r.Record()               // one retained sample

	ts := httptest.NewServer(r.StreamHandler())
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(5*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var s Sample
			if err := json.Unmarshal([]byte(data), &s); err != nil {
				t.Fatal(err)
			}
			if s.Counters["n"].Total != 2 {
				t.Errorf("replayed sample total = %d, want 2", s.Counters["n"].Total)
			}
			return
		}
	}
	t.Fatal("no history sample replayed")
}

// TestDashPageSelfContained: the page handler serves HTML with inline
// assets only — no external stylesheet, script, or image references —
// and points its EventSource at the configured stream path.
func TestDashPageSelfContained(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(reg, 0)
	ts := httptest.NewServer(r.PageHandler("test ops", "/debug/dash/stream"))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	body := sb.String()

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(body, "test ops") {
		t.Error("page missing title")
	}
	if !strings.Contains(body, "/debug/dash/stream") {
		t.Error("page does not reference the stream path")
	}
	for _, external := range []string{"src=\"http", "href=\"http", "url(http", "@import"} {
		if strings.Contains(body, external) {
			t.Errorf("page references an external asset (%q)", external)
		}
	}
	for _, series := range []string{"server.transform_seconds", "server.pool_occupancy", "server.cache.hits", "sim.downlink_utilization"} {
		if !strings.Contains(body, series) {
			t.Errorf("page missing sparkline series %q", series)
		}
	}
}
