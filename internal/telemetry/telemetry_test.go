package telemetry

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety is the package's core contract: every operation on nil
// telemetry values is a no-op, never a panic, so instrumented code runs
// unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil || r.Scope("x") != nil {
		t.Fatal("nil registry must yield nil metrics")
	}
	var sc *Scope
	if sc.Counter("x") != nil || sc.Gauge("x") != nil || sc.Histogram("x") != nil {
		t.Fatal("nil scope must yield nil metrics")
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter must load 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Load() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge must load 0")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must be empty")
	}
	if snap := h.Snapshot(); snap.Count != 0 {
		t.Fatal("nil histogram snapshot must be zero")
	}
	if snap := r.Snapshot(); snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatal("nil registry snapshot must be zero")
	}

	var tr *Tracer
	sp := tr.Begin("root")
	if sp != nil {
		t.Fatal("nil tracer must begin nil spans")
	}
	sp.Sim(time.Time{}, time.Time{})
	sp.Set("k", "v")
	if sp.Child("child") != nil {
		t.Fatal("nil span must child nil spans")
	}
	sp.End()
	sp.End() // double-End on nil is fine too
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must report nothing")
	}
	if err := tr.WriteJSONL(&strings.Builder{}); err != nil {
		t.Fatalf("nil tracer WriteJSONL: %v", err)
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	g := r.Gauge("active")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if g.Load() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Load())
	}
	if g.Max() < 1 || g.Max() > workers {
		t.Fatalf("gauge max = %d, want 1..%d", g.Max(), workers)
	}
	// Same name returns the same metric; counters never go negative.
	r.Counter("hits").Add(-5)
	if r.Counter("hits").Load() != workers*per {
		t.Fatal("negative Add must be ignored and lookups must share state")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.001, 0.002, 0.004, 0.008, 1.0} {
		h.Observe(v)
	}
	h.Observe(-3) // clamped to 0
	snap := h.Snapshot()
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	if snap.Min != 0 {
		t.Fatalf("min = %v, want 0 (clamped negative)", snap.Min)
	}
	if snap.Max != 1.0 {
		t.Fatalf("max = %v, want 1", snap.Max)
	}
	wantSum := 0.001 + 0.002 + 0.004 + 0.008 + 1.0
	if math.Abs(snap.Sum-wantSum) > 1e-12 {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
	// Quantile bounds: p50 must be an upper bound on the median sample
	// (0.002) but not wildly above the next bucket edge.
	if q := h.Quantile(0.5); q < 0.002 || q > 0.0041 {
		t.Fatalf("p50 = %v, want in [0.002, 0.0041]", q)
	}
	if q := h.Quantile(1.0); q < 1.0 {
		t.Fatalf("p100 = %v, want >= max sample", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w+1) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var want float64
	for w := 1; w <= workers; w++ {
		want += float64(w) * 0.001 * per
	}
	if math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	snap := h.Snapshot()
	if snap.Min != 0.001 || snap.Max != float64(workers)*0.001 {
		t.Fatalf("min/max = %v/%v, want 0.001/%v", snap.Min, snap.Max, float64(workers)*0.001)
	}
}

func TestScopePrefix(t *testing.T) {
	r := NewRegistry()
	r.Scope("sim").Counter("frames").Add(7)
	if got := r.Counter("sim.frames").Load(); got != 7 {
		t.Fatalf("scoped counter = %d, want 7", got)
	}
	snap := r.Snapshot()
	if snap.Counters["sim.frames"] != 7 {
		t.Fatalf("snapshot missing scoped counter: %+v", snap.Counters)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	r.Gauge("g").Set(2)
	r.Histogram("h").Observe(0.5)
	first, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", first, again)
		}
	}
}

// TestProbeContext exercises the context plumbing: probes round-trip,
// absent probes are the zero no-op, and StartSpan without a tracer is
// free of allocations in the span path.
func TestProbeContext(t *testing.T) {
	ctx := context.Background()
	if p := ProbeFrom(ctx); p.Enabled() {
		t.Fatal("empty context must yield disabled probe")
	}
	ctx2, sp := StartSpan(ctx, "noop")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan without tracer must return (ctx, nil)")
	}
	sp.End()

	reg := NewRegistry()
	tr := NewTracer(0)
	ctx = WithProbe(ctx, Probe{Metrics: reg, Trace: tr})
	p := ProbeFrom(ctx)
	if p.Metrics != reg || p.Trace != tr || !p.Enabled() {
		t.Fatal("probe must round-trip through context")
	}
	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child")
	child.End()
	root.End()
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	rootBegin, childBegin := events[0], events[1]
	if rootBegin.Name != "root" || childBegin.Name != "child" {
		t.Fatalf("begin order = %q, %q; want root, child", rootBegin.Name, childBegin.Name)
	}
	if childBegin.Parent != rootBegin.ID {
		t.Fatalf("child parent = %d, want root id %d", childBegin.Parent, rootBegin.ID)
	}
}

// TestHistogramQuantileEdgeCases pins the quantile behavior on the
// degenerate distributions dashboards actually hit: no samples yet, a
// single sample, and every sample identical.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := &Histogram{}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
			}
		}
		s := h.Snapshot()
		if s.Count != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 || s.P50 != 0 || s.P99 != 0 {
			t.Errorf("empty snapshot not all-zero: %+v", s)
		}
	})

	t.Run("single sample", func(t *testing.T) {
		h := &Histogram{}
		h.Observe(0.003)
		// Every quantile must land in the single sample's bucket: the
		// reported upper bound is >= the sample and within one doubling.
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			got := h.Quantile(q)
			if got < 0.003 || got > 0.006*1.001 {
				t.Errorf("Quantile(%v) = %v, want in [0.003, 0.006]", q, got)
			}
		}
		s := h.Snapshot()
		if s.Count != 1 || s.Min != 0.003 || s.Max != 0.003 || s.Mean != 0.003 {
			t.Errorf("single-sample snapshot: %+v", s)
		}
	})

	t.Run("all identical", func(t *testing.T) {
		h := &Histogram{}
		for i := 0; i < 1000; i++ {
			h.Observe(0.010)
		}
		p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
		if p50 != p99 {
			t.Errorf("identical samples: p50 %v != p99 %v", p50, p99)
		}
		if p50 < 0.010 || p50 > 0.020*1.001 {
			t.Errorf("p50 = %v, want within the 10ms sample's bucket", p50)
		}
		s := h.Snapshot()
		if s.Min != 0.010 || s.Max != 0.010 {
			t.Errorf("min/max drifted on identical samples: %+v", s)
		}
	})

	t.Run("zero sample", func(t *testing.T) {
		h := &Histogram{}
		h.Observe(0)
		if got := h.Quantile(0.5); got != histBase {
			t.Errorf("Quantile(0.5) after Observe(0) = %v, want first bucket edge %v", got, histBase)
		}
		if s := h.Snapshot(); s.Min != 0 || s.Count != 1 {
			t.Errorf("zero-sample snapshot: %+v (min must be a real 0, not 'unset')", s)
		}
	})

	t.Run("overflow bucket", func(t *testing.T) {
		h := &Histogram{}
		huge := 1e9 // past the last finite bucket edge
		h.Observe(huge)
		if got := h.Quantile(0.99); got != huge {
			t.Errorf("overflow-bucket quantile = %v, want observed max %v", got, huge)
		}
	})
}

// TestQuantileOverEdgeCases covers the delta-vector variant the flight
// recorder uses: empty vectors, single-bucket vectors, and the unbounded
// last bucket (which reports its lower edge, having no finite upper one).
func TestQuantileOverEdgeCases(t *testing.T) {
	if got := QuantileOver(nil, 0.5); got != 0 {
		t.Errorf("QuantileOver(nil) = %v, want 0", got)
	}
	if got := QuantileOver(make([]int64, histBuckets), 0.5); got != 0 {
		t.Errorf("QuantileOver(all-zero) = %v, want 0", got)
	}

	h := &Histogram{}
	h.Observe(0.003)
	h.Observe(0.003)
	if got, want := QuantileOver(h.BucketCounts(), 0.5), h.Quantile(0.5); got != want {
		t.Errorf("QuantileOver over full cumulative buckets = %v, want Quantile's %v", got, want)
	}

	last := make([]int64, histBuckets)
	last[histBuckets-1] = 3
	got := QuantileOver(last, 0.99)
	want := histBase * math.Pow(2, float64(histBuckets-2))
	if got != want {
		t.Errorf("last-bucket QuantileOver = %v, want lower bound %v", got, want)
	}
}

// TestBucketCountsSnapshotIsACopy: mutating the returned slice must not
// corrupt the histogram.
func TestBucketCountsSnapshotIsACopy(t *testing.T) {
	h := &Histogram{}
	h.Observe(0.5)
	b := h.BucketCounts()
	for i := range b {
		b[i] = 999
	}
	if h.Count() != 1 {
		t.Error("mutating BucketCounts result changed the histogram")
	}
	var total int64
	for _, c := range h.BucketCounts() {
		total += c
	}
	if total != 1 {
		t.Errorf("histogram buckets corrupted: total %d, want 1", total)
	}
	var nilH *Histogram
	if nilH.BucketCounts() != nil {
		t.Error("nil histogram BucketCounts should be nil")
	}
}

// TestRegistryStateDifferential: two States straddling traffic diff to
// exactly that traffic.
func TestRegistryStateDifferential(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	h.Observe(0.001)
	before := reg.State()
	h.Observe(1.0)
	h.Observe(1.0)
	after := reg.State()

	b, a := before.Histograms["lat"], after.Histograms["lat"]
	if a.Count-b.Count != 2 {
		t.Fatalf("count delta = %d, want 2", a.Count-b.Count)
	}
	diff := make([]int64, len(a.Buckets))
	var n int64
	for i := range diff {
		diff[i] = a.Buckets[i] - b.Buckets[i]
		n += diff[i]
	}
	if n != 2 {
		t.Fatalf("bucket delta sum = %d, want 2", n)
	}
	// The interval held only slow samples; its p50 must ignore the fast
	// sample recorded before the window.
	if p50 := QuantileOver(diff, 0.5); p50 < 0.5 {
		t.Errorf("differential p50 = %v, want >= 0.5 (only 1.0s samples in window)", p50)
	}
	if ds := a.Sum - b.Sum; math.Abs(ds-2.0) > 1e-9 {
		t.Errorf("sum delta = %v, want 2.0", ds)
	}
}
