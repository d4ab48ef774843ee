package recorder

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"kodan/internal/telemetry"
)

// record primes r (first call is baseline-only) — tests call it once
// before the samples they assert on.
func prime(r *Recorder) { r.Record() }

func TestCounterDeltasAndRates(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("reqs")
	r := New(reg, 0)
	prime(r)

	c.Add(10)
	s1 := r.Record()
	cs := s1.Counters["reqs"]
	if cs.Total != 10 || cs.Delta != 10 {
		t.Fatalf("first sample: total=%d delta=%d, want 10/10", cs.Total, cs.Delta)
	}
	if cs.Rate <= 0 {
		t.Fatalf("rate = %v, want > 0", cs.Rate)
	}

	c.Add(5)
	s2 := r.Record()
	cs = s2.Counters["reqs"]
	if cs.Total != 15 || cs.Delta != 5 {
		t.Fatalf("second sample: total=%d delta=%d, want 15/5", cs.Total, cs.Delta)
	}

	// No traffic: delta and rate drop to zero while total holds.
	s3 := r.Record()
	cs = s3.Counters["reqs"]
	if cs.Total != 15 || cs.Delta != 0 || cs.Rate != 0 {
		t.Fatalf("idle sample: %+v, want total 15, delta 0, rate 0", cs)
	}
}

func TestGaugeLastValueWins(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("occupancy")
	r := New(reg, 0)
	prime(r)

	g.Set(3)
	g.Set(7)
	g.Set(2)
	s := r.Record()
	gs := s.Gauges["occupancy"]
	if gs.Value != 2 {
		t.Errorf("gauge value = %d, want last value 2", gs.Value)
	}
	if gs.Max != 7 {
		t.Errorf("gauge max = %d, want high-water 7", gs.Max)
	}
}

func TestHistogramRollingQuantiles(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat")
	r := New(reg, 0)
	prime(r)

	// Interval 1: all fast samples.
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	s1 := r.Record()
	hs := s1.Histograms["lat"]
	if hs.Delta != 100 || hs.Count != 100 {
		t.Fatalf("interval 1: delta=%d count=%d, want 100/100", hs.Delta, hs.Count)
	}
	if hs.P99 > 0.01 {
		t.Errorf("interval 1 p99 = %v, want fast (<= bucket edge above 1ms)", hs.P99)
	}

	// Interval 2: all slow samples. A cumulative histogram would still be
	// dominated by the 100 fast ones; the rolling view must see only slow.
	for i := 0; i < 10; i++ {
		h.Observe(1.0)
	}
	s2 := r.Record()
	hs = s2.Histograms["lat"]
	if hs.Delta != 10 || hs.Count != 110 {
		t.Fatalf("interval 2: delta=%d count=%d, want 10/110", hs.Delta, hs.Count)
	}
	if hs.P50 < 0.5 {
		t.Errorf("interval 2 rolling p50 = %v, want >= 0.5 (only slow samples in window)", hs.P50)
	}
	if hs.Mean < 0.9 || hs.Mean > 1.1 {
		t.Errorf("interval 2 rolling mean = %v, want ~1.0", hs.Mean)
	}

	// Interval 3: empty — rolling quantiles are zero, cumulative holds.
	s3 := r.Record()
	hs = s3.Histograms["lat"]
	if hs.Delta != 0 || hs.P50 != 0 || hs.P99 != 0 {
		t.Errorf("idle interval: %+v, want zero delta and quantiles", hs)
	}
	if hs.Count != 110 {
		t.Errorf("idle interval cumulative count = %d, want 110", hs.Count)
	}
}

// TestRingRetentionPastCapacity is the reservoir-past-window edge case:
// pushing more samples than both rings hold must keep memory bounded,
// retain the newest samples at full resolution, and fold evictions into
// the coarse ring rather than dropping them until the coarse ring wraps.
func TestRingRetentionPastCapacity(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("n")
	r := New(reg, 0)
	prime(r)

	// Fill the fine ring, fill the coarse ring, wrap the coarse ring by
	// two merged samples, and leave five evictions pending.
	const pending = 5
	const total = fineCapacity + coarseFactor*(coarseCapacity+2) + pending
	for i := 0; i < total; i++ {
		c.Inc()
		r.Record()
	}

	all := r.Samples(time.Time{})
	if want := coarseCapacity + pending + fineCapacity; len(all) != want {
		t.Fatalf("retained %d samples, want %d (coarse + pending + fine)", len(all), want)
	}
	// Newest fine sample is the last recorded one.
	last := all[len(all)-1]
	if got := last.Counters["n"].Total; got != total {
		t.Errorf("newest sample total = %d, want %d", got, total)
	}
	// Chronological order throughout.
	for i := 1; i < len(all); i++ {
		if all[i].WallMs < all[i-1].WallMs {
			t.Fatalf("samples out of order at %d", i)
		}
	}
	// Each coarse sample merges coarseFactor one-increment intervals, so
	// every increment is retained except the two merged samples the
	// coarse ring evicted.
	var deltaSum int64
	for i, s := range all {
		want := int64(1)
		if i < coarseCapacity {
			want = coarseFactor
		}
		if got := s.Counters["n"].Delta; got != want {
			t.Fatalf("sample %d delta = %d, want %d", i, got, want)
		}
		deltaSum += s.Counters["n"].Delta
	}
	if want := int64(total - 2*coarseFactor); deltaSum != want {
		t.Errorf("retained deltas sum to %d, want %d", deltaSum, want)
	}
}

func TestDownsampledHistogramMergeExact(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat")
	r := New(reg, 0)
	prime(r)

	// The first coarseFactor intervals merge into one coarse sample: one
	// fast-only interval, one slow-only interval, then idle ones.
	h.Observe(0.001)
	r.Record()
	h.Observe(1.0)
	r.Record()
	for i := 2; i < coarseFactor; i++ {
		r.Record()
	}
	// A full fine ring more pushes all of them out of the fine ring.
	for i := 0; i < fineCapacity; i++ {
		r.Record()
	}

	all := r.Samples(time.Time{})
	var merged *HistogramSample
	for i := range all {
		if hs, ok := all[i].Histograms["lat"]; ok && hs.Delta == 2 {
			merged = &hs
		}
	}
	if merged == nil {
		t.Fatalf("no merged sample with both observations found in %d samples", len(all))
	}
	// The merged distribution holds one fast and one slow sample: p50
	// sits at the fast edge, p99 at the slow edge.
	if merged.P50 > 0.01 {
		t.Errorf("merged p50 = %v, want fast-bucket edge", merged.P50)
	}
	if merged.P99 < 0.5 {
		t.Errorf("merged p99 = %v, want slow-bucket edge", merged.P99)
	}
	if merged.Sum < 1.0 || merged.Sum > 1.01 {
		t.Errorf("merged sum = %v, want ~1.001", merged.Sum)
	}
}

func TestSubscribeReceivesSamples(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("n")
	r := New(reg, 0)
	prime(r)

	ch, cancel := r.Subscribe(4)
	defer cancel()
	c.Inc()
	r.Record()
	select {
	case s := <-ch:
		if s.Counters["n"].Delta != 1 {
			t.Errorf("subscriber sample delta = %d, want 1", s.Counters["n"].Delta)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber never received the sample")
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Error("channel still open after cancel")
	}
}

func TestStartStopBackgroundSampler(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("n").Inc()
	r := New(reg, 5*time.Millisecond)
	r.Start()
	defer r.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(r.Samples(time.Time{})) >= 2 {
			r.Stop()
			n := len(r.Samples(time.Time{}))
			time.Sleep(20 * time.Millisecond)
			if got := len(r.Samples(time.Time{})); got != n {
				t.Fatalf("sampler still recording after Stop: %d -> %d", n, got)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("background sampler produced no samples")
}

func TestWriteJSONWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("n").Add(3)
	r := New(reg, 250*time.Millisecond)
	prime(r)
	r.Record()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var w Window
	if err := json.Unmarshal(buf.Bytes(), &w); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if w.IntervalMs != 250 {
		t.Errorf("intervalMs = %d, want 250", w.IntervalMs)
	}
	if len(w.Samples) != 1 || w.Samples[0].Counters["n"].Total != 3 {
		t.Errorf("exported window = %+v, want one sample with total 3", w)
	}

	// A since cutoff in the future excludes everything.
	buf.Reset()
	if err := r.WriteJSON(&buf, time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &w); err != nil {
		t.Fatal(err)
	}
	if len(w.Samples) != 0 {
		t.Errorf("future-since window has %d samples, want 0", len(w.Samples))
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Start()
	r.Stop()
	r.Record()
	if s := r.Samples(time.Time{}); s != nil {
		t.Errorf("nil recorder Samples = %v", s)
	}
	ch, cancel := r.Subscribe(1)
	cancel()
	if _, ok := <-ch; ok {
		t.Error("nil recorder subscription channel not closed")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var w Window
	if err := json.Unmarshal(buf.Bytes(), &w); err != nil {
		t.Fatalf("nil recorder export invalid: %v", err)
	}
	if New(nil, 0) != nil {
		t.Error("New(nil) should return nil")
	}
}

func TestFineWindowing(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Scope("t").Counter("ticks")
	r := New(reg, 0)
	prime(r)
	for i := 0; i < 5; i++ {
		c.Inc()
		r.Record()
	}
	if got := len(r.Fine(3)); got != 3 {
		t.Fatalf("Fine(3) returned %d samples, want 3", got)
	}
	if got := len(r.Fine(100)); got != 5 {
		t.Fatalf("Fine(100) returned %d samples, want all 5", got)
	}
	// Oldest first: the last sample must be the most recent (highest total).
	win := r.Fine(2)
	if win[1].Counters["t.ticks"].Total != 5 {
		t.Errorf("Fine window not oldest-first: %+v", win)
	}
	if r.Fine(0) != nil {
		t.Error("Fine(0) should be nil")
	}
	var nilRec *Recorder
	if nilRec.Fine(3) != nil {
		t.Error("nil recorder Fine should be nil")
	}
}

func TestHistogramBucketDelta(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Scope("t").Histogram("lat")
	r := New(reg, 0)
	prime(r)
	h.Observe(0.5) // one observation in a known value range
	s := r.Record()
	buckets := s.HistogramBucketDelta("t.lat")
	if buckets == nil {
		t.Fatal("HistogramBucketDelta returned nil for a live histogram")
	}
	var total int64
	var under, over int64
	for i, n := range buckets {
		total += n
		if telemetry.BucketUpperBound(i) <= 1.0 {
			under += n
		} else {
			over += n
		}
	}
	if total != 1 || under != 1 || over != 0 {
		t.Errorf("bucket deltas total=%d under(1s)=%d over=%d, want 1/1/0", total, under, over)
	}
	if s.HistogramBucketDelta("t.missing") != nil {
		t.Error("unknown histogram should yield nil deltas")
	}
	// The next interval saw nothing: deltas must all be zero.
	s2 := r.Record()
	for i, n := range s2.HistogramBucketDelta("t.lat") {
		if n != 0 {
			t.Errorf("idle interval bucket %d delta = %d, want 0", i, n)
		}
	}
}
