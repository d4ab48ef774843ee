// Package recorder is the flight recorder of the observability plane: a
// background sampler that snapshots a telemetry.Registry at a fixed
// interval into bounded ring buffers, turning the registry's cumulative
// counters, gauges, and histograms into a time series an operator can
// replay — per-interval deltas and rates for counters, last-value for
// gauges, rolling quantiles (computed from bucket-count diffs, never raw
// samples) for histograms.
//
// Memory is bounded by construction: a fine ring holds the most recent
// fineCapacity (600) samples at the base interval, and every coarseFactor
// (10) samples the fine ring evicts fold into one sample of a coarse ring
// of coarseCapacity (720), so a long-running server retains recent history
// at full resolution and older history downsampled, never growing past the
// two fixed rings.
//
// Like the rest of the telemetry layer, the recorder only observes: it
// reads registry state and is forbidden from influencing any computation,
// which keeps figure outputs byte-identical with the recorder on or off.
// All methods on a nil *Recorder are safe no-ops.
package recorder

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"kodan/internal/telemetry"
)

// Ring sizes.
const (
	// fineCapacity is the fine ring length: ten minutes of history at a
	// one-second interval.
	fineCapacity = 600
	// coarseFactor is how many evicted fine samples merge into one coarse
	// sample.
	coarseFactor = 10
	// coarseCapacity is the coarse ring length: two hours of downsampled
	// history at a one-second interval. Samples evicted from the coarse
	// ring are gone; that is the retention horizon.
	coarseCapacity = 720
)

// CounterSample is one counter's view over one sample interval.
type CounterSample struct {
	// Total is the cumulative count at sample time.
	Total int64 `json:"total"`
	// Delta is how much the counter advanced during the interval.
	Delta int64 `json:"delta"`
	// Rate is Delta per second.
	Rate float64 `json:"rate"`
}

// GaugeSample is one gauge's view at sample time (last value wins).
type GaugeSample struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistogramSample is one histogram's view over one sample interval:
// cumulative count plus the rolling statistics of just the samples that
// arrived during the interval.
type HistogramSample struct {
	Count int64   `json:"count"`
	Delta int64   `json:"delta"`
	Rate  float64 `json:"rate"`
	// Sum is the sum of the interval's samples; Mean is Sum/Delta.
	Sum  float64 `json:"sum"`
	Mean float64 `json:"mean"`
	// Rolling quantile upper bounds over the interval's samples, from
	// bucket-count diffs.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// Sample is one recorded tick of the registry.
type Sample struct {
	// WallMs is the sample timestamp in Unix milliseconds.
	WallMs int64 `json:"wallMs"`
	// DurMs is the interval the sample covers (coarse samples cover
	// several base intervals).
	DurMs      int64                      `json:"durMs"`
	Counters   map[string]CounterSample   `json:"counters,omitempty"`
	Gauges     map[string]GaugeSample     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSample `json:"histograms,omitempty"`

	// histDeltas carries the interval's per-histogram bucket diffs so
	// downsampling can merge samples exactly; it never serializes.
	histDeltas map[string][]int64
}

// ring is a fixed-capacity FIFO of samples.
type ring struct {
	buf  []Sample
	head int // index of oldest
	n    int
}

func newRing(capacity int) *ring { return &ring{buf: make([]Sample, capacity)} }

// push appends s, returning the evicted oldest sample when full.
func (r *ring) push(s Sample) (evicted Sample, wasFull bool) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = s
		r.n++
		return Sample{}, false
	}
	evicted = r.buf[r.head]
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
	return evicted, true
}

// all returns the samples oldest-first.
func (r *ring) all() []Sample {
	out := make([]Sample, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// Recorder samples a registry on a fixed interval. Create with New,
// start the background sampler with Start, stop it with Stop. Record
// takes one sample synchronously (the background loop uses it; tests and
// CLIs may call it directly without ever starting the goroutine).
type Recorder struct {
	reg      *telemetry.Registry
	interval time.Duration

	mu      sync.Mutex
	fine    *ring
	coarse  *ring
	pending []Sample // evicted fine samples awaiting a coarse merge
	prev    telemetry.RegistryState
	prevAt  time.Time
	primed  bool
	subs    map[chan Sample]struct{}

	stopCh  chan struct{}
	doneCh  chan struct{}
	started bool
}

// New returns a recorder over reg that samples every interval (default
// 1s when interval <= 0). A nil reg yields a nil recorder, whose every
// method is a no-op.
func New(reg *telemetry.Registry, interval time.Duration) *Recorder {
	if reg == nil {
		return nil
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &Recorder{
		reg:      reg,
		interval: interval,
		fine:     newRing(fineCapacity),
		coarse:   newRing(coarseCapacity),
		subs:     make(map[chan Sample]struct{}),
	}
}

// Interval returns the sampling period (0 on nil).
func (r *Recorder) Interval() time.Duration {
	if r == nil {
		return 0
	}
	return r.interval
}

// Start launches the background sampler. Extra Starts are no-ops.
func (r *Recorder) Start() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.stopCh = make(chan struct{})
	r.doneCh = make(chan struct{})
	r.mu.Unlock()

	// Prime the baseline so the first emitted sample covers one interval,
	// not process-start-to-now.
	r.prime()
	go func() {
		defer close(r.doneCh)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Record()
			case <-r.stopCh:
				return
			}
		}
	}()
}

// Stop halts the background sampler and waits for it to exit. Recorded
// history remains readable.
func (r *Recorder) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return
	}
	r.started = false
	stop, done := r.stopCh, r.doneCh
	r.mu.Unlock()
	close(stop)
	<-done
}

// prime establishes the differential baseline without emitting a sample.
func (r *Recorder) prime() {
	st := r.reg.State()
	r.mu.Lock()
	r.prev, r.prevAt, r.primed = st, time.Now(), true
	r.mu.Unlock()
}

// Record takes one sample now: the delta between the registry's current
// state and the previous sample's. The sample lands in the fine ring and
// is broadcast to subscribers. The very first Record on an unprimed
// recorder only establishes the baseline and returns a zero-duration
// sample that is not stored.
func (r *Recorder) Record() Sample {
	if r == nil {
		return Sample{}
	}
	st := r.reg.State()
	now := time.Now()

	r.mu.Lock()
	if !r.primed {
		r.prev, r.prevAt, r.primed = st, now, true
		r.mu.Unlock()
		return Sample{WallMs: now.UnixMilli()}
	}
	s := diffSample(r.prev, st, r.prevAt, now)
	r.prev, r.prevAt = st, now
	if evicted, wasFull := r.fine.push(s); wasFull {
		r.pending = append(r.pending, evicted)
		if len(r.pending) >= coarseFactor {
			r.coarse.push(mergeSamples(r.pending))
			r.pending = r.pending[:0]
		}
	}
	for ch := range r.subs {
		select {
		case ch <- s:
		default: // slow subscriber: drop rather than stall the sampler
		}
	}
	r.mu.Unlock()
	return s
}

// Subscribe registers a live feed of future samples. The returned cancel
// must be called to release the subscription; after cancel the channel is
// closed. A subscriber that falls behind misses samples (the sampler
// never blocks on it).
func (r *Recorder) Subscribe(buf int) (<-chan Sample, func()) {
	if r == nil {
		ch := make(chan Sample)
		close(ch)
		return ch, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Sample, buf)
	r.mu.Lock()
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			r.mu.Lock()
			delete(r.subs, ch)
			r.mu.Unlock()
			close(ch)
		})
	}
}

// Samples returns the retained history — coarse (older, downsampled)
// followed by fine — restricted to samples at or after since (zero since
// means everything).
func (r *Recorder) Samples(since time.Time) []Sample {
	if r == nil {
		return nil
	}
	cut := int64(0)
	if !since.IsZero() {
		cut = since.UnixMilli()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, r.coarse.n+len(r.pending)+r.fine.n)
	for _, s := range r.coarse.all() {
		if s.WallMs >= cut {
			out = append(out, s)
		}
	}
	for _, s := range r.pending {
		if s.WallMs >= cut {
			out = append(out, s)
		}
	}
	for _, s := range r.fine.all() {
		if s.WallMs >= cut {
			out = append(out, s)
		}
	}
	return out
}

// Fine returns the most recent n full-resolution samples, oldest first
// (fewer if the fine ring holds less; nil on a nil recorder or n <= 0).
// This is the windowing primitive for differential consumers — the SLO
// burn-rate engine reads its fast and slow windows from here.
func (r *Recorder) Fine(n int) []Sample {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	all := r.fine.all()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// HistogramBucketDelta returns the named histogram's per-bucket count
// deltas over this sample's interval — index i counts observations that
// fell at or under telemetry.BucketUpperBound(i). Nil when the histogram
// did not exist at sample time. The slice is shared with the recorder's
// ring; callers must treat it as read-only.
func (s Sample) HistogramBucketDelta(name string) []int64 {
	return s.histDeltas[name]
}

// Window is the JSON export of a history window.
type Window struct {
	IntervalMs int64    `json:"intervalMs"`
	Samples    []Sample `json:"samples"`
}

// WriteJSON exports the retained window at or after since as one JSON
// document.
func (r *Recorder) WriteJSON(w io.Writer, since time.Time) error {
	if r == nil {
		_, err := io.WriteString(w, `{"intervalMs":0,"samples":[]}`+"\n")
		return err
	}
	enc := json.NewEncoder(w)
	return enc.Encode(Window{
		IntervalMs: r.interval.Milliseconds(),
		Samples:    r.Samples(since),
	})
}

// diffSample computes one sample from two registry states.
func diffSample(prev, cur telemetry.RegistryState, from, to time.Time) Sample {
	durMs := to.Sub(from).Milliseconds()
	if durMs < 1 {
		durMs = 1
	}
	secs := float64(durMs) / 1000
	s := Sample{WallMs: to.UnixMilli(), DurMs: durMs}

	if len(cur.Counters) > 0 {
		s.Counters = make(map[string]CounterSample, len(cur.Counters))
		for name, total := range cur.Counters {
			delta := total - prev.Counters[name]
			if delta < 0 { // registry replaced or counter reset
				delta = total
			}
			s.Counters[name] = CounterSample{Total: total, Delta: delta, Rate: float64(delta) / secs}
		}
	}
	if len(cur.Gauges) > 0 {
		s.Gauges = make(map[string]GaugeSample, len(cur.Gauges))
		for name, g := range cur.Gauges {
			s.Gauges[name] = GaugeSample{Value: g.Value, Max: g.Max}
		}
	}
	if len(cur.Histograms) > 0 {
		s.Histograms = make(map[string]HistogramSample, len(cur.Histograms))
		s.histDeltas = make(map[string][]int64, len(cur.Histograms))
		for name, h := range cur.Histograms {
			ph := prev.Histograms[name]
			delta := h.Count - ph.Count
			sum := h.Sum - ph.Sum
			var buckets []int64
			if delta < 0 { // reset: treat the whole current state as new
				delta, sum = h.Count, h.Sum
				buckets = append([]int64(nil), h.Buckets...)
			} else {
				buckets = make([]int64, len(h.Buckets))
				for i := range h.Buckets {
					buckets[i] = h.Buckets[i]
					if i < len(ph.Buckets) {
						buckets[i] -= ph.Buckets[i]
					}
					if buckets[i] < 0 {
						buckets[i] = 0
					}
				}
			}
			hs := HistogramSample{
				Count: h.Count, Delta: delta, Rate: float64(delta) / secs, Sum: sum,
				P50: telemetry.QuantileOver(buckets, 0.50),
				P90: telemetry.QuantileOver(buckets, 0.90),
				P99: telemetry.QuantileOver(buckets, 0.99),
			}
			if delta > 0 {
				hs.Mean = sum / float64(delta)
			}
			s.Histograms[name] = hs
			s.histDeltas[name] = buckets
		}
	}
	return s
}

// mergeSamples folds several consecutive samples into one coarse sample
// covering their combined interval. Counter deltas add; gauges keep the
// last value and the max of maxes; histogram bucket diffs add and the
// quantiles are recomputed over the merged distribution — exact, because
// the per-sample bucket diffs were retained.
func mergeSamples(in []Sample) Sample {
	if len(in) == 0 {
		return Sample{}
	}
	last := in[len(in)-1]
	out := Sample{WallMs: last.WallMs}
	for _, s := range in {
		out.DurMs += s.DurMs
	}
	secs := float64(out.DurMs) / 1000
	if secs <= 0 {
		secs = 1e-3
	}

	if len(last.Counters) > 0 {
		out.Counters = make(map[string]CounterSample, len(last.Counters))
		for name, c := range last.Counters {
			var delta int64
			for _, s := range in {
				delta += s.Counters[name].Delta
			}
			out.Counters[name] = CounterSample{Total: c.Total, Delta: delta, Rate: float64(delta) / secs}
		}
	}
	if len(last.Gauges) > 0 {
		out.Gauges = make(map[string]GaugeSample, len(last.Gauges))
		for name, g := range last.Gauges {
			max := g.Max
			for _, s := range in {
				if sg, ok := s.Gauges[name]; ok && sg.Max > max {
					max = sg.Max
				}
			}
			out.Gauges[name] = GaugeSample{Value: g.Value, Max: max}
		}
	}
	if len(last.Histograms) > 0 {
		out.Histograms = make(map[string]HistogramSample, len(last.Histograms))
		out.histDeltas = make(map[string][]int64, len(last.Histograms))
		for name, h := range last.Histograms {
			var delta int64
			var sum float64
			var buckets []int64
			for _, s := range in {
				hs, ok := s.Histograms[name]
				if !ok {
					continue
				}
				delta += hs.Delta
				sum += hs.Sum
				for i, b := range s.histDeltas[name] {
					if i >= len(buckets) {
						buckets = append(buckets, make([]int64, i+1-len(buckets))...)
					}
					buckets[i] += b
				}
			}
			hs := HistogramSample{
				Count: h.Count, Delta: delta, Rate: float64(delta) / secs, Sum: sum,
				P50: telemetry.QuantileOver(buckets, 0.50),
				P90: telemetry.QuantileOver(buckets, 0.90),
				P99: telemetry.QuantileOver(buckets, 0.99),
			}
			if delta > 0 {
				hs.Mean = sum / float64(delta)
			}
			out.Histograms[name] = hs
			out.histDeltas[name] = buckets
		}
	}
	return out
}
