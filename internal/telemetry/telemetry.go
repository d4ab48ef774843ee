// Package telemetry is the repository's cross-cutting observability
// layer: an atomic counter/gauge/histogram registry with named scopes, a
// span tracer that records parent-linked begin/end events exportable as
// JSONL, and context plumbing that threads both through the hot paths —
// the constellation simulator, the transformation engine, the parallel
// evaluation substrate, the experiments lab, and the serving layer.
//
// Two design rules govern everything here:
//
//   - Nil is the no-op. Every method on a nil *Registry, *Scope,
//     *Counter, *Gauge, *Histogram, *Tracer, or *Span is safe and does
//     nothing, so instrumented code never branches on "is telemetry on"
//     and uninstrumented callers pay only a nil check (the sim overhead
//     benchmark holds the disabled path under 2%).
//
//   - Telemetry never feeds back into results. Instrumentation records
//     what computations did; it is forbidden from influencing them, which
//     is what keeps figure outputs byte-identical with tracing on or off
//     and at every worker count (the determinism suite enforces this).
//
// The package is stdlib-only, like the rest of the reproduction.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Load returns the current count (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. workers currently busy).
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bumpMax(v)
}

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.bumpMax(g.v.Add(delta))
}

// bumpMax lifts the high-water mark to at least v.
func (g *Gauge) bumpMax(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark since creation (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram accumulates a distribution of non-negative float64 samples
// (durations in seconds, sizes, counts) into exponential buckets:
// bucket i holds samples in [histBase*2^(i-1), histBase*2^i), with bucket
// 0 catching everything below histBase. All updates are atomic; there is
// no lock on the record path.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	// minBits stores float64 bits + 1 so that 0 can mean "no sample yet"
	// without colliding with a legitimate 0.0 minimum (whose bits are 0).
	minBits atomic.Uint64
	maxBits atomic.Uint64 // float64 bits; 0 (= 0.0) is the identity for non-negative samples
}

const (
	// histBase is the upper bound of the first bucket: 1 microsecond when
	// observing seconds.
	histBase = 1e-6
	// histBuckets at doubling widths covers histBase .. ~1.1e6 seconds.
	histBuckets = 41
)

// bucketIndex maps a sample to its bucket.
func bucketIndex(v float64) int {
	if v < histBase {
		return 0
	}
	i := int(math.Log2(v/histBase)) + 1
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketUpper returns bucket i's exclusive upper bound (the last bucket
// is unbounded and reports +Inf).
func bucketUpper(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return histBase * math.Pow(2, float64(i))
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		cur := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(cur, math.Float64bits(math.Float64frombits(cur)+v)) {
			break
		}
	}
	for {
		cur := h.minBits.Load()
		if cur != 0 && math.Float64frombits(cur-1) <= v {
			break
		}
		if h.minBits.CompareAndSwap(cur, math.Float64bits(v)+1) {
			break
		}
	}
	for {
		cur := h.maxBits.Load()
		if math.Float64frombits(cur) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of recorded samples (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of recorded samples (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile returns an upper bound on the q-th quantile (0 <= q <= 1) from
// the bucket boundaries: the tightest bucket upper edge at or above the
// nearest-rank sample. 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == histBuckets-1 {
				return math.Float64frombits(h.maxBits.Load())
			}
			return bucketUpper(i)
		}
	}
	return math.Float64frombits(h.maxBits.Load())
}

// BucketCounts returns a copy of the cumulative per-bucket sample counts
// (nil on a nil histogram). Bucket i's exclusive upper bound is
// BucketUpperBound(i); differential consumers (the flight recorder)
// subtract consecutive snapshots to get the distribution of just the
// samples that arrived in between.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, histBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketUpperBound returns bucket i's exclusive upper bound (the last
// bucket is unbounded and reports +Inf).
func BucketUpperBound(i int) float64 { return bucketUpper(i) }

// QuantileOver returns an upper bound on the q-th quantile of an
// arbitrary bucket-count vector laid out like Histogram's buckets (e.g. a
// delta between two BucketCounts calls). 0 when the vector is empty. The
// last bucket has no finite upper edge, so samples landing there report
// its lower bound — callers tracking rolling quantiles accept the
// coarser answer in exchange for never holding raw samples.
func QuantileOver(buckets []int64, q float64) float64 {
	var n int64
	for _, b := range buckets {
		n += b
	}
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, b := range buckets {
		seen += b
		if seen >= rank {
			if i == len(buckets)-1 {
				return histBase * math.Pow(2, float64(i-1))
			}
			return bucketUpper(i)
		}
	}
	return 0
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot exports the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.Sum(),
		Max:   math.Float64frombits(h.maxBits.Load()),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if mb := h.minBits.Load(); mb != 0 {
		s.Min = math.Float64frombits(mb - 1)
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	return s
}

// Registry holds named counters, gauges, and histograms. Lookups are
// mutex-guarded and intended to happen once per operation (hold the
// returned pointer in hot loops); the metric update paths themselves are
// lock-free atomics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating if absent) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if absent) the named gauge; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if absent) the named histogram; nil on a
// nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Scope returns a named scope: metric names created through it are
// prefixed "name.". Nil-safe: a nil registry yields a nil scope whose
// metrics are nil no-ops.
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, prefix: name + "."}
}

// Scope is a name-prefixed view of a registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns a nested scope: metric names created through it carry both
// prefixes ("parent.child."). Nil-safe like Registry.Scope.
func (s *Scope) Scope(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{r: s.r, prefix: s.prefix + name + "."}
}

// Counter returns the scoped counter (nil on a nil scope).
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.r.Counter(s.prefix + name)
}

// Gauge returns the scoped gauge (nil on a nil scope).
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.r.Gauge(s.prefix + name)
}

// Histogram returns the scoped histogram (nil on a nil scope).
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.r.Histogram(s.prefix + name)
}

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// RegistrySnapshot is the full exported state of a registry, with
// deterministic (sorted) iteration order when marshaled by encoding/json.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports every metric (zero snapshot on nil).
func (r *Registry) Snapshot() RegistrySnapshot {
	var snap RegistrySnapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]GaugeSnapshot, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = GaugeSnapshot{Value: g.Load(), Max: g.Max()}
		}
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			snap.Histograms[name] = h.Snapshot()
		}
	}
	return snap
}

// HistogramState is a histogram's raw cumulative state, for differential
// consumers (the flight recorder) that compute per-interval deltas.
type HistogramState struct {
	Count   int64
	Sum     float64
	Max     float64
	Buckets []int64
}

// RegistryState is a deep sample of every metric's raw cumulative state.
// Unlike RegistrySnapshot (which pre-computes quantiles for human-facing
// export) it carries histogram bucket counts so two states can be
// subtracted to recover the distribution of an interval.
type RegistryState struct {
	Counters   map[string]int64
	Gauges     map[string]GaugeSnapshot
	Histograms map[string]HistogramState
}

// State exports the raw cumulative state of every metric (zero state on
// nil).
func (r *Registry) State() RegistryState {
	var st RegistryState
	if r == nil {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st.Counters = make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		st.Counters[name] = c.Load()
	}
	st.Gauges = make(map[string]GaugeSnapshot, len(r.gauges))
	for name, g := range r.gauges {
		st.Gauges[name] = GaugeSnapshot{Value: g.Load(), Max: g.Max()}
	}
	st.Histograms = make(map[string]HistogramState, len(r.histograms))
	for name, h := range r.histograms {
		st.Histograms[name] = HistogramState{
			Count:   h.Count(),
			Sum:     h.Sum(),
			Max:     math.Float64frombits(h.maxBits.Load()),
			Buckets: h.BucketCounts(),
		}
	}
	return st
}
