package sim

import (
	"context"
	"time"

	"kodan/internal/telemetry"
	"kodan/internal/telemetry/events"
)

// DrainStats summarizes a store-and-forward drain of deferred bits
// through the constellation's granted contact schedule (DrainDeferredCtx).
// All bit totals are for the whole constellation over the simulated span.
type DrainStats struct {
	// DeliveredBits is the total backlog drained to the ground.
	DeliveredBits float64
	// DroppedBits is the backlog lost to on-board buffer overflow.
	DroppedBits float64
	// ResidualBits is the backlog still buffered when the span ends.
	ResidualBits float64
	// MeanLatency is the delivered-bit-weighted capture-to-delivery
	// latency; zero when nothing was delivered.
	MeanLatency time.Duration
	// MaxLatency is the largest capture-to-delivery latency of any fully
	// delivered frame's backlog.
	MaxLatency time.Duration
	// PeakBufferBits is the largest single-satellite buffer occupancy.
	PeakBufferBits float64
}

// DrainDeferredCtx replays the capture schedule against the granted
// contact windows as a store-and-forward queue: every capture enqueues
// bitsPerFrame of deferred backlog on its satellite, and each satellite
// drains its queue FIFO at the radio's nominal rate whenever it holds a
// grant. bufferBits caps the per-satellite backlog (tail-drop: the
// overflowing part of an incoming frame is lost); zero or negative means
// unbounded. This is the accounting behind the hybrid execution planner's
// defer-to-ground disposition (internal/planner): deferred bits ride
// later contact windows, and their end-to-end latency is the queueing
// delay this replay measures.
//
// The drain is a pure function of the finished Result — deterministic,
// independent of worker count, and free of any effect on the simulation
// itself. Latency is charged at the instant a drained portion finishes
// transmitting. Link-fade derates are not replayed here; faulted runs
// already expose their capacity loss through DownlinkBits/FrameCapacity,
// which is what planning consumes.
//
// The first drain converts the Result's capture and grant times to
// seconds and keeps them for every later drain, so a Result is read-only
// once drained: edits to Captures, Grants or Config.Epoch after that are
// not seen. Concurrent drains of one Result are safe.
//
// When ctx carries a mission event journal, the replay is journaled in
// sim time: one defer_enqueue per admitted frame, one defer_overflow per
// tail-drop, one defer_drain per fully delivered chunk (Value = latency
// seconds), and one buffer_highwater per satellite at the instant its
// peak occupancy was set. When ctx carries a telemetry probe, the replay
// publishes sim.drain.delivered_bits / dropped_bits / residual_bits
// counters, a sim.drain.peak_buffer_bits gauge, and a
// sim.drain.delivery_latency_seconds histogram. Neither changes the
// returned stats.
func (r *Result) DrainDeferredCtx(ctx context.Context, bitsPerFrame, bufferBits float64) DrainStats {
	var s DrainStats
	if bitsPerFrame <= 0 || r.Config.Radio.RateBps <= 0 {
		return s
	}
	j := events.JournalFrom(ctx)
	scope := telemetry.ProbeFrom(ctx).Metrics.Scope("sim.drain")
	latencyHist := scope.Histogram("delivery_latency_seconds")
	rate := r.Config.Radio.RateBps
	epoch := r.Config.Epoch
	spanEnd := r.Config.Span.Seconds()
	times := r.times()

	type chunk struct{ t, bits float64 }
	queue := make([]chunk, 0, times.maxCaptures)
	var latBitSeconds float64
	for sat, caps := range times.captures {
		sat := sat
		queue = queue[:0]
		qi := 0
		backlog := 0.0
		ci := 0
		satPeak, satPeakT := 0.0, 0.0
		// admit enqueues every capture up to now, applying the buffer cap.
		admit := func(now float64) {
			for ci < len(caps) && caps[ci] <= now {
				t := caps[ci]
				incoming := bitsPerFrame
				if bufferBits > 0 && backlog+incoming > bufferBits {
					dropped := backlog + incoming - bufferBits
					s.DroppedBits += dropped
					incoming = bufferBits - backlog
					if j.Active() {
						j.Emit(events.Event{
							SimNs: simNs(epoch, t), Type: events.DeferOverflow,
							Sat: sat, Value: dropped,
						})
					}
				}
				if incoming > 0 {
					queue = append(queue, chunk{t: t, bits: incoming})
					backlog += incoming
					if backlog > s.PeakBufferBits {
						s.PeakBufferBits = backlog
					}
					if backlog > satPeak {
						satPeak = backlog
						satPeakT = t
					}
					if j.Active() {
						j.Emit(events.Event{
							SimNs: simNs(epoch, t), Type: events.DeferEnqueue,
							Sat: sat, Value: incoming,
						})
					}
				}
				ci++
			}
		}
		for _, g := range times.grants[sat] {
			t := g[0]
			admit(t)
			for t < g[1] {
				if qi >= len(queue) {
					// Idle: jump to the next capture inside the grant.
					if ci >= len(caps) || caps[ci] >= g[1] {
						break
					}
					t = caps[ci]
					admit(t)
					continue
				}
				// Drain until the next capture arrives or the grant ends.
				segEnd := g[1]
				if ci < len(caps) {
					if ct := caps[ci]; ct > t && ct < segEnd {
						segEnd = ct
					}
				}
				for qi < len(queue) && t < segEnd {
					c := &queue[qi]
					d := (segEnd - t) * rate
					if d > c.bits {
						d = c.bits
					}
					t += d / rate
					c.bits -= d
					backlog -= d
					s.DeliveredBits += d
					lat := t - c.t
					latBitSeconds += d * lat
					if c.bits == 0 {
						qi++
						if l := time.Duration(lat * float64(time.Second)); l > s.MaxLatency {
							s.MaxLatency = l
						}
						latencyHist.Observe(lat)
						if j.Active() {
							j.Emit(events.Event{
								SimNs: simNs(epoch, t), Type: events.DeferDrain,
								Sat: sat, Value: lat,
							})
						}
					}
				}
				admit(t)
			}
		}
		// Captures after the last grant still occupy (and can overflow)
		// the buffer before the span ends.
		admit(spanEnd)
		s.ResidualBits += backlog
		if j.Active() && satPeak > 0 {
			j.Emit(events.Event{
				SimNs: simNs(epoch, satPeakT), Type: events.BufferHighWater,
				Sat: sat, Value: satPeak,
			})
		}
	}
	if s.DeliveredBits > 0 {
		s.MeanLatency = time.Duration(latBitSeconds / s.DeliveredBits * float64(time.Second))
	}
	scope.Counter("delivered_bits").Add(int64(s.DeliveredBits))
	scope.Counter("dropped_bits").Add(int64(s.DroppedBits))
	scope.Counter("residual_bits").Add(int64(s.ResidualBits))
	scope.Gauge("peak_buffer_bits").Set(int64(s.PeakBufferBits))
	return s
}

// drainTimes is a Result's capture and grant instants as seconds since the
// epoch, per satellite: the only time values the drain reads, converted
// once per Result instead of once per drain and comparison.
type drainTimes struct {
	// captures[sat] holds the satellite's capture instants in time order.
	captures [][]float64
	// grants[sat] holds the satellite's [start, end) grant intervals in
	// the allocator's time order; grants naming no satellite are dropped.
	grants [][][2]float64
	// maxCaptures is the longest capture list, the FIFO's capacity.
	maxCaptures int
}

// times returns the Result's converted drain times, building them on
// first use. Concurrent first drains may both build; one copy wins, and
// every caller reads identical values.
func (r *Result) times() *drainTimes {
	if t := r.drainCache.Load(); t != nil {
		return t
	}
	epoch := r.Config.Epoch
	sec := func(t time.Time) float64 { return t.Sub(epoch).Seconds() }
	t := &drainTimes{
		captures: make([][]float64, len(r.Captures)),
		grants:   make([][][2]float64, len(r.Captures)),
	}
	for sat, caps := range r.Captures {
		secs := make([]float64, len(caps))
		for i, c := range caps {
			secs[i] = sec(c.Time)
		}
		t.captures[sat] = secs
		t.maxCaptures = max(t.maxCaptures, len(caps))
	}
	for _, g := range r.Grants {
		if g.Sat < 0 || g.Sat >= len(t.grants) {
			continue
		}
		t.grants[g.Sat] = append(t.grants[g.Sat], [2]float64{sec(g.Start), sec(g.End())})
	}
	if !r.drainCache.CompareAndSwap(nil, t) {
		return r.drainCache.Load()
	}
	return t
}
