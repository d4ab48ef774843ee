package sim

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"kodan/internal/fault"
	"kodan/internal/link"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/events"
	"kodan/internal/xrand"
)

// refDrainDeferred is DrainDeferredCtx before the capture and grant times
// were converted once per Result: every comparison converts its
// time.Time, and each satellite grows its own FIFO. It is the oracle the
// production drain must match exactly, stats and journal alike.
func refDrainDeferred(ctx context.Context, r *Result, bitsPerFrame, bufferBits float64) DrainStats {
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
	sec := func(t time.Time) float64 { return t.Sub(epoch).Seconds() }

	satGrants := make([][][2]float64, len(r.Captures))
	for _, g := range r.Grants {
		if g.Sat < 0 || g.Sat >= len(satGrants) {
			continue
		}
		satGrants[g.Sat] = append(satGrants[g.Sat],
			[2]float64{sec(g.Start), sec(g.End())})
	}

	var latBitSeconds float64
	for sat, caps := range r.Captures {
		sat := sat
		type chunk struct{ t, bits float64 }
		var queue []chunk
		qi := 0
		backlog := 0.0
		ci := 0
		satPeak, satPeakT := 0.0, 0.0
		admit := func(now float64) {
			for ci < len(caps) && sec(caps[ci].Time) <= now {
				t := sec(caps[ci].Time)
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
		for _, g := range satGrants[sat] {
			t := g[0]
			admit(t)
			for t < g[1] {
				if qi >= len(queue) {
					if ci >= len(caps) || sec(caps[ci].Time) >= g[1] {
						break
					}
					t = sec(caps[ci].Time)
					admit(t)
					continue
				}
				segEnd := g[1]
				if ci < len(caps) {
					if ct := sec(caps[ci].Time); ct > t && ct < segEnd {
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

// journaledDrain runs drain with a fresh journal attached and returns the
// stats and the journal's JSONL bytes.
func journaledDrain(t *testing.T, drain func(context.Context) DrainStats) (DrainStats, []byte) {
	t.Helper()
	j := events.NewJournal()
	s := drain(events.WithJournal(context.Background(), j))
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// checkDrainMatches drains res through the production path and the
// oracle at each (bits per frame, buffer) pair and requires identical
// stats and byte-identical journals.
func checkDrainMatches(t *testing.T, name string, res *Result, loads [][2]float64) {
	t.Helper()
	for _, l := range loads {
		got, gotJ := journaledDrain(t, func(ctx context.Context) DrainStats {
			return res.DrainDeferredCtx(ctx, l[0], l[1])
		})
		want, wantJ := journaledDrain(t, func(ctx context.Context) DrainStats {
			return refDrainDeferred(ctx, res, l[0], l[1])
		})
		if got != want {
			t.Fatalf("%s, load %v: stats %+v, reference %+v", name, l, got, want)
		}
		if !bytes.Equal(gotJ, wantJ) {
			t.Fatalf("%s, load %v: journal differs from the reference (%d vs %d bytes)",
				name, l, len(gotJ), len(wantJ))
		}
	}
}

// randomDrainResult builds a hand-rolled Result: 1-4 satellites with
// sorted random captures, and grants (some naming no satellite, some
// overlapping captures) in allocator time order.
func randomDrainResult(rng *xrand.Rand) *Result {
	sats := 1 + rng.Intn(4)
	caps := make([][]float64, sats)
	for sat := range caps {
		for n := rng.Intn(40); n > 0; n-- {
			caps[sat] = append(caps[sat], float64(rng.Intn(3600))+rng.Float64())
		}
		sort.Float64s(caps[sat])
	}
	var grants []link.Grant
	for n := rng.Intn(30); n > 0; n-- {
		grants = append(grants, link.Grant{
			Sat:   rng.Intn(sats+2) - 1,
			Start: epoch.Add(time.Duration(rng.Float64() * float64(time.Hour))),
			Dur:   time.Duration(rng.Range(1, 120) * float64(time.Second)),
		})
	}
	sort.Slice(grants, func(a, b int) bool { return grants[a].Start.Before(grants[b].Start) })
	return drainResult(caps, grants)
}

func TestDrainDeferredMatchesReferenceRandom(t *testing.T) {
	rng := xrand.New(53)
	for trial := 0; trial < 400; trial++ {
		res := randomDrainResult(rng)
		var loads [][2]float64
		for n := 0; n < 4; n++ {
			buffer := 0.0
			if rng.Intn(3) > 0 {
				buffer = rng.Range(1, 400)
			}
			loads = append(loads, [2]float64{rng.Range(1, 200), buffer})
		}
		checkDrainMatches(t, "random result", res, loads)
	}
}

func TestDrainDeferredMatchesReferenceSimulated(t *testing.T) {
	cfg := Landsat8Config(epoch, 24*time.Hour, 3)
	names := make([]string, len(cfg.Stations))
	for i, s := range cfg.Stations {
		names[i] = s.Name
	}
	frame := cfg.Camera.FrameBits()
	loads := [][2]float64{{0.1 * frame, 0}, {0.3 * frame, 16 * frame}, {0.8 * frame, 64 * frame}, {frame, frame}}
	for _, intensity := range []float64{0, 1} {
		sched := fault.Generate(fault.GenConfig{
			Seed: 3, Start: epoch, Span: cfg.Span, Intensity: intensity,
			Stations: names, Sats: cfg.Satellites,
		})
		res, err := RunCtx(fault.WithInjector(t.Context(), fault.NewInjector(sched)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkDrainMatches(t, "simulated day", res, loads)
	}
}

// TestDrainDeferredConcurrent drains one Result from two goroutines at
// once, the first drains of its life; under -race this checks the lazily
// built time cache, and both must match the oracle.
func TestDrainDeferredConcurrent(t *testing.T) {
	res, err := RunCtx(t.Context(), Landsat8Config(epoch, 12*time.Hour, 2))
	if err != nil {
		t.Fatal(err)
	}
	const perFrame = 1e9
	want := refDrainDeferred(context.Background(), res, perFrame, 16*perFrame)
	var wg sync.WaitGroup
	got := make([]DrainStats, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = res.DrainDeferredCtx(context.Background(), perFrame, 16*perFrame)
		}()
	}
	wg.Wait()
	for i, s := range got {
		if s != want {
			t.Fatalf("goroutine %d: %+v, reference %+v", i, s, want)
		}
	}
}
