package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"kodan/internal/fault"
	"kodan/internal/link"
	"kodan/internal/sense"
)

// drainResult builds a hand-rolled Result for the store-and-forward drain:
// one or more satellites, explicit capture times (seconds from epoch), and
// explicit grants, with a 10 bit/s radio so the arithmetic stays readable.
func drainResult(capSecs [][]float64, grants []link.Grant) *Result {
	res := &Result{Config: Config{
		Epoch: epoch,
		Span:  time.Hour,
		Radio: link.Radio{RateBps: 10},
	}}
	res.Captures = make([][]sense.Capture, len(capSecs))
	for sat, secs := range capSecs {
		for _, s := range secs {
			res.Captures[sat] = append(res.Captures[sat], sense.Capture{
				Time: epoch.Add(time.Duration(s * float64(time.Second))),
				Sat:  sat,
			})
		}
	}
	res.Grants = grants
	return res
}

func TestDrainDeferredSingleChunk(t *testing.T) {
	// One 50-bit backlog captured at t=0, one grant [10s, 20s) at 10 b/s:
	// delivery finishes at t=15, so latency is exactly 15 s.
	res := drainResult([][]float64{{0}}, []link.Grant{
		{Sat: 0, Start: epoch.Add(10 * time.Second), Dur: 10 * time.Second},
	})
	s := res.DrainDeferredCtx(t.Context(), 50, 0)
	if s.DeliveredBits != 50 || s.DroppedBits != 0 || s.ResidualBits != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeanLatency != 15*time.Second || s.MaxLatency != 15*time.Second {
		t.Fatalf("latency = %v / %v, want 15s", s.MeanLatency, s.MaxLatency)
	}
	if s.PeakBufferBits != 50 {
		t.Fatalf("peak buffer = %v", s.PeakBufferBits)
	}
}

func TestDrainDeferredWaitsForContact(t *testing.T) {
	// Backlog captured after the first grant must wait for the second:
	// deferred bits are accounted against later contact windows.
	res := drainResult([][]float64{{30}}, []link.Grant{
		{Sat: 0, Start: epoch.Add(10 * time.Second), Dur: 10 * time.Second},
		{Sat: 0, Start: epoch.Add(100 * time.Second), Dur: 10 * time.Second},
	})
	s := res.DrainDeferredCtx(t.Context(), 40, 0)
	if s.DeliveredBits != 40 {
		t.Fatalf("delivered = %v", s.DeliveredBits)
	}
	// Drain starts at t=100, 40 bits at 10 b/s finish at t=104: 74 s after
	// the t=30 capture.
	if s.MaxLatency != 74*time.Second {
		t.Fatalf("max latency = %v, want 74s", s.MaxLatency)
	}
}

func TestDrainDeferredMidGrantCapture(t *testing.T) {
	// A capture arriving while its satellite is being served drains in the
	// same grant, after the earlier backlog (FIFO).
	res := drainResult([][]float64{{0, 15}}, []link.Grant{
		{Sat: 0, Start: epoch.Add(10 * time.Second), Dur: 20 * time.Second},
	})
	s := res.DrainDeferredCtx(t.Context(), 60, 0)
	// Chunk 1 drains t=10..16, split by the t=15 arrival into a 50-bit
	// portion done at t=15 (latency 15 s) and a 10-bit portion done at
	// t=16 (latency 16 s); chunk 2 drains t=16..22 (latency 7 s). Mean =
	// (50*15 + 10*16 + 60*7) / 120 s.
	if s.DeliveredBits != 120 || s.ResidualBits != 0 {
		t.Fatalf("stats = %+v", s)
	}
	want := (50*15.0 + 10*16 + 60*7) / 120
	if math.Abs(s.MeanLatency.Seconds()-want) > 1e-6 {
		t.Fatalf("mean latency = %v, want %.6fs", s.MeanLatency, want)
	}
	if s.MaxLatency != 16*time.Second {
		t.Fatalf("max latency = %v, want 16s", s.MaxLatency)
	}
}

func TestDrainDeferredBufferOverflow(t *testing.T) {
	// A 70-bit buffer tail-drops the overflowing part of the second frame,
	// including frames captured after the last grant.
	res := drainResult([][]float64{{0, 1, 2000}}, []link.Grant{
		{Sat: 0, Start: epoch.Add(10 * time.Second), Dur: 100 * time.Second},
	})
	s := res.DrainDeferredCtx(t.Context(), 50, 70)
	// t=0: +50 (backlog 50). t=1: +20 admitted, 30 dropped (cap 70). The
	// grant drains all 70. t=2000 (after the grant): +50 buffered, held to
	// span end as residual.
	if s.DeliveredBits != 70 || s.DroppedBits != 30 || s.ResidualBits != 50 {
		t.Fatalf("stats = %+v", s)
	}
	if s.PeakBufferBits != 70 {
		t.Fatalf("peak buffer = %v", s.PeakBufferBits)
	}
}

func TestDrainDeferredPerSatelliteQueues(t *testing.T) {
	// Queues are per satellite: sat 1's backlog never drains through sat
	// 0's grant.
	res := drainResult([][]float64{{0}, {0}}, []link.Grant{
		{Sat: 0, Start: epoch.Add(10 * time.Second), Dur: 10 * time.Second},
	})
	s := res.DrainDeferredCtx(t.Context(), 50, 0)
	if s.DeliveredBits != 50 || s.ResidualBits != 50 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDrainDeferredConservesBits(t *testing.T) {
	// On a real simulated day, delivered + dropped + residual must equal
	// the bits captured, and the drain must be deterministic.
	res, err := RunCtx(t.Context(), Landsat8Config(epoch, 6*time.Hour, 2))
	if err != nil {
		t.Fatal(err)
	}
	const perFrame = 1e9
	s := res.DrainDeferredCtx(t.Context(), perFrame, 64*perFrame)
	checkBitsConserved(t, "clean day", res, perFrame, s)
	if s.DeliveredBits <= 0 {
		t.Fatal("nothing delivered on a day with contacts")
	}
	if s.MeanLatency <= 0 || s.MaxLatency < s.MeanLatency {
		t.Fatalf("latency = %v / %v", s.MeanLatency, s.MaxLatency)
	}
	if s2 := res.DrainDeferredCtx(t.Context(), perFrame, 64*perFrame); s2 != s {
		t.Fatalf("drain not deterministic: %+v vs %+v", s, s2)
	}
}

// checkBitsConserved fails the test unless the drain accounts for every
// captured bit: delivered + dropped + residual = captures × bitsPerFrame,
// with no term negative.
func checkBitsConserved(t *testing.T, label string, res *Result, bitsPerFrame float64, s DrainStats) {
	t.Helper()
	total := float64(res.FramesObserved()) * bitsPerFrame
	if s.DeliveredBits < 0 || s.DroppedBits < 0 || s.ResidualBits < 0 {
		t.Errorf("%s: negative term in %+v", label, s)
	}
	if got := s.DeliveredBits + s.DroppedBits + s.ResidualBits; math.Abs(got-total) > 1e-9*total {
		t.Errorf("%s: delivered %v + dropped %v + residual %v = %v, want captures x bits/frame = %v",
			label, s.DeliveredBits, s.DroppedBits, s.ResidualBits, got, total)
	}
}

// TestBitsConservedAcrossFaultsAndWorkers runs the conservation check over
// fault intensity x fault seed x worker count x buffer size on real
// simulated runs, and requires each drain to be identical at every worker
// count.
func TestBitsConservedAcrossFaultsAndWorkers(t *testing.T) {
	const (
		span     = 6 * time.Hour
		sats     = 2
		perFrame = 1e9
	)
	cfg := Landsat8Config(epoch, span, sats)
	stations := make([]string, len(cfg.Stations))
	for i, st := range cfg.Stations {
		stations[i] = st.Name
	}
	for _, intensity := range []float64{0, 0.5, 1} {
		for _, seed := range []uint64{1, 2} {
			inj := fault.NewInjector(fault.Generate(fault.GenConfig{
				Seed: seed, Start: epoch, Span: span, Intensity: intensity,
				Stations: stations, Sats: sats,
			}))
			var base []DrainStats
			for _, workers := range []int{1, 4} {
				cfg.Workers = workers
				res, err := RunCtx(fault.WithInjector(t.Context(), inj), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var drains []DrainStats
				for _, buffer := range []float64{0, 8, 64} {
					s := res.DrainDeferredCtx(t.Context(), perFrame, buffer*perFrame)
					label := fmt.Sprintf("intensity %g seed %d workers %d buffer %g", intensity, seed, workers, buffer)
					checkBitsConserved(t, label, res, perFrame, s)
					drains = append(drains, s)
				}
				if base == nil {
					base = drains
					continue
				}
				for i := range drains {
					if drains[i] != base[i] {
						t.Errorf("intensity %g seed %d buffer #%d: drain at workers %d %+v != workers 1 %+v",
							intensity, seed, i, workers, drains[i], base[i])
					}
				}
			}
		}
	}
}

func TestDrainDeferredZeroInputs(t *testing.T) {
	res := drainResult([][]float64{{0}}, nil)
	if s := res.DrainDeferredCtx(t.Context(), 0, 0); s != (DrainStats{}) {
		t.Fatalf("zero bits-per-frame: %+v", s)
	}
}
