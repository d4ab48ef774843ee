package sim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"kodan/internal/telemetry"
)

// BenchmarkSimRunWorkers measures the constellation simulation at the
// sequential and parallel worker settings. The output is bit-identical at
// every setting (the golden-determinism tests enforce this), so the
// workers=1 / workers=4 ratio is a pure scaling measurement; on a 4+ core
// machine the parallel run should approach the core count.
func BenchmarkSimRunWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Landsat8Config(epoch, 24*time.Hour, 8)
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				res, err := RunCtx(b.Context(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.FramesObserved() == 0 {
					b.Fatal("empty simulation")
				}
			}
		})
	}
}

// BenchmarkTelemetryOverhead measures the constellation simulation with
// telemetry disabled — the default nil probe, where every instrumentation
// point is a nil-check no-op — against runs with a live metrics registry
// and with metrics plus span tracing. The "off" case is what every
// ordinary figure run pays and must stay within ~2% of the
// pre-instrumentation baseline; the deltas between the sub-benches bound
// what enabling each collector costs.
func BenchmarkTelemetryOverhead(b *testing.B) {
	cfg := Landsat8Config(epoch, 24*time.Hour, 4)
	cfg.Workers = 1
	run := func(b *testing.B, ctx context.Context) {
		for i := 0; i < b.N; i++ {
			res, err := RunCtx(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.FramesObserved() == 0 {
				b.Fatal("empty simulation")
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, context.Background())
	})
	b.Run("metrics", func(b *testing.B) {
		ctx := telemetry.WithProbe(context.Background(),
			telemetry.Probe{Metrics: telemetry.NewRegistry()})
		run(b, ctx)
	})
	b.Run("metrics+trace", func(b *testing.B) {
		ctx := telemetry.WithProbe(context.Background(),
			telemetry.Probe{Metrics: telemetry.NewRegistry(), Trace: telemetry.NewTracer(0)})
		run(b, ctx)
	})
}

// BenchmarkDrainDeferred times the store-and-forward drain as the mission
// workload uses it: one 8-satellite, 4-day Result drained 12 times (six
// per-frame deferred loads at 16- and 64-frame buffers). Each op starts
// from a fresh Result over the same schedule, so it pays the one-time
// capture and grant conversion as a freshly simulated Result would.
func BenchmarkDrainDeferred(b *testing.B) {
	cfg := Landsat8Config(epoch, 96*time.Hour, 8)
	res, err := RunCtx(b.Context(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	frameBits := cfg.Camera.FrameBits()
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		fresh := &Result{Config: res.Config, Orbits: res.Orbits, Captures: res.Captures,
			Grants: res.Grants, Served: res.Served, FadedBits: res.FadedBits}
		for _, buffer := range []float64{16, 64} {
			for _, load := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8} {
				fresh.DrainDeferredCtx(ctx, load*frameBits, buffer*frameBits)
			}
		}
	}
}
