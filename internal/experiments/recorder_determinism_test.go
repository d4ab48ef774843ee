package experiments

import (
	"testing"
	"time"

	"kodan/internal/telemetry"
	"kodan/internal/telemetry/recorder"
)

// TestRecordedFigureOutputIdentical extends the telemetry-never-feeds-back
// gate to the flight recorder: a background sampler reading the shared
// registry (at 1ms — a thousand times hotter than the production default)
// concurrently with the figure computation must not perturb the output at
// any worker count.
//
// On a single-CPU machine the CPU-bound figure can starve the sampler
// goroutine for a whole run, so the test repeats fresh-lab runs (each one
// recomputing from scratch — Lab memoization is per-Lab) until the
// recorder has provably sampled mid-computation, checking every run's
// output against the untraced baseline.
func TestRecordedFigureOutputIdentical(t *testing.T) {
	base := renderFig2Traced(t, 1, nil)
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		rec := recorder.New(reg, time.Millisecond)
		rec.Start()

		samples := 0
		for i := 0; i < 50 && samples < 2; i++ {
			lab := NewLab(Quick)
			lab.Workers = workers
			lab.Probe = telemetry.Probe{Metrics: reg, Trace: telemetry.NewTracer(0)}
			rows, err := lab.Figure2Ctx(t.Context(), lab.SatCounts())
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, i, err)
			}
			if got := RenderFigure2(rows); got != base {
				t.Fatalf("workers=%d run %d with flight recorder: figure output diverged from baseline\n--- baseline:\n%s\n--- recorded:\n%s",
					workers, i, base, got)
			}
			samples = len(rec.Samples(time.Time{}))
		}
		rec.Stop()
		if samples < 2 {
			t.Fatalf("workers=%d: recorder captured %d samples across repeated runs — concurrent sampling never exercised", workers, samples)
		}
	}
}
