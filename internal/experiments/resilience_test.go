package experiments

import (
	"context"
	"testing"

	"kodan/internal/telemetry"
)

// renderResilience runs the sweep on a fresh quick lab at the given
// worker count, optionally traced, and returns the rendered table.
func renderResilience(t *testing.T, workers int, tracer *telemetry.Tracer) string {
	t.Helper()
	lab := NewLab(Quick)
	lab.Workers = workers
	if tracer != nil {
		lab.Probe = telemetry.Probe{Metrics: telemetry.NewRegistry(), Trace: tracer}
	}
	rows, err := lab.ResilienceSweepCtx(context.Background())
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return RenderResilience(rows)
}

// TestResilienceSweepDeterministic is the sweep's golden gate: identical
// seed and schedule produce byte-identical output at every worker count,
// traced or not.
func TestResilienceSweepDeterministic(t *testing.T) {
	base := renderResilience(t, 1, nil)
	for _, workers := range []int{1, 4} {
		if got := renderResilience(t, workers, telemetry.NewTracer(0)); got != base {
			t.Fatalf("workers=%d: resilience sweep diverged\n--- baseline:\n%s\n--- got:\n%s", workers, base, got)
		}
	}
}

// TestResilienceBaselineMatchesFaultFreeRun asserts the intensity-0 row
// equals a plain fault-free day run: the sweep's zero point IS the
// baseline, not a separate code path that merely approximates it.
func TestResilienceBaselineMatchesFaultFreeRun(t *testing.T) {
	lab := NewLab(Quick)
	rows, err := lab.ResilienceSweepCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Intensity != 0 || rows[0].Faults != 0 {
		t.Fatalf("first row is not the fault-free baseline: %+v", rows[0])
	}
	res, err := lab.dayRun(context.Background(), resilienceSats)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Frames != res.FramesObserved() {
		t.Errorf("baseline frames %d != fault-free run %d", rows[0].Frames, res.FramesObserved())
	}
	if rows[0].DownFrames != res.FrameCapacity() {
		t.Errorf("baseline capacity %g != fault-free run %g", rows[0].DownFrames, res.FrameCapacity())
	}
	if rows[0].Retention != 1 {
		t.Errorf("baseline retention %g, want 1", rows[0].Retention)
	}
}

// TestResilienceDegradesWithIntensity asserts faults cost value: every
// faulted row retains less than (or equal to) the baseline, and the
// maximum intensity strictly degrades.
func TestResilienceDegradesWithIntensity(t *testing.T) {
	lab := NewLab(Quick)
	rows, err := lab.ResilienceSweepCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[1:] {
		if r.Faults == 0 {
			t.Errorf("intensity %.2f generated no faults", r.Intensity)
		}
		if r.Retention > 1 {
			t.Errorf("intensity %.2f retention %.3f > 1: faults created value", r.Intensity, r.Retention)
		}
	}
	last := rows[len(rows)-1]
	if last.Retention >= 1 {
		t.Errorf("max intensity retention %.3f, want < 1", last.Retention)
	}
}
