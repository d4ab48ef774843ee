package experiments

import (
	"bytes"
	"math"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/core"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
)

// traceTransform transforms App 4 on the warm workspace under the chosen
// inference variant with a span tracer attached, and returns the parsed
// trace. It calls the workspace directly, not the Lab memo, so every call
// records a fresh transform holding only the transform phases (the
// variants share every pre-transform artifact).
func traceTransform(t *testing.T, ws *core.Workspace, quantized bool) *analyze.Trace {
	t.Helper()
	tracer := telemetry.NewTracer(0)
	ctx := telemetry.WithProbe(t.Context(), telemetry.Probe{Trace: tracer})
	if _, err := ws.WithQuantized(quantized).TransformAppCtx(ctx, app.App(4)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := analyze.Parse(&buf)
	if err != nil {
		t.Fatalf("transform trace does not parse: %v", err)
	}
	return trace
}

// inferSelf returns the trace's nn.infer self time.
func inferSelf(tr *analyze.Trace) time.Duration {
	for _, p := range tr.Phases() {
		if p.Name == "nn.infer" {
			return p.Self
		}
	}
	return 0
}

// TestTraceDiffAttributesQuantizedDeltaToInference is the acceptance check
// for the diff engine against real pipeline traces: comparing a float app
// transform (A) with an int8 quantized one (B), the recorded wall-time
// difference must land on the nn inference phase, because quantization
// changes only the prediction hot path — training does identical float
// work in both runs. In this pure-Go reproduction the int8 forward pass
// is *slower* on the host (per-layer requantization with no SIMD payoff;
// the speedup quantization buys is in the modeled on-orbit frame time),
// so int8 nn.infer must take longer than float, and the diff must label
// the quantized attribute flip on every phase that carries it.
//
// One transform per variant is too noisy on a loaded host to order the
// two inference times, so the variants run interleaved over three
// rounds, alternating which goes first, and each variant's fastest
// nn.infer self time is compared. The other assertions are attribution,
// not rank: phases like nn.train run identical work in both variants, so
// their deltas are pure host jitter. Rank ordering of the delta table is
// pinned by the synthetic TestCompare in package analyze.
func TestTraceDiffAttributesQuantizedDeltaToInference(t *testing.T) {
	if testing.Short() {
		t.Skip("six full app transforms")
	}
	// Warm the shared workspace outside any trace so every variant records
	// only transform.app/transform.tiling/nn.train/nn.infer spans.
	ws, err := NewLab(Quick).WorkspaceCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var float, quant *analyze.Trace
	minFloat, minQuant := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 3; round++ {
		order := []bool{false, true}
		if round%2 == 1 {
			order = []bool{true, false}
		}
		for _, q := range order {
			tr := traceTransform(t, ws, q)
			if q {
				quant, minQuant = tr, min(minQuant, inferSelf(tr))
			} else {
				float, minFloat = tr, min(minFloat, inferSelf(tr))
			}
		}
	}
	d := analyze.Compare(float, quant)

	var infer *analyze.DiffRow
	for i := range d.Rows {
		if d.Rows[i].Name == "nn.infer" {
			infer = &d.Rows[i]
		}
	}
	if infer == nil {
		t.Fatalf("diff has no nn.infer row:\n%s", d.Render())
	}
	if infer.CountA != infer.CountB {
		t.Errorf("nn.infer span counts differ: %d vs %d (variants should run the same eval passes)",
			infer.CountA, infer.CountB)
	}
	if minQuant <= minFloat {
		t.Errorf("fastest int8 nn.infer %v <= fastest float %v, want slower (int8 inference costs host wall time)\n%s",
			minQuant, minFloat, d.Render())
	}

	// The variant flip is labeled on every phase that carries the attr.
	flagged := map[string]bool{}
	for _, c := range d.AttrChanges {
		if c.Key == "quantized" && c.A == "false" && c.B == "true" {
			flagged[c.Phase] = true
		}
	}
	for _, phase := range []string{"nn.infer", "nn.train", "transform.app", "transform.tiling"} {
		if !flagged[phase] {
			t.Errorf("quantized=false -> true not labeled on %s (changes: %+v)", phase, d.AttrChanges)
		}
	}

	// Rendering the same pair twice is byte-identical.
	if a, b := d.Render(), analyze.Compare(float, quant).Render(); a != b {
		t.Error("diff rendering is not deterministic for the same input traces")
	}
}
