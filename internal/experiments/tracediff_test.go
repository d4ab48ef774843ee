package experiments

import (
	"bytes"
	"testing"

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

// TestTraceDiffAttributesQuantizedDeltaToInference is the acceptance check
// for the diff engine against real pipeline traces: comparing a float app
// transform (A) with an int8 quantized one (B), the diff must hold an
// nn.infer row with the same span count on both sides (the variants run
// the same eval passes) and must label the quantized attribute flip on
// every phase that carries it. Which variant's inference is faster on the
// host is a property of the host clock, not of the diff engine, so it is
// not asserted; rank ordering of the delta table is pinned by the
// synthetic TestCompare in package analyze.
func TestTraceDiffAttributesQuantizedDeltaToInference(t *testing.T) {
	if testing.Short() {
		t.Skip("two full app transforms")
	}
	// Warm the shared workspace outside any trace so each variant records
	// only transform.app/transform.tiling/nn.train/nn.infer spans.
	ws, err := NewLab(Quick).WorkspaceCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	float, quant := traceTransform(t, ws, false), traceTransform(t, ws, true)
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
