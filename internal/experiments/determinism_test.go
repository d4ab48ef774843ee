package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// figureOutput is one figure's rendered table plus its typed rows for
// CSV/JSON export.
type figureOutput struct {
	render string
	rows   interface{}
}

// figureOutputs runs every figure of the lab's registry and returns its
// output per figure key.
func figureOutputs(t *testing.T, l *Lab) map[string]figureOutput {
	t.Helper()
	out := map[string]figureOutput{}
	for _, f := range l.Figures() {
		render, rows, err := f.Run(t.Context())
		if err != nil {
			t.Fatalf("%s: %v", f.Key, err)
		}
		out[f.Key] = figureOutput{render, rows}
	}
	return out
}

// encode returns a figure's CSV and JSON export bytes.
func encode(t *testing.T, key string, rows interface{}) (csv, json []byte) {
	t.Helper()
	var c, j bytes.Buffer
	if err := WriteCSV(&c, rows); err != nil {
		t.Fatalf("%s: WriteCSV: %v", key, err)
	}
	if err := WriteJSON(&j, rows); err != nil {
		t.Fatalf("%s: WriteJSON: %v", key, err)
	}
	return c.Bytes(), j.Bytes()
}

// TestFiguresDeterministicAcrossWorkers is the engine's end-to-end
// contract: every registry figure — rendered table, CSV bytes, and JSON
// bytes — is identical between the sequential path (Workers=1) and the
// parallel path (Workers=4).
func TestFiguresDeterministicAcrossWorkers(t *testing.T) {
	seq := NewLab(Quick)
	seq.Workers = 1
	par := NewLab(Quick)
	par.Workers = 4

	seqOut := figureOutputs(t, seq)
	parOut := figureOutputs(t, par)

	// Table 1, Figures 2-5 and 8-15 with the quantized Figure 8, the two
	// ablations, the resilience sweep and the hybrid-plan sweep.
	if len(seqOut) != 18 {
		t.Errorf("registry holds %d figures, want 18", len(seqOut))
	}
	if len(seqOut) != len(parOut) {
		t.Fatalf("figure sets differ: %d vs %d", len(seqOut), len(parOut))
	}
	for key, s := range seqOut {
		p, ok := parOut[key]
		if !ok {
			t.Errorf("%s: missing from parallel lab", key)
			continue
		}
		if s.render != p.render {
			t.Errorf("%s: render differs between Workers=1 and Workers=4:\n--- sequential\n%s\n--- parallel\n%s", key, s.render, p.render)
			continue
		}
		sc, sj := encode(t, key, s.rows)
		pc, pj := encode(t, key, p.rows)
		if !bytes.Equal(sc, pc) {
			t.Errorf("%s: CSV bytes differ between worker counts", key)
		}
		if !bytes.Equal(sj, pj) {
			t.Errorf("%s: JSON bytes differ between worker counts", key)
		}
	}
}

// TestFigure2ThirdWorkerCount re-runs the pure-simulation figure at a
// third, odd worker count (one that does not divide the sweep evenly) and
// at the GOMAXPROCS default, pinning the engine's scheduling-independence
// beyond the two counts the full sweep above covers.
func TestFigure2ThirdWorkerCount(t *testing.T) {
	render := func(workers int) string {
		l := NewLab(Quick)
		l.Workers = workers
		rows, err := l.Figure2Ctx(t.Context(), l.SatCounts())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return RenderFigure2(rows)
	}
	want := render(1)
	for _, workers := range []int{3, 0} {
		if got := render(workers); got != want {
			t.Errorf("Figure2 differs at Workers=%d:\n--- sequential\n%s\n--- Workers=%d\n%s", workers, want, workers, got)
		}
	}
}

// goldenCompare checks got against testdata/<name>, rewriting the file
// under -update.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test ./internal/experiments -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestTable1Golden pins Table 1's render and CSV export byte for byte.
func TestTable1Golden(t *testing.T) {
	rows := Table1()
	goldenCompare(t, "table1.render.golden", []byte(RenderTable1(rows)))
	csv, _ := encode(t, "table1", rows)
	goldenCompare(t, "table1.csv.golden", csv)
}

// TestFigure8QuickGolden pins the Quick-size Figure 8 render byte for
// byte: any change to the transformation pipeline, the policy optimizer,
// the simulation, or the parallel engine that shifts a number shows up
// here as a diff.
func TestFigure8QuickGolden(t *testing.T) {
	l := testLab(t)
	rows, err := l.Figure8Ctx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig8_quick.render.golden", []byte(RenderFigure8(rows)))
}

// TestFigure8QuantizedQuickGolden pins the int8-inference variant of
// Figure 8 byte for byte, alongside the float golden above: quantization
// drift (a changed rounding rule, calibration set, or scale fallback)
// shows up here even when the float pipeline is untouched.
func TestFigure8QuantizedQuickGolden(t *testing.T) {
	l := testLab(t)
	rows, err := l.Figure8QuantizedCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig8q_quick.render.golden", []byte(RenderFigure8Quantized(rows)))
}

// TestFigure8QuantizedClose is the experiment-level equivalence bound:
// per-layer symmetric int8 quantization may cost data value density, but
// only a little — every (target, app) cell's quantized DVD stays within
// an absolute tolerance of the float DVD, and its float column matches
// Figure 8's Kodan column exactly (the two sweeps share the memoized
// float artifacts).
func TestFigure8QuantizedClose(t *testing.T) {
	const tolerance = 0.05
	l := testLab(t)
	qrows, err := l.Figure8QuantizedCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	frows, err := l.Figure8Ctx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(qrows) != len(frows) {
		t.Fatalf("row counts differ: %d vs %d", len(qrows), len(frows))
	}
	for i, q := range qrows {
		f := frows[i]
		if q.Target != f.Target || q.App != f.App {
			t.Fatalf("row %d: pair mismatch %v/%d vs %v/%d", i, q.Target, q.App, f.Target, f.App)
		}
		if q.FloatDVD != f.KodanDVD {
			t.Errorf("%v App %d: float column %v != Figure 8 Kodan %v", q.Target, q.App, q.FloatDVD, f.KodanDVD)
		}
		if e := q.QuantErr(); e < -tolerance || e > tolerance {
			t.Errorf("%v App %d: quantization error %+.4f exceeds ±%.2f (float %.4f, int8 %.4f)",
				q.Target, q.App, e, tolerance, q.FloatDVD, q.QuantDVD)
		}
	}
}
