package nn

import (
	"math"
	"testing"

	"kodan/internal/xrand"
)

// trainedBinary fits a small binary net on a smooth separable problem and
// returns the net together with a held-out input set drawn from the same
// distribution — the shared fixture for the float-vs-int8 equivalence
// tests.
func trainedBinary(t testing.TB, seed uint64, hidden []int) (*Net, [][]float64, [][]float64) {
	t.Helper()
	rng := xrand.New(seed)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 2000; i++ {
		x := []float64{rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2}
		y := 0.0
		if x[0]+0.5*x[1]-x[2]+0.25*x[3] > 0.9 {
			y = 1
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	net := NewBinary(5, hidden, rng)
	net.FitCtx(t.Context(), xs, ys, TrainConfig{Epochs: 10, BatchSize: 32, LearnRate: 0.2, Momentum: 0.9}, rng)
	var probe [][]float64
	for i := 0; i < 1000; i++ {
		probe = append(probe, []float64{rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2})
	}
	return net, xs, probe
}

// TestQuantizedEquivalence pins the tentpole contract: the int8 twin
// agrees with the float network's decisions on at least 99% of seeded
// random inputs, and its probabilities stay close.
func TestQuantizedEquivalence(t *testing.T) {
	for _, hidden := range [][]int{{10}, {16}, {3}} {
		net, calib, probe := trainedBinary(t, uint64(11+len(hidden)*7+hidden[0]), hidden)
		q := net.Quantize(calib[:256])
		agree := 0
		var maxDiff float64
		for _, x := range probe {
			pf := net.PredictBinary(x)
			pq := q.PredictBinary(x)
			if (pf > 0.5) == (pq > 0.5) {
				agree++
			}
			if d := math.Abs(pf - pq); d > maxDiff {
				maxDiff = d
			}
			if math.IsNaN(pq) || pq < 0 || pq > 1 {
				t.Fatalf("hidden=%v: quantized probability %v out of range", hidden, pq)
			}
		}
		frac := float64(agree) / float64(len(probe))
		if frac < 0.99 {
			t.Errorf("hidden=%v: float/int8 decision agreement %.4f < 0.99", hidden, frac)
		}
		if maxDiff > 0.25 {
			t.Errorf("hidden=%v: max probability drift %.3f too large", hidden, maxDiff)
		}
	}
}

// TestQuantizedBatchMatchesBinary pins PredictBatch to the scalar entry
// point bit-for-bit, for both the float and the quantized nets.
func TestQuantizedBatchMatchesBinary(t *testing.T) {
	net, calib, probe := trainedBinary(t, 29, []int{12})
	q := net.Quantize(calib[:256])

	out := make([]float64, len(probe))
	net.PredictBatch(probe, out)
	for i, x := range probe {
		if want := net.PredictBinary(x); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("float PredictBatch[%d] = %v, PredictBinary = %v", i, out[i], want)
		}
	}

	q.PredictBatch(probe, out)
	for i, x := range probe {
		if want := q.PredictBinary(x); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("quantized PredictBatch[%d] = %v, PredictBinary = %v", i, out[i], want)
		}
	}
}

// TestQuantizedDefensiveInputs feeds the quantized hot path every malformed
// input shape the type comment promises to tolerate: the calls must not
// panic and must return a finite probability in [0, 1].
func TestQuantizedDefensiveInputs(t *testing.T) {
	net, calib, _ := trainedBinary(t, 31, []int{10})
	q := net.Quantize(calib[:64])
	cases := map[string][]float64{
		"nil":      nil,
		"empty":    {},
		"short":    {0.5},
		"long":     {1, 2, 3, 4, 5, 6, 7, 8},
		"nan":      {math.NaN(), math.NaN(), 1, 1, 1},
		"posinf":   {math.Inf(1), 0, 0, 0, 0},
		"neginf":   {math.Inf(-1), 0, 0, 0, 0},
		"mixedinf": {math.Inf(1), math.Inf(-1), math.NaN(), 0.5, -0.5},
	}
	for name, x := range cases {
		p := q.PredictBinary(x)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Errorf("%s: PredictBinary = %v, want finite in [0,1]", name, p)
		}
	}
}

// TestQuantizeRoundTrip bounds the weight quantization error: every weight
// reconstructed from its int8 code is within half a grid step (plus the
// clamp at the grid edge) of the original.
func TestQuantizeRoundTrip(t *testing.T) {
	net, calib, _ := trainedBinary(t, 37, []int{14})
	q := net.Quantize(calib[:128])
	for li, l := range net.layers {
		ql := q.layers[li]
		var wMax float64
		for _, v := range l.w {
			if a := math.Abs(v); a > wMax {
				wMax = a
			}
		}
		wScale := wMax / 127
		if wScale <= 0 {
			t.Fatalf("layer %d: degenerate weight scale", li)
		}
		for j, v := range l.w {
			back := float64(ql.w[j]) * wScale
			if math.Abs(back-v) > wScale/2+1e-12 {
				t.Fatalf("layer %d weight %d: %v -> %d -> %v exceeds half-step bound %v",
					li, j, v, ql.w[j], back, wScale/2)
			}
		}
	}
}

// TestQuantizeUnitGrid pins the scalar quantizer's edge behavior.
func TestQuantizeUnitGrid(t *testing.T) {
	cases := []struct {
		in   float64
		want int8
	}{
		{0, 0},
		{0.49, 0},
		{0.5, 1}, // math.Round half-away-from-zero
		{-0.5, -1},
		{126.6, 127},
		{127, 127},
		{1000, 127},
		{math.Inf(1), 127},
		{-126.6, -127},
		{-1000, -127},
		{math.Inf(-1), -127},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := quantizeUnit(c.in); got != c.want {
			t.Errorf("quantizeUnit(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestQuantizeNoCalibration exercises the unit-range fallback: with no
// usable calibration rows the derived net must still run and stay finite.
func TestQuantizeNoCalibration(t *testing.T) {
	rng := xrand.New(5)
	net := NewBinary(4, []int{6}, rng)
	for _, calib := range [][][]float64{nil, {{1, 2}}, {{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}}} {
		q := net.Quantize(calib)
		p := q.PredictBinary([]float64{0.1, 0.2, 0.3, 0.4})
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("fallback quantization: PredictBinary = %v", p)
		}
	}
}

// TestQuantizedClassifier checks argmax agreement between the float and
// int8 classifiers stays high (the context engine path).
func TestQuantizedClassifier(t *testing.T) {
	rng := xrand.New(41)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 1500; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		cls := 0
		switch {
		case x[0] > 0.2:
			cls = 1
		case x[1] > 0.2:
			cls = 2
		}
		xs = append(xs, x)
		ys = append(ys, float64(cls))
	}
	net := NewClassifier(2, []int{16}, 3, rng)
	net.FitCtx(t.Context(), xs, ys, TrainConfig{Epochs: 30, BatchSize: 16, LearnRate: 0.1, Momentum: 0.9}, rng)
	q := net.Quantize(xs[:256])
	agree := 0
	for _, x := range xs {
		if net.PredictClass(x) == q.PredictClass(x) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(xs)); frac < 0.98 {
		t.Errorf("classifier argmax agreement %.4f < 0.98", frac)
	}
}

// TestPredictBatchAllocFree pins the zero-allocation contract of both bulk
// entry points: after warm-up, a steady-state batch allocates nothing.
func TestPredictBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	net, calib, probe := trainedBinary(t, 43, []int{14})
	q := net.Quantize(calib[:128])
	batch := probe[:64]
	out := make([]float64, len(batch))

	// Warm the scratch pools outside the measured region.
	net.PredictBatch(batch, out)
	q.PredictBatch(batch, out)

	if avg := testing.AllocsPerRun(50, func() {
		net.PredictBatch(batch, out)
	}); avg != 0 {
		t.Errorf("Net.PredictBatch allocates %.1f per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		q.PredictBatch(batch, out)
	}); avg != 0 {
		t.Errorf("QuantizedNet.PredictBatch allocates %.1f per run, want 0", avg)
	}
}
