package nn

import (
	"testing"

	"kodan/internal/xrand"
)

// BenchmarkFitEpoch times one training epoch of an App 4-shaped binary net
// (5 inputs, 14 hidden units) over 4096 samples at the transformation
// step's minibatch SGD settings; the net keeps training across iterations.
func BenchmarkFitEpoch(b *testing.B) {
	rng := xrand.New(11)
	xs := make([][]float64, 4096)
	ys := make([]float64, len(xs))
	for i := range xs {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if x[0]+0.5*x[1]-x[2] > 0.3 {
			ys[i] = 1
		}
		xs[i] = x
	}
	net := NewBinary(5, []int{14}, rng)
	cfg := TrainConfig{Epochs: 1, BatchSize: 32, LearnRate: 0.06, Momentum: 0.9}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := net.FitCtx(b.Context(), xs, ys, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch times one 256-row batch through the float net and
// its int8 twin, the two runtimes a deployed model tile-traverses with.
func BenchmarkPredictBatch(b *testing.B) {
	net, calib, probe := trainedBinary(b, 43, []int{14})
	q := net.Quantize(calib[:256])
	batch := probe[:256]
	out := make([]float64, len(batch))
	for _, bc := range []struct {
		name    string
		predict func([][]float64, []float64)
	}{
		{"float", net.PredictBatch},
		{"int8", q.PredictBatch},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.predict(batch, out)
			}
		})
	}
}
