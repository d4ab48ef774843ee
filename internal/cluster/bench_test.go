package cluster

import (
	"testing"

	"kodan/internal/dataset"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// labelVectors renders a small dataset and returns its standardized
// per-tile label vectors, the input automatic context generation
// clusters.
func labelVectors(b *testing.B, seed uint64, frames, tileRes int) [][]float64 {
	b.Helper()
	cfg := dataset.DefaultConfig(seed, tiling.Tiling{PerSide: 3})
	cfg.Frames = frames
	cfg.TileRes = tileRes
	ds, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return Standardize(ds.LabelVectors())
}

func BenchmarkKMeans(b *testing.B) {
	vecs := labelVectors(b, 3, 40, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = KMeans(vecs, 6, Euclidean, xrand.New(uint64(i)))
	}
}

// BenchmarkAblationContextCount sweeps the cluster-count hyperparameter
// (the paper's Section 3.3 future-work knob) and reports the silhouette-
// optimal k.
func BenchmarkAblationContextCount(b *testing.B) {
	vecs := labelVectors(b, 77, 60, 16)
	bestK := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		options, best := Sweep(vecs, []int{3, 4, 5, 6, 7, 8, 10, 12},
			[]Metric{Euclidean, Cosine}, xrand.New(5))
		bestK = options[best].Result.K
	}
	b.ReportMetric(float64(bestK), "best-k")
}
