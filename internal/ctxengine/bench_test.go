package ctxengine

import (
	"testing"

	"kodan/internal/xrand"
)

// BenchmarkContextEngineClassify times the runtime context lookup of one
// tile against an engine built from a 60-frame, 9-tile-per-frame split.
func BenchmarkContextEngineClassify(b *testing.B) {
	train, _ := testData(b, 60)
	set, err := Build(b.Context(), train, DefaultConfig(), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	tile := train.Samples[0].Tile
	b.ReportAllocs()
	for b.Loop() {
		set.Classify(tile)
	}
}
