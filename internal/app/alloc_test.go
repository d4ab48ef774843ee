package app

import (
	"context"
	"math"
	"testing"

	"kodan/internal/imagery"
	"kodan/internal/xrand"
)

// allocModels trains one float model and one int8-quantized model on a
// rendered tile — the fixture for the hot-path allocation and routing
// tests below.
func allocModels(t *testing.T) (*Model, *Model, *imagery.Tile) {
	t.Helper()
	w := imagery.NewWorld(9)
	tile := w.RenderTile(imagery.Region{LonDeg: 5, LatDeg: 10, SizeDeg: 0.4}, 12, 0)
	tiles := []*imagery.Tile{tile}

	opts := DefaultTrainOptions()
	rng := xrand.New(4)
	mf, err := trainModel(context.Background(), App(1), -1, tiles, opts, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	opts.Quantized = true
	mq, err := trainModel(context.Background(), App(1), -1, tiles, opts, xrand.New(4).Split())
	if err != nil {
		t.Fatal(err)
	}
	if mf.Quantized() || !mq.Quantized() {
		t.Fatalf("variant routing wrong: float.Quantized=%v quant.Quantized=%v", mf.Quantized(), mq.Quantized())
	}
	return mf, mq, tile
}

// TestPredictTileIntoAllocFree pins the batched transform hot path's
// zero-allocation contract for both inference variants: once the pooled
// scratch is warm, classifying a whole tile allocates nothing.
func TestPredictTileIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	mf, mq, tile := allocModels(t)
	mask := make([]bool, tile.Pixels())
	rng := xrand.New(11)

	for name, m := range map[string]*Model{"float": mf, "quantized": mq} {
		m.PredictTileInto(tile, rng, mask) // warm the pool
		if avg := testing.AllocsPerRun(30, func() {
			m.PredictTileInto(tile, rng, mask)
		}); avg != 0 {
			t.Errorf("%s: PredictTileInto allocates %.1f per run, want 0", name, avg)
		}
	}
}

// TestEvalModelAllocFree pins the quality-measurement path: evaluating a
// model over tiles reuses the same pooled batch scratch.
func TestEvalModelAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	mf, mq, tile := allocModels(t)
	tiles := []*imagery.Tile{tile, tile}
	rng := xrand.New(13)

	for name, m := range map[string]*Model{"float": mf, "quantized": mq} {
		evalModel(m, tiles, 16, rng) // warm the pool
		if avg := testing.AllocsPerRun(30, func() {
			evalModel(m, tiles, 16, rng)
		}); avg != 0 {
			t.Errorf("%s: evalModel allocates %.1f per run, want 0", name, avg)
		}
	}
}

// TestQuantizedTilePredictionsClose checks the int8 twin tracks the float
// model on whole-tile classification: same training stream, same noise
// draws, near-identical masks.
func TestQuantizedTilePredictionsClose(t *testing.T) {
	mf, mq, tile := allocModels(t)
	n := tile.Pixels()
	maskF := make([]bool, n)
	maskQ := make([]bool, n)
	mf.PredictTileInto(tile, xrand.New(21), maskF)
	mq.PredictTileInto(tile, xrand.New(21), maskQ)
	agree := 0
	for p := 0; p < n; p++ {
		if maskF[p] == maskQ[p] {
			agree++
		}
	}
	if frac := float64(agree) / float64(n); frac < 0.95 {
		t.Errorf("float/int8 tile mask agreement %.3f < 0.95", frac)
	}
}

// TestBuildInputFinite guards the input staging against NaN leaks from
// the noise model: rendered features plus architecture noise must stay
// finite.
func TestBuildInputFinite(t *testing.T) {
	_, _, tile := allocModels(t)
	rng := xrand.New(31)
	dst := make([]float64, imagery.NumFeatures)
	sigma := App(7).inputSigma(tile)
	for p := 0; p < tile.Pixels(); p++ {
		buildInput(tile, p, sigma, rng, dst)
		for c, v := range dst {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("pixel %d channel %d: non-finite input %v", p, c, v)
			}
		}
	}
}
