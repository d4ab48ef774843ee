package dataset

import (
	"fmt"
	"reflect"
	"testing"

	"kodan/internal/imagery"
	"kodan/internal/parallel"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

func smallConfig(t tiling.Tiling) Config {
	cfg := DefaultConfig(2023, t)
	cfg.Frames = 60
	cfg.TileRes = 16
	return cfg
}

func TestGenerateCounts(t *testing.T) {
	cfg := smallConfig(tiling.Tiling{PerSide: 3})
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 60*9 {
		t.Fatalf("samples = %d, want 540", ds.Len())
	}
	frames := map[int]int{}
	for _, s := range ds.Samples {
		frames[s.Frame]++
	}
	if len(frames) != 60 {
		t.Fatalf("frames = %d", len(frames))
	}
	for f, n := range frames {
		if n != 9 {
			t.Fatalf("frame %d has %d tiles", f, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig(tiling.Tiling{PerSide: 3})
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(cfg)
	for i := range a.Samples {
		if a.Samples[i].Tile.CloudFrac != b.Samples[i].Tile.CloudFrac {
			t.Fatal("generation not deterministic")
		}
	}
}

// TestGenerateWorkersIdentical pins the parallel render's contract: the
// samples (features, truth, region, frame and their order) are deep-equal
// to the sequential render's.
func TestGenerateWorkersIdentical(t *testing.T) {
	generate := func(workers int) *Dataset {
		cfg := smallConfig(tiling.Tiling{PerSide: 4})
		cfg.Workers = workers
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	seq, par := generate(1), generate(4)
	if len(seq.Samples) != len(par.Samples) {
		t.Fatalf("sample counts %d vs %d", len(seq.Samples), len(par.Samples))
	}
	for i := range seq.Samples {
		if !reflect.DeepEqual(seq.Samples[i], par.Samples[i]) {
			t.Fatalf("sample %d differs between workers=1 and workers=4", i)
		}
	}
}

// BenchmarkGenerate times one 60-frame render at 36 tiles per frame,
// sequential and on GOMAXPROCS workers. The samples are identical at both
// settings (TestGenerateWorkersIdentical), so the ratio is pure scaling.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(2023, tiling.Tiling{PerSide: 6})
	cfg.Frames = 60
	cfg.TileRes = 16
	for _, workers := range []int{1, 0} {
		cfg.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", parallel.Workers(workers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestCloudFracNearSentinel(t *testing.T) {
	ds, err := Generate(DefaultConfig(2023, tiling.Tiling{PerSide: 3}))
	if err != nil {
		t.Fatal(err)
	}
	// Paper's dataset: 52% cloudy. Accept a band.
	if f := ds.CloudFrac(); f < 0.42 || f > 0.62 {
		t.Fatalf("cloud fraction = %.3f", f)
	}
}

func TestValidationRejectsBadConfig(t *testing.T) {
	bad := DefaultConfig(1, tiling.Tiling{PerSide: 3})
	bad.Frames = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero frames accepted")
	}
	bad = DefaultConfig(1, tiling.Tiling{PerSide: 0})
	if _, err := Generate(bad); err == nil {
		t.Fatal("bad tiling accepted")
	}
	bad = DefaultConfig(1, tiling.Tiling{PerSide: 3})
	bad.TileRes = 1
	if _, err := Generate(bad); err == nil {
		t.Fatal("1px tiles accepted")
	}
}

func TestSplitByFrame(t *testing.T) {
	ds, err := Generate(smallConfig(tiling.Tiling{PerSide: 3}))
	if err != nil {
		t.Fatal(err)
	}
	train, val := ds.Split(0.25, xrand.New(1))
	if train.Len()+val.Len() != ds.Len() {
		t.Fatalf("split lost samples: %d + %d != %d", train.Len(), val.Len(), ds.Len())
	}
	// No frame straddles the split.
	trainFrames := map[int]bool{}
	for _, s := range train.Samples {
		trainFrames[s.Frame] = true
	}
	for _, s := range val.Samples {
		if trainFrames[s.Frame] {
			t.Fatalf("frame %d in both splits", s.Frame)
		}
	}
	// Roughly a quarter of frames in validation.
	valFrames := map[int]bool{}
	for _, s := range val.Samples {
		valFrames[s.Frame] = true
	}
	if n := len(valFrames); n < 10 || n > 20 {
		t.Fatalf("validation frames = %d of 60", n)
	}
}

func TestSplitPanicsOnBadFrac(t *testing.T) {
	ds, _ := Generate(smallConfig(tiling.Tiling{PerSide: 3}))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ds.Split(1.0, xrand.New(1))
}

func TestLabelVectors(t *testing.T) {
	ds, _ := Generate(smallConfig(tiling.Tiling{PerSide: 3}))
	lvs := ds.LabelVectors()
	if len(lvs) != ds.Len() {
		t.Fatalf("label vectors = %d", len(lvs))
	}
	for _, lv := range lvs {
		if len(lv) != int(imagery.NumGeoClasses)+1 {
			t.Fatalf("label vector dim = %d", len(lv))
		}
	}
}

func TestCoarserTilingFewerPurerTiles(t *testing.T) {
	// Finer tilings yield more near-pure tiles (smaller tiles sit inside
	// weather systems); this is the geometric driver of both elision and
	// tiling-precision effects.
	pure := func(perSide int) float64 {
		ds, err := Generate(smallConfig(tiling.Tiling{PerSide: perSide}))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range ds.Samples {
			if s.Tile.CloudFrac < 0.05 || s.Tile.CloudFrac > 0.95 {
				n++
			}
		}
		return float64(n) / float64(ds.Len())
	}
	coarse, fine := pure(3), pure(11)
	if fine <= coarse {
		t.Fatalf("pure-tile fraction: 9-tile %.3f, 121-tile %.3f — want fine > coarse", coarse, fine)
	}
}
