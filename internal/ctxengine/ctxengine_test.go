package ctxengine

import (
	"context"
	"errors"
	"testing"

	"kodan/internal/dataset"
	"kodan/internal/imagery"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

func testData(t testing.TB, frames int) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.DefaultConfig(2023, tiling.Tiling{PerSide: 3})
	cfg.Frames = frames
	cfg.TileRes = 16
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Split(0.25, xrand.New(7))
}

func TestBuildAutoContexts(t *testing.T) {
	train, _ := testData(t, 120)
	set, err := Build(t.Context(), train, DefaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if set.K < 4 || set.K > 8 {
		t.Fatalf("context count %d outside sweep range", set.K)
	}
	if len(set.Labels) != train.Len() {
		t.Fatalf("labels = %d", len(set.Labels))
	}
	for _, l := range set.Labels {
		if l < 0 || l >= set.K {
			t.Fatalf("label %d out of range", l)
		}
	}
	// The engine must broadly agree with its own training partition; this
	// is what makes contexts usable at runtime.
	if set.TrainAccuracy < 0.8 {
		t.Fatalf("engine train accuracy = %.3f", set.TrainAccuracy)
	}
}

func TestAutoContextsSeparateValue(t *testing.T) {
	// The paper's elision premise: some contexts are mostly high-value,
	// some mostly low-value. The spread of per-context high-value fractions
	// must be wide.
	train, _ := testData(t, 120)
	set, err := Build(t.Context(), train, DefaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1.0, 0.0
	for _, s := range set.Stats {
		if s.Count < 5 {
			continue
		}
		if s.HighValueFrac < lo {
			lo = s.HighValueFrac
		}
		if s.HighValueFrac > hi {
			hi = s.HighValueFrac
		}
	}
	if hi < 0.8 {
		t.Fatalf("no mostly-high-value context: max = %.3f", hi)
	}
	if lo > 0.2 {
		t.Fatalf("no mostly-low-value context: min = %.3f", lo)
	}
}

func TestBuildExpertContexts(t *testing.T) {
	train, _ := testData(t, 100)
	cfg := DefaultConfig()
	cfg.Source = Expert
	set, err := Build(t.Context(), train, cfg, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if set.K != int(imagery.NumGeoClasses) {
		t.Fatalf("expert context count = %d", set.K)
	}
	// The engine should recover geography from summaries quite well.
	if set.TrainAccuracy < 0.75 {
		t.Fatalf("expert engine accuracy = %.3f", set.TrainAccuracy)
	}
}

func TestClassifyGeneralizes(t *testing.T) {
	train, val := testData(t, 120)
	set, err := Build(t.Context(), train, DefaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Validation tiles from near-pure cloudy regions should mostly land in
	// contexts whose training high-value fraction is low, and vice versa.
	var agree, total int
	for _, s := range val.Samples {
		if s.Tile.CloudFrac > 0.95 {
			c := set.Classify(s.Tile)
			total++
			if set.Stats[c].HighValueFrac < 0.5 {
				agree++
			}
		}
	}
	if total == 0 {
		t.Skip("no near-pure cloudy validation tiles")
	}
	if frac := float64(agree) / float64(total); frac < 0.8 {
		t.Fatalf("cloudy tiles landed in low-value contexts only %.2f of the time", frac)
	}
}

func TestLabelAllMatchesClassify(t *testing.T) {
	train, val := testData(t, 60)
	set, err := Build(t.Context(), train, DefaultConfig(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	labels := set.LabelAll(val)
	for i, s := range val.Samples {
		if labels[i] != set.Classify(s.Tile) {
			t.Fatal("LabelAll disagrees with Classify")
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	train, _ := testData(t, 80)
	set, err := Build(t.Context(), train, DefaultConfig(), xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range set.Stats {
		total += s.Count
		if s.HighValueFrac < 0 || s.HighValueFrac > 1 {
			t.Fatalf("high-value fraction %f", s.HighValueFrac)
		}
		if s.Count > 0 && s.Name == "" {
			t.Fatal("unnamed context")
		}
	}
	if total != train.Len() {
		t.Fatalf("stats cover %d of %d tiles", total, train.Len())
	}
}

func TestBuildDeterministic(t *testing.T) {
	train, _ := testData(t, 60)
	a, err := Build(t.Context(), train, DefaultConfig(), xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Build(t.Context(), train, DefaultConfig(), xrand.New(11))
	if a.K != b.K || a.TrainAccuracy != b.TrainAccuracy {
		t.Fatal("context build not deterministic")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ")
		}
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(t.Context(), &dataset.Dataset{}, DefaultConfig(), xrand.New(1)); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

// TestBuildCancelled checks that engine training honors ctx: a build whose
// context is already done returns its error instead of a Set.
func TestBuildCancelled(t *testing.T) {
	train, _ := testData(t, 60)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := Build(ctx, train, DefaultConfig(), xrand.New(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
}
