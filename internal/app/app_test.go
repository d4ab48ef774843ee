package app

import (
	"testing"

	"kodan/internal/ctxengine"
	"kodan/internal/dataset"
	"kodan/internal/hw"
	"kodan/internal/imagery"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

func TestTableOne(t *testing.T) {
	apps := Apps()
	if len(apps) != 7 {
		t.Fatalf("apps = %d", len(apps))
	}
	// Spot-check the published numbers.
	if apps[0].PerTileMs[hw.GTX1070Ti] != 178.2 || apps[0].PerTileMs[hw.Orin15W] != 618.8 {
		t.Fatal("App 1 latencies do not match Table 1")
	}
	if apps[6].PerTileMs[hw.I7_7800X] != 2545 || apps[6].PerTileMs[hw.Orin15W] != 2040 {
		t.Fatal("App 7 latencies do not match Table 1")
	}
	// Latencies increase with app index on the 1070 Ti (the table's sort).
	for i := 1; i < len(apps); i++ {
		if apps[i].PerTileMs[hw.GTX1070Ti] <= apps[i-1].PerTileMs[hw.GTX1070Ti] {
			t.Fatalf("1070 Ti latency not increasing at app %d", i+1)
		}
	}
	for i, a := range apps {
		if a.Index != i+1 || a.Name == "" {
			t.Fatalf("app %d malformed", i)
		}
	}
}

func TestAppLookup(t *testing.T) {
	if App(3).Name != "hrnetv2-c1" {
		t.Fatal("App(3) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for App(0)")
		}
	}()
	App(0)
}

func TestRFPenalty(t *testing.T) {
	a := Architecture{RFDeg: 0.4, RFNoise: 0.12}
	if p := a.rfPenalty(0.5); p != 0 {
		t.Fatalf("penalty above RF = %v", p)
	}
	if p := a.rfPenalty(0.4); p != 0 {
		t.Fatalf("penalty at RF = %v", p)
	}
	if p := a.rfPenalty(0.2); p <= 0 || p >= 0.12 {
		t.Fatalf("penalty at half RF = %v", p)
	}
	if p := a.rfPenalty(0.1); p <= a.rfPenalty(0.2) {
		t.Fatalf("penalty not increasing as tiles shrink")
	}
}

// buildTestSuite trains a small suite shared by the behavioral tests.
func buildTestSuite(t *testing.T, appIdx int, perSide int) (*Suite, *ctxengine.Set, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.DefaultConfig(2023, tiling.Tiling{PerSide: perSide})
	cfg.Frames = 90
	cfg.TileRes = 16
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, val := ds.Split(0.25, xrand.New(7))
	ctx, err := ctxengine.Build(t.Context(), train, ctxengine.DefaultConfig(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	data := PrepareSuiteData(train, val, ctx)
	suite, err := BuildSuiteData(t.Context(), App(appIdx), tiling.Tiling{PerSide: perSide}, data, ctx, DefaultTrainOptions(), xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return suite, ctx, val
}

func TestSuiteQualityBasics(t *testing.T) {
	suite, ctx, _ := buildTestSuite(t, 4, 3)
	q := suite.Quality
	if q.K != ctx.K || len(q.Generic) != ctx.K || len(q.Special) != ctx.K {
		t.Fatalf("quality shape wrong: K=%d", q.K)
	}
	if q.GenericAll.Total() == 0 || q.SpecialAll.Total() == 0 {
		t.Fatal("no validation measurements")
	}
	// A trained cloud filter must beat chance decisively.
	if acc := q.GenericAll.Accuracy(); acc < 0.7 {
		t.Fatalf("generic accuracy = %.3f", acc)
	}
	// And an in-paper-range ceiling: no perfect classifier on this data.
	if acc := q.SpecialAll.Accuracy(); acc > 0.995 {
		t.Fatalf("specialized accuracy suspiciously perfect: %.3f", acc)
	}
}

func TestSpecializationImprovesQuality(t *testing.T) {
	// Section 5.3: contexts improve accuracy and (especially) precision.
	// App 2 is the weakest backbone and gains the most.
	suite, _, _ := buildTestSuite(t, 2, 3)
	q := suite.Quality
	if q.SpecialAll.Accuracy() <= q.GenericAll.Accuracy() {
		t.Fatalf("specialization did not improve accuracy: %.3f vs %.3f",
			q.SpecialAll.Accuracy(), q.GenericAll.Accuracy())
	}
	if q.SpecialAll.Precision() <= q.GenericAll.Precision() {
		t.Fatalf("specialization did not improve precision: %.3f vs %.3f",
			q.SpecialAll.Precision(), q.GenericAll.Precision())
	}
}

func TestPredictTileMaskShape(t *testing.T) {
	suite, _, val := buildTestSuite(t, 1, 3)
	tile := val.Samples[0].Tile
	mask, c := suite.Generic.PredictTile(tile, xrand.New(5))
	if len(mask) != tile.Pixels() {
		t.Fatalf("mask len %d", len(mask))
	}
	if c.Total() != tile.Pixels() {
		t.Fatalf("confusion total %d", c.Total())
	}
}

func TestBuildSuiteDeterministic(t *testing.T) {
	a, _, _ := buildTestSuite(t, 1, 3)
	b, _, _ := buildTestSuite(t, 1, 3)
	if a.Quality.GenericAll != b.Quality.GenericAll {
		t.Fatal("suite construction not deterministic")
	}
	if a.Quality.SpecialAll != b.Quality.SpecialAll {
		t.Fatal("specialized quality not deterministic")
	}
}

func TestStrongerBackboneBeatsWeaker(t *testing.T) {
	weak, _, _ := buildTestSuite(t, 2, 3)   // linear resnet18 stand-in
	strong, _, _ := buildTestSuite(t, 7, 3) // largest backbone
	if strong.Quality.GenericAll.Accuracy() <= weak.Quality.GenericAll.Accuracy() {
		t.Fatalf("App 7 (%.3f) not better than App 2 (%.3f)",
			strong.Quality.GenericAll.Accuracy(), weak.Quality.GenericAll.Accuracy())
	}
}

func TestMergedModelsCoverAllContexts(t *testing.T) {
	suite, ctx, _ := buildTestSuite(t, 4, 3)
	if len(suite.Merged) != ctx.K {
		t.Fatalf("merged models = %d, want %d", len(suite.Merged), ctx.K)
	}
	// Contexts sharing a dominant geography share one merged model.
	byGeo := map[imagery.GeoClass]*Model{}
	for c := 0; c < ctx.K; c++ {
		if suite.Merged[c] == nil {
			t.Fatalf("context %d has no merged model", c)
		}
		g := ctx.Stats[c].DominantGeo
		if prev, ok := byGeo[g]; ok && prev != suite.Merged[c] {
			t.Fatalf("geography %v has two merged models", g)
		}
		byGeo[g] = suite.Merged[c]
	}
	// Merged quality is measured for every populated context.
	for c := 0; c < ctx.K; c++ {
		if suite.Quality.Special[c].Total() > 0 && suite.Quality.Merged[c].Total() == 0 {
			t.Fatalf("context %d has specialized quality but no merged quality", c)
		}
	}
}
