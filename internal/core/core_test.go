package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/imagery"
	"kodan/internal/policy"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// testConfig is a down-sized transformation for unit tests.
func testConfig() Config {
	cfg := DefaultConfig(2023)
	cfg.Frames = 60
	cfg.TileRes = 16
	cfg.Tilings = []tiling.Tiling{{PerSide: 3}, {PerSide: 6}}
	return cfg
}

var testDeployment = Deployment{
	Target:       hw.Orin15W,
	Deadline:     24 * time.Second,
	CapacityFrac: 0.21,
	FillIdle:     true,
}

func buildWorkspace(t *testing.T) *Workspace {
	t.Helper()
	w, err := NewWorkspaceCtx(t.Context(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorkspace(t *testing.T) {
	w := buildWorkspace(t)
	if w.Ctx == nil || w.Ctx.K < 2 {
		t.Fatal("no contexts built")
	}
	for _, tl := range w.Cfg.Tilings {
		train, val, err := w.Data(tl)
		if err != nil {
			t.Fatal(err)
		}
		if train.Len() == 0 || val.Len() == 0 {
			t.Fatalf("tiling %v: empty split", tl)
		}
	}
	if _, _, err := w.Data(tiling.Tiling{PerSide: 9}); err == nil {
		t.Fatal("unknown tiling accepted")
	}
}

func TestNewWorkspaceRejectsEmptyTilings(t *testing.T) {
	cfg := testConfig()
	cfg.Tilings = nil
	if _, err := NewWorkspaceCtx(t.Context(), cfg); err == nil {
		t.Fatal("empty tilings accepted")
	}
}

func TestTransformAppArtifacts(t *testing.T) {
	w := buildWorkspace(t)
	art, err := w.TransformAppCtx(t.Context(), app.App(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Profiles) != 2 || len(art.Suites) != 2 {
		t.Fatalf("artifact shape: %d profiles %d suites", len(art.Profiles), len(art.Suites))
	}
	for _, p := range art.Profiles {
		var fracSum float64
		for _, c := range p.Contexts {
			fracSum += c.TileFrac
			if c.HighValueFrac < 0 || c.HighValueFrac > 1 {
				t.Fatalf("high-value frac %v", c.HighValueFrac)
			}
		}
		if fracSum < 0.999 || fracSum > 1.001 {
			t.Fatalf("tile fractions sum to %v", fracSum)
		}
	}
}

func TestSelectionLogicBeatsBaselinesOnOrin(t *testing.T) {
	w := buildWorkspace(t)
	art, err := w.TransformAppCtx(t.Context(), app.App(7))
	if err != nil {
		t.Fatal(err)
	}
	sel, est := art.SelectionLogic(testDeployment)
	if len(sel.Actions) != w.Ctx.K {
		t.Fatalf("selection shape %v", sel)
	}
	env := testDeployment.Env(art.Arch)
	bent := policy.EvaluateBentPipe(art.Profiles[0].Prevalence(), env)
	if est.DVD <= bent.DVD*1.5 {
		t.Fatalf("Kodan DVD %.3f not well above bent pipe %.3f", est.DVD, bent.DVD)
	}
	// Direct deploy of App 7 on the Orin is deeply bottlenecked.
	denv := env
	denv.UseEngine = false
	coarse := art.Profiles[0]
	direct := policy.Evaluate(policy.DirectSelection(coarse), coarse, denv)
	if est.DVD <= direct.DVD {
		t.Fatalf("Kodan DVD %.3f not above direct %.3f", est.DVD, direct.DVD)
	}
	// Kodan must meet the soft deadline on the Orin.
	if est.ProcessedFrac < 0.999 {
		t.Fatalf("Kodan missed the deadline: processed %v, frame time %v", est.ProcessedFrac, est.FrameTime)
	}
}

func TestRuntimeWiring(t *testing.T) {
	w := buildWorkspace(t)
	art, err := w.TransformAppCtx(t.Context(), app.App(4))
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := art.SelectionLogic(testDeployment)
	rt, err := art.Runtime(sel, hw.Orin15W, 9e9)
	if err != nil {
		t.Fatal(err)
	}
	if rt.TileBits != 9e9/float64(sel.Tiling.Tiles()) {
		t.Fatalf("tile bits %v", rt.TileBits)
	}
	// The runtime processes a real frame end to end.
	train, _, err := w.Data(sel.Tiling)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]*imagery.Tile, 0, sel.Tiling.Tiles())
	for _, s := range train.Samples[:sel.Tiling.Tiles()] {
		frame = append(frame, s.Tile)
	}
	out := rt.ProcessFrame(frame, xrand.New(1))
	if len(out.Tiles) != sel.Tiling.Tiles() {
		t.Fatalf("processed %d tiles", len(out.Tiles))
	}
	// Wrong tiling is rejected.
	if _, err := art.Runtime(policy.Selection{Tiling: tiling.Tiling{PerSide: 9}}, hw.Orin15W, 1); err == nil {
		t.Fatal("unknown tiling accepted")
	}
}

func TestProfileLookup(t *testing.T) {
	w := buildWorkspace(t)
	art, err := w.TransformAppCtx(t.Context(), app.App(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := art.Profile(tiling.Tiling{PerSide: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tiling.PerSide != 3 {
		t.Fatalf("profile tiling %v", p.Tiling)
	}
	if _, err := art.Profile(tiling.Tiling{PerSide: 5}); err == nil {
		t.Fatal("unknown tiling profiled")
	}
}

func TestTransformDeterministic(t *testing.T) {
	w1 := buildWorkspace(t)
	w2 := buildWorkspace(t)
	a1, err := w1.TransformAppCtx(t.Context(), app.App(2))
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := w2.TransformAppCtx(t.Context(), app.App(2))
	s1, e1 := a1.SelectionLogic(testDeployment)
	s2, e2 := a2.SelectionLogic(testDeployment)
	if e1.DVD != e2.DVD || s1.Tiling != s2.Tiling {
		t.Fatal("transformation not deterministic")
	}
	for i := range s1.Actions {
		if s1.Actions[i] != s2.Actions[i] {
			t.Fatal("selection actions differ")
		}
	}
}

func TestPerTileBudget(t *testing.T) {
	if got := perTileBudget(360, tiling.Tiling{PerSide: 3}); got != 40 {
		t.Fatalf("budget(9) = %d", got)
	}
	if got := perTileBudget(360, tiling.Tiling{PerSide: 11}); got != 4 {
		t.Fatalf("budget(121) = %d (floor)", got)
	}
}

// TestCancellation covers the context-aware entry points: a cancelled
// context aborts both workspace construction and an application transform
// promptly with context.Canceled, and a live context is a no-op wrapper.
func TestCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := NewWorkspaceCtx(cancelled, testConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewWorkspaceCtx on cancelled ctx: %v, want context.Canceled", err)
	}

	w := buildWorkspace(t)
	start := time.Now()
	if _, err := w.TransformAppCtx(cancelled, app.App(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("TransformAppCtx on cancelled ctx: %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled transform took %v, want a prompt return", d)
	}

	// A live context must not change behavior.
	a, err := w.TransformAppCtx(context.Background(), app.App(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Profiles) != len(w.Cfg.Tilings) {
		t.Fatalf("profiles = %d, want %d", len(a.Profiles), len(w.Cfg.Tilings))
	}
}
