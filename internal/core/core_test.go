package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/imagery"
	"kodan/internal/parallel"
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

// TestTransformAppWorkersByteIdentical pins the fan-out's contract: a
// workspace built and an application transformed at any worker count
// yields the same profiles, the same measured suite quality and the same
// selection logic on every target as the sequential path. Each worker
// count gets a fresh workspace, so the concurrent first use of each
// tiling's prepared data runs under the race detector too.
func TestTransformAppWorkersByteIdentical(t *testing.T) {
	transform := func(workers int) *Artifacts {
		cfg := testConfig()
		cfg.Workers = workers
		w, err := NewWorkspaceCtx(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		art, err := w.TransformAppCtx(t.Context(), app.App(3))
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	want := transform(1)
	for _, workers := range []int{2, 5} {
		got := transform(workers)
		if !reflect.DeepEqual(got.Profiles, want.Profiles) {
			t.Errorf("workers=%d: profiles differ from the sequential transform", workers)
		}
		for _, tl := range testConfig().Tilings {
			if !reflect.DeepEqual(got.Suites[tl.PerSide].Quality, want.Suites[tl.PerSide].Quality) {
				t.Errorf("workers=%d at %v: suite quality differs", workers, tl)
			}
		}
		for _, tg := range hw.Targets() {
			d := testDeployment
			d.Target = tg
			gs, ge := got.SelectionLogic(d)
			ws, we := want.SelectionLogic(d)
			if !reflect.DeepEqual(gs, ws) || ge != we {
				t.Errorf("workers=%d on %v: selection logic differs", workers, tg)
			}
		}
	}
}

// TestSelectionLogicMemoMatchesOptimize pins the memo to the sweep it
// stands in for: on every target, several deadlines and capacities, and
// FillIdle on and off, SelectionLogic called from 8 goroutines returns
// exactly what a direct policy.Optimize returns. A caller editing its
// Selection never reaches a later caller, and concurrent first callers of
// one deployment leave one memo entry.
func TestSelectionLogicMemoMatchesOptimize(t *testing.T) {
	w := buildWorkspace(t)
	art, err := w.TransformAppCtx(t.Context(), app.App(4))
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		sel policy.Selection
		est policy.Estimate
	}
	var deps []Deployment
	var wants []want
	for _, tg := range hw.Targets() {
		for _, dl := range []time.Duration{4 * time.Second, 24 * time.Second, 90 * time.Second} {
			for _, c := range []float64{0.05, 0.21, 0.6} {
				for _, fill := range []bool{false, true} {
					d := Deployment{Target: tg, Deadline: dl, CapacityFrac: c, FillIdle: fill}
					sel, est := policy.Optimize(art.Profiles, d.Env(art.Arch))
					deps = append(deps, d)
					wants = append(wants, want{sel, est})
				}
			}
		}
	}

	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range deps {
				i := (j + g*len(deps)/callers) % len(deps)
				sel, est := art.SelectionLogic(deps[i])
				if !reflect.DeepEqual(sel, wants[i].sel) || est != wants[i].est {
					t.Errorf("caller %d, %+v: memoized logic %v %+v, direct %v %+v",
						g, deps[i], sel, est, wants[i].sel, wants[i].est)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := art.MemoizedSelections(); got != len(deps) {
		t.Fatalf("memo holds %d entries for %d deployments", got, len(deps))
	}

	// A caller's edits stay its own.
	for i, d := range deps {
		sel, _ := art.SelectionLogic(d)
		for c := range sel.Actions {
			sel.Actions[c] = policy.Generic
		}
		if again, _ := art.SelectionLogic(d); !reflect.DeepEqual(again, wants[i].sel) {
			t.Fatalf("%+v: an edited selection leaked into a later call: %v, want %v", d, again, wants[i].sel)
		}
	}

	// Concurrent first callers of a new deployment share one entry.
	fresh := Deployment{Target: hw.Orin15W, Deadline: 17 * time.Second, CapacityFrac: 0.33, FillIdle: true}
	before := art.MemoizedSelections()
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			art.SelectionLogic(fresh)
		}()
	}
	close(start)
	wg.Wait()
	if got := art.MemoizedSelections() - before; got != 1 {
		t.Fatalf("%d concurrent first callers left %d memo entries, want 1", callers, got)
	}
}

// TestTransformAppCancelledMidway cancels a parallel transform while its
// suites are training: the call must return context.Canceled promptly and
// must not leave a fan-out worker running behind it. The cancel lands a
// quarter of the way through a transform timed on the same workspace, so
// it falls mid-training on any machine.
func TestTransformAppCancelledMidway(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	w, err := NewWorkspaceCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := w.TransformAppCtx(t.Context(), app.App(2)); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	cancelledAt := make(chan time.Time, 1)
	timer := time.AfterFunc(full/4, func() {
		cancelledAt <- time.Now()
		cancel()
	})
	defer timer.Stop()
	_, err = w.TransformAppCtx(ctx, app.App(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TransformAppCtx cancelled midway: %v, want context.Canceled", err)
	}
	if d := time.Since(<-cancelledAt); d > 5*time.Second {
		t.Fatalf("cancelled transform returned %v after cancel, want a prompt return", d)
	}
	// No suite work may run once the call has returned. A worker that has
	// signalled the fan-out engine's WaitGroup may still be unwinding its
	// goroutine, so its exit is awaited with a deadline.
	if stacks := goroutineStacks(); strings.Contains(stacks, "kodan/internal/app.") {
		t.Fatalf("suite work still running after the cancelled transform returned:\n%s", stacks)
	}
	for deadline := time.Now().Add(2 * time.Second); ; {
		stacks := goroutineStacks()
		if !strings.Contains(stacks, "kodan/internal/parallel.forEach") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a fan-out worker outlived the cancelled transform:\n%s", stacks)
		}
		runtime.Gosched()
	}
}

// goroutineStacks returns the stack traces of every goroutine.
func goroutineStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
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

// BenchmarkTransformApp times one application transform at the quick lab
// sizing (60 frames, tile resolution 16, tilings 3 and 11), sequential and
// fanned out over GOMAXPROCS workers. The workspace and each tiling's
// prepared training data are built once outside the timer, so the figure
// is suite training and quality measurement.
func BenchmarkTransformApp(b *testing.B) {
	cfg := DefaultConfig(2023)
	cfg.Frames = 60
	cfg.TileRes = 16
	cfg.Tilings = []tiling.Tiling{{PerSide: 3}, {PerSide: 11}}
	w, err := NewWorkspaceCtx(b.Context(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.TransformAppCtx(b.Context(), app.App(4)); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		ws := *w
		ws.Cfg.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", parallel.Workers(workers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ws.TransformAppCtx(b.Context(), app.App(4)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelectionLogic times selection-logic generation for one
// deployment at the unit-test sizing (app 4, tilings 3 and 6): miss runs
// the sweep on artifacts that have not seen the deployment, hit reads the
// memoized logic back.
func BenchmarkSelectionLogic(b *testing.B) {
	w, err := NewWorkspaceCtx(b.Context(), testConfig())
	if err != nil {
		b.Fatal(err)
	}
	art, err := w.TransformAppCtx(b.Context(), app.App(4))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := &Artifacts{Arch: art.Arch, Profiles: art.Profiles}
			fresh.SelectionLogic(testDeployment)
		}
	})
	b.Run("hit", func(b *testing.B) {
		art.SelectionLogic(testDeployment)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			art.SelectionLogic(testDeployment)
		}
	})
}
