// Package core orchestrates Kodan's one-time transformation step
// (Figure 7, left): from a representative dataset and a reference
// application to deployable artifacts — geospatial contexts, a context
// engine, per-context specialized models at every candidate tiling,
// measured quality profiles, and the selection logic for a target
// deployment. It also wires the resulting artifacts into the on-orbit
// runtime of internal/deploy.
//
// A Workspace holds everything application-independent (datasets at each
// candidate tiling and the context engine) so that transforming all seven
// applications shares one rendering and clustering pass, exactly as the
// paper's pipeline shares its dataset across applications.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"kodan/internal/app"
	"kodan/internal/ctxengine"
	"kodan/internal/dataset"
	"kodan/internal/deploy"
	"kodan/internal/hw"
	"kodan/internal/parallel"
	"kodan/internal/policy"
	"kodan/internal/telemetry"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// Config sizes the transformation step.
type Config struct {
	// Seed drives every stochastic stage.
	Seed uint64
	// Frames is the representative dataset size in frames.
	Frames int
	// TileRes is the rendered tile resolution.
	TileRes int
	// Tilings are the candidate tile layouts to sweep.
	Tilings []tiling.Tiling
	// PixelsPerFrame is the per-frame training pixel budget, divided among
	// the frame's tiles (keeps per-model training cost independent of
	// tiling).
	PixelsPerFrame int
	// EvalPixelsPerFrame is the per-frame validation pixel budget.
	EvalPixelsPerFrame int
	// Context configures context generation.
	Context ctxengine.Config
	// Quantized derives an int8 twin of every trained model and routes all
	// suite predictions — including the quality measurement that feeds the
	// selection logic — through it, so quantization error is priced into
	// the deployment decision. Training itself stays float either way, and
	// the RNG stream is unchanged, so a quantized transform differs from
	// its float sibling only in the measured confusions.
	Quantized bool
	// Workers bounds the parallelism of the transformation: dataset frames
	// render, and per-tiling suites train, on this many goroutines. 0 uses
	// GOMAXPROCS, 1 forces the sequential path. Workspaces and artifacts
	// are bit-identical at every worker count.
	Workers int
}

// valFrac is the validation split fraction of every tiling's dataset.
const valFrac = 0.25

// DefaultConfig returns the reproduction's standard transformation sizing.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:               seed,
		Frames:             120,
		TileRes:            20,
		Tilings:            tiling.PaperTilings(),
		PixelsPerFrame:     360,
		EvalPixelsPerFrame: 720,
		Context:            ctxengine.DefaultConfig(),
	}
}

// split holds one tiling's train/validation datasets plus the lazily
// context-labeled form shared by every application transformed on this
// workspace.
type split struct {
	train, val *dataset.Dataset

	once sync.Once
	// prep is the labeled suite input, built on first use.
	prep app.SuiteData
}

// prepared returns the memoized suite input, labeling the split on first
// call. Preparation is deterministic, so memoization cannot change results
// — it only removes the per-application relabeling cost.
func (s *split) prepared(w *Workspace) app.SuiteData {
	s.once.Do(func() {
		s.prep = app.PrepareSuiteData(s.train, s.val, w.Ctx)
	})
	return s.prep
}

// Workspace holds the application-independent transformation state.
type Workspace struct {
	Cfg Config
	// Ctx is the context partition and engine, built once on the coarsest
	// tiling's training split.
	Ctx *ctxengine.Set
	// data maps tiles-per-side to that tiling's datasets.
	data map[int]*split
}

// WithQuantized returns a workspace identical to w except for the
// Quantized flag, sharing the rendered datasets, memoized preparation,
// and context engine. Transforms from the two workspaces consume
// identical RNG streams and differ only in measured model quality.
func (w *Workspace) WithQuantized(q bool) *Workspace {
	if w.Cfg.Quantized == q {
		return w
	}
	cp := *w
	cp.Cfg.Quantized = q
	return &cp
}

// NewWorkspaceCtx renders the datasets for every candidate tiling and
// builds the contexts and context engine. ctx is checked between
// per-tiling dataset renders, before the clustering stage and between
// engine training epochs, returning ctx.Err() promptly when cancelled. A
// completed build depends on cfg alone, never on ctx.
func NewWorkspaceCtx(ctx context.Context, cfg Config) (*Workspace, error) {
	if len(cfg.Tilings) == 0 {
		return nil, fmt.Errorf("core: no candidate tilings")
	}
	ctx, span := telemetry.StartSpan(ctx, "transform.workspace")
	defer span.End()
	w := &Workspace{Cfg: cfg, data: make(map[int]*split)}
	for _, tl := range cfg.Tilings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := span.Child("transform.dataset")
		sp.Set("tiling", fmt.Sprint(tl.PerSide))
		dcfg := dataset.DefaultConfig(cfg.Seed, tl)
		dcfg.Frames = cfg.Frames
		dcfg.TileRes = cfg.TileRes
		dcfg.Workers = cfg.Workers
		ds, err := dataset.Generate(dcfg)
		if err != nil {
			sp.End()
			return nil, err
		}
		rng := xrand.New(cfg.Seed ^ 0x5eed5011)
		train, val := ds.Split(valFrac, rng)
		w.data[tl.PerSide] = &split{train: train, val: val}
		sp.End()
	}

	// Contexts from the coarsest tiling (largest tiles, richest label
	// vectors); the engine classifies tiles of any size thereafter.
	coarsest := cfg.Tilings[0]
	for _, tl := range cfg.Tilings[1:] {
		if tl.PerSide < coarsest.PerSide {
			coarsest = tl
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := span.Child("transform.contexts")
	set, err := ctxengine.Build(ctx, w.data[coarsest.PerSide].train, cfg.Context, xrand.New(cfg.Seed^0xc0e1))
	sp.End()
	if err != nil {
		return nil, err
	}
	w.Ctx = set
	return w, nil
}

// Data returns the train/validation datasets of one tiling.
func (w *Workspace) Data(tl tiling.Tiling) (train, val *dataset.Dataset, err error) {
	s, ok := w.data[tl.PerSide]
	if !ok {
		return nil, nil, fmt.Errorf("core: tiling %v not in workspace", tl)
	}
	return s.train, s.val, nil
}

// Artifacts is the transformation output for one application. Artifacts
// are read-only once TransformAppCtx has built them: the selection logic
// of each deployment is generated once and memoized on the artifacts, so
// editing Profiles afterwards would leave stale logic behind.
type Artifacts struct {
	Arch app.Architecture
	Ctx  *ctxengine.Set
	// Suites maps tiles-per-side to the trained model suite.
	Suites map[int]*app.Suite
	// Profiles holds the measured per-tiling profiles the selection-logic
	// sweep consumes, in workspace tiling order.
	Profiles []policy.TilingProfile

	mu sync.Mutex
	// logic memoizes SelectionLogic per deployment, at most
	// SelectionMemoCap entries.
	logic map[deploymentKey]*selectionEntry
}

// SelectionMemoCap bounds the deployments whose selection logic one
// Artifacts memoizes. A deployment first seen past the bound is computed
// and not stored, so no request stream can grow the memo further.
const SelectionMemoCap = 256

// deploymentKey is a deployment by its exact bits: a capacity is keyed by
// its bit pattern, so -0 and +0 are two keys and a NaN finds its entry.
type deploymentKey struct {
	target   hw.Target
	deadline time.Duration
	capacity uint64
	fillIdle bool
}

// selectionEntry is one deployment's selection logic, generated once by
// the first caller while concurrent callers wait on once.
type selectionEntry struct {
	once sync.Once
	sel  policy.Selection
	est  policy.Estimate
}

// TransformAppCtx trains and measures one application across every
// candidate tiling in the workspace. The per-tiling suites are independent
// (Section 3.3), so they build on Cfg.Workers goroutines and are
// assembled in workspace tiling order afterwards. ctx is
// checked before each tiling and, inside suite construction, between
// model trainings and epochs, so a cancelled transform returns ctx.Err()
// promptly once its running suites stop. A completed transform depends on
// its inputs alone: each (application, tiling) pair derives its randomness
// from the workspace seed, never from call timing, interleaving or the
// worker count — which is also what makes concurrent transforms on one
// workspace deterministic.
func (w *Workspace) TransformAppCtx(ctx context.Context, arch app.Architecture) (*Artifacts, error) {
	ctx, span := telemetry.StartSpan(ctx, "transform.app")
	defer span.End()
	span.Set("app", fmt.Sprint(arch.Index))
	span.Set("quantized", fmt.Sprint(w.Cfg.Quantized))
	scope := telemetry.ProbeFrom(ctx).Metrics.Scope("transform")
	tilings := w.Cfg.Tilings
	suites, err := parallel.Map(ctx, parallel.Workers(w.Cfg.Workers), len(tilings), func(ctx context.Context, i int) (*app.Suite, error) {
		tl := tilings[i]
		tctx, sp := telemetry.StartSpan(ctx, "transform.tiling")
		defer sp.End()
		sp.Set("app", fmt.Sprint(arch.Index))
		sp.Set("tiling", fmt.Sprint(tl.PerSide))
		sp.Set("quantized", fmt.Sprint(w.Cfg.Quantized))
		stageStart := time.Now()
		opts := app.DefaultTrainOptions()
		opts.Quantized = w.Cfg.Quantized
		opts.PixelsPerTile = perTileBudget(w.Cfg.PixelsPerFrame, tl)
		opts.EvalPixelsPerTile = perTileBudget(w.Cfg.EvalPixelsPerFrame, tl)
		rng := xrand.New(w.Cfg.Seed ^ uint64(arch.Index)<<32 ^ uint64(tl.PerSide))
		suite, err := app.BuildSuiteData(tctx, arch, tl, w.data[tl.PerSide].prepared(w), w.Ctx, opts, rng)
		if err != nil {
			return nil, err
		}
		scope.Histogram("tiling_seconds").Observe(time.Since(stageStart).Seconds())
		scope.Counter("suites_trained").Inc()
		return suite, nil
	})
	if err != nil {
		return nil, err
	}
	art := &Artifacts{Arch: arch, Ctx: w.Ctx, Suites: make(map[int]*app.Suite, len(tilings))}
	for i, tl := range tilings {
		art.Suites[tl.PerSide] = suites[i]
		art.Profiles = append(art.Profiles, w.profile(tl, suites[i]))
	}
	scope.Counter("apps_transformed").Inc()
	return art, nil
}

// perTileBudget divides a per-frame pixel budget among tiles with a floor.
func perTileBudget(perFrame int, tl tiling.Tiling) int {
	n := perFrame / tl.Tiles()
	if n < 4 {
		n = 4
	}
	return n
}

// profile assembles the policy-facing profile of one tiling from the
// engine partition of its training data and the suite's measured quality.
func (w *Workspace) profile(tl tiling.Tiling, suite *app.Suite) policy.TilingProfile {
	s := w.data[tl.PerSide]
	labels := s.prepared(w).TrainLabels
	k := w.Ctx.K
	counts := make([]int, k)
	hv := make([]float64, k)
	px := make([]float64, k)
	for i, smp := range s.train.Samples {
		c := labels[i]
		counts[c]++
		hv[c] += smp.Tile.HighValueFrac() * float64(smp.Tile.Pixels())
		px[c] += float64(smp.Tile.Pixels())
	}
	tp := policy.TilingProfile{Tiling: tl, Contexts: make([]policy.ContextProfile, k)}
	total := float64(s.train.Len())
	for c := 0; c < k; c++ {
		cp := policy.ContextProfile{
			TileFrac: float64(counts[c]) / total,
			Generic:  suite.Quality.Generic[c],
			Special:  suite.Quality.Special[c],
			Merged:   suite.Quality.Merged[c],
		}
		if px[c] > 0 {
			cp.HighValueFrac = hv[c] / px[c]
		}
		tp.Contexts[c] = cp
	}
	return tp
}

// Deployment describes a target satellite deployment for selection-logic
// generation.
type Deployment struct {
	// Target is the hardware platform.
	Target hw.Target
	// Deadline is the frame deadline from the orbit and grid.
	Deadline time.Duration
	// CapacityFrac is downlink capacity per observed frame as a fraction
	// of frame size.
	CapacityFrac float64
	// FillIdle pads an under-filled link with raw frames.
	FillIdle bool
}

// Env converts a deployment into a policy environment for an application.
func (d Deployment) Env(arch app.Architecture) policy.Env {
	return policy.Env{
		App:          arch,
		Target:       d.Target,
		Deadline:     d.Deadline,
		CapacityFrac: d.CapacityFrac,
		FillIdle:     d.FillIdle,
		UseEngine:    true,
	}
}

// SelectionLogic generates the deployment's selection logic by sweeping
// tilings and per-context actions (Section 3.4). The logic depends on the
// deployment alone, so it is generated once per deployment: concurrent
// first callers share one sweep and later callers reuse its result. The
// returned Selection is the caller's own copy.
func (a *Artifacts) SelectionLogic(d Deployment) (policy.Selection, policy.Estimate) {
	e := a.selectionEntry(d)
	e.once.Do(func() { e.sel, e.est = policy.Optimize(a.Profiles, d.Env(a.Arch)) })
	sel := e.sel
	sel.Actions = slices.Clone(e.sel.Actions)
	return sel, e.est
}

// selectionEntry returns the memo entry of d, storing a new one only while
// the memo is under SelectionMemoCap.
func (a *Artifacts) selectionEntry(d Deployment) *selectionEntry {
	k := deploymentKey{d.Target, d.Deadline, math.Float64bits(d.CapacityFrac), d.FillIdle}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.logic[k]; ok {
		return e
	}
	e := &selectionEntry{}
	if len(a.logic) < SelectionMemoCap {
		if a.logic == nil {
			a.logic = make(map[deploymentKey]*selectionEntry)
		}
		a.logic[k] = e
	}
	return e
}

// MemoizedSelections returns how many deployments' selection logic the
// artifacts hold, never more than SelectionMemoCap.
func (a *Artifacts) MemoizedSelections() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.logic)
}

// Runtime wires the artifacts and a generated selection into the on-orbit
// runtime. frameBits is the raw downlink size of one frame.
func (a *Artifacts) Runtime(sel policy.Selection, target hw.Target, frameBits float64) (*deploy.Runtime, error) {
	suite, ok := a.Suites[sel.Tiling.PerSide]
	if !ok {
		return nil, fmt.Errorf("core: no suite for tiling %v", sel.Tiling)
	}
	return &deploy.Runtime{
		Engine:   a.Ctx,
		Suite:    suite,
		Logic:    sel,
		Target:   target,
		TileBits: frameBits / float64(sel.Tiling.Tiles()),
	}, nil
}

// Profile returns the measured profile of one tiling.
func (a *Artifacts) Profile(tl tiling.Tiling) (policy.TilingProfile, error) {
	for _, p := range a.Profiles {
		if p.Tiling.PerSide == tl.PerSide {
			return p, nil
		}
	}
	return policy.TilingProfile{}, fmt.Errorf("core: tiling %v not profiled", tl)
}

// BentPipe prices the bent-pipe baseline in the deployment: every frame
// downlinked raw, so the link carries the dataset's prevalence.
func (a *Artifacts) BentPipe(d Deployment) policy.Estimate {
	return policy.EvaluateBentPipe(a.Profiles[0].Prevalence(), d.Env(a.Arch))
}

// DirectDeploy prices prior OEC work's direct deployment at one tiling:
// the reference model on every tile, no context engine.
func (a *Artifacts) DirectDeploy(d Deployment, tl tiling.Tiling) (policy.Estimate, error) {
	prof, err := a.Profile(tl)
	if err != nil {
		return policy.Estimate{}, err
	}
	env := d.Env(a.Arch)
	env.UseEngine = false
	return policy.Evaluate(policy.DirectSelection(prof), prof, env), nil
}
