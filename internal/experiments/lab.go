// Package experiments regenerates every table and figure of the paper's
// evaluation. Each driver returns typed rows, and Figures lists every
// table and figure once, in report order, with its renderer, so
// cmd/kodan-bench and the determinism tests print and export the same
// series the paper reports. A Lab memoizes the expensive shared
// state — the transformation workspace, per-application artifacts, and
// constellation simulations — so regenerating all figures costs one
// transformation pass.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"kodan"
	"kodan/internal/app"
	"kodan/internal/core"
	"kodan/internal/hw"
	"kodan/internal/parallel"
	"kodan/internal/policy"
	"kodan/internal/sim"
	"kodan/internal/telemetry"
	"kodan/internal/tiling"
)

// Size selects the experiment scale.
type Size int

// Scales.
const (
	// Quick is sized for unit tests: fewer frames, two tilings.
	Quick Size = iota
	// Full is the benchmark scale: the paper's four tilings and the full
	// satellite-count sweeps.
	Full
)

// Lab holds memoized experiment state. A Lab is safe for concurrent use:
// the figure sweeps fan out over the parallel engine, and the memoized
// shared state (workspace, per-app artifacts, day-long simulations) is
// single-flight — concurrent callers of the same entry block on one
// computation and share its result. Because every stochastic stage draws
// from per-item xrand streams, figure output is bit-identical at every
// Workers setting; the golden-determinism tests enforce this.
type Lab struct {
	// Seed drives all stochastic stages.
	Seed uint64
	// Epoch anchors the orbital simulations.
	Epoch time.Time
	// Size selects Quick or Full sizing.
	Size Size
	// Workers bounds the parallelism of the figure sweeps, the
	// constellation simulations and the transformation (core.Config's
	// Workers): 0 uses GOMAXPROCS, 1 forces the sequential path. Any value
	// yields byte-identical figures.
	Workers int
	// Probe, when set, receives the lab's telemetry: one span per figure,
	// memoization hit/miss counters, and everything the instrumented
	// layers underneath (sim, transform, parallel) emit. The zero Probe
	// disables all of it; either way figure bytes are identical.
	Probe telemetry.Probe

	ws       memo[*core.Workspace]
	apps     keyedMemo[appKey, *core.Artifacts]
	mission  memo[kodan.Mission]
	capacity keyedMemo[int, *sim.Result] // per satellite count, one day
}

// appKey identifies one memoized per-application transform: the Table 1
// index plus the inference variant it was measured under.
type appKey struct {
	index     int
	quantized bool
}

// memo is a single-flight memo cell: the first caller computes while
// later callers block, then every caller shares the cached value. Errors
// are not cached — the next caller retries.
type memo[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

// do returns the memoized value, computing it with f if needed. hit and
// miss count the lookup outcome (nil-safe: pass nil when uninstrumented).
// A caller blocked behind the in-flight computation counts as a hit once
// it observes the completed value.
func (m *memo[T]) do(hit, miss *telemetry.Counter, f func() (T, error)) (T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		hit.Inc()
		return m.val, nil
	}
	miss.Inc()
	v, err := f()
	if err != nil {
		var zero T
		return zero, err
	}
	m.val, m.done = v, true
	return v, nil
}

// keyedMemo is a set of single-flight memo cells, one per key, created
// on first lookup.
type keyedMemo[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*memo[V]
}

// do returns key's memoized value, computing it with f if needed (see
// memo.do).
func (k *keyedMemo[K, V]) do(key K, hit, miss *telemetry.Counter, f func() (V, error)) (V, error) {
	k.mu.Lock()
	if k.cells == nil {
		k.cells = make(map[K]*memo[V])
	}
	m, ok := k.cells[key]
	if !ok {
		m = &memo[V]{}
		k.cells[key] = m
	}
	k.mu.Unlock()
	return m.do(hit, miss, f)
}

// NewLab returns a lab with the reproduction's reference seed and epoch.
func NewLab(size Size) *Lab {
	return &Lab{
		Seed:  2023,
		Epoch: kodan.ReferenceEpoch,
		Size:  size,
	}
}

// workers resolves the lab's worker knob.
func (l *Lab) workers() int { return parallel.Workers(l.Workers) }

// probeCtx threads the lab's probe into ctx so the instrumented layers
// below (sim, core, nn, parallel) record into it. A context that already
// carries a probe wins — callers like the server own their telemetry.
func (l *Lab) probeCtx(ctx context.Context) context.Context {
	if !l.Probe.Enabled() || telemetry.ProbeFrom(ctx).Enabled() {
		return ctx
	}
	return telemetry.WithProbe(ctx, l.Probe)
}

// sweep is the lab's fan-out: parallel.Map on the lab's worker pool,
// under the lab's probe.
func sweep[T any](ctx context.Context, l *Lab, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return parallel.Map(l.probeCtx(ctx), l.workers(), n, fn)
}

// appCount is the number of Table 1 applications every per-app sweep
// covers (apps 1..appCount).
const appCount = 7

// cell is one (hardware target, application) cell of the evaluation
// grid: the target's deployment on the reference mission and the app's
// memoized float artifacts.
type cell struct {
	app int
	d   core.Deployment
	art *core.Artifacts
}

// perTargetApp runs fn on every (target, app) cell of the evaluation grid
// — hw.Targets() by the seven Table 1 applications — on the lab's worker
// pool and returns the results in render order.
func perTargetApp[T any](ctx context.Context, l *Lab, fn func(ctx context.Context, c cell) (T, error)) ([]T, error) {
	m, err := l.MissionCtx(ctx)
	if err != nil {
		return nil, err
	}
	targets := hw.Targets()
	return sweep(ctx, l, len(targets)*appCount, func(ctx context.Context, k int) (T, error) {
		i := k%appCount + 1
		art, err := l.AppCtx(ctx, i)
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(ctx, cell{app: i, d: m.Deployment(targets[k/appCount]), art: art})
	})
}

// perApp runs fn on each of the seven Table 1 applications, with its
// memoized float artifacts, on the lab's worker pool and returns the
// results in app order.
func perApp[T any](ctx context.Context, l *Lab, fn func(ctx context.Context, i int, art *core.Artifacts) (T, error)) ([]T, error) {
	return sweep(ctx, l, appCount, func(ctx context.Context, k int) (T, error) {
		art, err := l.AppCtx(ctx, k+1)
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(ctx, k+1, art)
	})
}

// memoCounters returns the lab-scope hit/miss counters of one memo kind.
func (l *Lab) memoCounters(kind string) (hit, miss *telemetry.Counter) {
	scope := l.Probe.Metrics.Scope("lab")
	if scope == nil {
		return nil, nil
	}
	return scope.Counter("memo." + kind + ".hit"), scope.Counter("memo." + kind + ".miss")
}

// transformConfig returns the lab's transformation sizing, with the
// lab's worker knob, so Workers 1 keeps the transformation sequential too.
func (l *Lab) transformConfig() core.Config {
	cfg := kodan.DefaultTransformConfig(l.Seed)
	if l.Size == Quick {
		cfg = kodan.DemoTransformConfig(l.Seed)
	}
	cfg.Workers = l.Workers
	return cfg
}

// Tilings returns the candidate tilings at this size.
func (l *Lab) Tilings() []tiling.Tiling { return l.transformConfig().Tilings }

// SatCounts returns the constellation sweep points at this size.
func (l *Lab) SatCounts() []int {
	if l.Size == Quick {
		return []int{1, 8, 16}
	}
	return []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56}
}

// ContextCounts returns the context-count ablation's sweep points at this
// size.
func (l *Lab) ContextCounts() []int {
	if l.Size == Quick {
		return []int{2, 6}
	}
	return []int{2, 4, 6, 8, 10}
}

// WorkspaceCtx returns the memoized transformation workspace, building it
// under ctx on first use.
func (l *Lab) WorkspaceCtx(ctx context.Context) (*core.Workspace, error) {
	hit, miss := l.memoCounters("workspace")
	return l.ws.do(hit, miss, func() (*core.Workspace, error) {
		return core.NewWorkspaceCtx(l.probeCtx(ctx), l.transformConfig())
	})
}

// AppCtx returns the memoized artifacts of one application, transforming
// it under ctx on first use. Concurrent calls for the same index share
// one transformation.
func (l *Lab) AppCtx(ctx context.Context, index int) (*core.Artifacts, error) {
	return l.AppVariantCtx(ctx, index, false)
}

// AppVariantCtx returns the memoized artifacts of one application under
// the chosen inference variant. The quantized variant derives int8 twins
// after training and measures every suite quality confusion through them;
// both variants share the workspace (datasets, contexts, engine) and the
// float variant's artifacts are bit-identical whether or not a quantized
// transform also ran.
func (l *Lab) AppVariantCtx(ctx context.Context, index int, quantized bool) (*core.Artifacts, error) {
	hit, miss := l.memoCounters("app")
	return l.apps.do(appKey{index: index, quantized: quantized}, hit, miss, func() (*core.Artifacts, error) {
		ws, err := l.WorkspaceCtx(ctx)
		if err != nil {
			return nil, err
		}
		return ws.WithQuantized(quantized).TransformAppCtx(l.probeCtx(ctx), app.App(index))
	})
}

// MissionCtx returns the memoized single-satellite reference mission,
// simulating its day under ctx on first use.
func (l *Lab) MissionCtx(ctx context.Context) (kodan.Mission, error) {
	hit, miss := l.memoCounters("mission")
	return l.mission.do(hit, miss, func() (kodan.Mission, error) {
		res, err := l.dayRun(ctx, 1)
		if err != nil {
			return kodan.Mission{}, err
		}
		return kodan.MissionOf(res)
	})
}

// dayRun returns the memoized one-day simulation at a satellite count.
func (l *Lab) dayRun(ctx context.Context, sats int) (*sim.Result, error) {
	hit, miss := l.memoCounters("capacity")
	return l.capacity.do(sats, hit, miss, func() (*sim.Result, error) {
		cfg := sim.Landsat8Config(l.Epoch, 24*time.Hour, sats)
		cfg.Workers = l.Workers
		return sim.RunCtx(l.probeCtx(ctx), cfg)
	})
}

// accuracyTiling returns the generic model's accuracy-maximal tiling for
// an application — prior OEC work's tiling choice, used by the
// direct-deploy baseline. Measured accuracies within a small tolerance are
// treated as tied and broken toward the finer tiling, matching prior
// work's preference for detail-preserving tilings when accuracy is flat.
func accuracyTiling(art *core.Artifacts) tiling.Tiling {
	return bestTiling(art, 0.02, func(q app.Quality) float64 { return q.GenericAll.Accuracy() })
}

// precisionTiling returns the specialized models' precision-maximal tiling
// (ties toward finer, as above).
func precisionTiling(art *core.Artifacts) tiling.Tiling {
	return bestTiling(art, 0.01, func(q app.Quality) float64 { return q.SpecialAll.Precision() })
}

// bestTiling returns the finest of an artifact's tilings whose measured
// quality is within tolerance of the best one's.
func bestTiling(art *core.Artifacts, tolerance float64, quality func(app.Quality) float64) tiling.Tiling {
	maxQ := -1.0
	for _, tl := range sortedTilings(art) {
		if q := quality(art.Suites[tl.PerSide].Quality); q > maxQ {
			maxQ = q
		}
	}
	best := art.Profiles[0].Tiling
	found := false
	for _, tl := range sortedTilings(art) {
		if quality(art.Suites[tl.PerSide].Quality) < maxQ-tolerance {
			continue
		}
		if !found || tl.Tiles() > best.Tiles() {
			best = tl
			found = true
		}
	}
	return best
}

// sortedTilings lists an artifact's tilings in profile order.
func sortedTilings(art *core.Artifacts) []tiling.Tiling {
	out := make([]tiling.Tiling, 0, len(art.Profiles))
	for _, p := range art.Profiles {
		out = append(out, p.Tiling)
	}
	return out
}

// directEstimate evaluates the direct-deploy baseline for an app on a
// deployment at its accuracy-maximal tiling.
func directEstimate(art *core.Artifacts, d core.Deployment) (policy.Estimate, tiling.Tiling, error) {
	tl := accuracyTiling(art)
	est, err := art.DirectDeploy(d, tl)
	return est, tl, err
}

// appLabel formats "App N".
func appLabel(i int) string { return fmt.Sprintf("App %d", i) }
