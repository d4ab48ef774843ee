package kodan

// The benchmark harness regenerates every table and figure of the paper's
// evaluation at full scale (one benchmark per table/figure), plus ablation
// benches for the design choices called out in DESIGN.md and
// microbenchmarks of the hot substrate primitives. The expensive shared
// state — the full-size transformation and constellation simulations — is
// built once per process and reused, mirroring the one-time nature of
// Kodan's transformation step.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark reports the headline quantity of its figure as a
// custom metric, so `bench_output.txt` doubles as the reproduction's
// numeric record.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"kodan/internal/cluster"
	"kodan/internal/dataset"
	"kodan/internal/experiments"
	"kodan/internal/fleet"
	"kodan/internal/link"
	"kodan/internal/orbit"
	"kodan/internal/pipeline"
	"kodan/internal/policy"
	"kodan/internal/sim"
	"kodan/internal/station"
	"kodan/internal/telemetry"
	"kodan/internal/tiling"
	"kodan/internal/value"
	"kodan/internal/xrand"
)

var (
	fullLabOnce sync.Once
	fullLab     *experiments.Lab
)

// benchLab returns the shared full-size lab, building it outside the
// benchmark timer on first use.
func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	fullLabOnce.Do(func() {
		fullLab = experiments.NewLab(experiments.Full)
		// Warm the expensive shared state so individual figure benches
		// measure figure generation, not the one-time transformation.
		if _, err := fullLab.WorkspaceCtx(b.Context()); err != nil {
			b.Fatal(err)
		}
		for i := 1; i <= 7; i++ {
			if _, err := fullLab.AppCtx(b.Context(), i); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := fullLab.MissionCtx(b.Context()); err != nil {
			b.Fatal(err)
		}
	})
	return fullLab
}

// --- One benchmark per table and figure ---

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 7 {
			b.Fatal("bad table")
		}
	}
	fmt.Print("\n" + experiments.RenderTable1(experiments.Table1()))
}

func BenchmarkFigure2(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure2Ctx(b.Context(), l.SatCounts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].DownFrac*100, "pct-downlinked-1sat")
	fmt.Print("\n" + experiments.RenderFigure2(rows))
}

func BenchmarkFigure3(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure3Ctx(b.Context(), l.SatCounts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].CoverageFrac*100, "pct-coverage-max-sats")
	fmt.Print("\n" + experiments.RenderFigure3(rows))
}

func BenchmarkFigure4(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure4Ctx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].HighValue/rows[1].HighValue, "ideal-over-bent-x")
	fmt.Print("\n" + experiments.RenderFigure4(rows))
}

func BenchmarkFigure5(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure5Ctx(b.Context(), l.SatCounts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(rows[0].DirectPct/rows[0].BentPct-1), "pct-direct-improvement")
	fmt.Print("\n" + experiments.RenderFigure5(rows))
}

func BenchmarkFigure8(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure8Ctx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := experiments.Headline(rows)
	b.ReportMetric(lo*100, "pct-improvement-min")
	b.ReportMetric(hi*100, "pct-improvement-max")
	fmt.Print("\n" + experiments.RenderFigure8(rows))
}

func BenchmarkFigure9(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig9Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure9Ctx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range rows {
		if s := r.KodanTime.Seconds(); s > worst {
			worst = s
		}
	}
	b.ReportMetric(worst, "kodan-worst-frame-s")
	fmt.Print("\n" + experiments.RenderFigure9(rows))
}

func BenchmarkFigure10(b *testing.B) {
	l := benchLab(b)
	var pts []experiments.Fig10Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = l.Figure10Ctx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	fmt.Print("\n" + experiments.RenderFigure10(pts))
}

func BenchmarkFigure11(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig11Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure11Ctx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	maxF := 0.0
	for _, r := range rows {
		if r.KodanFactor > maxF {
			maxF = r.KodanFactor
		}
	}
	b.ReportMetric(maxF, "max-reduction-x")
	fmt.Print("\n" + experiments.RenderFigure11(rows))
}

func BenchmarkFigure12(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig12Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure12Ctx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, r := range rows {
		if g := r.PrecContext/r.PrecGeneric - 1; g > best {
			best = g
		}
	}
	b.ReportMetric(best*100, "pct-best-precision-gain")
	fmt.Print("\n" + experiments.RenderFigure12(rows))
}

func BenchmarkFigure13(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig13Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure13Ctx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	fmt.Print("\n" + experiments.RenderFigure13(rows))
}

func BenchmarkFigure14(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig14Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure14Ctx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	fmt.Print("\n" + experiments.RenderFigure14(rows))
}

func BenchmarkFigure15(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig15Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.Figure15Ctx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	fmt.Print("\n" + experiments.RenderFigure15(rows))
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationQueuePolicy compares the FIFO downlink queue against a
// density-priority queue on a fixed chunk mix: a smarter queue partially
// substitutes for elision.
func BenchmarkAblationQueuePolicy(b *testing.B) {
	rng := xrand.New(3)
	chunks := make([]value.Chunk, 512)
	for i := range chunks {
		bits := rng.Range(0.5, 2)
		chunks[i] = value.Chunk{Bits: bits, ValueBits: bits * rng.Float64()}
	}
	var fifoVal, prioVal float64
	for i := 0; i < b.N; i++ {
		_, fifoVal = value.Drain(chunks, 100)
		_, prioVal = value.DrainPriority(chunks, 100)
	}
	b.ReportMetric(fifoVal, "fifo-value")
	b.ReportMetric(prioVal, "priority-value")
}

// BenchmarkAblationContextSource compares automatic (clustered) contexts
// against expert (geography) contexts end to end: engine agreement and the
// final optimized DVD.
func BenchmarkAblationContextSource(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.AblationSourceRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.AblationContextSourceCtx(b.Context())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].KodanDVD, "auto-dvd")
	b.ReportMetric(rows[1].KodanDVD, "expert-dvd")
	fmt.Print("\n" + experiments.RenderAblationContextSource(rows))
}

// BenchmarkAblationContextCount sweeps the context-count hyperparameter
// end to end (Section 3.3's future-work knob): cluster count against
// engine quality, specialized precision, and final DVD.
func BenchmarkAblationContextCountEndToEnd(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.AblationKRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = l.AblationContextCountCtx(b.Context(), []int{2, 4, 6, 8, 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, r := range rows {
		if r.KodanDVD > best {
			best = r.KodanDVD
		}
	}
	b.ReportMetric(best, "best-dvd")
	fmt.Print("\n" + experiments.RenderAblationContextCount(rows))
}

// BenchmarkAblationContextCount sweeps the cluster-count hyperparameter
// (the paper's Section 3.3 future-work knob) and reports the silhouette-
// optimal k.
func BenchmarkAblationContextCount(b *testing.B) {
	cfg := dataset.DefaultConfig(77, tiling.Tiling{PerSide: 3})
	cfg.Frames = 60
	cfg.TileRes = 16
	ds, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	vecs := cluster.Standardize(ds.LabelVectors())
	bestK := 0
	for i := 0; i < b.N; i++ {
		options, best := cluster.Sweep(vecs, []int{3, 4, 5, 6, 7, 8, 10, 12},
			[]cluster.Metric{cluster.Euclidean, cluster.Cosine}, xrand.New(5))
		bestK = options[best].Result.K
	}
	b.ReportMetric(float64(bestK), "best-k")
}

// BenchmarkAblationElision isolates elision: all-specialized versus the
// optimizer's mixed policy for the heaviest app on the Orin.
func BenchmarkAblationElision(b *testing.B) {
	l := benchLab(b)
	art, err := l.AppCtx(b.Context(), 7)
	if err != nil {
		b.Fatal(err)
	}
	d, err := l.DeploymentCtx(b.Context(), Orin15W)
	if err != nil {
		b.Fatal(err)
	}
	env := d.Env(art.Arch)
	env.UseEngine = true
	var withElision, without float64
	for i := 0; i < b.N; i++ {
		_, est := art.SelectionLogic(d)
		withElision = est.DVD
		prof := art.Profiles[len(art.Profiles)-1] // coarsest tiling
		sel := policy.Selection{Tiling: prof.Tiling, Actions: make([]policy.Action, len(prof.Contexts))}
		for c := range sel.Actions {
			sel.Actions[c] = policy.Specialized
		}
		without = policy.Evaluate(sel, prof, env).DVD
	}
	b.ReportMetric(withElision, "dvd-with-elision")
	b.ReportMetric(without, "dvd-all-specialized")
}

// --- Parallel evaluation engine ---

// BenchmarkSimRunWorkers measures the constellation simulation at the
// sequential and parallel worker settings. The output is bit-identical at
// every setting (the golden-determinism tests enforce this), so the
// workers=1 / workers=4 ratio is a pure scaling measurement; on a 4+ core
// machine the parallel run should approach the core count.
func BenchmarkSimRunWorkers(b *testing.B) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := sim.Landsat8Config(epoch, 24*time.Hour, 8)
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				res, err := sim.RunCtx(b.Context(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.FramesObserved() == 0 {
					b.Fatal("empty simulation")
				}
			}
		})
	}
}

// BenchmarkFigure10Workers measures one full figure sweep — the Figure 10
// execution-time curve plus its measured deployment points — sequentially
// and on four workers, over the shared warmed lab (so it isolates the
// sweep itself, not the one-time transformation).
func BenchmarkFigure10Workers(b *testing.B) {
	l := benchLab(b)
	defer func() { l.Workers = 0 }()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			l.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := l.Figure10Ctx(b.Context()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTelemetryOverhead measures the constellation simulation with
// telemetry disabled — the default nil probe, where every instrumentation
// point is a nil-check no-op — against runs with a live metrics registry
// and with metrics plus span tracing. The "off" case is what every
// ordinary figure run pays and must stay within ~2% of the
// pre-instrumentation baseline; the deltas between the sub-benches bound
// what enabling each collector costs.
func BenchmarkTelemetryOverhead(b *testing.B) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	cfg := sim.Landsat8Config(epoch, 24*time.Hour, 4)
	cfg.Workers = 1
	run := func(b *testing.B, ctx context.Context) {
		for i := 0; i < b.N; i++ {
			res, err := sim.RunCtx(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.FramesObserved() == 0 {
				b.Fatal("empty simulation")
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, context.Background())
	})
	b.Run("metrics", func(b *testing.B) {
		ctx := telemetry.WithProbe(context.Background(),
			telemetry.Probe{Metrics: telemetry.NewRegistry()})
		run(b, ctx)
	})
	b.Run("metrics+trace", func(b *testing.B) {
		ctx := telemetry.WithProbe(context.Background(),
			telemetry.Probe{Metrics: telemetry.NewRegistry(), Trace: telemetry.NewTracer(0)})
		run(b, ctx)
	})
}

// --- Substrate microbenchmarks ---

func BenchmarkLinkAllocate(b *testing.B) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	sats := orbit.Constellation(orbit.Landsat8(epoch), 8)
	stations := station.LandsatSegment()
	windows := make([][][]station.Window, len(stations))
	for si := range stations {
		windows[si] = make([][]station.Window, len(sats))
	}
	for j, e := range sats {
		for si, ws := range station.ContactWindows(stations, e, epoch, 24*time.Hour, 30*time.Second) {
			windows[si][j] = ws
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = link.Allocate(link.Problem{
			Start: epoch, Span: 24 * time.Hour, Quantum: 10 * time.Second, Windows: windows,
		})
	}
}

func BenchmarkKMeans(b *testing.B) {
	cfg := dataset.DefaultConfig(3, tiling.Tiling{PerSide: 3})
	cfg.Frames = 40
	cfg.TileRes = 12
	ds, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	vecs := cluster.Standardize(ds.LabelVectors())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.KMeans(vecs, 6, cluster.Euclidean, xrand.New(uint64(i)))
	}
}

func BenchmarkSelectionLogicSweep(b *testing.B) {
	l := benchLab(b)
	art, err := l.AppCtx(b.Context(), 4)
	if err != nil {
		b.Fatal(err)
	}
	d, err := l.DeploymentCtx(b.Context(), Orin15W)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = art.SelectionLogic(d)
	}
}

func BenchmarkContextEngineClassify(b *testing.B) {
	l := benchLab(b)
	ws, err := l.WorkspaceCtx(b.Context())
	if err != nil {
		b.Fatal(err)
	}
	train, _, err := ws.Data(tiling.Tiling{PerSide: 3})
	if err != nil {
		b.Fatal(err)
	}
	tile := train.Samples[0].Tile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ws.Ctx.Classify(tile)
	}
}

// BenchmarkFleetStrategies evaluates the constellation-as-a-service
// question (Sections 2.1.3 and 7): a 12-satellite platform serving Apps
// 1, 4, and 7 on the Orin, dedicated (prior work's vertically-integrated
// split) versus shared (every satellite time-slices all applications),
// with and without Kodan.
func BenchmarkFleetStrategies(b *testing.B) {
	l := benchLab(b)
	var specs []fleet.AppSpec
	for _, idx := range []int{1, 4, 7} {
		art, err := l.AppCtx(b.Context(), idx)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, fleet.AppSpec{Arch: art.Arch, Profiles: art.Profiles})
	}
	m, err := l.MissionCtx(b.Context())
	if err != nil {
		b.Fatal(err)
	}
	cfg := fleet.Config{
		Sats: 12, Target: Orin15W, Deadline: m.Deadline,
		CapacityFrac: m.CapacityFrac, Kodan: true,
	}
	var kodanEff, directRatio float64
	for i := 0; i < b.N; i++ {
		shared, err := fleet.SharedCtx(b.Context(), specs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dedicated, err := fleet.DedicatedCtx(b.Context(), specs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		kodanEff = fleet.Efficiency(shared, dedicated)
		directCfg := cfg
		directCfg.Kodan = false
		directShared, err := fleet.SharedCtx(b.Context(), specs, directCfg)
		if err != nil {
			b.Fatal(err)
		}
		directRatio = shared.TotalValueRate / directShared.TotalValueRate
	}
	b.ReportMetric(kodanEff, "kodan-platform-efficiency")
	b.ReportMetric(directRatio, "kodan-over-direct-x")
}

// BenchmarkPipelineSizing compares prior work's crosslink-free formation
// bound against crosslink-aware sizing for the heaviest deployment.
func BenchmarkPipelineSizing(b *testing.B) {
	l := benchLab(b)
	m, err := l.MissionCtx(b.Context())
	if err != nil {
		b.Fatal(err)
	}
	perTile := 2040 * time.Millisecond // App 7 on the Orin
	tileBits := m.FrameBits / 121
	var ideal int
	feasible := 0.0
	for i := 0; i < b.N; i++ {
		ideal = pipeline.IdealSize(121, perTile, m.Deadline)
		// Full-resolution tiles over an optical crosslink: infeasible.
		if _, err := pipeline.Size(121, perTile, tileBits, pipeline.TypicalOptical(), m.Deadline, 256); err == nil {
			feasible = 1
		}
	}
	b.ReportMetric(float64(ideal), "ideal-satellites")
	b.ReportMetric(feasible, "fullres-crosslink-feasible")
}
