package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/sense"
	"kodan/internal/sim"
	"kodan/internal/value"
	"kodan/internal/wrs"
)

// Table1Row is one application of Table 1.
type Table1Row struct {
	App          int
	Architecture string
	Ms1070Ti     float64
	MsI7         float64
	MsOrin       float64
}

// Table1 reproduces Table 1: per-application architectures and per-tile
// execution times on each hardware target.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, a := range app.Apps() {
		rows = append(rows, Table1Row{
			App:          a.Index,
			Architecture: a.Name,
			Ms1070Ti:     a.PerTileMs[hw.GTX1070Ti],
			MsI7:         a.PerTileMs[hw.I7_7800X],
			MsOrin:       a.PerTileMs[hw.Orin15W],
		})
	}
	return rows
}

// RenderTable1 formats Table 1 as the paper prints it.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: per-tile processing time (ms)\n")
	fmt.Fprintf(&b, "%-6s %-32s %9s %9s %9s\n", "Name", "ML Architecture", "1070 Ti", "i7-7800", "Orin 15W")
	for _, r := range rows {
		fmt.Fprintf(&b, "App %-2d %-32s %9.1f %9.1f %9.1f\n", r.App, r.Architecture, r.Ms1070Ti, r.MsI7, r.MsOrin)
	}
	return b.String()
}

// Fig2Row is one satellite count of Figure 2 (per orbit revolution).
type Fig2Row struct {
	Sats       int
	FramesSeen int
	FramesDown float64
	DownFrac   float64
}

// Figure2Ctx reproduces Figure 2: global frames seen versus downlinked per
// orbit period for a hyperspectral constellation. A lone satellite's
// downlink covers ~2% of its observations; added satellites first claim
// idle ground-station time, then saturate the segment. The satellite-count
// sweep runs on the lab's worker pool.
func (l *Lab) Figure2Ctx(ctx context.Context, satCounts []int) ([]Fig2Row, error) {
	return sweep(ctx, l, len(satCounts), func(ctx context.Context, i int) (Fig2Row, error) {
		n := satCounts[i]
		cfg := sim.Landsat8Config(l.Epoch, 99*time.Minute, n)
		cfg.Camera = sense.Landsat8Hyper()
		cfg.Workers = l.Workers
		res, err := sim.RunCtx(ctx, cfg)
		if err != nil {
			return Fig2Row{}, err
		}
		seen := res.FramesObserved()
		down := res.FrameCapacity()
		return Fig2Row{
			Sats:       n,
			FramesSeen: seen,
			FramesDown: down,
			DownFrac:   down / float64(seen),
		}, nil
	})
}

// RenderFigure2 formats Figure 2's series.
func RenderFigure2(rows []Fig2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: global frames per orbit period (hyperspectral 10K frames)\n")
	fmt.Fprintf(&b, "%5s %12s %12s %10s\n", "Sats", "FramesSeen", "FramesDown", "DownFrac")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d %12d %12.1f %9.1f%%\n", r.Sats, r.FramesSeen, r.FramesDown, 100*r.DownFrac)
	}
	return b.String()
}

// Fig3Row is one satellite count of Figure 3.
type Fig3Row struct {
	Sats         int
	UniqueScenes int
	CoverageFrac float64
}

// Figure3Ctx reproduces Figure 3: unique global frames observed per day
// versus satellite count. Daily global coverage (the full 57,784-scene
// WRS-2 grid) requires tens of satellites. The satellite-count sweep runs
// on the lab's worker pool.
func (l *Lab) Figure3Ctx(ctx context.Context, satCounts []int) ([]Fig3Row, error) {
	total := wrs.Landsat8Grid().TotalScenes()
	return sweep(ctx, l, len(satCounts), func(ctx context.Context, i int) (Fig3Row, error) {
		n := satCounts[i]
		// Uncoordinated phasing: independently-operated satellites do not
		// phase-lock to the reference grid, so coverage accumulates with
		// coupon-collector statistics (an ideally phased constellation
		// reaches full daily coverage with just 16 satellites; see
		// EXPERIMENTS.md). The phases are drawn from a seeded stream
		// before any fan-out, so they are identical at every worker count.
		cfg := sim.Landsat8Config(l.Epoch, 24*time.Hour, n)
		cfg.RandomPhases = true
		cfg.PhaseSeed = l.Seed
		cfg.Workers = l.Workers
		res, err := sim.RunCtx(ctx, cfg)
		if err != nil {
			return Fig3Row{}, err
		}
		u := res.UniqueScenes()
		return Fig3Row{Sats: n, UniqueScenes: u, CoverageFrac: float64(u) / float64(total)}, nil
	})
}

// RenderFigure3 formats Figure 3's series.
func RenderFigure3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: unique global frames observed per day (grid = %d scenes)\n", wrs.Landsat8Grid().TotalScenes())
	fmt.Fprintf(&b, "%5s %14s %10s\n", "Sats", "UniqueScenes", "Coverage")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d %14d %9.1f%%\n", r.Sats, r.UniqueScenes, 100*r.CoverageFrac)
	}
	return b.String()
}

// cloudyPrevalence is the global cloud rate the paper uses in its
// motivation (67% of satellite images are obscured by clouds), leaving
// one third of observations high-value.
const cloudyPrevalence = 2.0 / 3.0

// Fig4Row is one column of Figure 4.
type Fig4Row struct {
	Column    string
	HighValue float64
	LowValue  float64
}

// Figure4Ctx reproduces Figure 4: frames per satellite per day — observed,
// downlinked by a bent pipe, and downlinked by ideal OEC filtering (100%
// accuracy, zero execution time). Ideal filtering downlinks ~3x the
// high-value frames of the bent pipe.
func (l *Lab) Figure4Ctx(ctx context.Context) ([]Fig4Row, error) {
	m, err := l.MissionCtx(ctx)
	if err != nil {
		return nil, err
	}
	observed := m.FramesPerDay
	capacity := m.CapacityFrac * observed
	hv := observed * (1 - cloudyPrevalence)
	bentHigh := capacity * (1 - cloudyPrevalence)
	idealHigh := capacity
	if idealHigh > hv {
		idealHigh = hv
	}
	return []Fig4Row{
		{Column: "Observed on Orbit", HighValue: hv, LowValue: observed - hv},
		{Column: "Downlinked, Bent Pipe", HighValue: bentHigh, LowValue: capacity - bentHigh},
		{Column: "Downlinked, Ideal OEC", HighValue: idealHigh, LowValue: 0},
	}, nil
}

// RenderFigure4 formats Figure 4's columns.
func RenderFigure4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: frames per satellite per day (67%% cloudy)\n")
	fmt.Fprintf(&b, "%-24s %10s %10s\n", "Column", "HighValue", "LowValue")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %10.0f %10.0f\n", r.Column, r.HighValue, r.LowValue)
	}
	if len(rows) == 3 && rows[1].HighValue > 0 {
		fmt.Fprintf(&b, "ideal / bent-pipe high-value ratio: %.2fx\n", rows[2].HighValue/rows[1].HighValue)
	}
	return b.String()
}

// azaveaFrameTime is the measured frame processing time of the real cloud
// filter the paper deploys in Section 2.1.3 (1 m 38 s per frame).
const azaveaFrameTime = 98 * time.Second

// azaveaRecall and azaveaPrecision model the production cloud filter's
// frame-triage quality (it is a real model, not an oracle).
const (
	azaveaRecall    = 0.78
	azaveaPrecision = 0.78
)

// Fig5Row is one satellite count of Figure 5.
type Fig5Row struct {
	Sats      int
	BentPct   float64
	DirectPct float64
}

// Figure5Ctx reproduces Figure 5: the percentage of observed high-value
// data downlinked, bent pipe versus a directly deployed 98 s/frame cloud
// filter against the ~24 s frame deadline. The computational bottleneck
// lets the filter triage only deadline/98s of captures — the rest are
// downlinked raw exactly as a bent pipe would send them — so the downlink
// mix is only slightly enriched and the improvement is ~9-16% instead of
// the ideal 3x. The satellite-count sweep runs on the lab's worker pool
// (concurrent day-long simulations are single-flight per count and shared
// with every other figure).
func (l *Lab) Figure5Ctx(ctx context.Context, satCounts []int) ([]Fig5Row, error) {
	m, err := l.MissionCtx(ctx)
	if err != nil {
		return nil, err
	}
	processedFrac := float64(m.FrameDeadline) / float64(azaveaFrameTime)
	hvFrac := 1 - cloudyPrevalence
	return sweep(ctx, l, len(satCounts), func(ctx context.Context, i int) (Fig5Row, error) {
		n := satCounts[i]
		res, err := l.dayRun(ctx, n)
		if err != nil {
			return Fig5Row{}, err
		}
		observed := float64(res.FramesObserved())
		capacity := res.FrameCapacity()
		hvObserved := observed * hvFrac

		// Bent pipe: indiscriminate downlink at the dataset mix.
		bentBits, bentHigh := value.Drain([]value.Chunk{
			{Bits: observed, ValueBits: hvObserved},
		}, capacity)
		_ = bentBits

		// Direct deploy: the filter triages the frames it manages to
		// process, keeping predicted-clear ones (with its real precision
		// and recall); frames captured while the filter is busy join the
		// downlink queue raw. FIFO draining sends the resulting mix.
		processed := processedFrac * observed
		keptTrue := azaveaRecall * processed * hvFrac
		kept := keptTrue / azaveaPrecision
		raw := observed - processed
		_, directHigh := value.Drain([]value.Chunk{
			{Bits: kept, ValueBits: keptTrue},
			{Bits: raw, ValueBits: raw * hvFrac},
		}, capacity)

		return Fig5Row{
			Sats:      n,
			BentPct:   100 * bentHigh / hvObserved,
			DirectPct: 100 * directHigh / hvObserved,
		}, nil
	})
}

// RenderFigure5 formats Figure 5's series.
func RenderFigure5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: observed high-value data downlinked (98 s filter vs deadline)\n")
	fmt.Fprintf(&b, "%5s %10s %12s %12s\n", "Sats", "BentPipe", "DirectDeploy", "Improvement")
	for _, r := range rows {
		imp := 0.0
		if r.BentPct > 0 {
			imp = r.DirectPct/r.BentPct - 1
		}
		fmt.Fprintf(&b, "%5d %9.1f%% %11.1f%% %11.1f%%\n", r.Sats, r.BentPct, r.DirectPct, 100*imp)
	}
	return b.String()
}
