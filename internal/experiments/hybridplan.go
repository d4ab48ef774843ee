package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"kodan"
	"kodan/internal/core"
	"kodan/internal/hw"
	"kodan/internal/planner"
	"kodan/internal/power"
	"kodan/internal/sim"
)

// planApp is the reference application of the hybrid-plan sweep (App 4,
// the same reference Figure 10 uses).
const planApp = 4

// PlanGroundCosts returns the ground-compute-cost sweep points (per
// frame-fraction processed on the ground) at this size.
func (l *Lab) PlanGroundCosts() []float64 {
	if l.Size == Quick {
		return []float64{0.2, 2}
	}
	return []float64{0.05, 0.2, 1, 5}
}

// HybridPlanRow is one (constellation size, mode, ground cost) cell of
// the hybrid-plan sweep.
type HybridPlanRow struct {
	// Sats is the constellation population.
	Sats int
	// Mode is "onboard" (current Kodan, the memoized fault-free
	// baseline), "bentpipe", or "planner".
	Mode string
	// GroundCost is the planner's ground-compute price; 0 on baseline
	// rows (they never buy ground compute).
	GroundCost float64
	// DVD is the delivered high-value bits per downlinked bit.
	DVD float64
	// LatencyS is the mean capture-to-delivery latency in seconds of the
	// planned downlink traffic, from the store-and-forward replay of the
	// simulated contact schedule (sim.DrainDeferredCtx).
	LatencyS float64
	// OnboardPct, DownlinkPct, DeferPct, and DropPct partition the tile
	// fraction by placement.
	OnboardPct  float64
	DownlinkPct float64
	DeferPct    float64
	DropPct     float64
	// EnergyJ is the on-board compute energy per frame.
	EnergyJ float64
	// Utility is the planner's maximized objective (planner rows only).
	Utility float64
}

// HybridPlanSweepCtx sweeps constellation size and ground-compute cost and
// reports DVD and end-to-end latency for the hybrid planner against the
// onboard-only (current Kodan) and bent-pipe baselines. The satellite
// counts fan out on the lab's worker pool; the day-long simulations, the
// workspace, and the App 4 artifacts are the same memoized state every
// other figure shares, so the onboard-only rows are byte-identical to the
// existing fault-free baseline at any worker count.
func (l *Lab) HybridPlanSweepCtx(ctx context.Context) ([]HybridPlanRow, error) {
	art, err := l.AppCtx(ctx, planApp)
	if err != nil {
		return nil, err
	}
	sats := l.SatCounts()
	gcosts := l.PlanGroundCosts()
	blocks, err := sweep(ctx, l, len(sats), func(ctx context.Context, i int) ([]HybridPlanRow, error) {
		res, err := l.dayRun(ctx, sats[i])
		if err != nil {
			return nil, err
		}
		return hybridPlanBlock(ctx, art, res, gcosts)
	})
	return slices.Concat(blocks...), err
}

// hybridPlanBlock computes one constellation size's rows: the onboard and
// bent-pipe baselines plus one planner row per ground cost. Everything
// derives deterministically from the day run and the App 4 artifacts; a
// fault-injected run re-plans against its derated link.
func hybridPlanBlock(ctx context.Context, art *core.Artifacts, res *sim.Result,
	gcosts []float64) ([]HybridPlanRow, error) {
	m, err := kodan.MissionOf(res)
	if err != nil {
		return nil, err
	}
	n := res.Config.Satellites
	d := m.Deployment(hw.Orin15W)

	// Onboard-only: the existing Kodan selection logic, unchanged.
	sel, est := art.SelectionLogic(d)
	energy, err := power.EnergyPerFrame(hw.Orin15W, est.FrameTime, m.FrameDeadline)
	if err != nil {
		return nil, err
	}
	rows := []HybridPlanRow{{
		Sats:       n,
		Mode:       "onboard",
		DVD:        est.DVD,
		LatencyS:   drainLatency(ctx, res, est.Ledger.DownlinkedBits*m.FrameBits, 0),
		OnboardPct: 100,
		EnergyJ:    energy,
	}}

	// Bent pipe: every frame raw, no on-board compute at all.
	bent := art.BentPipe(d)
	rows = append(rows, HybridPlanRow{
		Sats:        n,
		Mode:        "bentpipe",
		DVD:         bent.DVD,
		LatencyS:    drainLatency(ctx, res, m.FrameBits, 0),
		DownlinkPct: 100,
	})

	// Planner rows share the optimizer's tiling and on-board actions, so
	// their Onboard placements execute exactly the baseline's logic.
	prof, err := art.Profile(sel.Tiling)
	if err != nil {
		return nil, err
	}
	for _, g := range gcosts {
		env := m.HybridEnv()
		env.Policy = d.Env(art.Arch)
		env.Costs.GroundPerFrame = g
		plan, err := planner.DecideCtx(ctx, prof, sel, env)
		if err != nil {
			return nil, err
		}
		ev := plan.Eval
		rows = append(rows, HybridPlanRow{
			Sats:        n,
			Mode:        "planner",
			GroundCost:  g,
			DVD:         ev.DVD,
			LatencyS:    drainLatency(ctx, res, (ev.NowBits+ev.DeferBits)*m.FrameBits, env.BufferFrames*m.FrameBits),
			OnboardPct:  100 * ev.OnboardFrac,
			DownlinkPct: 100 * ev.DownlinkFrac,
			DeferPct:    100 * ev.DeferFrac,
			DropPct:     100 * ev.DropFrac,
			EnergyJ:     ev.EnergyPerFrameJ,
			Utility:     ev.Utility,
		})
	}
	return rows, nil
}

// drainLatency replays bitsPerFrame of downlink traffic through the run's
// contact schedule and returns the mean delivery latency in seconds.
func drainLatency(ctx context.Context, res *sim.Result, bitsPerFrame, bufferBits float64) float64 {
	return res.DrainDeferredCtx(ctx, bitsPerFrame, bufferBits).MeanLatency.Seconds()
}

// RenderHybridPlan formats the hybrid-plan sweep.
func RenderHybridPlan(rows []HybridPlanRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hybrid plan sweep: DVD and end-to-end latency vs constellation size x ground cost (App %d, Orin 15W)\n", planApp)
	fmt.Fprintf(&b, "%5s %9s %7s %7s %11s %9s %10s %7s %6s %8s %8s\n",
		"Sats", "Mode", "GndCost", "DVD", "Latency(s)", "Onboard%", "Downlink%", "Defer%", "Drop%", "EnergyJ", "Utility")
	for _, r := range rows {
		gc := fmt.Sprintf("%7.2f", r.GroundCost)
		util := fmt.Sprintf("%8.3f", r.Utility)
		if r.Mode != "planner" {
			gc = fmt.Sprintf("%7s", "-")
			util = fmt.Sprintf("%8s", "-")
		}
		fmt.Fprintf(&b, "%5d %9s %s %7.3f %11.1f %9.1f %10.1f %7.1f %6.1f %8.1f %s\n",
			r.Sats, r.Mode, gc, r.DVD, r.LatencyS,
			r.OnboardPct, r.DownlinkPct, r.DeferPct, r.DropPct, r.EnergyJ, util)
	}
	return b.String()
}
