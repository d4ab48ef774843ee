package experiments

import (
	"bytes"
	"context"
	"testing"
	"time"

	"kodan/internal/fault"
	"kodan/internal/hw"
	"kodan/internal/sim"
)

// renderHybridPlan runs the sweep on a fresh quick lab at the given worker
// count and returns the rendered table plus the typed rows.
func renderHybridPlan(t *testing.T, workers int) (string, []HybridPlanRow) {
	t.Helper()
	lab := NewLab(Quick)
	lab.Workers = workers
	rows, err := lab.HybridPlanSweepCtx(context.Background())
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return RenderHybridPlan(rows), rows
}

// TestHybridPlanDeterministicAcrossWorkers pins the sweep's determinism
// contract: render, CSV bytes, and JSON bytes are identical between the
// sequential path and the parallel path.
func TestHybridPlanDeterministicAcrossWorkers(t *testing.T) {
	seqRender, seqRows := renderHybridPlan(t, 1)
	parRender, parRows := renderHybridPlan(t, 4)
	if seqRender != parRender {
		t.Fatalf("render differs between Workers=1 and Workers=4:\n--- sequential\n%s\n--- parallel\n%s", seqRender, parRender)
	}
	sc, sj := encode(t, "hybridplan", seqRows)
	pc, pj := encode(t, "hybridplan", parRows)
	if !bytes.Equal(sc, pc) {
		t.Error("CSV bytes differ between worker counts")
	}
	if !bytes.Equal(sj, pj) {
		t.Error("JSON bytes differ between worker counts")
	}
}

// TestHybridPlanQuickGolden pins the Quick-size sweep render byte for
// byte: any change to the planner's cost model, the policy optimizer, the
// drain replay, or the simulation that shifts a number shows up here.
func TestHybridPlanQuickGolden(t *testing.T) {
	l := testLab(t)
	rows, err := l.HybridPlanSweepCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "hybridplan_quick.render.golden", []byte(RenderHybridPlan(rows)))
}

// TestHybridPlanOnboardRowMatchesBaseline asserts the onboard-only rows ARE
// the existing fault-free baseline — the same memoized selection logic every
// other figure uses — not a separate code path that approximates it.
func TestHybridPlanOnboardRowMatchesBaseline(t *testing.T) {
	l := testLab(t)
	rows, err := l.HybridPlanSweepCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	art, err := l.AppCtx(t.Context(), planApp)
	if err != nil {
		t.Fatal(err)
	}
	// The single-satellite onboard row must equal the reference deployment's
	// estimate bit for bit: the lab's Deployment() derives its capacity from
	// the same 1-sat day run the sweep block does.
	m, err := l.MissionCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	_, est := art.SelectionLogic(m.Deployment(hw.Orin15W))
	found := false
	for _, r := range rows {
		if r.Mode != "onboard" {
			continue
		}
		if r.OnboardPct != 100 || r.DownlinkPct != 0 || r.DeferPct != 0 || r.DropPct != 0 {
			t.Errorf("sats=%d: onboard row placements %+v, want pure onboard", r.Sats, r)
		}
		if r.Sats == 1 {
			found = true
			if r.DVD != est.DVD {
				t.Errorf("sats=1 onboard DVD %v != baseline selection logic %v", r.DVD, est.DVD)
			}
		}
	}
	if !found {
		t.Fatal("no sats=1 onboard row in sweep")
	}
}

// TestHybridPlanDeferralMonotoneInGroundCost checks the sweep-level view of
// the planner's monotonicity guarantee: within each constellation size,
// raising the ground-compute cost never increases the deferred fraction.
func TestHybridPlanDeferralMonotoneInGroundCost(t *testing.T) {
	l := testLab(t)
	rows, err := l.HybridPlanSweepCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	prev := map[int]float64{}
	seen := map[int]bool{}
	for _, r := range rows {
		if r.Mode != "planner" {
			continue
		}
		if seen[r.Sats] && r.DeferPct > prev[r.Sats]+1e-9 {
			t.Errorf("sats=%d: deferral rose to %.3f%% at ground cost %.2f", r.Sats, r.DeferPct, r.GroundCost)
		}
		prev[r.Sats], seen[r.Sats] = r.DeferPct, true
	}
	if len(seen) != len(l.SatCounts()) {
		t.Fatalf("planner rows cover %d satellite counts, want %d", len(seen), len(l.SatCounts()))
	}
}

// TestHybridPlanWithScheduleReplans is the fault-awareness gate: with every
// ground station out for the whole day the sweep's planner block, run on
// the fault-injected day, must re-plan — no bits placed on the link, and a
// placement mix different from the fault-free plan at the same cell.
func TestHybridPlanWithScheduleReplans(t *testing.T) {
	l := testLab(t)
	rows, err := l.HybridPlanSweepCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	gc := l.PlanGroundCosts()[0]
	var clear HybridPlanRow
	for _, r := range rows {
		if r.Mode == "planner" && r.Sats == 1 && r.GroundCost == gc {
			clear = r
		}
	}
	if clear.Mode == "" {
		t.Fatal("no fault-free planner row at sats=1")
	}
	if clear.DownlinkPct+clear.DeferPct <= 0 {
		t.Fatalf("fault-free plan puts nothing on the link (%+v); outage test needs link traffic to remove", clear)
	}

	sched := &fault.Schedule{}
	for _, st := range sim.Landsat8Config(l.Epoch, 24*time.Hour, 1).Stations {
		sched.Windows = append(sched.Windows, fault.Window{
			Kind:    fault.StationOutage,
			Station: st.Name,
			Start:   l.Epoch,
			End:     l.Epoch.Add(24 * time.Hour),
		})
	}
	art, err := l.AppCtx(t.Context(), planApp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Landsat8Config(l.Epoch, 24*time.Hour, 1)
	res, err := sim.RunCtx(fault.WithInjector(t.Context(), fault.NewInjector(sched)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	block, err := hybridPlanBlock(t.Context(), art, res, []float64{gc})
	if err != nil {
		t.Fatal(err)
	}
	dark := block[len(block)-1]
	if dark.DownlinkPct+dark.DeferPct > 0 {
		t.Errorf("planner still schedules link traffic with every station out: %+v", dark)
	}
	if dark.OnboardPct == clear.OnboardPct && dark.DeferPct == clear.DeferPct &&
		dark.DownlinkPct == clear.DownlinkPct && dark.DropPct == clear.DropPct {
		t.Errorf("station outage did not change the plan: %+v", dark)
	}
}
