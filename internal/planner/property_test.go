package planner

import (
	"sort"
	"testing"

	"kodan/internal/policy"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// randProfile draws a random tiling profile with 2-5 contexts.
func randProfile(rng *xrand.Rand) policy.TilingProfile {
	return randProfileK(rng, 2+int(rng.Float64()*4))
}

// randProfileK draws a random tiling profile with k contexts: tile shares
// that sum to one and specialists that tend to beat the generic model.
func randProfileK(rng *xrand.Rand, k int) policy.TilingProfile {
	prof := policy.TilingProfile{Tiling: tiling.Tiling{PerSide: 3}}
	fracs := make([]float64, k)
	var sum float64
	for i := range fracs {
		fracs[i] = 0.05 + rng.Float64()
		sum += fracs[i]
	}
	for i := 0; i < k; i++ {
		h := rng.Float64()
		prof.Contexts = append(prof.Contexts, policy.ContextProfile{
			TileFrac:      fracs[i] / sum,
			HighValueFrac: h,
			Special:       conf(0.7+0.3*rng.Float64(), 0.3*rng.Float64(), h),
			Merged:        conf(0.6+0.3*rng.Float64(), 0.4*rng.Float64(), h),
			Generic:       conf(0.5+0.4*rng.Float64(), 0.5*rng.Float64(), h),
		})
	}
	return prof
}

// randEnv draws a random but valid planner environment.
func randEnv(rng *xrand.Rand) Env {
	env := testEnv()
	env.Policy.CapacityFrac = rng.Range(0, 1.5)
	env.Costs = Costs{
		ValuePerFrame:  rng.Range(0.5, 2),
		RawDiscount:    rng.Float64(),
		LinkPerFrame:   rng.Range(0, 0.5),
		GroundPerFrame: rng.Range(0, 2),
		EnergyPerKJ:    rng.Range(0, 1),
	}
	env.BufferFrames = rng.Range(0, 128)
	env.FramesBetweenContacts = rng.Range(1, 50)
	return env
}

// randBase draws a random on-board base selection.
func randBase(rng *xrand.Rand, prof policy.TilingProfile) policy.Selection {
	pool := []policy.Action{policy.Discard, policy.Downlink, policy.Specialized, policy.Merged}
	sel := policy.Selection{Tiling: prof.Tiling}
	for range prof.Contexts {
		sel.Actions = append(sel.Actions, pool[int(rng.Float64()*float64(len(pool)))%len(pool)])
	}
	return sel
}

func TestPropertyMoreCapacityNeverLowersUtility(t *testing.T) {
	// The planner's first monotonicity guarantee: with everything else
	// fixed, growing the link pool only enlarges the feasible set, so the
	// chosen plan's utility must be nondecreasing in capacity.
	rng := xrand.New(7)
	for trial := 0; trial < 40; trial++ {
		prof := randProfile(rng)
		env := randEnv(rng)
		base := randBase(rng, prof)
		caps := make([]float64, 6)
		for i := range caps {
			caps[i] = rng.Range(0, 2.5)
		}
		sort.Float64s(caps)
		prev := 0.0
		for i, c := range caps {
			env.Policy.CapacityFrac = c
			plan, err := DecideCtx(t.Context(), prof, base, env)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := CheckPlan(plan, prof, env); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if i > 0 && plan.Eval.Utility < prev-1e-9 {
				t.Fatalf("trial %d: utility fell from %v to %v when capacity grew to %v",
					trial, prev, plan.Eval.Utility, c)
			}
			prev = plan.Eval.Utility
		}
	}
}

func TestPropertyHigherGroundCostNeverIncreasesDeferral(t *testing.T) {
	// The second guarantee: ground cost enters the objective only through
	// deferred work (and ties break toward less deferral), so raising it
	// can never increase the deferred fraction of the chosen plan.
	rng := xrand.New(11)
	for trial := 0; trial < 40; trial++ {
		prof := randProfile(rng)
		env := randEnv(rng)
		base := randBase(rng, prof)
		costs := make([]float64, 6)
		for i := range costs {
			costs[i] = rng.Range(0, 3)
		}
		sort.Float64s(costs)
		prev := 0.0
		for i, g := range costs {
			env.Costs.GroundPerFrame = g
			plan, err := DecideCtx(t.Context(), prof, base, env)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := CheckPlan(plan, prof, env); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if i > 0 && plan.Eval.DeferFrac > prev+1e-9 {
				t.Fatalf("trial %d: deferred fraction rose from %v to %v when ground cost grew to %v",
					trial, prev, plan.Eval.DeferFrac, g)
			}
			prev = plan.Eval.DeferFrac
		}
	}
}
