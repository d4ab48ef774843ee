package planner

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/fault"
	"kodan/internal/hw"
	"kodan/internal/nn"
	"kodan/internal/policy"
	"kodan/internal/power"
	"kodan/internal/sim"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// refEvaluate is evaluate before the constraint and objective helpers
// were factored out, kept verbatim as the oracle's pricing.
func refEvaluate(dispositions []Disposition, opts [][]option, prof policy.TilingProfile, env Env) (Eval, bool) {
	var ev Eval
	engineMs := float64(prof.Tiling.Tiles()) * env.Policy.Target.ContextEngineMsPerTile()
	ms := engineMs
	var finished, raw float64
	hasModels := false
	for c, d := range dispositions {
		o := opts[c][d]
		ms += o.modelMs
		if o.modelMs > 0 {
			hasModels = true
		}
		ev.NowBits += o.nowBits
		ev.DeferBits += o.deferBits
		ev.GroundFrames += o.ground
		finished += o.finished
		raw += o.raw
		f := prof.Contexts[c].TileFrac
		switch d {
		case Onboard:
			ev.OnboardFrac += f
		case DownlinkNow:
			ev.DownlinkFrac += f
		case Defer:
			ev.DeferFrac += f
		default:
			ev.DropFrac += f
		}
	}
	ev.FrameTime = time.Duration(ms * float64(time.Millisecond))
	deadline := env.Policy.Deadline
	if hasModels && ev.FrameTime > deadline {
		return ev, false
	}
	if ev.NowBits+ev.DeferBits > env.Policy.CapacityFrac+feasEps {
		return ev, false
	}
	if ev.DeferBits*env.contactGap() > env.BufferFrames+feasEps {
		return ev, false
	}
	energy, err := power.EnergyPerFrame(env.Policy.Target, ev.FrameTime, deadline)
	if err != nil {
		return ev, false
	}
	ev.EnergyPerFrameJ = energy
	ev.ValueFrames = finished + raw
	cost := env.Costs
	ev.Utility = cost.ValuePerFrame*(finished+cost.RawDiscount*raw) -
		cost.LinkPerFrame*(ev.NowBits+ev.DeferBits) -
		cost.GroundPerFrame*ev.GroundFrames -
		cost.EnergyPerKJ*energy/1000
	if link := ev.NowBits + ev.DeferBits; link > 0 {
		ev.DVD = ev.ValueFrames / link
	}
	return ev, true
}

// refDecide is DecideCtx before the prefix-sum placement search: every
// code decoded by div/mod, priced in full by refEvaluate and compared
// with betterEval as it is produced. It is the oracle placeSearch must
// match exactly (journaling aside).
func refDecide(prof policy.TilingProfile, base policy.Selection, env Env) (Plan, error) {
	if err := env.Validate(); err != nil {
		return Plan{}, err
	}
	env.Policy.UseEngine = true
	opts := contextOptions(prof, base, env)
	k := len(prof.Contexts)
	combos := 1
	for i := 0; i < k; i++ {
		combos *= int(numDispositions)
	}
	var best []Disposition
	var bestEv Eval
	found := false
	cur := make([]Disposition, k)
	for code := 0; code < combos; code++ {
		c := code
		for i := 0; i < k; i++ {
			cur[i] = Disposition(c % int(numDispositions))
			c /= int(numDispositions)
		}
		ev, ok := refEvaluate(cur, opts, prof, env)
		if !ok {
			continue
		}
		if !found || betterEval(ev, bestEv) {
			best = append(best[:0], cur...)
			bestEv = ev
			found = true
		}
	}
	if !found {
		best = make([]Disposition, k)
		for i := range best {
			best[i] = Drop
		}
		bestEv, _ = refEvaluate(best, opts, prof, env)
	}
	actions := make([]policy.Action, k)
	for c, d := range best {
		actions[c] = d.action(base.Actions[c])
	}
	return Plan{Tiling: prof.Tiling, Base: base, Dispositions: best, Actions: actions, Eval: bestEv}, nil
}

// oracleProfile draws a k-context profile with exact duplicate contexts
// (exact ties), zero TileFrac and zero-total confusions mixed in, and now
// and then a negative TileFrac.
func oracleProfile(k int, rng *xrand.Rand) policy.TilingProfile {
	prof := policy.TilingProfile{Tiling: tiling.Tiling{PerSide: 1 + rng.Intn(10)}}
	confusion := func(h float64) nn.Confusion {
		if rng.Intn(6) == 0 {
			return nn.Confusion{}
		}
		return conf(0.5+0.5*rng.Float64(), 0.5*rng.Float64(), h)
	}
	for c := 0; c < k; c++ {
		h := rng.Float64()
		cp := policy.ContextProfile{
			TileFrac:      rng.Float64() / float64(k),
			HighValueFrac: h,
			Special:       confusion(h),
			Merged:        confusion(h),
			Generic:       confusion(h),
		}
		switch rng.Intn(6) {
		case 0:
			cp.TileFrac = 0
		case 1:
			if c > 0 {
				cp = prof.Contexts[rng.Intn(c)]
			}
		}
		prof.Contexts = append(prof.Contexts, cp)
	}
	if rng.Intn(16) == 0 {
		// A negative term turns the search's pruning off.
		prof.Contexts[rng.Intn(k)].TileFrac = -rng.Float64() / float64(k)
	}
	return prof
}

// oracleCase draws one planning problem: randEnv's costs, buffers and
// contact gaps, plus zero capacity, deadlines short enough that the
// selection logic leaves frames unprocessed (p < 1), FillIdle on and off,
// and a base that is either the optimizer's choice or random.
func oracleCase(k int, rng *xrand.Rand) (policy.TilingProfile, policy.Selection, Env) {
	prof := oracleProfile(k, rng)
	env := randEnv(rng)
	env.Policy.App = app.App(1 + rng.Intn(7))
	env.Policy.Target = hw.Targets()[rng.Intn(3)]
	env.Policy.Deadline = time.Duration(rng.Range(0.05, 30) * float64(time.Second))
	env.Policy.FillIdle = rng.Intn(2) == 0
	if rng.Intn(8) == 0 {
		env.Policy.CapacityFrac = 0
	}
	base := randBase(rng, prof)
	if rng.Intn(2) == 0 {
		base = baseFor(prof, env)
	}
	return prof, base, env
}

// oracleK draws a context count in 1..8, weighted toward the cheap end:
// one 4^8 reference search costs as much as a thousand small ones.
func oracleK(trial int, rng *xrand.Rand) int {
	switch {
	case trial%32 == 1:
		return 8
	case trial%16 == 0:
		return 7
	}
	return 1 + rng.Intn(6)
}

// TestPlaceSearchMatchesReference pins the pruned prefix-sum search to the
// code-order reference: an identical Plan, bit for bit, on every problem,
// and every plan passes CheckPlan.
func TestPlaceSearchMatchesReference(t *testing.T) {
	rng := xrand.New(43)
	for trial := 0; trial < 3200; trial++ {
		k := oracleK(trial, rng)
		prof, base, env := oracleCase(k, rng)
		got, err := DecideCtx(t.Context(), prof, base, env)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := refDecide(prof, base, env)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d, env %+v):\n got  %v %+v\n want %v %+v",
				trial, k, env, got.Dispositions, got.Eval, want.Dispositions, want.Eval)
		}
		if err := CheckPlan(got, prof, env); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestPlaceSearchNoContexts covers the empty profile: one candidate, the
// empty placement.
func TestPlaceSearchNoContexts(t *testing.T) {
	prof := policy.TilingProfile{Tiling: tiling.Tiling{PerSide: 3}}
	base := policy.Selection{Tiling: prof.Tiling}
	got, err := DecideCtx(t.Context(), prof, base, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refDecide(prof, base, testEnv())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestCheckPlanOnFaultedLinks plans against the link DeriveLink reads off
// faulted simulations at fault intensities 0, 0.5 and 1, across buffers,
// and requires every plan to pass CheckPlan and to match
// the reference search.
func TestCheckPlanOnFaultedLinks(t *testing.T) {
	cfg := sim.Landsat8Config(epoch, 12*time.Hour, 3)
	names := make([]string, len(cfg.Stations))
	for i, s := range cfg.Stations {
		names[i] = s.Name
	}
	rng := xrand.New(47)
	var clean float64
	for _, intensity := range []float64{0, 0.5, 1} {
		sched := fault.Generate(fault.GenConfig{
			Seed: 5, Start: epoch, Span: cfg.Span, Intensity: intensity,
			Stations: names, Sats: cfg.Satellites,
		})
		res, err := sim.RunCtx(fault.WithInjector(t.Context(), fault.NewInjector(sched)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		li := DeriveLink(res)
		if intensity == 0 {
			clean = li.CapacityFrac
		} else if li.CapacityFrac >= clean {
			t.Fatalf("intensity %v: capacity %v did not shrink from the clean %v", intensity, li.CapacityFrac, clean)
		}
		for trial := 0; trial < 24; trial++ {
			prof, base, env := oracleCase(1+trial%6, rng)
			env = env.WithLink(li)
			env.BufferFrames = []float64{0, 1, 16, 64}[trial%4]
			name := fmt.Sprintf("intensity %v trial %d", intensity, trial)
			plan, err := DecideCtx(t.Context(), prof, base, env)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := CheckPlan(plan, prof, env); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want, _ := refDecide(prof, base, env); !reflect.DeepEqual(plan, want) {
				t.Fatalf("%s: got %v, reference %v", name, plan.Dispositions, want.Dispositions)
			}
		}
	}
}

// TestCheckPlanRejectsBreaches hands CheckPlan doctored plans and requires
// each breach to be named.
func TestCheckPlanRejectsBreaches(t *testing.T) {
	prof := testProfile()
	env := testEnv()
	env.Policy.CapacityFrac = 2
	env.Costs.GroundPerFrame = 0
	plan, err := DecideCtx(t.Context(), prof, baseFor(prof, env), env)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(plan, prof, env); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for name, breach := range map[string]func(*Plan, *Env){
		"Eval.Utility": func(p *Plan, _ *Env) { p.Eval.Utility += 0.1 },
		"maps to":      func(p *Plan, _ *Env) { p.Actions[0] = policy.Generic },
		"link pool":    func(_ *Plan, e *Env) { e.Policy.CapacityFrac = 0.01 },
		"buffer":       func(_ *Plan, e *Env) { e.BufferFrames, e.FramesBetweenContacts = 0, 1000 },
		"plan shape":   func(p *Plan, _ *Env) { p.Dispositions = p.Dispositions[:1] },
		"disposition":  func(p *Plan, _ *Env) { p.Dispositions[0] = numDispositions },
	} {
		p, e := plan, env
		p.Dispositions = append([]Disposition(nil), plan.Dispositions...)
		p.Actions = append([]policy.Action(nil), plan.Actions...)
		breach(&p, &e)
		if err := CheckPlan(p, prof, e); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s breach: CheckPlan = %v", name, err)
		}
	}

	// An all-on-board plan, checked against a deadline its frame time
	// misses.
	onboard := policy.Selection{Tiling: prof.Tiling, Actions: []policy.Action{
		policy.Specialized, policy.Specialized, policy.Specialized,
	}}
	disp := []Disposition{Onboard, Onboard, Onboard}
	ev, ok := evaluate(disp, contextOptions(prof, onboard, env), prof, env)
	if !ok {
		t.Fatal("all-on-board plan infeasible at the reference deadline")
	}
	plan = Plan{Tiling: prof.Tiling, Base: onboard, Dispositions: disp, Actions: onboard.Actions, Eval: ev}
	if err := CheckPlan(plan, prof, env); err != nil {
		t.Fatalf("valid all-on-board plan rejected: %v", err)
	}
	tight := env
	tight.Policy.Deadline = ev.FrameTime - 1
	if err := CheckPlan(plan, prof, tight); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("deadline breach: CheckPlan = %v", err)
	}
}

// refHillClimb is the placement hill climb kept verbatim, priced by
// refEvaluate, as the oracle for profiles past the exhaustive bound:
// start all-Drop, then sweep the contexts in order, taking every
// single-placement change betterEval accepts, until a full pass changes
// nothing.
func refHillClimb(opts [][]option, prof policy.TilingProfile, env Env) ([]Disposition, Eval, bool) {
	k := len(prof.Contexts)
	cur := make([]Disposition, k)
	for i := range cur {
		cur[i] = Drop
	}
	ev, ok := refEvaluate(cur, opts, prof, env)
	if !ok {
		return cur, ev, false
	}
	for improved := true; improved; {
		improved = false
		for i := 0; i < k; i++ {
			orig := cur[i]
			for d := Disposition(0); d < numDispositions; d++ {
				if d == orig {
					continue
				}
				cur[i] = d
				cand, okc := refEvaluate(cur, opts, prof, env)
				if okc && betterEval(cand, ev) {
					ev = cand
					improved = true
					orig = d
				} else {
					cur[i] = orig
				}
			}
		}
	}
	return cur, ev, true
}

// TestHillClimbMatchesReference pins the placement path past the
// exhaustive bound (k = 9..12) to refHillClimb: an identical Plan across
// FillIdle, a capacity grid and a buffer grid, and every plan passes
// CheckPlan. Half the bases come from the selection logic's own climb.
func TestHillClimbMatchesReference(t *testing.T) {
	rng := xrand.New(59)
	for k := 9; k <= 12; k++ {
		for _, fill := range []bool{false, true} {
			for _, capacity := range []float64{0, 0.05, 0.21, 0.6, 2} {
				for _, buffer := range []float64{0, 4, 16, 64} {
					for trial := 0; trial < 3; trial++ {
						prof := oracleProfile(k, rng)
						env := randEnv(rng)
						env.Policy.App = app.App(1 + rng.Intn(7))
						env.Policy.Target = hw.Targets()[rng.Intn(3)]
						env.Policy.Deadline = time.Duration(rng.Range(0.05, 30) * float64(time.Second))
						env.Policy.FillIdle, env.Policy.CapacityFrac, env.BufferFrames = fill, capacity, buffer
						base := randBase(rng, prof)
						if trial%2 == 0 {
							base = baseFor(prof, env)
						}
						got, err := DecideCtx(t.Context(), prof, base, env)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("k=%d fill=%v capacity=%v buffer=%v trial %d", k, fill, capacity, buffer, trial)
						ref := env
						ref.Policy.UseEngine = true
						opts := contextOptions(prof, base, ref)
						disp, ev, ok := refHillClimb(opts, prof, ref)
						if !ok {
							t.Fatalf("%s: all-Drop start infeasible", name)
						}
						actions := make([]policy.Action, k)
						for c, d := range disp {
							actions[c] = d.action(base.Actions[c])
						}
						want := Plan{Tiling: prof.Tiling, Base: base, Dispositions: disp, Actions: actions, Eval: ev}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s:\n got  %v %+v\n want %v %+v", name, got.Dispositions, got.Eval, want.Dispositions, want.Eval)
						}
						if err := CheckPlan(got, prof, env); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
}
