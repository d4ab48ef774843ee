package policy

import (
	"math"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/nn"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// conf builds a confusion matrix from rates over a nominal population.
func conf(tpr, fpr, baseRate float64) nn.Confusion {
	const n = 10000
	pos := int(baseRate * n)
	neg := n - pos
	tp := int(tpr * float64(pos))
	fp := int(fpr * float64(neg))
	return nn.Confusion{TP: tp, FN: pos - tp, FP: fp, TN: neg - fp}
}

// testProfile builds a 3-context profile: a near-pure high-value context,
// a near-pure low-value context, and a mixed context.
func testProfile(perSide int) TilingProfile {
	return TilingProfile{
		Tiling: tiling.Tiling{PerSide: perSide},
		Contexts: []ContextProfile{
			{TileFrac: 0.30, HighValueFrac: 0.95, Generic: conf(0.90, 0.30, 0.95), Special: conf(0.95, 0.20, 0.95)},
			{TileFrac: 0.35, HighValueFrac: 0.05, Generic: conf(0.80, 0.15, 0.05), Special: conf(0.90, 0.05, 0.05)},
			{TileFrac: 0.35, HighValueFrac: 0.50, Generic: conf(0.85, 0.25, 0.50), Special: conf(0.92, 0.10, 0.50)},
		},
	}
}

func testEnv() Env {
	return Env{
		App:          app.App(4),
		Target:       hw.Orin15W,
		Deadline:     24 * time.Second,
		CapacityFrac: 0.21,
		FillIdle:     true,
		UseEngine:    true,
	}
}

func TestPrevalence(t *testing.T) {
	tp := testProfile(3)
	want := 0.30*0.95 + 0.35*0.05 + 0.35*0.50
	if got := tp.Prevalence(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("prevalence = %v, want %v", got, want)
	}
}

func TestFrameTimeArithmetic(t *testing.T) {
	tp := testProfile(3)
	env := testEnv()
	sel := Selection{Tiling: tp.Tiling, Actions: []Action{Downlink, Discard, Specialized}}
	got := FrameTime(sel, tp, env)
	// 9 tiles: engine on all, model on the 35% in context 2.
	wantMs := 9*env.Target.ContextEngineMsPerTile() + 9*0.35*env.App.PerTileMs[env.Target]
	want := time.Duration(wantMs * float64(time.Millisecond))
	if got != want {
		t.Fatalf("frame time = %v, want %v", got, want)
	}
}

func TestElidedFrac(t *testing.T) {
	tp := testProfile(3)
	sel := Selection{Tiling: tp.Tiling, Actions: []Action{Downlink, Discard, Specialized}}
	if got := sel.ElidedFrac(tp); math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("elided = %v", got)
	}
}

func TestEvaluateMeetsDeadlineAt9Tiles(t *testing.T) {
	tp := testProfile(3)
	env := testEnv()
	sel := Selection{Tiling: tp.Tiling, Actions: []Action{Downlink, Discard, Specialized}}
	est := Evaluate(sel, tp, env)
	if est.ProcessedFrac != 1 {
		t.Fatalf("processed frac = %v with frame time %v", est.ProcessedFrac, est.FrameTime)
	}
	if est.DVD < 0.85 {
		t.Fatalf("Kodan-style DVD = %v, want high", est.DVD)
	}
}

func TestEvaluateBottleneckReducesDVD(t *testing.T) {
	// All-specialized at 121 tiles on the Orin blows the deadline badly;
	// DVD must fall toward the bent pipe.
	tp := testProfile(11)
	env := testEnv()
	sel := Selection{Tiling: tp.Tiling, Actions: []Action{Specialized, Specialized, Specialized}}
	est := Evaluate(sel, tp, env)
	if est.ProcessedFrac >= 0.2 {
		t.Fatalf("processed frac = %v, expected deep bottleneck", est.ProcessedFrac)
	}
	bent := EvaluateBentPipe(tp.Prevalence(), env)
	if est.DVD > bent.DVD*1.5 {
		t.Fatalf("bottlenecked DVD %v too far above bent pipe %v", est.DVD, bent.DVD)
	}
}

func TestBentPipeDVDEqualsPrevalence(t *testing.T) {
	tp := testProfile(3)
	env := testEnv()
	est := EvaluateBentPipe(tp.Prevalence(), env)
	if math.Abs(est.DVD-tp.Prevalence()) > 1e-9 {
		t.Fatalf("bent pipe DVD = %v, want prevalence %v", est.DVD, tp.Prevalence())
	}
	// Over-capacity link: DVD limited by available data.
	env.CapacityFrac = 2
	est = EvaluateBentPipe(0.5, env)
	if math.Abs(est.DVD-0.25) > 1e-9 {
		t.Fatalf("over-capacity bent pipe DVD = %v", est.DVD)
	}
}

func TestOptimizeBeatsBaselines(t *testing.T) {
	profiles := []TilingProfile{testProfile(3), testProfile(4), testProfile(6), testProfile(11)}
	env := testEnv()
	sel, est := Optimize(profiles, env)
	if len(sel.Actions) != 3 {
		t.Fatalf("selection shape %v", sel)
	}
	bent := EvaluateBentPipe(profiles[0].Prevalence(), env)
	if est.DVD <= bent.DVD {
		t.Fatalf("Kodan DVD %v not above bent pipe %v", est.DVD, bent.DVD)
	}
	directEnv := env
	directEnv.UseEngine = false
	direct := Evaluate(DirectSelection(profiles[3]), profiles[3], directEnv)
	if est.DVD <= direct.DVD {
		t.Fatalf("Kodan DVD %v not above direct deploy %v", est.DVD, direct.DVD)
	}
}

func TestOptimizeElidesUnderComputeBottleneck(t *testing.T) {
	// Section 3.4, "Meeting the soft deadline": when any model execution
	// blows the deadline (App 7 at 121 tiles on the Orin), the optimizer
	// must elide — downlink the near-pure high-value context rather than
	// filter it — and that choice must keep DVD high.
	profiles := []TilingProfile{testProfile(11)}
	env := testEnv()
	env.App = app.App(7)
	sel, est := Optimize(profiles, env)
	if sel.Actions[0] != Downlink {
		t.Errorf("high-value context action = %v, want downlink", sel.Actions[0])
	}
	if sel.Actions[1] == Downlink {
		t.Errorf("low-value context action = %v", sel.Actions[1])
	}
	if est.ProcessedFrac < 0.999 {
		t.Errorf("selection misses deadline: processed %v", est.ProcessedFrac)
	}
	if est.DVD < 0.9 {
		t.Errorf("DVD = %v", est.DVD)
	}
}

func TestOptimizeUnconstrainedPrefersPrecision(t *testing.T) {
	// Section 3.4, "Claiming idle compute time": with a fast target and a
	// light app the deadline is slack; the optimizer should run the
	// specialized model on the high-value context (its filtered product is
	// denser than the raw tile) and never do worse than all-specialized.
	profiles := []TilingProfile{testProfile(3), testProfile(11)}
	env := testEnv()
	env.Target = hw.GTX1070Ti
	env.App = app.App(1)
	sel, est := Optimize(profiles, env)
	allSpec := Selection{Tiling: tiling.Tiling{PerSide: 11}, Actions: []Action{Specialized, Specialized, Specialized}}
	if base := Evaluate(allSpec, profiles[1], env); est.DVD < base.DVD-1e-12 {
		t.Fatalf("optimizer (%v) worse than all-specialized (%v)", est.DVD, base.DVD)
	}
	if sel.Actions[0] != Specialized {
		t.Errorf("high-value context action = %v, want specialized (elide only when more precise)", sel.Actions[0])
	}
}

func TestHillClimbMatchesExhaustiveOnSmallProblem(t *testing.T) {
	tp := testProfile(3)
	env := testEnv()
	exSel, exEst := exhaustiveSearch(tp, env)
	hcSel, hcEst := hillClimb(tp, env)
	if math.Abs(exEst.DVD-hcEst.DVD) > 0.02 {
		t.Fatalf("hill climb DVD %v far from exhaustive %v (%v vs %v)",
			hcEst.DVD, exEst.DVD, hcSel.Actions, exSel.Actions)
	}
}

func TestSatellitesForCoverage(t *testing.T) {
	d := 22 * time.Second
	cases := []struct {
		ft   time.Duration
		want int
	}{
		{10 * time.Second, 1},
		{22 * time.Second, 1},
		{23 * time.Second, 2},
		{98 * time.Second, 5},
		{247 * time.Second, 12}, // App 7 on Orin at 121 tiles: the 12x of Figure 11
	}
	for _, c := range cases {
		if got := SatellitesForCoverage(c.ft, d); got != c.want {
			t.Errorf("coverage(%v) = %d, want %d", c.ft, got, c.want)
		}
	}
}

func TestEvaluatePanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Evaluate(Selection{Tiling: tiling.Tiling{PerSide: 3}, Actions: []Action{Discard}}, testProfile(3), testEnv())
}

func TestActionStrings(t *testing.T) {
	for a, want := range map[Action]string{Discard: "discard", Downlink: "downlink", Specialized: "specialized", Generic: "generic"} {
		if a.String() != want {
			t.Errorf("%d -> %q", a, a.String())
		}
	}
}

func TestOptimizeDominatesRandomSelections(t *testing.T) {
	// The generated selection logic must beat (or tie) every random policy
	// at every candidate tiling — the optimizer is exhaustive at these
	// context counts, so this is an invariant, not a statistical claim.
	profiles := []TilingProfile{testProfile(3), testProfile(4), testProfile(6), testProfile(11)}
	for _, target := range []hw.Target{hw.GTX1070Ti, hw.I7_7800X, hw.Orin15W} {
		env := testEnv()
		env.Target = target
		_, best := Optimize(profiles, env)
		env.UseEngine = true
		rng := xrand.New(uint64(target) + 99)
		for trial := 0; trial < 200; trial++ {
			tp := profiles[rng.Intn(len(profiles))]
			sel := Selection{Tiling: tp.Tiling, Actions: make([]Action, len(tp.Contexts))}
			for i := range sel.Actions {
				sel.Actions[i] = Action(rng.Intn(int(numActions)))
			}
			if est := Evaluate(sel, tp, env); est.DVD > best.DVD+1e-9 {
				t.Fatalf("%v: random selection %v at %v beat the optimizer (%.4f > %.4f)",
					target, sel.Actions, tp.Tiling, est.DVD, best.DVD)
			}
		}
	}
}

func TestEvaluateInvariants(t *testing.T) {
	// Ledger sanity for arbitrary selections: value <= downlinked <=
	// capacity; processed fraction in (0, 1].
	profiles := []TilingProfile{testProfile(3), testProfile(11)}
	env := testEnv()
	rng := xrand.New(4242)
	for trial := 0; trial < 500; trial++ {
		tp := profiles[rng.Intn(len(profiles))]
		sel := Selection{Tiling: tp.Tiling, Actions: make([]Action, len(tp.Contexts))}
		for i := range sel.Actions {
			sel.Actions[i] = Action(rng.Intn(int(numActions)))
		}
		env.CapacityFrac = rng.Range(0.01, 1.2)
		env.FillIdle = rng.Bool(0.5)
		est := Evaluate(sel, tp, env)
		l := est.Ledger
		if l.HighValueBits > l.DownlinkedBits+1e-12 {
			t.Fatalf("value > downlinked: %+v", l)
		}
		if l.DownlinkedBits > l.CapacityBits+1e-12 {
			t.Fatalf("downlinked > capacity: %+v", l)
		}
		if est.ProcessedFrac <= 0 || est.ProcessedFrac > 1 {
			t.Fatalf("processed frac %v", est.ProcessedFrac)
		}
		if est.DVD < 0 || est.DVD > 1 {
			t.Fatalf("DVD %v", est.DVD)
		}
	}
}

func TestDeferredActionAccounting(t *testing.T) {
	tp := testProfile(3)
	env := testEnv()
	env.FillIdle = false

	// Deferred tiles run no model (same frame time as elision) and leave
	// the in-frame downlink budget untouched (same ledger as discard):
	// their bits are accounted against later contact windows by the
	// planner, not by the per-frame drain.
	def := Selection{Tiling: tp.Tiling, Actions: []Action{Deferred, Discard, Specialized}}
	dis := Selection{Tiling: tp.Tiling, Actions: []Action{Discard, Discard, Specialized}}
	if got, want := FrameTime(def, tp, env), FrameTime(dis, tp, env); got != want {
		t.Fatalf("deferred frame time = %v, discard = %v", got, want)
	}
	de, di := Evaluate(def, tp, env), Evaluate(dis, tp, env)
	if de.Ledger != di.Ledger {
		t.Fatalf("deferred ledger %+v differs from discard ledger %+v", de.Ledger, di.Ledger)
	}

	if got := def.ElidedFrac(tp); math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("elided = %v, want 0.65", got)
	}
	if got := def.DeferredFrac(tp); math.Abs(got-0.30) > 1e-12 {
		t.Fatalf("deferred frac = %v, want 0.30", got)
	}
	if got := dis.DeferredFrac(tp); got != 0 {
		t.Fatalf("discard-only deferred frac = %v, want 0", got)
	}
	if Deferred.String() != "deferred" {
		t.Fatalf("Deferred.String() = %q", Deferred.String())
	}
}

func TestOptimizeNeverEmitsDeferred(t *testing.T) {
	// Deferred is planner-only output: the selection-logic optimizer sweeps
	// the paper's on-board action set and must never pick it on its own.
	profiles := []TilingProfile{testProfile(3), testProfile(6)}
	sel, _ := Optimize(profiles, testEnv())
	for c, a := range sel.Actions {
		if a == Deferred {
			t.Fatalf("optimizer emitted Deferred for context %d", c)
		}
	}
}
