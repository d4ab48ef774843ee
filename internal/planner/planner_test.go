package planner

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/link"
	"kodan/internal/nn"
	"kodan/internal/policy"
	"kodan/internal/power"
	"kodan/internal/sense"
	"kodan/internal/sim"
	"kodan/internal/tiling"
)

var epoch = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

// conf builds a confusion matrix from rates over a nominal population.
func conf(tpr, fpr, baseRate float64) nn.Confusion {
	const n = 10000
	pos := int(baseRate * n)
	neg := n - pos
	tp := int(tpr * float64(pos))
	fp := int(fpr * float64(neg))
	return nn.Confusion{TP: tp, FN: pos - tp, FP: fp, TN: neg - fp}
}

// testProfile mirrors the policy package's 3-context fixture: near-pure
// high-value, near-pure low-value, and mixed.
func testProfile() policy.TilingProfile {
	return policy.TilingProfile{
		Tiling: tiling.Tiling{PerSide: 3},
		Contexts: []policy.ContextProfile{
			{TileFrac: 0.30, HighValueFrac: 0.95, Generic: conf(0.90, 0.30, 0.95), Special: conf(0.95, 0.20, 0.95)},
			{TileFrac: 0.35, HighValueFrac: 0.05, Generic: conf(0.80, 0.15, 0.05), Special: conf(0.90, 0.05, 0.05)},
			{TileFrac: 0.35, HighValueFrac: 0.50, Generic: conf(0.85, 0.25, 0.50), Special: conf(0.92, 0.10, 0.50)},
		},
	}
}

func testEnv() Env {
	return Env{
		Policy: policy.Env{
			App:          app.App(4),
			Target:       hw.Orin15W,
			Deadline:     24 * time.Second,
			CapacityFrac: 0.21,
			UseEngine:    true,
		},
		Costs:                 DefaultCosts(),
		BufferFrames:          64,
		FramesBetweenContacts: 10,
	}
}

// baseFor runs the selection-logic optimizer for the fixture.
func baseFor(prof policy.TilingProfile, env Env) policy.Selection {
	sel, _ := policy.Optimize([]policy.TilingProfile{prof}, env.Policy)
	return sel
}

func TestDecideDeterministic(t *testing.T) {
	prof := testProfile()
	env := testEnv()
	base := baseFor(prof, env)
	a, err := DecideCtx(t.Context(), prof, base, env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecideCtx(t.Context(), prof, base, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Dispositions) != len(prof.Contexts) {
		t.Fatalf("dispositions = %v", a.Dispositions)
	}
	for i := range a.Dispositions {
		if a.Dispositions[i] != b.Dispositions[i] {
			t.Fatalf("nondeterministic: %v vs %v", a.Dispositions, b.Dispositions)
		}
	}
	if a.Eval != b.Eval {
		t.Fatalf("nondeterministic eval: %+v vs %+v", a.Eval, b.Eval)
	}
}

func TestCheapGroundPullsWorkToDefer(t *testing.T) {
	// With free ground compute and ample capacity, finishing frames on
	// the ground (full value, no FN loss, no on-board energy) dominates
	// both on-board processing and discounted raw downlink for the
	// high-value contexts.
	prof := testProfile()
	env := testEnv()
	env.Policy.CapacityFrac = 2
	env.Costs.GroundPerFrame = 0
	plan, err := DecideCtx(t.Context(), prof, baseFor(prof, env), env)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Eval.DeferFrac <= 0 {
		t.Fatalf("no deferral under free ground compute: %+v dispositions %v",
			plan.Eval, plan.Dispositions)
	}
	// Expensive ground compute must push deferral away entirely.
	env.Costs.GroundPerFrame = 100
	plan2, err := DecideCtx(t.Context(), prof, baseFor(prof, env), env)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Eval.DeferFrac != 0 {
		t.Fatalf("deferral survived 100x ground cost: %v", plan2.Dispositions)
	}
	if plan2.Eval.Utility > plan.Eval.Utility+1e-9 {
		t.Fatal("utility rose with ground cost")
	}
}

func TestTightLinkKeepsProcessingOnboard(t *testing.T) {
	// When the link pool is far below a raw frame, only compressed
	// on-board output (or dropping) fits: the plan must not place raw
	// bits it cannot downlink.
	prof := testProfile()
	env := testEnv()
	env.Policy.CapacityFrac = 0.1
	plan, err := DecideCtx(t.Context(), prof, baseFor(prof, env), env)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Eval.NowBits + plan.Eval.DeferBits; got > env.Policy.CapacityFrac+1e-9 {
		t.Fatalf("planned %v frame-fractions into a %v pool", got, env.Policy.CapacityFrac)
	}
	if plan.Eval.DownlinkFrac+plan.Eval.DeferFrac > 0.2 {
		t.Fatalf("raw placements under a starved link: %v", plan.Dispositions)
	}
}

func TestBufferConstraintBlocksDeferral(t *testing.T) {
	// Same pricing as the defer-friendly case, but contacts so sparse the
	// buffer cannot hold a single context's backlog between them.
	prof := testProfile()
	env := testEnv()
	env.Policy.CapacityFrac = 2
	env.Costs.GroundPerFrame = 0
	env.BufferFrames = 1
	env.FramesBetweenContacts = 1000
	plan, err := DecideCtx(t.Context(), prof, baseFor(prof, env), env)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Eval.DeferFrac != 0 {
		t.Fatalf("deferral despite a full buffer: %v", plan.Dispositions)
	}
}

func TestZeroCapacityFallsBackToDropOrDiscard(t *testing.T) {
	prof := testProfile()
	env := testEnv()
	env.Policy.CapacityFrac = 0
	plan, err := DecideCtx(t.Context(), prof, baseFor(prof, env), env)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Eval.NowBits != 0 || plan.Eval.DeferBits != 0 {
		t.Fatalf("bits planned into a zero-capacity link: %+v", plan.Eval)
	}
}

func TestActionsMapOntoPolicySet(t *testing.T) {
	prof := testProfile()
	env := testEnv()
	base := baseFor(prof, env)
	plan, err := DecideCtx(t.Context(), prof, base, env)
	if err != nil {
		t.Fatal(err)
	}
	for c, d := range plan.Dispositions {
		want := policy.Discard
		switch d {
		case Onboard:
			want = base.Actions[c]
		case DownlinkNow:
			want = policy.Downlink
		case Defer:
			want = policy.Deferred
		}
		if plan.Actions[c] != want {
			t.Fatalf("context %d: disposition %v mapped to %v", c, d, plan.Actions[c])
		}
	}
}

func TestValidateTypedErrors(t *testing.T) {
	env := testEnv()
	env.Policy.Deadline = 0
	if _, err := DecideCtx(t.Context(), testProfile(), policy.Selection{}, env); !errors.Is(err, power.ErrBadDeadline) {
		t.Fatalf("zero deadline: %v", err)
	}
	env = testEnv()
	env.Costs.RawDiscount = 1.5
	if _, err := DecideCtx(t.Context(), testProfile(), policy.Selection{}, env); err == nil || !strings.Contains(err.Error(), "discount") {
		t.Fatalf("bad raw discount: %v", err)
	}
	env = testEnv()
	if _, err := DecideCtx(t.Context(), testProfile(), policy.Selection{}, env); err == nil {
		t.Fatal("action/context mismatch accepted")
	}
}

func TestDispositionStrings(t *testing.T) {
	for d, want := range map[Disposition]string{
		Onboard: "onboard", DownlinkNow: "downlink-now", Defer: "defer", Drop: "drop",
	} {
		if d.String() != want {
			t.Errorf("%d -> %q", d, d.String())
		}
	}
	if got := Disposition(99).String(); got != "disposition(99)" {
		t.Errorf("unknown disposition -> %q", got)
	}
}

func TestDeriveLinkFromSyntheticResult(t *testing.T) {
	res := &sim.Result{Config: sim.Config{
		Epoch: epoch,
		Span:  time.Hour,
		Radio: link.Radio{RateBps: 100},
	}}
	res.Captures = [][]sense.Capture{make([]sense.Capture, 40)}
	res.Grants = []link.Grant{
		{Sat: 0, Start: epoch, Dur: 10 * time.Second},
		{Sat: 0, Start: epoch.Add(time.Minute), Dur: 10 * time.Second},
	}
	res.Served = []time.Duration{20 * time.Second}
	res.Config.Camera = sense.Landsat8MS()
	li := DeriveLink(res)
	if li.Contacts != 2 {
		t.Fatalf("contacts = %d", li.Contacts)
	}
	if li.FramesBetweenContacts != 20 {
		t.Fatalf("frames between contacts = %v", li.FramesBetweenContacts)
	}
	wantCap := 100.0 * 20 / res.Config.Camera.FrameBits() / 40
	if math.Abs(li.CapacityFrac-wantCap) > 1e-12 {
		t.Fatalf("capacity = %v, want %v", li.CapacityFrac, wantCap)
	}

	// No grants: deferred work waits out the span.
	res.Grants = nil
	res.Served = []time.Duration{0}
	li = DeriveLink(res)
	if li.Contacts != 0 || li.FramesBetweenContacts != 40 {
		t.Fatalf("no-contact inputs: %+v", li)
	}

	env := testEnv().WithLink(li)
	if env.Policy.CapacityFrac != li.CapacityFrac || env.FramesBetweenContacts != 40 {
		t.Fatalf("WithLink: %+v", env)
	}
}

func TestStationOutageChangesPlan(t *testing.T) {
	// The fault-aware path: plan against a fault-free day, then against
	// the same day with every station out. Capacity collapses to zero, so
	// the planner must abandon every downlink placement it chose before.
	prof := testProfile()
	env := testEnv()
	env.Policy.CapacityFrac = 2
	env.Costs.GroundPerFrame = 0
	basePlan, err := DecideCtx(t.Context(), prof, baseFor(prof, env), env)
	if err != nil {
		t.Fatal(err)
	}
	if basePlan.Eval.NowBits+basePlan.Eval.DeferBits == 0 {
		t.Fatal("fault-free plan downlinks nothing")
	}
	outage := env.WithLink(LinkInputs{CapacityFrac: 0, FramesBetweenContacts: 1000})
	outPlan, err := DecideCtx(t.Context(), prof, baseFor(prof, outage), outage)
	if err != nil {
		t.Fatal(err)
	}
	if outPlan.Eval.NowBits+outPlan.Eval.DeferBits != 0 {
		t.Fatalf("outage plan still downlinks: %+v", outPlan.Eval)
	}
	same := true
	for i := range basePlan.Dispositions {
		if basePlan.Dispositions[i] != outPlan.Dispositions[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("plan unchanged under total outage: %v", basePlan.Dispositions)
	}
}

func TestHillClimbFallbackOnManyContexts(t *testing.T) {
	// 9 contexts exceed the exhaustive bound (4^9 > 65536): the climb path
	// must still return a feasible, deterministic plan.
	prof := policy.TilingProfile{Tiling: tiling.Tiling{PerSide: 3}}
	var actions []policy.Action
	for i := 0; i < 9; i++ {
		h := 0.1 * float64(i)
		prof.Contexts = append(prof.Contexts, policy.ContextProfile{
			TileFrac:      1.0 / 9,
			HighValueFrac: h,
			Special:       conf(0.9, 0.1, h),
			Generic:       conf(0.85, 0.2, h),
		})
		actions = append(actions, policy.Specialized)
	}
	env := testEnv()
	base := policy.Selection{Tiling: prof.Tiling, Actions: actions}
	a, err := DecideCtx(t.Context(), prof, base, env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecideCtx(t.Context(), prof, base, env)
	if err != nil {
		t.Fatal(err)
	}
	if a.Eval != b.Eval {
		t.Fatalf("hill climb nondeterministic: %+v vs %+v", a.Eval, b.Eval)
	}
	if got := a.Eval.NowBits + a.Eval.DeferBits; got > env.Policy.CapacityFrac+1e-9 {
		t.Fatalf("infeasible climb result: %v bits", got)
	}
}
