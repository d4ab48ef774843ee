package kodan

import (
	"bytes"
	"testing"
	"time"
)

var epoch = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

// testSystem builds a down-sized system for API tests.
func testSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultTransformConfig(2023)
	cfg.Frames = 60
	cfg.TileRes = 16
	cfg.Tilings = []Tiling{{PerSide: 3}, {PerSide: 6}}
	sys, err := NewSystemCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicCatalog(t *testing.T) {
	if len(Applications()) != 7 {
		t.Fatal("wrong application count")
	}
	if len(Targets()) != 3 {
		t.Fatal("wrong target count")
	}
	wantTiles := []int{121, 36, 16, 9}
	for i, tl := range PaperTilings() {
		if tl.Tiles() != wantTiles[i] {
			t.Fatalf("tiling %d = %d tiles", i, tl.Tiles())
		}
	}
}

func TestLandsatMission(t *testing.T) {
	m, err := LandsatMission(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.FrameDeadline.Seconds(); d < 21 || d > 26 {
		t.Fatalf("frame deadline = %.1f s", d)
	}
	if m.FramesPerDay < 3300 || m.FramesPerDay > 3900 {
		t.Fatalf("frames/day = %.0f", m.FramesPerDay)
	}
	if m.CapacityFrac < 0.15 || m.CapacityFrac > 0.28 {
		t.Fatalf("capacity fraction = %.3f", m.CapacityFrac)
	}
	if m.FrameBits < 5e9 || m.FrameBits > 9e9 {
		t.Fatalf("frame bits = %.2e", m.FrameBits)
	}
}

func TestEndToEndHeadlineResult(t *testing.T) {
	// The paper's headline: Kodan improves DVD by 89-97% over the bent
	// pipe. With the down-sized test transformation we accept a wider
	// band but demand a large improvement and a met deadline.
	sys := testSystem(t)
	m, err := LandsatMission(epoch)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.TransformVariantCtx(t.Context(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Deployment(Orin15W)
	_, est := a.SelectionLogic(d)
	bent := a.BentPipe(d)
	improvement := est.DVD/bent.DVD - 1
	if improvement < 0.5 {
		t.Fatalf("Kodan improvement = %.0f%%, want large", improvement*100)
	}
	if est.ProcessedFrac < 0.999 {
		t.Fatalf("Kodan missed the deadline")
	}
	// Direct deploy at the accuracy-maximal tiling is worse than Kodan.
	direct, err := a.DirectDeploy(d, Tiling{PerSide: 6})
	if err != nil {
		t.Fatal(err)
	}
	if est.DVD <= direct.DVD {
		t.Fatalf("Kodan %.3f not above direct %.3f", est.DVD, direct.DVD)
	}
}

func TestTransformRejectsBadIndex(t *testing.T) {
	sys := testSystem(t)
	for _, idx := range []int{0, 8, -1} {
		if _, err := sys.TransformVariantCtx(t.Context(), idx, false); err == nil {
			t.Fatalf("index %d accepted", idx)
		}
	}
}

func TestContextsExposed(t *testing.T) {
	sys := testSystem(t)
	if sys.ContextCount() < 2 {
		t.Fatal("too few contexts")
	}
	if len(sys.Contexts()) != sys.ContextCount() {
		t.Fatal("context stats mismatch")
	}
}

func TestRuntimeFromPublicAPI(t *testing.T) {
	sys := testSystem(t)
	m, err := LandsatMission(epoch)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.TransformVariantCtx(t.Context(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := a.SelectionLogic(m.Deployment(Orin15W))
	rt, err := a.Runtime(sel, Orin15W, m.FrameBits)
	if err != nil {
		t.Fatal(err)
	}
	if rt.TileBits <= 0 {
		t.Fatal("runtime tile bits not set")
	}
	// Evaluate matches the logic's own estimate for the same selection.
	est1, err := a.Evaluate(sel, m.Deployment(Orin15W))
	if err != nil {
		t.Fatal(err)
	}
	_, est2 := a.SelectionLogic(m.Deployment(Orin15W))
	if est1.DVD != est2.DVD {
		t.Fatalf("Evaluate %.4f != SelectionLogic %.4f", est1.DVD, est2.DVD)
	}
}

func TestBundleRoundTripThroughPublicAPI(t *testing.T) {
	sys := testSystem(t)
	m, err := LandsatMission(epoch)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.TransformVariantCtx(t.Context(), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Deployment(Orin15W)
	sel, est := a.SelectionLogic(d)

	var buf bytes.Buffer
	if err := a.ExportBundle(&buf, d, sel, est); err != nil {
		t.Fatal(err)
	}
	back, err := ImportSelection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tiling != sel.Tiling || len(back.Actions) != len(sel.Actions) {
		t.Fatal("selection changed through serialization")
	}
	for i := range sel.Actions {
		if back.Actions[i] != sel.Actions[i] {
			t.Fatalf("action %d changed", i)
		}
	}
	// The reimported logic evaluates identically.
	est2, err := a.Evaluate(back, d)
	if err != nil {
		t.Fatal(err)
	}
	if est2.DVD != est.DVD {
		t.Fatalf("reimported DVD %.4f != %.4f", est2.DVD, est.DVD)
	}
}

// TestImportSelectionHostileInputs verifies that untrusted bundle bytes —
// truncated, version-skewed, or value-corrupted — surface as descriptive
// errors from the public API and never panic or yield a usable Selection.
func TestImportSelectionHostileInputs(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"truncated":        `{"schemaVersion":1,"tilesPerSide":3,"contexts":[{"ac`,
		"wrong version":    `{"schemaVersion":7,"tilesPerSide":3,"contexts":[{"action":"discard"}]}`,
		"negative tiling":  `{"schemaVersion":1,"tilesPerSide":-1,"contexts":[{"action":"discard"}]}`,
		"unknown action":   `{"schemaVersion":1,"tilesPerSide":3,"contexts":[{"action":"teleport"}]}`,
		"contexts missing": `{"schemaVersion":1,"tilesPerSide":3}`,
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("ImportSelection panicked: %v", rec)
				}
			}()
			sel, err := ImportSelection(bytes.NewReader([]byte(raw)))
			if err == nil {
				t.Fatalf("hostile bundle accepted: %+v", sel)
			}
			if err.Error() == "" {
				t.Fatal("error has no description")
			}
		})
	}
}

// TestPlanHybridFromPublicAPI exercises the hybrid planner facade: a plan
// over the tiny system's contexts, placement/action consistency, and the
// mission-derived environment helper.
func TestPlanHybridFromPublicAPI(t *testing.T) {
	sys := testSystem(t)
	a, err := sys.TransformVariantCtx(t.Context(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	d := Deployment{Target: Orin15W, Deadline: 24 * time.Second, CapacityFrac: 0.21, FillIdle: true}
	env := Mission{ContactGapFrames: 10}.HybridEnv()
	plan, err := a.PlanHybrid(d, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Dispositions) == 0 || len(plan.Dispositions) != len(plan.Actions) ||
		len(plan.Dispositions) != len(plan.Base.Actions) {
		t.Fatalf("plan shape: %d dispositions, %d actions, %d base actions",
			len(plan.Dispositions), len(plan.Actions), len(plan.Base.Actions))
	}
	for i, disp := range plan.Dispositions {
		switch disp {
		case PlaceOnboard:
			if plan.Actions[i] != plan.Base.Actions[i] {
				t.Errorf("context %d: onboard action %v != base %v", i, plan.Actions[i], plan.Base.Actions[i])
			}
		case PlaceDownlinkNow:
			if plan.Actions[i] != Downlink {
				t.Errorf("context %d: downlink-now mapped to %v", i, plan.Actions[i])
			}
		case PlaceDefer:
			if plan.Actions[i] != Deferred {
				t.Errorf("context %d: defer mapped to %v", i, plan.Actions[i])
			}
		case PlaceDrop:
			if plan.Actions[i] != Discard {
				t.Errorf("context %d: drop mapped to %v", i, plan.Actions[i])
			}
		}
	}
	ev := plan.Eval
	if sum := ev.OnboardFrac + ev.DownlinkFrac + ev.DeferFrac + ev.DropFrac; sum < 0.99 || sum > 1.01 {
		t.Errorf("placement fractions sum to %.4f", sum)
	}

	// The mission helper carries the contact cadence into the planner env.
	m, err := LandsatMission(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if m.ContactGapFrames < 1 {
		t.Fatalf("mission contact gap = %.2f frames", m.ContactGapFrames)
	}
	menv := m.HybridEnv()
	if menv.FramesBetweenContacts != m.ContactGapFrames || menv.BufferFrames != 64 {
		t.Fatalf("HybridEnv = %+v", menv)
	}
	if _, err := a.PlanHybrid(m.Deployment(Orin15W), menv); err != nil {
		t.Fatal(err)
	}
}
