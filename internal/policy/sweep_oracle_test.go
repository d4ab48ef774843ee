package policy

import (
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// refExhaustiveSearch is the selection-logic sweep before the mask and
// prefix-sum enumeration: every code in odometer order, each evaluated in
// full and compared with better as it is produced. It is the oracle the
// production sweep must match exactly.
func refExhaustiveSearch(tp TilingProfile, env Env, combos int) (Selection, Estimate) {
	k := len(tp.Contexts)
	ev := newEvaluator(tp, env)
	sel := Selection{Tiling: tp.Tiling, Actions: make([]Action, k)}
	best := Selection{Tiling: tp.Tiling, Actions: make([]Action, k)}
	var bestEst Estimate
	first := true
	digits := make([]int, k)
	for i := range sel.Actions {
		sel.Actions[i] = optActions[0]
	}
	for code := 0; code < combos; code++ {
		if code > 0 {
			for i := 0; ; i++ {
				digits[i]++
				if digits[i] < len(optActions) {
					sel.Actions[i] = optActions[digits[i]]
					break
				}
				digits[i] = 0
				sel.Actions[i] = optActions[0]
			}
		}
		est := ev.evaluate(sel.Actions)
		if first || better(est, bestEst) {
			copy(best.Actions, sel.Actions)
			bestEst = est
			first = false
		}
	}
	return best, bestEst
}

// refOptimize is Optimize over refExhaustiveSearch (profiles here never
// exceed the exhaustive bound).
func refOptimize(profiles []TilingProfile, env Env) (Selection, Estimate) {
	env.UseEngine = true
	var best Selection
	var bestEst Estimate
	for i, tp := range profiles {
		combos := 1
		for range tp.Contexts {
			combos *= len(optActions)
		}
		sel, est := refExhaustiveSearch(tp, env, combos)
		if i == 0 || better(est, bestEst) {
			best, bestEst = sel, est
		}
	}
	return best, bestEst
}

// oracleProfile draws a k-context profile with the degenerate cases the
// sweep's tie handling must survive: exact duplicate contexts (exact
// ties), zero TileFrac, and zero-total confusions.
func oracleProfile(k int, rng *xrand.Rand) TilingProfile {
	tp := randomProfile(k, rng)
	for c := range tp.Contexts {
		switch rng.Intn(6) {
		case 0:
			tp.Contexts[c].TileFrac = 0
		case 1:
			if c > 0 {
				tp.Contexts[c] = tp.Contexts[rng.Intn(c)]
			}
		}
	}
	return tp
}

// oracleEnv draws an environment covering zero capacity, deadlines short
// enough that frames go unprocessed (p < 1), and FillIdle.
func oracleEnv(rng *xrand.Rand) Env {
	env := Env{
		App:          app.App(1 + rng.Intn(7)),
		Target:       hw.Targets()[rng.Intn(3)],
		Deadline:     time.Duration(rng.Range(0.05, 30) * float64(time.Second)),
		CapacityFrac: rng.Float64() * 1.5,
		FillIdle:     rng.Intn(2) == 0,
	}
	if rng.Intn(8) == 0 {
		env.CapacityFrac = 0
	}
	return env
}

// oracleK draws a context count in 1..8, weighted toward the cheap end:
// one 4^8 reference sweep costs as much as a thousand small ones.
func oracleK(trial int, rng *xrand.Rand) int {
	switch {
	case trial%32 == 1:
		return 8
	case trial%16 == 0:
		return 7
	}
	return 1 + rng.Intn(6)
}

// TestExhaustiveSearchMatchesReference pins the mask/prefix-sum sweep to
// the code-order reference: the same Selection and a bit-identical
// Estimate on every profile, k = 1..8.
func TestExhaustiveSearchMatchesReference(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 3200; trial++ {
		k := oracleK(trial, rng)
		n := 1 + rng.Intn(2)
		if k > 6 {
			n = 1
		}
		var profiles []TilingProfile
		for len(profiles) < n {
			profiles = append(profiles, oracleProfile(k, rng))
		}
		if trial%5 == 0 && len(profiles) > 1 {
			// Identical profiles at two tilings tie across tilings too.
			profiles[1].Contexts = profiles[0].Contexts
		}
		env := oracleEnv(rng)
		gotSel, gotEst := Optimize(profiles, env)
		wantSel, wantEst := refOptimize(profiles, env)
		if !sameSelection(gotSel, wantSel) || !estimatesIdentical(gotEst, wantEst) {
			t.Fatalf("trial %d (k=%d, env %+v):\n got  %v %+v\n want %v %+v",
				trial, k, env, gotSel, gotEst, wantSel, wantEst)
		}
	}
}

// TestExhaustiveSearchNoContexts covers the empty profile: one candidate,
// the empty selection.
func TestExhaustiveSearchNoContexts(t *testing.T) {
	tp := TilingProfile{Tiling: tiling.Tiling{PerSide: 3}}
	env := testEnv()
	env.UseEngine = true
	gotSel, gotEst := exhaustiveSearch(tp, env)
	wantSel, wantEst := refExhaustiveSearch(tp, env, 1)
	if !sameSelection(gotSel, wantSel) || !estimatesIdentical(gotEst, wantEst) {
		t.Fatalf("got %v %+v, want %v %+v", gotSel, gotEst, wantSel, wantEst)
	}
}

func sameSelection(a, b Selection) bool {
	if a.Tiling != b.Tiling || len(a.Actions) != len(b.Actions) {
		return false
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			return false
		}
	}
	return true
}

// refHillClimb is the selection-logic hill climb kept verbatim as the
// oracle for profiles past the exhaustive bound: start all-specialized,
// then sweep the contexts in order, taking every single-action change
// better accepts, until a full pass changes nothing.
func refHillClimb(tp TilingProfile, env Env) (Selection, Estimate) {
	k := len(tp.Contexts)
	ev := newEvaluator(tp, env)
	sel := Selection{Tiling: tp.Tiling, Actions: make([]Action, k)}
	for i := range sel.Actions {
		sel.Actions[i] = Specialized
	}
	est := ev.evaluate(sel.Actions)
	for improved := true; improved; {
		improved = false
		for i := 0; i < k; i++ {
			orig := sel.Actions[i]
			for a := Action(0); a < numActions; a++ {
				if a == orig {
					continue
				}
				sel.Actions[i] = a
				cand := ev.evaluate(sel.Actions)
				if better(cand, est) {
					est = cand
					improved = true
					orig = a
				} else {
					sel.Actions[i] = orig
				}
			}
		}
	}
	return sel, est
}

// TestHillClimbMatchesReference pins the path past the exhaustive bound
// (k = 9..12) to refHillClimb: the same Selection and a bit-identical
// Estimate across FillIdle and a capacity grid. No golden reaches this
// path; only the full-size ablation-k K=10 row does.
func TestHillClimbMatchesReference(t *testing.T) {
	rng := xrand.New(53)
	for k := 9; k <= 12; k++ {
		for _, fill := range []bool{false, true} {
			for _, capacity := range []float64{0, 0.05, 0.21, 0.6, 2} {
				for trial := 0; trial < 10; trial++ {
					profiles := []TilingProfile{oracleProfile(k, rng), oracleProfile(k, rng)}
					env := Env{
						App:          app.App(1 + rng.Intn(7)),
						Target:       hw.Targets()[rng.Intn(3)],
						Deadline:     time.Duration(rng.Range(0.05, 30) * float64(time.Second)),
						CapacityFrac: capacity,
						FillIdle:     fill,
					}
					gotSel, gotEst := Optimize(profiles, env)
					env.UseEngine = true
					var wantSel Selection
					var wantEst Estimate
					for i, tp := range profiles {
						sel, est := refHillClimb(tp, env)
						if i == 0 || better(est, wantEst) {
							wantSel, wantEst = sel, est
						}
					}
					if !sameSelection(gotSel, wantSel) || !estimatesIdentical(gotEst, wantEst) {
						t.Fatalf("k=%d fill=%v capacity=%v trial %d:\n got  %v %+v\n want %v %+v",
							k, fill, capacity, trial, gotSel, gotEst, wantSel, wantEst)
					}
				}
			}
		}
	}
}
